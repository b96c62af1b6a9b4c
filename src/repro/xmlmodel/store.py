"""Columnar document store: the :class:`NodeTable`.

The object tree of :mod:`repro.xmlmodel.nodes` is the reference data
model, but pointer-chasing over Python objects is the wrong shape for
the serving hot path: every axis step touches one node at a time and
pays attribute lookups, method dispatch, and identity bookkeeping per
visit.  ``NodeTable`` flattens one document into parallel arrays built
in a single preorder pass — the classic pre/post interval encoding
that makes structural joins possible:

* rows are numbered in document order (preorder); *every* node gets a
  row, elements and text leaves alike, so a row id doubles as a
  document-order sort key;
* ``end[r]`` closes the subtree interval: the descendants of row ``r``
  are exactly the rows in ``(r, end[r])``, and descendant-axis steps
  become interval joins instead of subtree walks;
* ``parent[r]`` / ``depth[r]`` give upward navigation without touching
  node objects;
* ``label_ids[r]`` holds an interned integer label (text rows carry
  the reserved ``#text`` label), so label predicates are integer
  compares;
* ``postings[label_id]`` is the ascending row list of one label — the
  partitioned posting lists that descendant kernels slice with two
  binary searches per context interval;
* ``first_child[r]`` / ``next_sibling[r]`` encode the child axis as a
  linked scan over rows (``-1`` terminates);
* ``height`` is the tree's height in element levels (a lone root
  element has height 1), recorded during the build so a recursive
  view's unfolding bound costs no extra walk.

The table is immutable with respect to the document: rebuild after
structural updates (the engine caches one per document and drops it
in ``invalidate``).  ``nodes[r]`` maps a row back to the original node
object, so columnar results are the *same* objects the interpreter
returns.
"""

from __future__ import annotations

from array import array
from bisect import bisect_left, bisect_right
from time import perf_counter
from typing import Dict, List, Optional, Tuple

from repro.obs.metrics import metrics_enabled, observe, record

#: Reserved label for text rows; "#" cannot start an XML name, so the
#: label can never collide with an element type.
TEXT_LABEL = "#text"


class NodeTable:
    """Parallel-array (columnar) encoding of one document tree."""

    __slots__ = (
        "root",
        "size",
        "end",
        "parent",
        "depth",
        "label_ids",
        "first_child",
        "next_sibling",
        "labels",
        "label_index",
        "postings",
        "nodes",
        "text_label_id",
        "height",
        "_row_of",
    )

    def __init__(self, root):
        self.root = root
        self.labels: List[str] = []
        self.label_index: Dict[str, int] = {}
        self.text_label_id = self._intern(TEXT_LABEL)
        self.end = array("q")
        self.parent = array("q")
        self.depth = array("q")
        self.label_ids = array("q")
        self.first_child = array("q")
        self.next_sibling = array("q")
        self.postings: List[array] = [array("q")]
        self.nodes: List[object] = []
        self._row_of: Dict[int, int] = {}
        started = perf_counter() if metrics_enabled() else None
        self._build(root)
        self.size = len(self.nodes)
        if started is not None:
            record("node_table.builds")
            observe("node_table.build_seconds", perf_counter() - started)
            observe("node_table.rows", self.size)

    # -- construction --------------------------------------------------

    def _intern(self, label: str) -> int:
        label_id = self.label_index.get(label)
        if label_id is None:
            label_id = len(self.labels)
            self.labels.append(label)
            self.label_index[label] = label_id
        return label_id

    def _build(self, root) -> None:
        end = self.end
        parent = self.parent
        depth = self.depth
        label_ids = self.label_ids
        first_child = self.first_child
        next_sibling = self.next_sibling
        postings = self.postings
        nodes = self.nodes
        row_of = self._row_of
        text_label_id = self.text_label_id
        deepest = -1

        # iterative preorder: (node, parent_row, depth); a second stack
        # of open rows closes subtree intervals on the way back up
        stack: List[Tuple[object, int, int]] = [(root, -1, 0)]
        last_child: Dict[int, int] = {}
        while stack:
            node, parent_row, node_depth = stack.pop()
            if node is None:  # close marker: parent_row is the row
                end[parent_row] = len(nodes)
                continue
            row = len(nodes)
            nodes.append(node)
            row_of[id(node)] = row
            parent.append(parent_row)
            depth.append(node_depth)
            first_child.append(-1)
            next_sibling.append(-1)
            end.append(row + 1)  # leaves close immediately
            if parent_row >= 0:
                previous = last_child.get(parent_row, -1)
                if previous < 0:
                    first_child[parent_row] = row
                else:
                    next_sibling[previous] = row
                last_child[parent_row] = row
            if node.is_element:
                if node_depth > deepest:
                    deepest = node_depth
                label_id = self._intern(node.label)
                label_ids.append(label_id)
                while len(postings) <= label_id:
                    postings.append(array("q"))
                postings[label_id].append(row)
                children = node.children
                if children:
                    stack.append((None, row, 0))  # close marker
                    for child in reversed(children):
                        stack.append((child, row, node_depth + 1))
            else:
                label_ids.append(text_label_id)
                postings[text_label_id].append(row)
        self.height = deepest + 1

    # -- row <-> node mapping ------------------------------------------

    def covers(self, node) -> bool:
        """Is the node part of the encoded tree?"""
        return id(node) in self._row_of

    def row(self, node) -> Optional[int]:
        """The document-order row of a node (``None`` if foreign)."""
        return self._row_of.get(id(node))

    def node_at(self, row: int):
        return self.nodes[row]

    # -- structure queries ---------------------------------------------

    def element_count(self) -> int:
        return self.size - len(self.postings[self.text_label_id])

    def is_element_row(self, row: int) -> bool:
        return self.label_ids[row] != self.text_label_id

    def interval(self, row: int) -> Tuple[int, int]:
        """The half-open subtree interval ``[row, end)`` of a row."""
        return row, self.end[row]

    def label_id(self, label: str) -> Optional[int]:
        """The interned id of a label (``None`` if the label does not
        occur in the document)."""
        return self.label_index.get(label)

    def posting(self, label: str):
        """Ascending rows carrying ``label`` (empty for unknown)."""
        label_id = self.label_index.get(label)
        return self.postings[label_id] if label_id is not None else ()

    def string_value(self, row: int) -> str:
        """The XPath string-value of a row: its own text for text rows,
        the concatenated descendant text in document order otherwise.
        Answered from the ``#text`` posting list with two binary
        searches instead of a subtree walk."""
        if self.label_ids[row] == self.text_label_id:
            return self.nodes[row].value
        texts = self.postings[self.text_label_id]
        low = bisect_left(texts, row)
        high = bisect_left(texts, self.end[row])
        nodes = self.nodes
        return "".join(nodes[texts[i]].value for i in range(low, high))

    def descendant_rows_with_label(self, row: int, label: str) -> List[int]:
        """Rows of *proper* descendants of ``row`` carrying ``label``,
        ascending.  O(log n + answer)."""
        label_id = self.label_index.get(label)
        if label_id is None:
            return []
        posting = self.postings[label_id]
        low = bisect_right(posting, row)
        high = bisect_left(posting, self.end[row])
        return list(posting[low:high])

    def nbytes(self) -> int:
        """Estimated resident bytes of the table's own structures:
        exact for the fixed-width columns and postings
        (``itemsize * len``), container-overhead estimates
        (``sys.getsizeof``) for the label list, the row map, and the
        node back-pointer list.  The node *objects* belong to the
        document, not the table, and are not counted."""
        import sys

        columns = (
            self.end,
            self.parent,
            self.depth,
            self.label_ids,
            self.first_child,
            self.next_sibling,
        )
        total = sum(column.itemsize * len(column) for column in columns)
        total += sum(
            posting.itemsize * len(posting) for posting in self.postings
        )
        total += sys.getsizeof(self.nodes)
        total += sys.getsizeof(self._row_of)
        total += sys.getsizeof(self.labels)
        total += sum(sys.getsizeof(label) for label in self.labels)
        total += sys.getsizeof(self.label_index)
        return total

    def __len__(self) -> int:
        return self.size

    def __repr__(self) -> str:
        return "NodeTable(%d rows, %d labels)" % (
            self.size,
            len(self.labels),
        )


def build_node_table(root) -> NodeTable:
    """Convenience constructor."""
    return NodeTable(root)
