"""XML document model, parser, and serializer.

This subpackage is a self-contained, from-scratch substrate: an ordered
tree model with element and text nodes (the data model of the paper's
Section 2), a parser for the XML subset the library emits, and
serializers.  The package is named ``xmlmodel`` rather than ``xml`` to
avoid shadowing the standard library.
"""

from repro.xmlmodel.nodes import XMLElement, XMLText, new_document, subtree_copy
from repro.xmlmodel.parser import parse_document, parse_fragment
from repro.xmlmodel.serialize import serialize, pretty_print
from repro.xmlmodel.store import NodeTable, build_node_table

__all__ = [
    "XMLElement",
    "XMLText",
    "new_document",
    "subtree_copy",
    "parse_document",
    "parse_fragment",
    "serialize",
    "pretty_print",
    "NodeTable",
    "build_node_table",
]
