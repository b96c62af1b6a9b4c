"""Canonical query fingerprints: the *shape* of an XPath query.

Workload analytics (see :mod:`repro.obs.workload`) needs to group
queries by structure, not by text: ``//patient[wardNo = "1"]`` and
``//patient[wardNo = "7"]`` are the same query shape with different
constants, and a view-selection policy should see them as one heavy
hitter, not two singletons.  A :class:`Fingerprint` is therefore
computed from the **normalized AST**: every comparison constant (and
every still-unbound ``$parameter``) is masked to the placeholder
``$_`` and the masked tree is serialized through the AST's canonical
``str()`` form — the same serialization the plan cache keys on, so
structurally equal queries always share one shape string.

The digest is a stable 64-bit BLAKE2b hex string of the shape, so
fingerprints computed in different processes (a serving fleet, an
offline log aggregator) agree.  Python's own ``hash()`` is
per-process-salted and deliberately not used.

The same walk makes the plan cache's key.  :func:`parameterize` splits
a parsed query into a *template*, with each comparison constant
replaced by its own positional slot parameter (``$_0``, ``$_1``, ...,
never the shared ``$_``), and the tuple of constants; the engine
compiles one plan per template and binds the constants when the plan
runs (:class:`~repro.xpath.plan.PlanRuntime`), and
:class:`BoundQuery` substitutes them back for whoever renders the
compiled queries.  A template's fingerprint is its query's, so the
engine computes it once at plan-compile time and stores it on the
:class:`~repro.core.plancache.CompiledQuery`.
"""

from __future__ import annotations

import re
from hashlib import blake2b
from typing import List, Optional, Tuple, Union as TypingUnion

from repro.xpath.ast import (
    Absolute,
    Descendant,
    Empty,
    EpsilonPath,
    Label,
    Param,
    Parent,
    Path,
    QAnd,
    QAttr,
    QAttrEquals,
    QBool,
    QEquals,
    QNot,
    QOr,
    QPath,
    Qualified,
    Qualifier,
    Slash,
    TextStep,
    Union,
    Wildcard,
)

__all__ = [
    "BoundQuery",
    "Fingerprint",
    "bind_template",
    "fingerprint_shape",
    "parameterize",
    "query_fingerprint",
    "slot_index",
]

#: The placeholder every comparison constant normalizes to.
_MASK = Param("_")

#: Names of template slot parameters (:func:`parameterize`).
_SLOT = re.compile(r"_(\d+)")

#: Shape used when a query string cannot be parsed at all (the error
#: accounting path still wants a stable bucket for it).
UNPARSED_SHAPE = "!unparsed"


class Fingerprint:
    """One query shape: the masked canonical serialization plus its
    stable hex digest.  ``str()`` (and equality/hashing) use the
    digest, so a fingerprint drops into event fields, metric labels,
    and dict keys as a short opaque id."""

    __slots__ = ("digest", "shape")

    def __init__(self, digest: str, shape: str):
        self.digest = digest
        self.shape = shape

    def __str__(self) -> str:
        return self.digest

    def __eq__(self, other):
        if isinstance(other, Fingerprint):
            return self.digest == other.digest
        if isinstance(other, str):
            return self.digest == other
        return NotImplemented

    def __hash__(self):
        return hash(self.digest)

    def __repr__(self):
        return "Fingerprint(%s, %r)" % (self.digest, self.shape)


def _digest(shape: str) -> str:
    return blake2b(shape.encode("utf-8"), digest_size=8).hexdigest()


def _map_path(path: Path, replace) -> Path:
    """``path`` rebuilt with every comparison constant ``c`` replaced by
    ``replace(c)``, visited in preorder (a comparison's own constant
    before the constants inside its path)."""
    if isinstance(
        path, (Empty, EpsilonPath, Label, Wildcard, TextStep, Parent)
    ):
        return path
    if isinstance(path, Slash):
        left = _map_path(path.left, replace)
        return Slash(left, _map_path(path.right, replace))
    if isinstance(path, Descendant):
        return Descendant(_map_path(path.inner, replace))
    if isinstance(path, Union):
        return Union([_map_path(branch, replace) for branch in path.branches])
    if isinstance(path, Qualified):
        inner = _map_path(path.path, replace)
        return Qualified(inner, _map_qualifier(path.qualifier, replace))
    if isinstance(path, Absolute):
        return Absolute(_map_path(path.inner, replace))
    raise TypeError("unknown path node %r" % path)


def _map_qualifier(qualifier: Qualifier, replace) -> Qualifier:
    if isinstance(qualifier, QBool):
        return qualifier
    if isinstance(qualifier, QPath):
        return QPath(_map_path(qualifier.path, replace))
    if isinstance(qualifier, QEquals):
        value = replace(qualifier.value)
        return QEquals(_map_path(qualifier.path, replace), value)
    if isinstance(qualifier, QAttr):
        return QAttr(qualifier.name, _map_path(qualifier.path, replace))
    if isinstance(qualifier, QAttrEquals):
        value = replace(qualifier.value)
        return QAttrEquals(
            qualifier.name, value, _map_path(qualifier.path, replace)
        )
    if isinstance(qualifier, QAnd):
        left = _map_qualifier(qualifier.left, replace)
        return QAnd(left, _map_qualifier(qualifier.right, replace))
    if isinstance(qualifier, QOr):
        left = _map_qualifier(qualifier.left, replace)
        return QOr(left, _map_qualifier(qualifier.right, replace))
    if isinstance(qualifier, QNot):
        return QNot(_map_qualifier(qualifier.inner, replace))
    raise TypeError("unknown qualifier node %r" % qualifier)


def _mask(value) -> Param:
    return _MASK


def fingerprint_shape(path: Path) -> str:
    """The canonical constant-masked serialization of a parsed query."""
    return str(_map_path(path, _mask))


def slot_name(index: int) -> str:
    """The parameter name of template slot ``index`` (``_0``, ``_1``,
    ...)."""
    return "_%d" % index


def slot_index(value) -> Optional[int]:
    """The slot a template :class:`Param` stands for, or ``None`` for
    any other value (a string, or a parameter named otherwise)."""
    if isinstance(value, Param):
        match = _SLOT.fullmatch(value.name)
        if match is not None:
            return int(match.group(1))
    return None


def parameterize(path: Path) -> Tuple[Path, tuple]:
    """Split a parsed query into its *template* and the constants it
    binds: ``(template, values)``.

    The template is ``path`` with the ``k``-th comparison constant (in
    the preorder of :func:`fingerprint_shape`'s walk) replaced by the
    slot parameter ``$_k``; ``values[k]`` is that constant.  Every
    occurrence gets its own slot, so ``a[b = "1"] | a[b = "2"]`` and
    ``a[b = "1"] | a[b = "1"]`` stay two-slot templates, and two
    different slots are never equal, so containment can never merge
    branches that a binding would tell apart.  A parameter the user
    wrote (``$ward``, or even ``$_0``) is a value like any constant:
    it occupies a slot, and execution rejects it as unbound.

    The template's :func:`fingerprint_shape` equals the query's."""
    values: List[object] = []

    def slot(value) -> Param:
        values.append(value)
        return Param(slot_name(len(values) - 1))

    template = _map_path(path, slot)
    return template, tuple(values)


def bind_template(template: Path, values: tuple) -> Path:
    """The concrete query ``template`` stands for under ``values``
    (:func:`parameterize`'s inverse, up to the AST's own folding)."""
    if not values:
        return template
    return template.substitute(
        {slot_name(index): value for index, value in enumerate(values)}
    )


class BoundQuery:
    """A template plus its values, substituted only when first read:
    ``path`` is the concrete query, ``str()`` its text.  Operator
    surfaces (reports, records, audit events) hold one of these so a
    request pays nothing for a rendering no consumer asks for."""

    __slots__ = ("template", "values", "_path")

    def __init__(self, template, values: tuple = ()):
        self.template = template
        self.values = values
        self._path = None

    @property
    def path(self):
        path = self._path
        if path is None:
            path = self._path = bind_template(self.template, self.values)
        return path

    def __str__(self) -> str:
        return str(self.path)

    def __repr__(self):
        return "BoundQuery(%s)" % self


def query_fingerprint(query: TypingUnion[str, Path]) -> Fingerprint:
    """The :class:`Fingerprint` of a query (string or parsed AST).

    Strings are parsed first; a string that fails to parse still gets
    a deterministic fingerprint (shape :data:`UNPARSED_SHAPE` plus the
    digest of the raw text), so error accounting can bucket malformed
    queries without raising from the accounting path itself.
    """
    if isinstance(query, str):
        from repro.errors import ReproError
        from repro.xpath.parser import parse_xpath

        try:
            query = parse_xpath(query)
        except ReproError:
            return Fingerprint(_digest("!unparsed:" + query), UNPARSED_SHAPE)
    shape = fingerprint_shape(query)
    return Fingerprint(_digest(shape), shape)
