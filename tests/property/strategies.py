"""Shared hypothesis strategies: random XPath queries, content models,
DTDs, and access specifications."""

from hypothesis import strategies as st

from repro.dtd.content import (
    Choice,
    EPSILON,
    Name,
    Opt,
    Plus,
    STR,
    Seq,
    Star,
)
from repro.dtd.dtd import DTD
from repro.xpath.ast import (
    Descendant,
    EPSILON as EPS_PATH,
    Label,
    QAnd,
    QEquals,
    QNot,
    QOr,
    QPath,
    TEXT,
    WILDCARD,
    descendant,
    qualified,
    slash,
    union,
)

DEFAULT_LABELS = ("alpha", "beta", "gamma", "delta", "r-e.x")


def path_strategy(labels=DEFAULT_LABELS, max_leaves=8, allow_negation=True):
    """Random path expressions of the fragment C over a label pool."""
    label_step = st.sampled_from(labels).map(Label)
    base = st.one_of(
        label_step,
        st.just(WILDCARD),
        st.just(EPS_PATH),
    )

    def extend(children):
        qualifier = qualifier_strategy(
            children, labels, allow_negation=allow_negation
        )
        return st.one_of(
            st.tuples(children, children).map(lambda pair: slash(*pair)),
            children.map(descendant),
            st.lists(children, min_size=2, max_size=3).map(union),
            st.tuples(children, qualifier).map(
                lambda pair: qualified(pair[0], pair[1])
            ),
        )

    return st.recursive(base, extend, max_leaves=max_leaves)


def qualifier_strategy(paths, labels, allow_negation=True):
    from repro.xpath.ast import qpath

    base = st.one_of(
        paths.map(qpath),
        st.tuples(paths, st.sampled_from(["1", "2", "x"])).map(
            lambda pair: QEquals(*pair)
        ),
    )

    def extend(children):
        from repro.xpath.ast import qand, qnot, qor

        options = [
            st.tuples(children, children).map(lambda pair: qand(*pair)),
            st.tuples(children, children).map(lambda pair: qor(*pair)),
        ]
        if allow_negation:
            options.append(children.map(qnot))
        return st.one_of(*options)

    return st.recursive(base, extend, max_leaves=4)


def content_model_strategy(names=("a", "b", "c"), max_leaves=6):
    """Random content models (general form, nested)."""
    base = st.one_of(
        st.sampled_from(names).map(Name),
        st.just(EPSILON),
    )

    def extend(children):
        items = st.lists(children, min_size=1, max_size=3)
        return st.one_of(
            items.map(Seq),
            items.map(Choice),
            children.map(Star),
            children.map(Opt),
            children.map(Plus),
        )

    return st.recursive(base, extend, max_leaves=max_leaves)


@st.composite
def dag_dtd_strategy(draw, min_types=3, max_types=7):
    """Random consistent, normal-form DAG DTDs: each type's production
    references only strictly later types, so cycles are impossible and
    instances always exist."""
    count = draw(st.integers(min_types, max_types))
    names = ["t%d" % index for index in range(count)]
    productions = {}
    for index, name in enumerate(names):
        later = names[index + 1 :]
        if not later:
            productions[name] = STR
            continue
        shape = draw(st.sampled_from(["str", "epsilon", "seq", "choice", "star"]))
        if shape == "str":
            productions[name] = STR
        elif shape == "epsilon":
            productions[name] = EPSILON
        elif shape == "star":
            productions[name] = Star(Name(draw(st.sampled_from(later))))
        else:
            chosen = draw(
                st.lists(
                    st.sampled_from(later), min_size=1, max_size=3, unique=True
                )
            )
            atoms = [Name(child) for child in chosen]
            if shape == "seq":
                productions[name] = atoms[0] if len(atoms) == 1 else Seq(atoms)
            else:
                productions[name] = (
                    atoms[0] if len(atoms) == 1 else Choice(atoms)
                )
    return DTD(names[0], productions)


@st.composite
def annotation_strategy(draw, dtd):
    """A random Y/N access specification over a DTD (no conditionals,
    so materialization never aborts)."""
    from repro.core.spec import AccessSpec

    spec = AccessSpec(dtd, name="random")
    for parent in dtd.element_types:
        for child in dtd.children_of(parent):
            choice = draw(st.sampled_from(["inherit", "inherit", "Y", "N"]))
            if choice != "inherit":
                spec.annotate(parent, child, choice)
    return spec


@st.composite
def conditional_annotation_strategy(draw, dtd):
    """A random access specification over a DTD that also draws
    conditional ``[q]`` annotations.  Each qualifier tests paths over
    the DTD's own labels, so it holds at some elements and fails at
    others.  Materialization may abort under such a spec (Section 3.3's
    rules), unlike under :func:`annotation_strategy`."""
    from repro.core.spec import AccessSpec

    labels = tuple(sorted(dtd.element_types))
    qualifiers = qualifier_strategy(
        path_strategy(labels, max_leaves=3), labels
    )
    spec = AccessSpec(dtd, name="random-conditional")
    for parent in dtd.element_types:
        for child in dtd.children_of(parent):
            choice = draw(
                st.sampled_from(["inherit", "inherit", "Y", "N", "cond"])
            )
            if choice == "cond":
                spec.annotate(parent, child, draw(qualifiers))
            elif choice != "inherit":
                spec.annotate(parent, child, choice)
    return spec


@st.composite
def view_strategy(draw, dtd, min_nodes=2, max_nodes=6):
    """A random security view over ``dtd``, built directly instead of
    derived, so its sigma annotations range over the whole fragment:
    each edge's path is drawn by :func:`path_strategy` over the DTD's
    labels (``//``, unions, qualifiers, wildcards).  Nodes are real or
    dummy; each production is a seq (with starred items), a choice, a
    star, ``str``, ``EMPTY`` or an ``?`` the Section 3.3 rules do not
    cover, and refers only to later nodes.  A ``str`` node extracts
    with ``text()`` or ``*/text()`` (paths the reference interpreter
    answers in document order) or has no sigma(str) annotation."""
    from repro.core.view import SecurityView, ViewNode

    labels = tuple(sorted(dtd.element_types))
    sigma_paths = path_strategy(labels, max_leaves=4)
    count = draw(st.integers(min_nodes, max_nodes))
    keys = ["v%d" % index for index in range(count)]
    view = SecurityView(dtd, keys[0])
    for index, key in enumerate(keys):
        later = keys[index + 1 :]
        shapes = ["str", "epsilon"]
        if later:
            shapes += ["seq", "seq", "choice", "star", "opt"]
        shape = draw(st.sampled_from(shapes))
        if shape == "str":
            content = STR
            text = draw(st.sampled_from(["text()", "*/text()", None]))
            if text is not None:
                view.sigma_text[key] = (
                    TEXT if text == "text()" else slash(WILDCARD, TEXT)
                )
        elif shape == "epsilon":
            content = EPSILON
        else:
            chosen = draw(
                st.lists(
                    st.sampled_from(later), min_size=1, max_size=3, unique=True
                )
            )
            if shape == "seq":
                content = Seq(
                    [
                        Star(Name(child)) if draw(st.booleans()) else Name(child)
                        for child in chosen
                    ]
                )
            elif shape == "choice":
                content = Choice([Name(child) for child in chosen])
            elif shape == "star":
                content = Star(Name(chosen[0]))
            else:
                content = Opt(Name(chosen[0]))
            for child in chosen:
                view.set_sigma(key, child, draw(sigma_paths))
        dummy = draw(st.booleans())
        label = "dummy%d" % index if dummy else draw(st.sampled_from(labels))
        view.add_node(ViewNode(key, label, content, is_dummy=dummy))
    return view
