"""Property tests over generated contexts, against the exhaustive oracles
and, for a duplicated element, against the run without it.

Contexts have arity 1-4 (1-6 where bit rows are decoded) and up to three
elements per dimension, including zero-size dimensions, empty, full and
partial relations, and multi-character unicode labels.  Runs are
derandomized, so every run checks the same examples.
"""

import itertools

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from polyconcept import (
    DEFAULT_ORACLE_CAP,
    ComponentTuple,
    ConceptSet,
    Dimension,
    InputError,
    IntroducerRecord,
    NContext,
    brute_force_concepts,
    check_n_ordered,
    enumerate_concepts,
    generate_random,
    introducer_oracle,
    introducers,
    oracle_cost,
    parse_context,
    serialize_tuples,
)
from polyconcept.context import check_dimension_name, check_label

from conftest import check_raw_enumerator

PROPERTY = settings(
    max_examples=100,
    derandomize=True,
    database=None,
    deadline=None,
)


def _valid(check, text):
    try:
        check(text)
    except InputError:
        return False
    return True


# Latin, Greek, CJK, a combining accent, an astral-plane emoji and two
# zero-width characters, plus '#' and '!' (illegal only as a label's first
# character) and ':' (illegal only in dimension names).
ALPHABET = "aZ1αΩ中\u0301😀\u200b\ufeff#!:"
LABELS = st.text(ALPHABET, min_size=1, max_size=3).filter(
    lambda s: _valid(check_label, s)
)
NAMES = st.text(ALPHABET, min_size=1, max_size=3).filter(
    lambda s: _valid(check_dimension_name, s)
)


@st.composite
def drawn_cells(draw, min_arity=1, max_arity=4):
    """``(dims, cells)``: (name, labels) pairs and distinct label tuples."""
    n = draw(st.integers(min_arity, max_arity))
    names = draw(st.lists(NAMES, min_size=n, max_size=n, unique=True))
    sizes = [draw(st.integers(1, 3)) for _ in range(n)]
    if draw(st.integers(0, 5)) == 0:  # now and then one zero-size dimension
        sizes[draw(st.integers(0, n - 1))] = 0
    dims = [
        (name, draw(st.lists(LABELS, min_size=s, max_size=s, unique=True)))
        for name, s in zip(names, sizes)
    ]
    cells = list(itertools.product(*(elements for _, elements in dims)))
    fill = draw(st.sampled_from(["partial", "empty", "full"]))
    if fill == "partial":
        rng = draw(st.randoms(use_true_random=True))
        cells = [c for c in cells if rng.random() < 0.5]
    return dims, cells if fill != "empty" else []


def contexts(min_arity=1):
    return drawn_cells(min_arity).map(lambda drawn: NContext(*drawn))


def _dimension_by_label(labels):
    """What ``Dimension(1, "d", labels)`` checks, label by label: ``check_label``
    on each, then that it is new.  Returns the positions, or the error."""
    pos = {}
    try:
        for label in labels:
            check_label(label)
            if label in pos:
                raise InputError(f"dimension 'd' declares element {label!r} twice")
            pos[label] = len(pos)
    except InputError as exc:
        return exc
    return pos


# Labels that break one rule each, among good ones: not a string, empty,
# ASCII and Unicode whitespace, a comma, a reserved first character.
ANY_LABELS = st.lists(
    st.one_of(
        st.sampled_from(["a", "bc", "中", "a#", "b!", "c\ufeff", "é"]),
        st.sampled_from(["", " ", "a b", "a\x1cb", "\x85", "x\u3000", "\u00a0y", "a,b", ",",
                         "#a", "!b", "\ufeffc", "#", 1, None, b"a"]),
        LABELS,
    ),
    max_size=6,
)


@PROPERTY
@given(ANY_LABELS)
@example(["a", "b", "a"])
@example(["a", "b c", "a"])
@example(["a", "a", "b c"])
def test_dimension_checks_labels_as_check_label_does(labels):
    want = _dimension_by_label(labels)
    try:
        d = Dimension(1, "d", labels)
    except InputError as exc:
        assert type(exc) is type(want) and str(exc) == str(want)
        return
    assert d._pos == want
    assert d._sep == ("" if all(len(label) == 1 for label in labels) else " ")


@PROPERTY
@given(contexts())
def test_tuple_file_round_trip(ctx):
    assert parse_context(serialize_tuples(ctx)) == ctx


@PROPERTY
@given(contexts().filter(lambda ctx: ctx.relation_size))
def test_tuple_file_without_headers(ctx):
    body = [l for l in serialize_tuples(ctx).splitlines(True) if not l.startswith("!")]
    # One leading byte-order mark is dropped; no label starts with one.
    parsed = parse_context("\ufeff" + "".join(body))
    assert [d.name for d in parsed.dims] == [f"dim{k + 1}" for k in range(ctx.arity)]
    tuples = ctx.tuples()
    assert [d.elements for d in parsed.dims] == [
        tuple(dict.fromkeys(t[k] for t in tuples)) for k in range(ctx.arity)
    ]
    assert set(parsed.tuples()) == set(tuples)


@PROPERTY
@given(contexts())
def test_enumerator_equals_oracle(ctx):
    assert enumerate_concepts(ctx).concepts == brute_force_concepts(ctx).concepts


@PROPERTY
@given(contexts(min_arity=2))
def test_introducers_equal_oracle_and_satisfy_axioms(ctx):
    records = introducers(ctx)
    assert records == introducer_oracle(ctx)
    assert check_n_ordered(records).ok


@PROPERTY
@given(contexts(), st.data())
def test_sort_key_accepts_only_the_canonical_form(ctx, data):
    concept = data.draw(st.sampled_from(enumerate_concepts(ctx).concepts))
    i = data.draw(st.integers(0, ctx.arity - 1))
    comp = concept.components[i]
    repeats = data.draw(st.lists(st.sampled_from(comp), max_size=2)) if comp else []
    variant = tuple(data.draw(st.permutations(list(comp) + repeats)))
    t = ComponentTuple(concept.components[:i] + (variant,) + concept.components[i + 1 :])
    if variant == comp:
        assert ctx.sort_key(t) == ctx.sort_key(concept)
        assert ctx.is_concept(t)
    else:
        with pytest.raises(InputError):
            ctx.sort_key(t)
        with pytest.raises(InputError):
            ctx.is_concept(t)


def _check_permuted(ctx, perm):
    """Reorder the dimensions of ctx as ``perm`` lists them: the concepts
    and introducer records are the old ones, reordered.  Returns their counts."""
    moved = NContext(
        [(ctx.dims[k].name, ctx.dims[k].elements) for k in perm],
        [tuple(t[k] for k in perm) for t in ctx.tuples()],
    )

    def permuted(t):
        return ComponentTuple(tuple(t.components[k] for k in perm))

    found = enumerate_concepts(moved)
    assert set(found) == {permuted(t) for t in enumerate_concepts(ctx)}
    if ctx.arity == 1:
        return len(found), 0
    dim_at = {k + 1: j + 1 for j, k in enumerate(perm)}
    records = introducers(moved)
    assert set(records) == {
        IntroducerRecord(
            permuted(r.concept),
            tuple(sorted((dim_at[d], labels) for d, labels in r.introduces)),
        )
        for r in introducers(ctx)
    }
    return len(found), len(records)


@PROPERTY
@given(contexts(), st.data())
def test_permuting_dimensions_permutes_results(ctx, data):
    _check_permuted(ctx, data.draw(st.permutations(range(ctx.arity))))


def test_permuting_dimensions_permutes_results_past_the_oracle_cap():
    # Unequal sizes, so every order ranks the dimensions differently for the
    # search; the oracle would walk 2^24 combinations.
    ctx = generate_random((10, 14, 18), 0.3, 1)
    assert oracle_cost(ctx) == 1 << 24 > DEFAULT_ORACLE_CAP
    for perm in itertools.permutations(range(3)):
        assert _check_permuted(ctx, perm) == (1302, 1291), perm


@PROPERTY
@given(contexts(), st.data())
def test_concept_set_from_shuffled_repeated_keys(ctx, data):
    found = enumerate_concepts(ctx)
    keys = list(map(ctx.sort_key, found))
    repeats = data.draw(st.lists(st.sampled_from(keys), max_size=4))
    rebuilt = ConceptSet(ctx, data.draw(st.permutations(keys + repeats)))
    members = frozenset(found.concepts)
    assert len(rebuilt) == len(found) == len(members)
    assert rebuilt.concepts == found.concepts == tuple(sorted(members, key=ctx.sort_key))
    assert rebuilt == found and rebuilt == members and members == rebuilt
    assert hash(rebuilt) == hash(found) == hash(members)


@PROPERTY
@given(contexts())
def test_raw_enumerator_yields_each_concept_once(ctx):
    check_raw_enumerator(ctx)


@PROPERTY
@given(contexts())
def test_membership_size_and_hash_agree_with_tuples(ctx):
    tuples = ctx.tuples()
    index = {t: tuple(map(Dimension.position, ctx.dims, t)) for t in tuples}
    assert list(tuples) == sorted(tuples, key=index.__getitem__)
    assert len(set(tuples)) == len(tuples) == ctx.relation_size
    for cell in itertools.product(*(d.elements for d in ctx.dims)):
        assert ctx.has(cell) == (cell in index)
    # rebuilt from its own tuples, reversed and each given twice
    dims = [(d.name, d.elements) for d in ctx.dims]
    rebuilt = NContext(dims, tuples[::-1] * 2)
    assert rebuilt == ctx and hash(rebuilt) == hash(ctx)
    assert rebuilt.tuples() == tuples and rebuilt.relation_size == ctx.relation_size
    if tuples:
        fewer = NContext(dims, tuples[1:])
        assert fewer != ctx and not fewer.has(tuples[0])


@PROPERTY
@given(drawn_cells(max_arity=6))
@example(([("a", []), ("b", ["x"]), ("c", ["y", "z"])], []))
@example(([("a", ["x"]), ("b", ["y"])], [("x", "y")]))
@example(([("a", ["x"]), ("b", ["p", "q", "r"]), ("c", ["s", "t"])], [("x", "q", "t")]))
def test_bit_rows_of_every_dimension_decode_to_the_drawn_cells(drawn):
    # Held to the input, not to ctx.tuples(), which reads these same rows.
    dims, cells = drawn
    ctx = NContext(dims, cells)
    sizes = [len(elements) for _, elements in dims]
    want = sorted(tuple(e.index(x) for (_, e), x in zip(dims, c)) for c in cells)
    for i, rows in enumerate(ctx._layers):
        assert len(rows) == sizes[i]
        radix = list(zip(ctx._strides[i], sizes[:i] + sizes[i + 1 :]))
        got = []
        for x, row in enumerate(rows):
            for c in range(row.bit_length()):
                if row >> c & 1:
                    rest = [c // s % n for s, n in radix]
                    got.append((*rest[:i], x, *rest[i:]))
        assert sorted(got) == want, (i, dims, cells)


@PROPERTY
@given(contexts(min_arity=2))
def test_slice_equals_context_built_from_labels(ctx):
    tuples = ctx.tuples()
    for i, d in enumerate(ctx.dims):
        others = [(e.name, e.elements) for e in ctx.dims if e is not d]
        for x in d.elements:
            sub = ctx.slice(d.index, x)
            ref = NContext(others, [t[:i] + t[i + 1 :] for t in tuples if t[i] == x])
            assert sub == ref and hash(sub) == hash(ref)
            assert sub.dims == ref.dims and sub.tuples() == ref.tuples()
            assert sub.relation_size == ref.relation_size
            assert sub._layers == ref._layers
            assert sub.provenance == (d.name, x) and ref.provenance is None


def _check_duplicated_element(ctx, i, x):
    """Give dimension i a new label with element x's bit row: the concepts
    and introducer records are the old ones, with the new label beside x."""
    d = ctx.dims[i]
    y = x + "+"
    while y in d:
        y += "+"
    dims = [(e.name, e.elements + (y,) if e is d else e.elements) for e in ctx.dims]
    tuples = ctx.tuples()
    new = NContext(dims, tuples + tuple(t[:i] + (y,) + t[i + 1 :] for t in tuples if t[i] == x))

    def grown(labels):  # y is the last element of dimension i
        return labels + (y,) if x in labels else labels

    def concept(t):
        return new.box(*(grown(c) if k == i else c for k, c in enumerate(t.components)))

    assert enumerate_concepts(new) == {concept(t) for t in enumerate_concepts(ctx)}
    if ctx.arity > 1:
        records = {
            IntroducerRecord(
                concept(r.concept),
                tuple((k, grown(ls) if k == i + 1 else ls) for k, ls in r.introduces),
            )
            for r in introducers(ctx)
        }
        found = introducers(new)
        assert len(found) == len(records) and set(found) == records


@PROPERTY
@given(contexts().filter(lambda ctx: any(ctx.dims)), st.data())
def test_duplicated_element_joins_the_old_one(ctx, data):
    i = data.draw(st.sampled_from([k for k, d in enumerate(ctx.dims) if d.elements]))
    _check_duplicated_element(ctx, i, data.draw(st.sampled_from(ctx.dims[i].elements)))


def test_duplicated_element_joins_the_old_one_on_6x6x6x6():
    # 1,139 concepts and records: a size tier-1 runs no oracle on
    ctx = generate_random((6, 6, 6, 6), 0.5, 1)
    _check_duplicated_element(ctx, 0, "a1")
    _check_duplicated_element(ctx, 3, "d6")
