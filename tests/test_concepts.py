"""Concept enumeration against the exhaustive oracle and frozen examples."""

import math

import pytest

from polyconcept import (
    ArityError,
    ConceptLimitError,
    ConceptSet,
    ConsistencyError,
    NContext,
    OracleInfeasibleError,
    Dimension,
    brute_force_concepts,
    concepts,
    enumerate_concepts,
    extend_height,
    generate_random,
    introducer_oracle,
    introducers,
    oracle_cost,
)

from conftest import (
    FIG1_CONCEPTS,
    FIG3_CONCEPTS,
    box,
    check_raw_enumerator,
    long_thin_context,
    sweep_contexts,
)
from polyconcept.context import MAX_ARITY


def test_fig3_lists_exactly_seven(fig3):
    assert enumerate_concepts(fig3) == FIG3_CONCEPTS


def test_fig1_lists_exactly_eight(fig1):
    assert enumerate_concepts(fig1) == FIG1_CONCEPTS


def test_empty_relation_2d():
    ctx = NContext([("d1", "abc"), ("d2", "xy")], [])
    assert enumerate_concepts(ctx) == {box("abc", ""), box("", "xy")}


def test_one_dimensional_context_has_single_concept(fig3):
    one = fig3.slice(1, "α").slice(2, "a")  # leaves dim2 with relation {1, 3}
    assert one.arity == 1
    assert enumerate_concepts(one) == {box("13")}
    empty = NContext([("d", "abc")], [])
    assert enumerate_concepts(empty) == {box("")}


def test_single_cross_cube():
    ctx = NContext([("d1", "x"), ("d2", "y"), ("d3", "z")], [("x", "y", "z")])
    assert enumerate_concepts(ctx) == {box("x", "y", "z")}
    assert brute_force_concepts(ctx) == {box("x", "y", "z")}


def test_full_relation_has_one_concept():
    ctx = generate_random((2, 3, 2), 1.0, 0)
    found = enumerate_concepts(ctx)
    assert len(found) == 1
    assert found[0].components == tuple(d.elements for d in ctx.dims)


def test_empty_dimension_forces_other_components_full():
    ctx = NContext([("d1", ()), ("d2", "ab")], [])
    assert enumerate_concepts(ctx) == {box("", "ab")}


def test_brute_force_matches_on_fig3(fig3):
    assert brute_force_concepts(fig3) == FIG3_CONCEPTS


def test_brute_force_agreement_100_seeds_3x3x3():
    for seed in range(100):
        ctx = generate_random((3, 3, 3), 0.4, seed)
        assert enumerate_concepts(ctx) == brute_force_concepts(ctx), seed


@pytest.mark.parametrize(
    "shape",
    [(5, 5), (2, 3, 4), (2, 2, 3, 3), (6, 6, 6), (16, 8), (8, 16), (4, 4, 4, 4)],
)
@pytest.mark.parametrize("density", [0.15, 0.5, 0.85])
def test_brute_force_agreement_other_shapes(shape, density):
    # Shapes of 128 cells and more nest the Close-by-One search deep enough
    # to exercise its canonicity test and the extension test between levels;
    # in (16, 8) the search takes the rows of the second dimension, in
    # (8, 16) those of the first, so the smaller one is outermost in both.
    # The oracle's cost limits them to a few seeds.
    for seed in range(15 if math.prod(shape) <= 36 else 3):
        ctx = generate_random(shape, density, seed)
        assert enumerate_concepts(ctx) == brute_force_concepts(ctx), seed


@pytest.mark.parametrize("shape", [(4, 2, 3), (3, 4, 2), (6, 3), (3, 2, 2, 3)])
@pytest.mark.parametrize("density", [0.3, 0.6])
def test_unsorted_shapes_agree_with_oracles(shape, density):
    # Sizes not in ascending order: the search reads rows whose other
    # dimensions are laid out in another order than their own, and maps the
    # components back; the tuple listing must still come out in index order.
    for seed in range(10):
        ctx = generate_random(shape, density, seed)
        assert enumerate_concepts(ctx).concepts == brute_force_concepts(ctx).concepts, seed
        assert introducers(ctx) == introducer_oracle(ctx), seed
        keys = [tuple(map(Dimension.position, ctx.dims, t)) for t in ctx.tuples()]
        assert keys == sorted(keys), seed


def test_long_dimension_does_not_exhaust_recursion():
    # 1500 x 2 with six crosses: the search keeps its nodes on an explicit
    # stack and nests only once per dimension above two, so not at all here;
    # a search whose depth grows with the element count overflows the
    # interpreter's stack here.
    found = enumerate_concepts(long_thin_context())
    assert len(found) == 3
    assert [len(c) for c in found[0].components] == [0, 2]
    assert [len(c) for c in found[1].components] == [6, 1]
    assert [len(c) for c in found[2].components] == [1500, 0]


@pytest.mark.parametrize(
    "shape, density, n_concepts, n_records",
    [
        ((10, 10, 10), 0.5, 1188, 1087),
        ((5, 5, 5, 5), 0.6, 757, 757),
        ((200, 12), 0.3, 457, 179),
        ((12, 200), 0.3, 515, 181),
        ((40, 40), 0.4, 4549, 80),
        ((6, 6, 6, 6), 0.5, 1139, 1139),
    ],
)
def test_formerly_slow_shapes(shape, density, n_concepts, n_records):
    # Counts as the earlier closed n-set miner found them.  The 2-D table
    # comes in both orientations: the short side is the outer dimension of
    # the search whichever position it takes.
    ctx = generate_random(shape, density, 1)
    assert len(enumerate_concepts(ctx)) == n_concepts
    assert len(introducers(ctx)) == n_records


@pytest.mark.parametrize("shape", [(7, 9), (9, 7), (4, 4, 4), (3, 5, 4), (2, 2, 2, 5)])
def test_raw_enumerator_on_longer_dimensions(shape):
    # Up to nine elements per dimension, so a candidate j has up to eight
    # rows below it for the canonicity test and rows above it for the
    # closure; the property test's dimensions stop at three elements.
    for density in (0.2, 0.5, 0.8):
        for seed in range(10):
            check_raw_enumerator(generate_random(shape, density, seed))


def test_arity_bound():
    # The nested search opens a generator per dimension: at MAX_ARITY
    # dimensions they still fit on the interpreter's stack under pytest,
    # and one more dimension is refused on both routes.
    deepest = generate_random((1,) * MAX_ARITY, 1.0, 1)
    assert [len(c) for c in enumerate_concepts(deepest)[0].components] == [1] * MAX_ARITY
    wider = generate_random((1,) * (MAX_ARITY + 1), 1.0, 1)
    for route in (enumerate_concepts, introducers):
        with pytest.raises(ArityError, match=f"at most {MAX_ARITY} dimensions"):
            route(wider)


def test_every_concept_is_a_closure_fixpoint(fig3):
    for t in enumerate_concepts(fig3):
        for d in fig3.dims:
            width = tuple(
                c for j, c in enumerate(t.components) if j != d.index - 1
            )
            regrown = extend_height(fig3, d.index, width)
            assert regrown == t.components[d.index - 1]


def test_projection_consistency():
    # each concept's width is a full box of every slice its height touches
    for seed in range(10):
        ctx = generate_random((3, 3, 3), 0.3, seed)
        for t in enumerate_concepts(ctx):
            for d in ctx.dims:
                i0 = d.index - 1
                width = tuple(c for j, c in enumerate(t.components) if j != i0)
                for x in t.components[i0]:
                    sub = ctx.slice(d.index, x)
                    assert sub.is_full_box(sub.box(*width))


def test_concept_count_bound():
    for ctx in (
        generate_random((4, 4), 0.5, 1),
        generate_random((2, 3, 4), 0.5, 2),
        generate_random((2, 2, 3, 3), 0.5, 3),
    ):
        assert len(enumerate_concepts(ctx)) <= oracle_cost(ctx)


def test_enumeration_is_deterministic():
    ctx = generate_random((3, 3, 3), 0.5, 9)
    a = enumerate_concepts(ctx)
    b = enumerate_concepts(ctx)
    assert a.concepts == b.concepts  # identical order, not just equal sets


def test_concept_set_order_is_canonical(fig1):
    found = enumerate_concepts(fig1)
    keys = list(map(fig1.sort_key, reversed(found.concepts)))
    rebuilt = ConceptSet(fig1, keys + keys[::2])
    assert rebuilt.concepts == found.concepts and len(rebuilt) == len(found)
    assert len(ConceptSet(fig1, [keys[0], keys[0]])) == 1


def test_keyed_concept_set_counts_and_compares_without_labels(fig3, monkeypatch):
    def refuse(self, pos):
        raise AssertionError(f"labelled {pos}")

    monkeypatch.setattr(NContext, "_labelled", refuse)
    found, reference = enumerate_concepts(fig3), brute_force_concepts(fig3)
    assert len(found) == len(reference) == 7
    assert found == reference and not found != reference
    assert repr(found) == "<ConceptSet of 7>"
    # an equal context, built apart, over the same dimensions
    again = enumerate_concepts(NContext(fig3.dims, fig3.tuples()))
    assert again == found
    fewer = NContext(fig3.dims, fig3.tuples()[1:])
    assert enumerate_concepts(fewer) != found
    assert [len(enumerate_concepts(fig3.slice(1, x))) for x in "αβ"] == [4, 3]


def test_keyed_and_labelled_concept_sets_are_interchangeable(fig1, fig3):
    for ctx, expected in ((fig1, FIG1_CONCEPTS), (fig3, FIG3_CONCEPTS)):
        labelled = frozenset(expected)
        rebuilt = ConceptSet(ctx, map(ctx.sort_key, expected))
        # hashed before any member is read, then read
        assert hash(enumerate_concepts(ctx)) == hash(rebuilt) == hash(labelled)
        found = enumerate_concepts(ctx)
        assert found == expected and expected == found
        assert found == labelled and labelled == found
        assert found == rebuilt and rebuilt == found
        assert found.concepts == rebuilt.concepts == tuple(sorted(expected, key=ctx.sort_key))
        assert list(found) == list(rebuilt) and found[-1] == rebuilt[-1]
        assert all(t in found for t in expected)
    # sets over different dimensions compare by their labels
    renamed = NContext([("x", "123"), ("y", "abc")], fig1.tuples())
    assert enumerate_concepts(renamed) == enumerate_concepts(fig1)


def test_differing_keyed_and_labelled_concept_sets_are_unequal(fig3):
    found = enumerate_concepts(fig3)
    fewer = found.concepts[1:]
    stray = fewer + (box("αβ", "1", "a"),)  # a full box, not a concept
    for members in (fewer, stray):
        for other in (ConceptSet(fig3, map(fig3.sort_key, members)), frozenset(members)):
            assert found != other and other != found
    assert found != enumerate_concepts(fig3.slice(1, "α"))
    renamed = NContext([(d.name + "'", d.elements) for d in fig3.dims], fig3.tuples()[1:])
    assert enumerate_concepts(renamed) != found
    # a list is neither a set nor a ConceptSet, even with the same members
    assert (found == list(found)) is False and found != list(found)


def test_oracle_guard_refuses_large_contexts():
    ctx = NContext([("d1", [f"o{i}" for i in range(25)]), ("d2", "ab")], [])
    assert oracle_cost(ctx) == 4  # widths walk only the smaller side
    big = NContext(
        [("d1", [f"o{i}" for i in range(25)]), ("d2", [f"p{i}" for i in range(25)])],
        [],
    )
    assert oracle_cost(big) == 2 ** 25
    # one largest dimension is left out, whichever of a tie; an empty one adds 2**0
    for sizes, cost in [((3, 3), 8), ((2, 3, 3), 32), ((3, 2, 3), 32), ((0, 3), 1), ((2, 0, 3), 4)]:
        dims = [(f"d{k}", [f"e{j}" for j in range(n)]) for k, n in enumerate(sizes)]
        assert oracle_cost(NContext(dims, [])) == cost
    with pytest.raises(OracleInfeasibleError):
        brute_force_concepts(big)


def test_enumerator_fault_is_a_consistency_error(fig1, monkeypatch):
    # The search also yields (1, a), a full box of fig1 that is not maximal:
    # the re-check reports a bug, not bad input.
    search = concepts.closed_tuples
    monkeypatch.setattr(concepts, "closed_tuples", lambda *a: [*search(*a), (0b1, 0b1)])
    with pytest.raises(ConsistencyError, match=r"^\(1, a\) is not a concept of <NContext 3x3"):
        enumerate_concepts(fig1)


def test_concept_cap_guard(fig1):
    with pytest.raises(ConceptLimitError):
        enumerate_concepts(fig1, max_concepts=3)
    assert len(enumerate_concepts(fig1, max_concepts=8)) == 8


def test_sweep_sizes_stay_within_bound():
    checked = 0
    for ctx in sweep_contexts():
        if checked >= 150:
            break
        assert len(enumerate_concepts(ctx)) <= oracle_cost(ctx)
        checked += 1
