"""Concept enumeration against the exhaustive oracle and frozen examples."""

import math

import pytest

from polyconcept import (
    ConceptLimitError,
    ConceptSet,
    InputError,
    NContext,
    OracleInfeasibleError,
    brute_force_concepts,
    enumerate_concepts,
    extend_height,
    generate_random,
    oracle_cost,
)

from conftest import (
    FIG1_CONCEPTS,
    FIG3_CONCEPTS,
    box,
    long_thin_context,
    sweep_contexts,
)


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
    # Shapes of 128 cells and more search deep enough to exercise candidate
    # filtering and the branching order; the oracle's cost limits them to a
    # few seeds.
    for seed in range(15 if math.prod(shape) <= 36 else 3):
        ctx = generate_random(shape, density, seed)
        assert enumerate_concepts(ctx) == brute_force_concepts(ctx), seed


def test_long_dimension_does_not_exhaust_recursion():
    # 1500 x 2 with six crosses: a search whose depth grows with the element
    # count overflows the interpreter's stack here.
    found = enumerate_concepts(long_thin_context())
    assert len(found) == 3
    assert [len(c) for c in found[0].components] == [0, 2]
    assert [len(c) for c in found[1].components] == [6, 1]
    assert [len(c) for c in found[2].components] == [1500, 0]


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
                    assert sub.is_full_box(sub.box(width))


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
    shuffled = list(reversed(found.concepts))
    rebuilt = ConceptSet.collect(fig1, shuffled)
    assert rebuilt.concepts == found.concepts


def test_concept_set_rejects_non_concepts(fig1):
    with pytest.raises(InputError):
        ConceptSet.collect(fig1, [box("1", "a")])
    # (1, ab) is a concept, but only in its canonical form
    with pytest.raises(InputError):
        ConceptSet.collect(fig1, [box("1", "ab"), box("1", "ba")])


def test_oracle_guard_refuses_large_contexts():
    ctx = NContext([("d1", [f"o{i}" for i in range(25)]), ("d2", "ab")], [])
    assert oracle_cost(ctx) == 4  # widths walk only the smaller side
    big = NContext(
        [("d1", [f"o{i}" for i in range(25)]), ("d2", [f"p{i}" for i in range(25)])],
        [],
    )
    assert oracle_cost(big) == 2 ** 25
    with pytest.raises(OracleInfeasibleError):
        brute_force_concepts(big)


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
