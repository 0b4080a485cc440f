"""Shared fixtures: the two worked example contexts, their frozen expected
results, and the seeded random sweep used by the oracle-equivalence tests.

Every member of an expected set below was computed by an independent route
(exhaustive subset enumeration, the 2D derivation operators, or direct layer
inspection of the table) before being frozen here.
"""

from pathlib import Path

import pytest

from polyconcept import (
    ComponentTuple,
    NContext,
    brute_force_concepts,
    enumerate_concepts,
    generate_random,
    introducer_oracle,
    introducers,
)
from polyconcept.concepts import closed_tuples
from polyconcept.context import _elements

FIXTURES = Path(__file__).parent / "fixtures"


def box(*comps):
    """Build a ComponentTuple from strings of single-character labels."""
    return ComponentTuple(tuple(tuple(c) for c in comps))


def long_thin_context():
    """1500 objects x 2 attributes; objects o0..o5 carry attribute x."""
    return NContext(
        [("a", [f"o{i}" for i in range(1500)]), ("b", "xy")],
        [(f"o{i}", "x") for i in range(6)],
    )


def check_raw_enumerator(ctx):
    """``closed_tuples`` on ctx and on its slice at every element of every
    dimension yields each concept once, as component masks, and exactly the
    oracle's concepts."""
    runs = [(ctx, ctx._search_input())]
    if ctx.arity > 1:
        for i, d in enumerate(ctx.dims):
            for x, label in enumerate(d.elements):
                runs.append((ctx.slice(d.index, label), ctx._search_input(i, x)))
    for sub, search_input in runs:
        raw = list(closed_tuples(*search_input))
        assert len(raw) == len(set(raw)), sub
        decoded = {tuple(map(_elements, masks)) for masks in raw}
        assert decoded == {sub.sort_key(t) for t in brute_force_concepts(sub)}, sub


@pytest.fixture
def fig1():
    """3 objects x 3 attributes: 1->ab, 2->bc, 3->ac."""
    return NContext(
        [("objects", "123"), ("attributes", "abc")],
        [("1", "a"), ("1", "b"), ("2", "b"), ("2", "c"), ("3", "a"), ("3", "c")],
    )


@pytest.fixture
def fig3():
    """2x3x3 table: layer α has crosses 1a 1b 3a; layer β has 1a 2a 3a 3c."""
    return NContext(
        [("dim1", ["α", "β"]), ("dim2", ["1", "2", "3"]), ("dim3", ["a", "b", "c"])],
        [
            ("α", "1", "a"), ("α", "1", "b"), ("α", "3", "a"),
            ("β", "1", "a"), ("β", "2", "a"), ("β", "3", "a"), ("β", "3", "c"),
        ],
    )


FIG1_CONCEPTS = {
    box("", "abc"), box("1", "ab"), box("2", "bc"), box("3", "ac"),
    box("12", "b"), box("13", "a"), box("23", "c"), box("123", ""),
}

# Covering pairs of the 8 concepts under inclusion of the object side.
FIG1_COVER_EDGES = {
    (box("", "abc"), box("1", "ab")),
    (box("", "abc"), box("2", "bc")),
    (box("", "abc"), box("3", "ac")),
    (box("1", "ab"), box("12", "b")),
    (box("1", "ab"), box("13", "a")),
    (box("2", "bc"), box("12", "b")),
    (box("2", "bc"), box("23", "c")),
    (box("3", "ac"), box("13", "a")),
    (box("3", "ac"), box("23", "c")),
    (box("12", "b"), box("123", "")),
    (box("13", "a"), box("123", "")),
    (box("23", "c"), box("123", "")),
}

FIG1_GSH = {
    box("1", "ab"), box("2", "bc"), box("3", "ac"),
    box("12", "b"), box("13", "a"), box("23", "c"),
}

FIG1_GSH_EDGES = {
    (box("1", "ab"), box("12", "b")),
    (box("1", "ab"), box("13", "a")),
    (box("2", "bc"), box("12", "b")),
    (box("2", "bc"), box("23", "c")),
    (box("3", "ac"), box("13", "a")),
    (box("3", "ac"), box("23", "c")),
}

FIG3_CONCEPTS = {
    box("α", "1", "ab"), box("αβ", "13", "a"), box("β", "3", "ac"),
    box("β", "123", "a"), box("αβ", "123", ""), box("αβ", "", "abc"),
    box("", "123", "abc"),
}

# Full introduction map, derived per element from the slice concept sets and
# cross-checked against the componentwise-maximal-width definition.
FIG3_INTRODUCES = {
    box("α", "1", "ab"): {1: {"α"}, 2: {"1"}, 3: {"b"}},
    box("αβ", "13", "a"): {1: {"α"}, 2: {"1", "3"}, 3: {"a"}},
    box("β", "123", "a"): {1: {"β"}, 2: {"2"}, 3: {"a"}},
    box("β", "3", "ac"): {1: {"β"}, 2: {"3"}, 3: {"c"}},
    box("αβ", "123", ""): {1: {"α"}, 2: {"2"}},
    box("αβ", "", "abc"): {1: {"α", "β"}, 3: {"b", "c"}},
    box("", "123", "abc"): {2: {"1", "2", "3"}, 3: {"b", "c"}},
}

SWEEP_SHAPES = [(4, 4), (5, 5), (3, 3, 3), (2, 3, 4), (2, 2, 3, 3)]
SWEEP_DENSITIES = [0.2, 0.4, 0.6]
SWEEP_SEEDS = range(100)


def sweep_contexts():
    for shape in SWEEP_SHAPES:
        for density in SWEEP_DENSITIES:
            for seed in SWEEP_SEEDS:
                yield generate_random(shape, density, seed)


@pytest.fixture(scope="session")
def sweep_results():
    """Both pipelines and both oracles over the whole seeded sweep.

    Computed once per session; the acceptance criteria each consume the
    slice of this they assert on.
    """
    results = []
    for ctx in sweep_contexts():
        results.append(
            {
                "ctx": ctx,
                "concepts": enumerate_concepts(ctx),
                "brute": brute_force_concepts(ctx),
                "records": introducers(ctx),
                "oracle_records": introducer_oracle(ctx),
            }
        )
    return results


def records_by_concept(records):
    return {r.concept: dict(r.introduces) for r in records}


def introducers_of(records, dim: int, element: str):
    """Concepts annotated as introducing one element of a 1-based dimension."""
    return {r.concept for r in records if element in r.introduced(dim)}
