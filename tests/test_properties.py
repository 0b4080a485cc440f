"""Property tests over generated contexts, against the exhaustive oracles.

Contexts have arity 1-4 and up to three elements per dimension, including
zero-size dimensions, empty, full and partial relations, and multi-character
unicode labels.  Runs are derandomized, so every run checks the same examples.
"""

import itertools

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from polyconcept import (
    ComponentTuple,
    InputError,
    NContext,
    brute_force_concepts,
    check_n_ordered,
    enumerate_concepts,
    introducer_oracle,
    introducers,
    parse_context,
    serialize_tuples,
)
from polyconcept.context import check_dimension_name, check_label

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
def contexts(draw, min_arity=1):
    n = draw(st.integers(min_arity, 4))
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
    return NContext(dims, cells if fill != "empty" else [])


@PROPERTY
@given(contexts())
def test_tuple_file_round_trip(ctx):
    assert parse_context(serialize_tuples(ctx)) == ctx


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
