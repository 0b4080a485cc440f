"""Context construction, slicing, box predicates, and 2D derivation."""

import itertools
import math
import random

import pytest

from polyconcept import (
    ArityError,
    ComponentTuple,
    Dimension,
    InputError,
    NContext,
    generate_random,
)

from conftest import box


class TestConstruction:
    def test_dimension_rejects_duplicate_labels(self):
        with pytest.raises(InputError):
            Dimension(1, "d", ("a", "b", "a"))

    @pytest.mark.parametrize("bad", ["", "a b", "x,y", "#lead", "!lead", "a\tb"])
    def test_dimension_rejects_bad_labels(self, bad):
        with pytest.raises(InputError):
            Dimension(1, "d", ("ok", bad))

    def test_relation_tuple_must_use_declared_elements(self):
        with pytest.raises(InputError):
            NContext([("d1", "ab"), ("d2", "xy")], [("a", "z")])

    def test_relation_tuple_arity_checked(self):
        with pytest.raises(InputError):
            NContext([("d1", "ab"), ("d2", "xy")], [("a",)])

    def test_duplicate_dimension_names_rejected(self):
        with pytest.raises(InputError):
            NContext([("d", "ab"), ("d", "xy")], [])

    def test_duplicate_tuples_collapse(self):
        ctx = NContext([("d1", "ab"), ("d2", "xy")], [("a", "x"), ("a", "x")])
        assert ctx.relation_size == 1

    def test_membership_is_exact(self, fig1):
        assert fig1.has(("1", "a"))
        assert not fig1.has(("2", "a"))

    def test_relation_exposed_as_label_tuples(self, fig1):
        assert ("1", "a") in fig1.relation
        assert len(fig1.relation) == fig1.relation_size == 6

    def test_frozen_value_types(self, fig1):
        t = fig1.box({"1"}, {"a", "b"})
        with pytest.raises(AttributeError):
            t.components = ()
        with pytest.raises(AttributeError):
            fig1.dims[0].name = "renamed"

    def test_box_canonicalizes_order_and_duplicates(self, fig3):
        t = fig3.box(["β", "α", "β"], ["3", "1"], ["a"])
        assert t == box("αβ", "13", "a")

    def test_box_rejects_bare_string_component(self, fig1):
        with pytest.raises(InputError):
            fig1.box("12", ["a"])


class TestSlice:
    def test_fig3_alpha_layer(self, fig3):
        sub = fig3.slice(1, "α")
        assert sub.arity == 2
        assert [d.name for d in sub.dims] == ["dim2", "dim3"]
        assert set(sub.tuples()) == {("1", "a"), ("1", "b"), ("3", "a")}
        assert sub.provenance == ("dim1", "α")

    def test_fig1_object_row_is_1_context(self, fig1):
        sub = fig1.slice("objects", "1")
        assert sub.arity == 1
        assert set(sub.tuples()) == {("a",), ("b",)}

    def test_empty_layer_gives_empty_relation(self):
        ctx = NContext([("d1", "ab"), ("d2", "xy")], [("a", "x")])
        assert ctx.slice(1, "b").relation_size == 0

    def test_slice_errors(self, fig3):
        with pytest.raises(InputError):
            fig3.slice(4, "α")
        with pytest.raises(InputError):
            fig3.slice(1, "γ")
        one = fig3.slice(1, "α").slice(1, "1")
        with pytest.raises(ArityError):
            one.slice(1, "a")

    def test_slice_preserves_cross_count(self):
        for seed in range(20):
            ctx = generate_random((3, 4, 3), 0.4, seed)
            for d in ctx.dims:
                for x in d.elements:
                    expected = sum(
                        1 for t in ctx.tuples() if t[d.index - 1] == x
                    )
                    assert ctx.slice(d.index, x).relation_size == expected


FIG3_PROBES = [
    box("α", "1", "ab"), box("β", "13", "a"), box("αβ", "123", "a"),
    box("", "123", "abc"), box("αβ", "", ""), box("β", "123", "a"),
]


class TestBoxPredicates:
    def test_full_box_from_table(self, fig3):
        assert fig3.is_full_box(box("αβ", "13", "a"))

    def test_full_box_fails_on_missing_cross(self, fig3):
        # the α layer has no cross at row 2, column a
        assert not fig3.is_full_box(box("αβ", "123", "a"))

    def test_empty_component_is_vacuously_full(self, fig3):
        assert fig3.is_full_box(box("", "123", "abc"))

    def test_is_concept_on_listed_concept(self, fig3):
        assert fig3.is_concept(box("αβ", "13", "a"))

    def test_extendable_box_is_not_a_concept(self, fig3):
        # (β, 13, a) is full but grows: α fits above it and 2 fits beside it
        t = box("β", "13", "a")
        assert fig3.is_full_box(t)
        assert not fig3.is_concept(t)
        assert fig3.is_full_box(box("αβ", "13", "a"))
        assert fig3.is_full_box(box("β", "123", "a"))

    def test_degenerate_concept(self, fig3):
        assert fig3.is_concept(box("", "123", "abc"))

    def test_concept_implies_full_box(self, fig3):
        for t in FIG3_PROBES:
            if fig3.is_concept(t):
                assert fig3.is_full_box(t)

    def test_malformed_tuple_is_input_error(self, fig3):
        with pytest.raises(InputError):
            fig3.is_full_box(box("αβ", "13"))
        with pytest.raises(InputError):
            fig3.is_concept(box("γ", "13", "a"))
        with pytest.raises(InputError):
            fig3.is_full_box(("αβ", "13", "a"))
        # components must be canonical: labels strictly increasing in the
        # dimension's element order, so neither unsorted nor repeated
        for bad in (
            box("βα", "13", "a"), box("αβ", "31", "a"),
            box("αα", "13", "a"), box("αβ", "133", "a"),
        ):
            with pytest.raises(InputError):
                fig3.is_concept(bad)
            with pytest.raises(InputError):
                fig3.is_full_box(bad)
            with pytest.raises(InputError):
                fig3.sort_key(bad)
        assert fig3.sort_key(box("αβ", "13", "a")) == ((0, 1), (0, 2), (0,))


class TestDerive:
    def test_object_side(self, fig1):
        assert fig1.derive(1, {"1"}) == ("a", "b")

    def test_attribute_side(self, fig1):
        assert fig1.derive(2, {"b"}) == ("1", "2")

    def test_empty_set_derives_everything(self, fig1):
        assert fig1.derive(1, set()) == ("a", "b", "c")
        assert fig1.derive("attributes", set()) == ("1", "2", "3")

    def test_arity_guard(self, fig3):
        with pytest.raises(ArityError):
            fig3.derive(1, {"α"})

    def test_unknown_elements_rejected(self, fig1):
        with pytest.raises(InputError):
            fig1.derive(1, {"9"})

    def test_extensive_and_idempotent(self, fig1):
        import itertools

        objs = fig1.dims[0].elements
        for r in range(len(objs) + 1):
            for xs in itertools.combinations(objs, r):
                primed = fig1.derive(1, xs)
                closed = fig1.derive(2, primed)
                assert set(xs) <= set(closed)
                # a derived set is already closed
                assert fig1.derive(1, closed) == primed

    def test_closures_are_concepts_brute_force(self, fig1):
        import itertools

        objs = fig1.dims[0].elements
        closed_count = 0
        for r in range(len(objs) + 1):
            for xs in itertools.combinations(objs, r):
                closure = fig1.derive(2, fig1.derive(1, xs))
                if tuple(xs) == closure:
                    closed_count += 1
                    t = fig1.box(xs, fig1.derive(1, xs))
                    assert fig1.is_concept(t)
        assert closed_count == 8  # one closed object set per concept

    def test_closures_are_concepts_on_random_2d(self):
        import itertools

        for seed in (3, 7, 11):
            ctx = generate_random((5, 5), 0.4, seed)
            objs = ctx.dims[0].elements
            for r in range(len(objs) + 1):
                for xs in itertools.combinations(objs, r):
                    primed = ctx.derive(1, xs)
                    closure = ctx.derive(2, primed)
                    if tuple(xs) == closure:
                        assert ctx.is_concept(ctx.box(xs, primed))


def test_context_equality_ignores_provenance(fig3):
    direct = NContext(
        [("dim2", ["1", "2", "3"]), ("dim3", ["a", "b", "c"])],
        [("1", "a"), ("1", "b"), ("3", "a")],
    )
    assert fig3.slice(1, "α") == direct
    assert fig3.slice(1, "α").provenance == ("dim1", "α")
    assert direct.provenance is None


def test_component_tuple_equality_is_setwise():
    assert box("αβ", "13", "a") == ComponentTuple((("α", "β"), ("1", "3"), ("a",)))
    assert box("α", "1", "a") != box("β", "1", "a")


def test_width_bits_matches_cell_by_cell_reference():
    # Every cell of the product of the components, flattened in mixed radix
    # with the last dimension fastest, sets one bit of the mask.
    rng = random.Random(20)
    for n in range(1, 5):
        for _ in range(40):
            sizes = [rng.randint(0, 4) for _ in range(n)]
            ctx = NContext(
                [(f"d{k}", [f"e{p}" for p in range(s)]) for k, s in enumerate(sizes)]
            )
            for i0 in range(n):
                other = sizes[:i0] + sizes[i0 + 1 :]
                strides = [math.prod(other[k + 1 :]) for k in range(len(other))]
                comps = [
                    tuple(sorted(rng.sample(range(s), rng.randint(0, s))))
                    for s in other
                ]
                expected = 0
                for cell in itertools.product(*comps):
                    expected |= 1 << sum(p * s for p, s in zip(cell, strides))
                assert ctx._width_bits(i0, comps) == expected, (sizes, i0, comps)
    assert NContext([("d", "ab")], [("a",)])._width_bits(0, ()) == 1
