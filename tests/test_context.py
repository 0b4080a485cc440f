"""Context construction, slicing, box predicates, and 2D derivation."""

import copy
import hashlib
import itertools
import pickle
import random
import sys
from dataclasses import replace

import pytest

from polyconcept import (
    ArityError,
    ComponentTuple,
    Dimension,
    InputError,
    NContext,
    dimension_diagram,
    enumerate_concepts,
    export_dot,
    generate_random,
    introducer_dim,
    introducers,
    serialize_concepts,
)
from polyconcept.context import check_label

from conftest import box


class TestConstruction:
    def test_dimension_rejects_duplicate_labels(self):
        with pytest.raises(InputError):
            Dimension(1, "d", ("a", "b", "a"))

    @pytest.mark.parametrize("bad", ["", "a b", "x,y", "#lead", "!lead", "a\tb", "\ufeffa"])
    def test_dimension_rejects_bad_labels(self, bad):
        with pytest.raises(InputError):
            Dimension(1, "d", ("ok", bad))

    def test_label_whitespace_is_what_isspace_says_over_all_of_unicode(self):
        chars = [chr(c) for c in range(sys.maxunicode + 1)]
        solid = "".join(ch for ch in chars if not ch.isspace())
        assert solid.split() == [solid]
        assert check_label(solid.replace(",", "")) == solid.replace(",", "")
        for ch in filter(str.isspace, chars):
            with pytest.raises(InputError, match="whitespace"):
                check_label(f"a{ch}b")

    def test_relation_tuple_must_use_declared_elements(self):
        with pytest.raises(InputError):
            NContext([("d1", "ab"), ("d2", "xy")], [("a", "z")])

    def test_unknown_label_is_named(self, fig1):
        # the same message whether the label comes in a relation tuple, a
        # membership probe or a component tuple
        message = "element 'z' is not in dimension 'attributes'"
        with pytest.raises(InputError) as err:
            NContext(fig1.dims, [("1", "a"), ("2", "z")])
        assert str(err.value) == message
        with pytest.raises(InputError) as err:
            fig1.has(("1", "z"))
        assert str(err.value) == message
        with pytest.raises(InputError) as err:
            fig1.sort_key(box("12", "az"))
        assert str(err.value) == message

    def test_relation_tuple_arity_checked(self):
        with pytest.raises(InputError):
            NContext([("d1", "ab"), ("d2", "xy")], [("a",)])
        with pytest.raises(ArityError, match="a context needs at least one dimension"):
            NContext([], [])

    def test_dimension_objects_must_carry_their_position(self, fig3):
        assert NContext(fig3.dims, fig3.tuples()) == fig3
        swapped = (fig3.dims[1], fig3.dims[0], fig3.dims[2])
        with pytest.raises(InputError, match="'dim2' carries index 2, expected 1"):
            NContext(swapped, [])

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
        assert ("1", "a") in fig1.tuples()
        assert len(fig1.tuples()) == fig1.relation_size == 6

    def test_frozen_value_types(self, fig1):
        t = fig1.box({"1"}, {"a", "b"})
        with pytest.raises(AttributeError):
            t.components = ()
        with pytest.raises(AttributeError):
            fig1.dims[0].name = "renamed"

    def test_box_canonicalizes_order_and_duplicates(self, fig3):
        t = fig3.box(["β", "α", "β"], ["3", "1"], ["a"])
        assert t == box("αβ", "13", "a")
        # a one-shot iterable is one component, read once
        unary = NContext([("d", "ab")], [("a",)])
        assert unary.box(iter(["a"])) == unary.box(["a"]) == ComponentTuple((("a",),))
        assert unary.box(x for x in ["b", "a"]).components == (("a", "b"),)

    def test_box_rejects_bare_string_component(self, fig1):
        with pytest.raises(InputError):
            fig1.box("12", ["a"])
        # the components are separate arguments, never one collection of them
        with pytest.raises(InputError, match="expected 2 components, got 1"):
            fig1.box([["1"], ["a"]])

    def test_checks_reject_bare_string_component(self, fig1):
        # as box does: a string is not read as a collection of one-character labels
        t = ComponentTuple(("1", "ab"))
        message = (
            "component for dimension 'objects' must be an iterable of labels, "
            "not the bare string '1'"
        )
        for check in (fig1.sort_key, fig1.is_concept, fig1.is_full_box,
                      lambda t: dimension_diagram(fig1, [t], 1)):
            with pytest.raises(InputError) as err:
                check(t)
            assert str(err.value) == message


class TestSlice:
    def test_fig3_alpha_layer(self, fig3):
        sub = fig3.slice(1, "α")
        assert sub.arity == 2
        assert [d.name for d in sub.dims] == ["dim2", "dim3"]
        assert set(sub.tuples()) == {("1", "a"), ("1", "b"), ("3", "a")}
        assert sub.provenance == ("dim1", "α")
        assert repr(sub) == "<NContext 3x3, 3 tuples, sliced at dim1=α>"
        assert repr(fig3) == "<NContext 2x3x3, 7 tuples>"

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

    def test_non_integral_selector_is_refused(self, fig3):
        records = introducers(fig3)
        calls = [
            lambda s: fig3.dim(s),
            lambda s: fig3.slice(s, "α"),
            lambda s: introducer_dim(fig3, s),
            lambda s: dimension_diagram(fig3, records, s),
        ]
        cases = [(call, s) for call in calls for s in (2.7, 1.9, 1.2, 2.0, None)]
        for call, selector in cases:
            with pytest.raises(InputError) as err:
                call(selector)
            assert str(err.value) == f"not a dimension name or index: {selector!r}"
        assert fig3.dim(2) == fig3.dim("dim2")
        assert introducer_dim(fig3, "dim2") == introducer_dim(fig3, 2)

    def test_slice_preserves_cross_count(self):
        for seed in range(20):
            ctx = generate_random((3, 4, 3), 0.4, seed)
            for d in ctx.dims:
                for x in d.elements:
                    expected = sum(
                        1 for t in ctx.tuples() if t[d.index - 1] == x
                    )
                    assert ctx.slice(d.index, x).relation_size == expected

    @pytest.mark.parametrize(
        "shape",
        [(3, 3, 3), (2, 3, 4), (4, 2, 3), (2, 2, 3, 3), (1, 4, 2), (3, 1, 1, 2), (5, 5)],
    )
    def test_slice_equals_rebuilt_context(self, shape):
        # Rows cut from the parent's rows must be laid out exactly as a
        # context built from the filtered tuples lays them out, slices of
        # slices too.  The slices of one dimension share their shape, down
        # to one dims tuple, but not their rows or origin.
        def check(ctx, tuples, depth):
            for i, d in enumerate(ctx.dims):
                others = [(e.name, e.elements) for e in ctx.dims if e is not d]
                subs = [ctx.slice(d.index, x) for x in d.elements]
                for x, sub in zip(d.elements, subs):
                    kept = [t[:i] + t[i + 1 :] for t in tuples if t[i] == x]
                    ref = NContext(others, kept)
                    assert sub.dims == ref.dims and sub.dims is subs[0].dims
                    assert [e.index for e in sub.dims] == list(range(1, ctx.arity))
                    assert sub._back == ref._back and sub._strides == ref._strides
                    assert sub._wide == ref._wide and sub._ranked == ref._ranked
                    assert len(sub._layers) == len(ref._layers)
                    for got, want in zip(sub._layers, ref._layers):
                        assert got == want, (shape, density, seed, depth, d.name, x)
                    assert sub == ref and sub.tuples() == ref.tuples()
                    assert sub.provenance == (d.name, x)
                    assert repr(sub).endswith(f", sliced at {d.name}={x}>")
                    if depth and sub.arity > 1:
                        check(sub, kept, depth - 1)
                assert len({repr(sub) for sub in subs}) == len(subs)

        for density, seed in [(0.3, 0), (0.3, 1), (0.7, 2), (0.0, 3), (1.0, 4)]:
            ctx = generate_random(shape, density, seed)
            check(ctx, ctx.tuples(), 1)
            assert [e.index for e in ctx.dims] == list(range(1, len(shape) + 1))


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


def _extension_by_cells(ctx, i0, width):
    """Mask of the elements x of dimension i0 for which ``ctx.has`` holds on
    x joined to every cell of the product of the index components
    ``width``."""
    dims = ctx.dims
    others = dims[:i0] + dims[i0 + 1 :]
    labels = [[d.elements[p] for p in c] for d, c in zip(others, width)]
    cells = list(itertools.product(*labels))
    return sum(
        1 << e for e, x in enumerate(dims[i0].elements)
        if all(ctx.has(cell[:i0] + (x,) + cell[i0:]) for cell in cells)
    )


def _masks(comps):
    return tuple(sum(1 << p for p in c) for c in comps)


def _is_concept_by_cells(ctx, comps):
    """Each index component is the cell-by-cell extension of the others."""
    return all(
        _extension_by_cells(ctx, i, comps[:i] + comps[i + 1 :]) == _masks([c])[0]
        for i, c in enumerate(comps)
    )


def test_extension_matches_cell_by_cell_reference():
    # 1-D to 4-D shapes with zero- and one-element dimensions, empty to full
    # relations, random widths including empty components.
    rng = random.Random(20)
    seen = set()
    for n in range(1, 5):
        for _ in range(40):
            sizes = [rng.randint(0, 4) for _ in range(n)]
            seen.update({"1-D"} if n == 1 else (), {"one-element"} if 1 in sizes else ())
            labels = [[f"e{p}" for p in range(s)] for s in sizes]
            density = rng.choice((0, 0.5, 0.9, 1))
            ctx = NContext(
                [(f"d{k}", ls) for k, ls in enumerate(labels)],
                [t for t in itertools.product(*labels) if rng.random() < density],
            )
            for i0 in range(n):
                other = sizes[:i0] + sizes[i0 + 1 :]
                comps = [
                    tuple(sorted(rng.sample(range(s), rng.randint(0, s))))
                    for s in other
                ]
                expected = _extension_by_cells(ctx, i0, comps)
                assert ctx._extend_mask(i0, _masks(comps)) == expected, (sizes, i0, comps)
                seen.update({"empty mask"} if not all(comps) else ())
    assert seen == {"1-D", "one-element", "empty mask"}
    one = NContext([("d", "abc")], [("a",), ("c",)])
    assert one._extend_mask(0, ()) == 0b101
    assert one._is_concept_mask((0b101,)) and not one._is_concept_mask((0b1,))


def test_two_dimensional_extension_matches_row_scan():
    # Tall, wide and square tables, empty to full.  A width of fewer
    # elements than the extended dimension has rows is extended by ANDing
    # the other dimension's rows, a wider one by scanning this dimension's
    # rows; both are held to the reference.
    rng = random.Random(30)
    branches, crossless = set(), 0
    for sizes in ((30, 4), (4, 30), (8, 8)):
        for density in (0, 0.3, 1):
            ctx = generate_random(sizes, density, rng.randrange(1 << 30))
            crossless += ctx._layers[0].count(0) + ctx._layers[1].count(0)
            for i0 in (0, 1):
                rows, other = ctx._layers[i0], sizes[1 - i0]
                for r in range(other + 1):
                    for _ in range(3):
                        width = (tuple(sorted(rng.sample(range(other), r))),)
                        expected = _extension_by_cells(ctx, i0, width)
                        got = ctx._extend_mask(i0, _masks(width))
                        assert got == expected, (sizes, density, i0, width)
                        branches.add(r < len(rows))
    assert branches == {True, False} and crossless


def test_concept_test_matches_cell_by_cell_reference():
    # Every box of small 1-D to 3-D contexts, with one-element and empty
    # dimensions; a derived dimension is taken as the extension of the
    # others and not tested again.
    rng = random.Random(32)
    hits = 0
    for sizes in ((3,), (2, 3), (3, 1), (2, 0), (1, 2, 2), (2, 2, 2)):
        labels = [[f"e{p}" for p in range(s)] for s in sizes]
        ctx = NContext(
            [(f"d{k}", ls) for k, ls in enumerate(labels)],
            [t for t in itertools.product(*labels) if rng.random() < 0.6],
        )
        subsets = [
            [c for r in range(s + 1) for c in itertools.combinations(range(s), r)]
            for s in sizes
        ]
        for comps in itertools.product(*subsets):
            expected = _is_concept_by_cells(ctx, comps)
            assert ctx._is_concept_mask(_masks(comps)) == expected, (sizes, comps)
            for k in range(len(sizes)):
                if _extension_by_cells(ctx, k, comps[:k] + comps[k + 1 :]) == _masks([comps[k]])[0]:
                    assert ctx._is_concept_mask(_masks(comps), k) == expected, (sizes, comps, k)
            hits += expected
    assert hits


def test_decoder_matches_bit_loop():
    from polyconcept.context import _elements

    def bits(mask):
        return tuple(k for k in range(mask.bit_length()) if mask >> k & 1)

    for mask in range(1 << 12):
        assert _elements(mask) == bits(mask), mask
    rng = random.Random(31)
    for width in (11, 64, 1000, 3000):
        for density in (0.01, 0.1, 0.5, 0.99):
            for _ in range(5):
                mask = sum(1 << k for k in range(width) if rng.random() < density)
                assert _elements(mask) == bits(mask), (width, density)


def _outcome(ctx, t):
    """``ctx.sort_key(t)``, or the type of the error it raises."""
    try:
        return ctx.sort_key(t)
    except InputError as exc:
        return type(exc)


# Every output over the sweep, in canonical order and with its labels, as
# reprs.  A change that alters output on purpose updates this digest.
SWEEP_DIGEST = "6c79bea744b48fa3a7d91d8e01fb37a15d507254e6deb63b5e9844d9be819662"


def test_sweep_outputs_are_identical(sweep_results):
    h = hashlib.sha256()
    for res in sweep_results:
        outputs = (
            tuple(res["concepts"]),
            tuple(res["brute"]),
            res["records"],
            res["oracle_records"],
            res["ctx"].tuples(),
        )
        for out in outputs:
            h.update((repr(out) + "\n").encode())
    assert h.hexdigest() == SWEEP_DIGEST


class TestCarriedKey:
    """A tuple a context makes carries its key; ``sort_key`` returns it only
    to that same context (``dims`` identity) and checks every other tuple."""

    def test_carried_keys_equal_the_full_check_on_the_sweep(self, sweep_results):
        # Every tuple is also handed to a foreign context, where the answer
        # must be the full check's, value or error: a context of the next
        # sweep shape (the sweep runs 300 contexts per shape), and the
        # parent of a slice.
        for k, res in enumerate(sweep_results):
            ctx = res["ctx"]
            foreign = sweep_results[(k + 300) % len(sweep_results)]["ctx"]
            assert foreign.dims != ctx.dims
            owned = [(ctx, t, foreign) for t in res["concepts"]]
            owned += [(ctx, t, foreign) for t in res["brute"]]
            owned += [(ctx, r.concept, foreign) for r in res["records"]]
            for d in ctx.dims:
                for x in d.elements:
                    sub = ctx.slice(d.index, x)
                    owned += [(sub, t, ctx) for t in enumerate_concepts(sub)]
            for owner, t, other in owned:
                assert t._dims is owner.dims
                assert owner.sort_key(t) == t._key == owner.sort_key(replace(t))
                assert _outcome(other, t) == _outcome(other, replace(t))

    def test_copies_drop_the_carried_key(self, fig3):
        # The key is only valid for its context's own dims object, which a
        # copy cannot keep.
        t = enumerate_concepts(fig3)[4]
        r = introducers(fig3)[0]
        assert t._dims is r.concept._dims is fig3.dims
        assert pickle.dumps(t) == pickle.dumps(ComponentTuple(t.components))
        bare = replace(r, concept=ComponentTuple(r.concept.components))
        assert pickle.dumps(r) == pickle.dumps(bare)
        assert copy.deepcopy(t)._dims is None and copy.deepcopy(t) == t

    def test_tuples_from_other_sources_take_the_full_check(self, fig3):
        t = enumerate_concepts(fig3)[4]
        assert t == box("αβ", "13", "a") and t._key == ((0, 1), (0, 2), (0,))
        # same names and labels, dim2 in another element order
        flipped = NContext(
            [(d.name, d.elements[:: -1 if d.index == 2 else 1]) for d in fig3.dims],
            fig3.tuples(),
        )
        with pytest.raises(InputError):  # 1 3 is not canonical there
            flipped.sort_key(t)
        single = enumerate_concepts(fig3)[1]
        assert single == box("α", "1", "ab") and single._key == ((0,), (0,), (0, 1))
        assert flipped.sort_key(single) == ((0,), (2,), (0, 1))
        # copies that are not the context's own tuple, their key spoiled
        spoiled = ((9,), (9,), (9,))
        for other in (pickle.loads(pickle.dumps(t)), replace(t), fig3.box(*t.components)):
            vars(other)["_key"] = spoiled
            assert fig3.sort_key(other) == t._key
        moved = replace(t, components=(("β", "α"), ("1", "3"), ("a",)))
        with pytest.raises(InputError):
            fig3.sort_key(moved)

    def test_pipelines_look_no_label_up(self, monkeypatch):
        class NoLookup(dict):
            def __getitem__(self, label):
                raise AssertionError(f"label {label!r} looked up")

            __contains__ = get = __getitem__

        ctx = generate_random((9, 6, 4), 0.4, 3)
        records = introducers(ctx)
        expected_dots = [
            export_dot(ctx, dimension_diagram(ctx, records, d.index)) for d in ctx.dims
        ]
        found = enumerate_concepts(ctx)
        expected_text = serialize_concepts(ctx, found)
        for d in ctx.dims:
            object.__setattr__(d, "_pos", NoLookup(d._pos))
        monkeypatch.setattr(NContext, "_index", NoLookup.__getitem__)
        records = introducers(ctx)
        dots = [export_dot(ctx, dimension_diagram(ctx, records, d.index)) for d in ctx.dims]
        assert dots == expected_dots
        found = enumerate_concepts(ctx)
        assert serialize_concepts(ctx, found) == expected_text
        assert serialize_concepts(ctx, list(found)[::-1]) == expected_text
        with pytest.raises(AssertionError):  # the patch is in force
            dimension_diagram(ctx, [ComponentTuple((("a1",), (), ()))], 1)
