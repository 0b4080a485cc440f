"""Introducer computation: both algorithms, the filter, and the oracle."""

import pytest

from polyconcept import (
    ArityError,
    ConsistencyError,
    InputError,
    NContext,
    cli,
    enumerate_concepts,
    extend_height,
    format_record,
    generate_random,
    introducer_dim,
    introducer_oracle,
    introducers,
    nontrivial_filter,
)
from polyconcept.context import _elements

from conftest import (
    FIG1_GSH,
    FIG3_INTRODUCES,
    FIXTURES,
    box,
    introducers_of,
    records_by_concept,
)


class TestExtendHeight:
    def test_shared_width_reaches_both_layers(self, fig3):
        assert extend_height(fig3, 1, (["1", "3"], ["a"])) == ("α", "β")

    def test_private_width_stays_in_one_layer(self, fig3):
        assert extend_height(fig3, 1, (["1"], ["a", "b"])) == ("α",)

    def test_empty_width_component_includes_everything(self, fig3):
        assert extend_height(fig3, 1, (["1", "2", "3"], [])) == ("α", "β")

    def test_accepts_component_tuple(self, fig3):
        width = fig3.slice(1, "α").box(["1", "3"], ["a"])
        assert extend_height(fig3, 1, width) == ("α", "β")

    def test_extension_contains_slice_element(self, fig3):
        for d in fig3.dims:
            for x in d.elements:
                sub = fig3.slice(d.index, x)
                for t in enumerate_concepts(sub):
                    assert x in extend_height(fig3, d.index, t)

    def test_dimension_errors(self, fig3):
        with pytest.raises(InputError):
            extend_height(fig3, 5, (["1"], ["a"]))
        with pytest.raises(InputError):
            extend_height(fig3, 1, (["1"],))


class TestIntroducerDim:
    def test_fig3_dim1_nontrivial_alpha(self, fig3):
        records = nontrivial_filter(introducer_dim(fig3, 1))
        alpha = {r.concept for r in records if "α" in r.introduced(1)}
        assert alpha == {box("αβ", "13", "a"), box("α", "1", "ab")}

    def test_fig3_dim1_unfiltered_alpha_adds_degenerates(self, fig3):
        records = introducer_dim(fig3, 1)
        alpha = {r.concept for r in records if "α" in r.introduced(1)}
        assert alpha == {
            box("αβ", "13", "a"),
            box("α", "1", "ab"),
            box("αβ", "123", ""),
            box("αβ", "", "abc"),
        }

    def test_fig3_dim1_beta_from_oracle(self, fig3):
        # the definition-based route fixes what β introduces
        records = introducer_dim(fig3, 1)
        beta = {r.concept for r in records if "β" in r.introduced(1)}
        oracle_beta = introducers_of(introducer_oracle(fig3), 1, "β")
        assert beta == oracle_beta
        assert beta == {box("β", "123", "a"), box("β", "3", "ac"), box("αβ", "", "abc")}

    def test_fig1_objects_dimension_gives_object_concepts(self, fig1):
        records = introducer_dim(fig1, "objects")
        assert {r.concept for r in records} == {
            fig1.box([o], fig1.derive(1, [o])) for o in "123"
        }
        assert {r.concept for r in records} == {
            box("1", "ab"), box("2", "bc"), box("3", "ac"),
        }

    def test_arity_guard(self, fig3):
        one = fig3.slice(1, "α").slice(1, "1")
        with pytest.raises(ArityError):
            introducer_dim(one, 1)
        with pytest.raises(InputError):
            introducer_dim(fig3, "nowhere")


class TestIntroducers:
    def test_fig1_is_the_classical_six(self, fig1):
        assert {r.concept for r in introducers(fig1)} == FIG1_GSH

    def test_fig3_all_seven_with_merged_annotations(self, fig3):
        got = records_by_concept(introducers(fig3))
        expected = {
            c: {d: tuple(sorted(v)) for d, v in m.items()}
            for c, m in FIG3_INTRODUCES.items()
        }
        normalized = {
            c: {d: tuple(sorted(v)) for d, v in m.items()} for c, m in got.items()
        }
        assert normalized == expected

    def test_empty_relation_2d(self):
        ctx = NContext([("d1", "abc"), ("d2", "xy")], [])
        got = records_by_concept(introducers(ctx))
        assert got == {
            box("abc", ""): {1: ("a", "b", "c")},
            box("", "xy"): {2: ("x", "y")},
        }

    def test_records_merge_rather_than_duplicate(self, fig3):
        records = introducers(fig3)
        assert len({r.concept for r in records}) == len(records)

    def test_records_and_concepts_print_as_text(self, fig1, fig3):
        first = introducers(fig1)[0]
        assert str(first) == "(1, a b) introduces 1: 1"
        assert str(first.concept) == "(1, a b)"
        assert str(introducers(fig3)[1]) == "(α, 1, a b) introduces 1: α; 2: 1; 3: b"

    def test_idempotent_and_deterministic(self, fig3):
        assert introducers(fig3) == introducers(fig3)

    def test_soundness_subset_of_concepts(self, fig3):
        found = enumerate_concepts(fig3)
        for r in introducers(fig3):
            assert r.concept in found

    def test_annotations_point_into_components(self, fig3):
        for r in introducers(fig3):
            for d, labels in r.introduces:
                comp = set(r.concept.components[d - 1])
                assert set(labels) <= comp


class TestNontrivialFilter:
    def test_fig3_filter_drops_three(self, fig3):
        records = introducers(fig3)
        kept = nontrivial_filter(records)
        assert {r.concept for r in kept} == {
            box("α", "1", "ab"), box("αβ", "13", "a"),
            box("β", "123", "a"), box("β", "3", "ac"),
        }
        by_concept = {r.concept: r for r in records}
        for r in kept:  # annotations preserved verbatim
            assert r == by_concept[r.concept]

    def test_fig1_unchanged(self, fig1):
        records = introducers(fig1)
        assert nontrivial_filter(records) == records

    def test_only_degenerates_filters_to_nothing(self):
        ctx = NContext([("d1", "ab"), ("d2", "xy")], [])
        assert nontrivial_filter(introducers(ctx)) == ()


class TestOracleAgreement:
    def test_fig3(self, fig3):
        assert set(introducer_oracle(fig3)) == set(introducers(fig3))

    def test_fig1(self, fig1):
        assert set(introducer_oracle(fig1)) == set(introducers(fig1))
        assert {r.concept for r in introducer_oracle(fig1)} == FIG1_GSH

    def test_empty_relation(self):
        ctx = NContext([("d1", "ab"), ("d2", "xy")], [])
        assert set(introducer_oracle(ctx)) == set(introducers(ctx))

    @pytest.mark.parametrize("shape", [(4, 4), (3, 3, 3), (2, 3, 4)])
    def test_random_smoke(self, shape):
        for seed in range(20):
            ctx = generate_random(shape, 0.4, seed)
            assert set(introducer_oracle(ctx)) == set(introducers(ctx)), seed


class TestStructuralInvariants:
    def test_injectivity_of_extension(self):
        # per element, one introducer per slice concept and all widths differ
        for seed in range(15):
            ctx = generate_random((3, 3, 3), 0.35, seed)
            records = introducers(ctx)
            for d in ctx.dims:
                for x in d.elements:
                    mine = introducers_of(records, d.index, x)
                    assert len(mine) == len(
                        enumerate_concepts(ctx.slice(d.index, x))
                    )
                    widths = {
                        tuple(
                            c
                            for j, c in enumerate(t.components)
                            if j != d.index - 1
                        )
                        for t in mine
                    }
                    assert len(widths) == len(mine)

    def test_completeness_per_element(self, fig3):
        # the search on each slice's row of the parent's layers against a
        # labelled slice context, enumerated on its own and extended back
        # with extend_height
        contexts = [fig3] + [
            generate_random(shape, density, seed)
            for shape, density in (
                ((3, 3, 3), 0.4), ((2, 3, 4), 0.5), ((2, 2, 3, 3), 0.6)
            )
            for seed in range(3)
        ]
        for ctx in contexts:
            records = introducers(ctx)
            for d in ctx.dims:
                for x in d.elements:
                    via_slices = {
                        ctx.box(
                            *_insert(
                                t.components,
                                d.index - 1,
                                extend_height(ctx, d.index, t),
                            )
                        )
                        for t in enumerate_concepts(ctx.slice(d.index, x))
                    }
                    assert introducers_of(records, d.index, x) == via_slices

    def test_2d_specialisation_and_size_bound(self):
        for seed in range(15):
            ctx = generate_random((4, 5), 0.4, seed)
            got = {r.concept for r in introducers(ctx)}
            classic = {
                ctx.box(ctx.derive(2, ctx.derive(1, [o])), ctx.derive(1, [o]))
                for o in ctx.dims[0].elements
            } | {
                ctx.box(ctx.derive(2, [a]), ctx.derive(1, ctx.derive(2, [a])))
                for a in ctx.dims[1].elements
            }
            assert got == classic
            assert len(got) <= len(ctx.dims[0]) + len(ctx.dims[1])

    def test_crossless_element_still_gets_an_introducer(self):
        # attribute d occurs in no tuple; its slice has the empty concept,
        # which extends to the degenerate concept with a full attribute side
        ctx = NContext(
            [("objects", "123"), ("attributes", "abcd")],
            [("1", "a"), ("1", "b"), ("2", "b"), ("2", "c"),
             ("3", "a"), ("3", "c")],
        )
        records = introducers(ctx)
        d_intro = introducers_of(records, 2, "d")
        assert d_intro == {box("", "abcd")}
        assert d_intro == introducers_of(introducer_oracle(ctx), 2, "d")


class TestConsistencyChecks:
    """Each extension is checked against the others by fault injection:
    ``_extend_mask`` is made to answer wrongly for one dimension."""

    @staticmethod
    def _fault(monkeypatch, dim0, wrong):
        extend = NContext._extend_mask

        def faulty(self, i0, masks):
            ext = extend(self, i0, masks)
            return wrong(ext) if i0 == dim0 else ext

        monkeypatch.setattr(NContext, "_extend_mask", faulty)

    @staticmethod
    def _drop_first(ext):
        return ext & ext - 1  # without its lowest element

    def test_extension_that_loses_its_element(self, fig3, monkeypatch):
        # the first slice is at element 0 of dimension 1, the first
        # position of every correct extension there
        self._fault(monkeypatch, 0, self._drop_first)
        with pytest.raises(ConsistencyError, match="lost 'α'"):
            introducer_dim(fig3, 1)

    def test_extension_that_is_not_a_concept(self, fig3, monkeypatch):
        # slicing dimension 1, the re-check of dimension 3 answers wrongly
        self._fault(monkeypatch, 2, lambda ext: self._drop_first(ext) if ext else 1)
        with pytest.raises(ConsistencyError, match="is not a concept"):
            introducer_dim(fig3, 1)

    def test_lost_element_is_named_at_its_own_slice(self, fig3, monkeypatch):
        # only a concept of layer β alone loses its element, at the slice at β
        self._fault(monkeypatch, 0, lambda ext: 0 if ext == 0b10 else ext)
        with pytest.raises(ConsistencyError, match=r"^extension of \(β, [^()]*\) lost 'β'$"):
            introducer_dim(fig3, 1)

    def test_cli_reports_a_failed_check_as_one_error_line(self, monkeypatch, capsys):
        # a bug, not a failed verification: exit 2, no traceback
        self._fault(monkeypatch, 0, self._drop_first)
        assert cli.main(["introducers", str(FIXTURES / "fig3.tsv")]) == 2
        assert capsys.readouterr() == ("", "error: extension of (α, ∅, abc) lost 'α'\n")

    def test_failed_check_prints_its_concept_as_format_record_does(self, fig3, monkeypatch):
        self._fault(monkeypatch, 0, self._drop_first)
        with pytest.raises(ConsistencyError) as err:
            introducer_dim(fig3, 1)
        text = format_record(fig3, fig3.box(["α"], [], ["a", "b", "c"]))
        assert str(err.value) == f"extension of {text} lost 'α'"


def test_one_concept_test_per_record(monkeypatch):
    # A concept reached from several slices is tested on its first arrival
    # only: 1,543 tests for these 337 records when each arrival was tested.
    calls = []
    is_concept = NContext._is_concept_mask

    def counted(self, masks, derived=None):
        calls.append(tuple(map(_elements, masks)))
        return is_concept(self, masks, derived)

    monkeypatch.setattr(NContext, "_is_concept_mask", counted)
    records = 0
    for density in (0.2, 0.4, 0.6):
        for seed in range(8):
            ctx = generate_random((2, 2, 3, 3), density, seed)
            before = len(calls)
            found = introducers(ctx)
            tested = calls[before:]
            assert len(tested) == len(set(tested)) == len(found)
            assert set(tested) == {ctx.sort_key(r.concept) for r in found}
            records += len(found)
    assert len(calls) == records == 337


def _insert(components, at, values):
    comps = list(components)
    comps.insert(at, values)
    return comps


def test_record_validation(fig3):
    (r,) = [r for r in introducers(fig3) if r.concept == box("αβ", "", "abc")]
    assert r.introduced(1) == ("α", "β")
    assert r.introduced(2) == ()
