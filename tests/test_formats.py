"""Parsers, serializers, DOT export, and the seeded generator."""

import importlib
import itertools
import pickle
import random
from dataclasses import replace

import pytest

import polyconcept
from polyconcept import (
    ComponentTuple,
    DiagramNode,
    DimensionDiagram,
    InputError,
    IntroducerRecord,
    NContext,
    ParseError,
    dimension_diagram,
    enumerate_concepts,
    export_dot,
    format_record,
    generate_random,
    gsh_2d,
    introducers,
    parse_context,
    parse_cross_table,
    parse_tuples,
    serialize_concepts,
    serialize_tuples,
)

from conftest import FIXTURES, box

FIG3_TUPLE_TEXT = (FIXTURES / "fig3.tsv").read_text(encoding="utf-8")
FIG1_TUPLE_TEXT = (FIXTURES / "fig1.tsv").read_text(encoding="utf-8")
FIG1_TABLE_TEXT = (FIXTURES / "fig1.csv").read_text(encoding="utf-8")
BOM = "\ufeff"


class TestParseTuples:
    def test_fig3_file(self, fig3):
        parsed = parse_tuples(FIG3_TUPLE_TEXT)
        assert parsed == fig3
        assert [len(d) for d in parsed.dims] == [2, 3, 3]

    def test_fig1_pairs(self, fig1):
        assert parse_tuples(FIG1_TUPLE_TEXT) == fig1

    def test_header_only_gives_empty_relation(self):
        ctx = parse_tuples("! d1: a b\n! d2: x y\n")
        assert ctx.relation_size == 0
        assert [d.name for d in ctx.dims] == ["d1", "d2"]
        assert [(d.name, d.elements) for d in parse_tuples("!d1:a\n!d2: x\n").dims] == [
            ("d1", ("a",)), ("d2", ("x",))
        ]

    def test_headerless_inference_first_appearance_order(self):
        ctx = parse_tuples("q,x\np,x\np,y\n")
        assert [d.name for d in ctx.dims] == ["dim1", "dim2"]
        assert ctx.dims[0].elements == ("q", "p")
        assert ctx.relation_size == 3

    def test_comments_and_blank_lines_skipped(self):
        ctx = parse_tuples("# heading\n\n! d1: a\n! d2: x\n# body next\na\tx\n")
        assert ctx.relation_size == 1

    def test_single_column_is_one_dimensional(self):
        ctx = parse_tuples("alpha\nbeta\nalpha\n")
        assert ctx.arity == 1
        assert ctx.relation_size == 2

    def test_duplicate_tuples_collapse(self):
        assert parse_tuples("a,x\na,x\n").relation_size == 1

    def test_ragged_arity_reports_line(self):
        with pytest.raises(ParseError) as err:
            parse_tuples("a,x\na,x,y\n")
        assert err.value.line == 2

    def test_unknown_label_with_header_reports_line(self):
        with pytest.raises(ParseError) as err:
            parse_tuples("! d1: a b\n! d2: x\nc\tx\n")
        assert err.value.line == 3

    @pytest.mark.parametrize(
        "body, line, label, dim",
        [("x\ta\n", 3, "x", "d1"), ("a\tx\nb\ta\n", 4, "a", "d2"),
         ("a\tx\nb\tx\nq\ty\n", 5, "q", "d1")],
    )
    def test_label_of_another_dimension_reports_line_and_dimension(
        self, body, line, label, dim
    ):
        with pytest.raises(ParseError) as err:
            parse_tuples("! d1: a b\n! d2: x y\n" + body)
        assert err.value.line == line
        assert str(err.value) == (
            f"line {line}: element {label!r} is not declared in dimension {dim!r}"
        )

    def test_repeated_dimension_name_in_headers_rejected(self):
        with pytest.raises(ParseError, match="dimension names must be unique"):
            parse_tuples("! d: a b\n! d: x y\na\tx\n")

    def test_empty_body_without_header_rejected(self):
        with pytest.raises(ParseError):
            parse_tuples("# nothing here\n")
        with pytest.raises(ParseError) as err:
            parse_tuples("")
        assert (str(err.value), err.value.line) == ("line 1: empty input: no header and no tuples", 1)

    def test_header_after_body_rejected(self):
        with pytest.raises(ParseError):
            parse_tuples("a,x\n! d1: a\n")

    def test_bad_header_reports_line(self):
        with pytest.raises(ParseError) as err:
            parse_tuples("! d1: a a\nx\n")
        assert err.value.line == 1


    @pytest.mark.parametrize("text", ["a,x\nb,y\nc,!z\n", "a,x\nb,y\nc,has space\n"])
    def test_bad_label_without_header_reports_its_line(self, text):
        with pytest.raises(ParseError) as err:
            parse_tuples(text)
        assert err.value.line == 3

    def test_first_body_line_split_before_stripping(self):
        with pytest.raises(ParseError) as err:
            parse_tuples("\tb1\nx\tb1\n")
        assert str(err.value) == "line 1: empty field"


class TestLineEnds:
    """Lines end at '\\n', '\\r\\n' or '\\r' and at no other character."""

    def test_paragraph_separator_in_comment_is_ignored(self):
        text = "# caf\u2028e notes\nb,x\nc,y\n"
        assert parse_tuples(text) == parse_tuples("b,x\nc,y\n")

    def test_form_feed_in_comment_keeps_line_numbers(self):
        with pytest.raises(ParseError) as err:
            parse_tuples("# page\x0c\nb,x\nc,!z\n")
        assert str(err.value) == "line 3: label '!z' may not start with '!'"

    def test_vertical_tab_in_field_is_one_line(self):
        with pytest.raises(ParseError) as err:
            parse_tuples("! d1: a b\n! d2: x\na\tx\x0bb\tx\n")
        assert str(err.value) == "line 3: expected 2 fields, got 3"

    @pytest.mark.parametrize("ch", "\x0b\x0c\x1c\x1d\x1e\x85\u2028\u2029")
    def test_other_break_characters_stay_in_their_line(self, ch):
        assert parse_tuples(f"# a{ch}b\na,x\n") == parse_tuples("a,x\n")
        with pytest.raises(ParseError) as err:
            parse_tuples(f"a,x\nb,y{ch}z\nc,x\n")
        assert str(err.value) == (
            f"line 2: label {'y' + ch + 'z'!r} contains whitespace or a comma"
        )

    @pytest.mark.parametrize("end", ["\r\n", "\r"])
    def test_crlf_and_cr_text_parse_as_lf_text(self, end):
        for text in (FIG3_TUPLE_TEXT, FIG1_TUPLE_TEXT, "# note\n\na,x\nb,y\n"):
            assert parse_tuples(text.replace("\n", end)) == parse_tuples(text)
        assert parse_cross_table(FIG1_TABLE_TEXT.replace("\n", end)) == parse_cross_table(
            FIG1_TABLE_TEXT
        )
        with pytest.raises(ParseError) as err:
            parse_tuples(f"a,x{end}{end}b,!y{end}")
        assert err.value.line == 3


FAULTS = ["empty field", "extra field", "bang", "header", "undeclared"]


def _fault(kind, line, headers, rng):
    """``line`` with one fault of ``kind``, and the message the fault earns."""
    if kind == "header":
        return "! late: a1", "header line after body lines"
    fields = line.split("\t")
    if kind == "extra field":
        return line + "\ta1", f"expected {len(fields)} fields, got {len(fields) + 1}"
    j = rng.randrange(1, len(fields))  # a first field starting with '!' makes a header
    if kind == "empty field":
        fields[j], message = "", "empty field"
    else:
        fields[j] = bad = "zz" if kind == "undeclared" else "!" + fields[j]
        message = (
            f"element {bad!r} is not declared in dimension 'dim{j + 1}'"
            if headers
            else f"label {bad!r} may not start with '!'"
        )
    return "\t".join(fields), message


def _faulty_files(seed, n_faults):
    """Generated tuple files, with and without headers, with ``n_faults``
    faults on distinct body lines: (text, line and message of the earliest)."""
    rng = random.Random(seed)
    for shape in [(2, 3), (3, 2, 2), (2, 2, 2, 2)]:
        ctx = generate_random(shape, 0.7, seed)
        if ctx.relation_size <= n_faults:
            continue
        for headers in (True, False):
            lines = serialize_tuples(ctx).splitlines()[0 if headers else ctx.arity :]
            first = ctx.arity if headers else 0  # the first body line
            # Without headers an unknown label is a new element, not a fault.
            faults = FAULTS if headers else FAULTS[:-1]
            for kinds in itertools.product(faults, repeat=n_faults):
                # On the first body line a header, or an extra field in a file
                # without headers, declares the file's shape: it is no fault.
                late = kinds[0] == "header" or (kinds[0] == "extra field" and not headers)
                at = sorted(rng.sample(range(first + late, len(lines)), n_faults))
                faulty, errors = lines[:], []
                for k, kind in zip(at, kinds):
                    faulty[k], message = _fault(kind, faulty[k], headers, rng)
                    errors.append((k + 1, message))
                yield "\n".join(faulty) + "\n", *errors[0]


class TestErrorRule:
    """Each fault is reported at its line; of several, the earliest is."""

    @pytest.mark.parametrize("n_faults", [1, 2])
    @pytest.mark.parametrize("seed", range(12))
    def test_earliest_fault_reported(self, seed, n_faults):
        for text, line_no, message in _faulty_files(seed, n_faults):
            with pytest.raises(ParseError) as err:
                parse_tuples(text)
            assert err.value.line == line_no
            assert str(err.value) == f"line {line_no}: {message}"

    @pytest.mark.parametrize(
        "text, error",
        [("a,x\nb,!y\nc,x,z\n", "line 2: label '!y' may not start with '!'"),
         ("! d1: a a\nx\n! d2: b\n", "line 1: dimension 'd1' declares element 'a' twice"),
         ("a,x\nb,y z\n! d: a\n", "line 2: label 'y z' contains whitespace or a comma")],
    )
    def test_earliest_fault_examples(self, text, error):
        with pytest.raises(ParseError) as err:
            parse_tuples(text)
        assert str(err.value) == error

    def test_cross_table_attribute_fault_before_later_rows(self):
        with pytest.raises(ParseError) as err:
            parse_cross_table(",a,a\n1,x\n")
        assert str(err.value) == "line 1: dimension 'attributes' declares element 'a' twice"


class TestParseCrossTable:
    def test_fig1_table_equals_tuple_file(self, fig1):
        table = parse_cross_table(FIG1_TABLE_TEXT)
        assert table.tuples() == parse_tuples(FIG1_TUPLE_TEXT).tuples()
        assert [d.name for d in table.dims] == ["objects", "attributes"]
        assert table == NContext(
            [("objects", "123"), ("attributes", "abc")],
            [(o, a) for o, a in fig1.tuples()],
        )

    def test_all_crosses(self):
        ctx = parse_cross_table(",a,b\n1,x,x\n2,×,x\n")
        assert ctx.relation_size == 4

    def test_no_crosses(self):
        ctx = parse_cross_table(",a,b\n1,,\n2,,\n")
        assert ctx.relation_size == 0

    def test_ragged_row_rejected(self):
        with pytest.raises(ParseError) as err:
            parse_cross_table(",a,b\n1,x\n")
        assert err.value.line == 2

    @pytest.mark.parametrize(
        "text, line",
        [(",a,b\np,x,\nq,,x\np,x,x\n", 4), (",a,b\na b,x,\n", 2), (",a,b\np,x,\n!q,,x\n", 3)],
    )
    def test_bad_object_label_reports_its_line(self, text, line):
        with pytest.raises(ParseError) as err:
            parse_cross_table(text)
        assert err.value.line == line

    def test_junk_cell_rejected(self):
        with pytest.raises(ParseError):
            parse_cross_table(",a\n1,maybe\n")

    @pytest.mark.parametrize(
        "text, error",
        [("", "line 1: empty cross table"),
         ("a b\nc d\n", "line 1: a cross table needs tab- or comma-separated columns")],
    )
    def test_header_line_faults(self, text, error):
        with pytest.raises(ParseError) as err:
            parse_cross_table(text)
        assert str(err.value) == error


class TestParseContext:
    def test_detects_cross_table_by_corner(self):
        plain = parse_context(FIG1_TABLE_TEXT)
        assert plain.dims[0].name == "objects"
        # spreadsheet exports often start with a UTF-8 byte-order mark
        for text in (BOM + FIG1_TABLE_TEXT, BOM + "# exported\n" + FIG1_TABLE_TEXT):
            assert parse_context(text) == plain
            assert parse_cross_table(text) == plain

    def test_detects_tuple_file(self):
        plain = parse_context(FIG3_TUPLE_TEXT)
        assert plain.dims[0].name == "dim1"
        for text in (BOM + FIG3_TUPLE_TEXT, BOM + "# exported\n" + FIG3_TUPLE_TEXT):
            assert parse_context(text) == plain
            assert parse_tuples(text) == plain

    @pytest.mark.parametrize("text, error", [
        ("\ufeff\ufeffa\tx\n", "line 1: label '\\ufeffa' may not start with '\\ufeff'"),
        ("a\tx\n\ufeffb\ty\n", "line 2: label '\\ufeffb' may not start with '\\ufeff'"),
        ("\ufeff\ufeff\tx\na\tx\n", "line 1: label '\\ufeff' may not start with '\\ufeff'"),
    ])
    def test_label_may_not_start_with_byte_order_mark(self, text, error):
        # only the first U+FEFF of a text is its byte-order mark, and no
        # label starts with one, so the first label keeps what it reads
        with pytest.raises(ParseError) as err:
            parse_context(text)
        assert str(err.value) == error

    def test_detection_skips_comments(self):
        assert parse_context("# note\n,a\n1,x\n").dims[0].name == "objects"

    def test_empty_input(self):
        with pytest.raises(ParseError):
            parse_context("  \n# only a comment\n")
        with pytest.raises(ParseError) as err:
            parse_context("")
        assert (str(err.value), err.value.line) == ("line 1: empty input", 1)


class TestRoundTrip:
    def test_fig_contexts(self, fig1, fig3):
        for ctx in (fig1, fig3):
            assert parse_tuples(serialize_tuples(ctx)) == ctx

    def test_random_contexts_keep_crossless_elements(self):
        for seed in range(10):
            ctx = generate_random((3, 4), 0.2, seed)
            back = parse_tuples(serialize_tuples(ctx))
            assert back == ctx
            assert [d.elements for d in back.dims] == [
                d.elements for d in ctx.dims
            ]

    def test_one_dimensional(self):
        ctx = NContext([("d", "abc")], [("b",)])
        assert parse_tuples(serialize_tuples(ctx)) == ctx


class TestSerializeConcepts:
    def test_single_concept_text(self, fig3):
        assert serialize_concepts(fig3, [box("αβ", "13", "a")]) == "(αβ, 13, a)\n"

    def test_fig3_text_lines_in_canonical_order(self, fig3):
        text = serialize_concepts(fig3, enumerate_concepts(fig3))
        assert text.splitlines() == [
            "(∅, 123, abc)",
            "(α, 1, ab)",
            "(αβ, ∅, abc)",
            "(αβ, 123, ∅)",
            "(αβ, 13, a)",
            "(β, 123, a)",
            "(β, 3, ac)",
        ]

    def test_empty_set_serializes_to_nothing(self, fig3):
        assert serialize_concepts(fig3, []) == ""

    def test_multicharacter_labels_are_spaced(self):
        ctx = NContext([("d1", ["o1", "o2"]), ("d2", ["p"])], [("o1", "p")])
        text = serialize_concepts(ctx, enumerate_concepts(ctx))
        assert "(o1, p)" in text

    def test_structured_records(self, fig3):
        import json

        text = serialize_concepts(fig3, introducers(fig3), fmt="structured")
        docs = [json.loads(line) for line in text.splitlines()]
        assert len(docs) == 7
        (merged,) = [
            d for d in docs if d["components"] == [["α", "β"], ["1", "3"], ["a"]]
        ]
        assert merged["introduces"] == {"1": ["α"], "2": ["1", "3"], "3": ["a"]}

    def test_structured_concepts_have_components_only(self, fig1):
        import json

        text = serialize_concepts(fig1, enumerate_concepts(fig1), fmt="structured")
        for line in text.splitlines():
            assert set(json.loads(line)) == {"components"}

    def test_unknown_format_rejected(self, fig1):
        with pytest.raises(InputError):
            serialize_concepts(fig1, [], fmt="xml")

    def test_keyed_set_prints_as_its_labelled_members(self, fig1, fig3):
        # A keyed set prints from its index keys; a list of its members is
        # labelled and sorted first.  Both must give the same bytes.
        rng = random.Random(32)
        ctxs = [fig1, fig3, parse_tuples((FIXTURES / "rand_2x3x3_d35_s42.tsv").read_text())]
        ctxs += [NContext([("d", [])]), NContext([("d", "ab"), ("e", [])])]
        for n in range(1, 5):
            for density in (0, 0.4, 1):
                sizes = [rng.randint(1, 4) for _ in range(n)]
                ctxs.append(generate_random(sizes, density, rng.randrange(1 << 30)))
        for ctx in ctxs:
            found = enumerate_concepts(ctx)
            for fmt in ("text", "structured"):
                assert serialize_concepts(ctx, found, fmt) == serialize_concepts(
                    ctx, list(found), fmt
                ), (ctx, fmt)

    def test_set_of_another_context_is_sorted_and_checked(self, fig1):
        # Members of a set over other dimensions go through fig1's sort_key.
        renamed = NContext([("x", "123"), ("y", "abc")], fig1.tuples())
        for fmt in ("text", "structured"):
            assert serialize_concepts(fig1, enumerate_concepts(renamed), fmt) == (
                serialize_concepts(fig1, enumerate_concepts(fig1), fmt)
            )
        other = NContext([("x", ["x1", "x2"]), ("y", "ab")], [("x1", "a"), ("x2", "a")])
        with pytest.raises(InputError):
            serialize_concepts(fig1, enumerate_concepts(other))
        with pytest.raises(InputError):
            serialize_concepts(fig1, list(enumerate_concepts(other)))

    def test_record_text_carries_annotations(self, fig3):
        text = serialize_concepts(fig3, introducers(fig3))
        line = [l for l in text.splitlines() if l.startswith("(αβ, 13, a)")][0]
        assert line == "(αβ, 13, a)\tintroduces dim1: α; dim2: 1 3; dim3: a"


class TestExportDot:
    def test_fig1_gsh_counts(self, fig1):
        dot = export_dot(fig1, gsh_2d(fig1), name="gsh")
        assert dot.startswith("digraph gsh {")
        assert dot.count("[label=") == 6
        assert dot.count(" -> ") == 6
        assert "rankdir=BT" in dot

    def test_singleton(self, fig1):
        diagram = dimension_diagram(fig1, [box("1", "ab")], 1)
        dot = export_dot(fig1, diagram)
        assert dot.count("[label=") == 1
        assert " -> " not in dot

    def test_incomparable_nodes_have_no_edges(self, fig1):
        diagram = dimension_diagram(fig1, [box("1", "ab"), box("2", "bc")], 1)
        dot = export_dot(fig1, diagram)
        assert dot.count("[label=") == 2
        assert " -> " not in dot

    def test_labels_escaped(self):
        ctx = NContext([("d1", ['o"quote']), ("d2", ["p"])], [('o"quote', "p")])
        dot = export_dot(ctx, dimension_diagram(ctx, list(enumerate_concepts(ctx)), 1))
        assert '\\"' in dot


class TestGenerateRandom:
    def test_pinned_fixture(self):
        expected = (FIXTURES / "rand_2x3x3_d35_s42.tsv").read_text(encoding="utf-8")
        ctx = generate_random((2, 3, 3), 0.35, 42)
        assert serialize_tuples(ctx) == expected
        assert parse_tuples(expected) == ctx

    def test_determinism_across_calls(self):
        a = generate_random((4, 4), 0.5, 123)
        b = generate_random((4, 4), 0.5, 123)
        assert a == b
        assert a != generate_random((4, 4), 0.5, 124)

    def test_density_zero_and_one(self):
        assert generate_random((3, 3), 0.0, 7).relation_size == 0
        full = generate_random((2, 2, 2), 1.0, 7)
        assert full.relation_size == 8
        assert len(enumerate_concepts(full)) == 1

    def test_validation(self):
        with pytest.raises(InputError):
            generate_random((), 0.5, 1)
        with pytest.raises(InputError):
            generate_random((0, 3), 0.5, 1)
        with pytest.raises(InputError):
            generate_random((3, 3), 1.5, 1)


def test_format_record_uses_dimension_order(fig3):
    assert format_record(fig3, box("αβ", "13", "a")) == "(αβ, 13, a)"
    assert format_record(fig3, box("", "123", "abc")) == "(∅, 123, abc)"


def test_format_record_spaces_labels_when_one_is_longer():
    ctx = NContext([("d1", ["a", "bc", "d"]), ("d2", "xy")], [])
    assert format_record(ctx, ComponentTuple((("a", "d"), ("x", "y")))) == "(a d, xy)"
    assert format_record(ctx, ComponentTuple((("bc",), ()))) == "(bc, ∅)"


class TestRecordText:
    """An introducer record's line: a bad annotation is an input error, and
    the text a context renders is kept for that context only."""

    RENDERERS = {
        "format_record": format_record,
        "serialize_concepts": lambda ctx, r: serialize_concepts(ctx, [r]),
        "serialize_concepts_structured": lambda ctx, r: serialize_concepts(ctx, [r], "structured"),
        "export_dot": lambda ctx, r: export_dot(
            ctx, DimensionDiagram(1, (DiagramNode(r.concept.components[0], (r,)),), ())
        ),
    }

    @pytest.mark.parametrize("render", sorted(RENDERERS))
    @pytest.mark.parametrize("dim", [0, 3])
    def test_annotation_outside_the_dimensions_is_an_input_error(self, fig1, render, dim):
        record = IntroducerRecord(fig1.box(["1"], ["a", "b"]), ((dim, ("1",)),))
        with pytest.raises(InputError, match=rf"^dimension {dim} is not in 1\.\.2$"):
            self.RENDERERS[render](fig1, record)

    def test_repeated_render_gives_the_same_text_built_once(self, fig1, monkeypatch):
        module = importlib.import_module("polyconcept.introducers")  # not the function
        built = []
        monkeypatch.setattr(module, "component_text", lambda *a: built.append(a) or "(c)")
        record = introducers(fig1)[0]
        assert format_record(fig1, record) == format_record(fig1, record)
        assert format_record(fig1, record, "\t") == "(c)\tintroduces objects: 1"
        assert len(built) == 1

    def test_another_context_gets_its_own_text(self, fig1):
        record = introducers(fig1)[0]
        renamed = NContext([("rows", "123"), ("cols", "abc")], fig1.tuples())
        spaced = NContext([("objects", "123"), ("attributes", ["a", "b", "c", "dd"])], fig1.tuples())
        expected = {
            fig1: "(1, ab) introduces objects: 1",
            renamed: "(1, ab) introduces rows: 1",
            spaced: "(1, a b) introduces objects: 1",
        }
        for ctx in (fig1, renamed, fig1, spaced, spaced, fig1):
            assert format_record(ctx, record) == expected[ctx]
            assert str(record) == "(1, a b) introduces 1: 1"
        assert serialize_concepts(renamed, [record]) == "(1, ab)\tintroduces rows: 1\n"

    def test_rendered_text_is_not_part_of_the_value(self, fig1):
        rendered, fresh = introducers(fig1)[0], introducers(fig1)[0]
        format_record(fig1, rendered)
        assert "_cache" in vars(rendered) and "_cache" not in vars(fresh)
        assert rendered == fresh and hash(rendered) == hash(fresh)
        assert repr(rendered) == repr(fresh) and "introduces objects" not in repr(rendered)
        copied = pickle.loads(pickle.dumps(rendered))
        assert copied == rendered and "_cache" not in vars(copied)
        assert pickle.dumps(rendered) == pickle.dumps(fresh)
        assert "_cache" not in vars(replace(rendered))


def test_every_exported_name_resolves():
    assert [n for n in polyconcept.__all__ if not hasattr(polyconcept, n)] == []
