"""End-to-end command-line behaviour via real subprocesses, plus in-process
checks of failures that a subprocess cannot provoke and of argument parsing."""

import argparse
import hashlib
import json
import os
import subprocess
import sys
from pathlib import Path
from types import SimpleNamespace

from conftest import FIXTURES, box, long_thin_context
from test_acceptance import CLI_INVOCATIONS

from polyconcept import ConceptSet, IntroducerRecord, cli, generate_random, serialize_tuples
from polyconcept.context import MAX_ARITY

SRC = str(Path(__file__).resolve().parent.parent / "src")

FIG1_CSV = str(FIXTURES / "fig1.csv")
FIG1_TSV = str(FIXTURES / "fig1.tsv")
FIG3_TSV = str(FIXTURES / "fig3.tsv")


def run_cli(*argv, hashseed="0", env_extra=None):
    env = dict(os.environ)
    env["PYTHONPATH"] = SRC + os.pathsep + env.get("PYTHONPATH", "")
    env["PYTHONHASHSEED"] = hashseed
    if env_extra:
        env.update(env_extra)
    return subprocess.run(
        [sys.executable, "-m", "polyconcept", *argv],
        capture_output=True,
        text=True,
        env=env,
    )


def test_concepts_fig3(tmp_path):
    res = run_cli("concepts", FIG3_TSV)
    assert res.returncode == 0
    assert len(res.stdout.splitlines()) == 7
    assert "(αβ, 13, a)" in res.stdout
    assert "7 concepts" in res.stderr


def test_concepts_prints_without_labelling_a_concept(monkeypatch, capsys):
    from polyconcept import NContext

    def refuse(self, pos):
        raise AssertionError(f"labelled {pos}")

    for fmt in ("text", "structured"):
        assert cli.main(["concepts", FIG3_TSV, "--format", fmt]) == 0
        expected = capsys.readouterr().out
        with monkeypatch.context() as patch:
            patch.setattr(NContext, "_labelled", refuse)
            assert cli.main(["concepts", FIG3_TSV, "--format", fmt]) == 0
        assert capsys.readouterr().out == expected


def test_concepts_fig1_cross_table():
    res = run_cli("concepts", FIG1_CSV)
    assert res.returncode == 0
    assert len(res.stdout.splitlines()) == 8


def test_concepts_empty_context(tmp_path):
    empty = tmp_path / "empty.tsv"
    empty.write_text("! d1: a b\n! d2: x y\n", encoding="utf-8")
    res = run_cli("concepts", str(empty))
    assert res.returncode == 0
    assert len(res.stdout.splitlines()) == 2


def test_concepts_long_dimension(tmp_path):
    # A search whose depth grows with the element count overflows the stack
    # on this table; its traceback would exit with status 1, which means a
    # failed verification.
    f = tmp_path / "long.tsv"
    f.write_text(serialize_tuples(long_thin_context()), encoding="utf-8")
    res = run_cli("concepts", str(f))
    assert res.returncode == 0, res.stderr
    assert len(res.stdout.splitlines()) == 3


def test_concepts_structured():
    res = run_cli("concepts", FIG3_TSV, "--format", "structured")
    docs = [json.loads(line) for line in res.stdout.splitlines()]
    assert len(docs) == 7
    assert all("components" in d for d in docs)


def test_introducers_default_and_dim():
    res = run_cli("introducers", FIG3_TSV)
    assert res.returncode == 0
    assert len(res.stdout.splitlines()) == 7
    assert "7 introducer records" in res.stderr

    res = run_cli("introducers", FIG3_TSV, "--dim", "1", "--nontrivial")
    assert res.returncode == 0
    lines = res.stdout.splitlines()
    assert len(lines) == 4
    alpha_lines = [l for l in lines if "dim1: α" in l]
    assert sorted(l.split("\t")[0] for l in alpha_lines) == [
        "(α, 1, ab)",
        "(αβ, 13, a)",
    ]


def test_introducers_by_dimension_name():
    res = run_cli("introducers", FIG1_TSV, "--dim", "objects")
    assert res.returncode == 0
    assert len(res.stdout.splitlines()) == 3


def test_introducers_fig1_six():
    res = run_cli("introducers", FIG1_CSV)
    assert len(res.stdout.splitlines()) == 6


def test_dim_digits_other_than_ascii_name_a_dimension(tmp_path):
    f = tmp_path / "sup.tsv"
    f.write_text("! ²: a b\n! n: x y\na\tx\n", encoding="utf-8")
    res = run_cli("order", str(f), "--dim", "²", "--format", "text")
    assert res.returncode == 0, res.stderr
    assert res.stdout.splitlines()[0] == "dimension: 1 ²"


def test_unknown_dimension_is_usage_error():
    res = run_cli("introducers", FIG3_TSV, "--dim", "9")
    assert res.returncode == 2
    assert "error:" in res.stderr


def test_parse_error_status(tmp_path):
    bad = tmp_path / "bad.tsv"
    bad.write_text("a,x\na,x,y\n", encoding="utf-8")
    res = run_cli("concepts", str(bad))
    assert res.returncode == 2
    assert "line 2" in res.stderr


def test_missing_file_status():
    res = run_cli("concepts", "no-such-file.tsv")
    assert res.returncode == 2


def test_non_utf8_file_is_parse_error(tmp_path):
    bad = tmp_path / "latin.tsv"
    bad.write_bytes(b"\xff\xfe1\ta\n")
    res = run_cli("concepts", str(bad))
    assert res.returncode == 2
    assert res.stderr.startswith("error: ")
    assert res.stderr.count("\n") == 1


def test_break_character_in_comment_is_ignored(tmp_path):
    plain, noted = tmp_path / "plain.csv", tmp_path / "noted.csv"
    plain.write_text("b,x\nc,y\n", encoding="utf-8")
    noted.write_text("# caf\u2028e notes\nb,x\nc,y\n", encoding="utf-8")
    res = run_cli("concepts", str(noted))
    assert res.returncode == 0, res.stderr
    assert res.stdout == run_cli("concepts", str(plain)).stdout


def test_help_lists_every_command():
    res = run_cli("--help")
    assert res.returncode == 0
    for name in ("concepts", "introducers", "order", "gsh", "stats", "verify", "gen"):
        assert f"    {name} " in res.stdout, name
    res = run_cli("verify", "--help")
    assert res.returncode == 0
    assert "--cap CAP" in res.stdout


def _outcome(argv, capsys, run=cli.main):
    try:
        status = run(argv)
    except SystemExit as exc:
        status = exc.code
    return (status, *capsys.readouterr())


def _full_parser_run(argv):
    args = cli.build_parser().parse_args(argv)
    return args.func(args)


# each command's complete line, on inputs it runs on without error
COMPLETE = {
    "concepts": [FIG3_TSV], "introducers": [FIG3_TSV], "order": [FIG1_TSV, "--dim", "1"],
    "gsh": [FIG1_CSV], "stats": [FIG3_TSV], "verify": [FIG1_CSV],
    "gen": ["--sizes", "2,3", "--density", "0.5", "--seed", "1"],
}


def test_one_command_parser_behaves_as_full_parser(monkeypatch, capsys):
    # main parses a named command with that command's parser alone; whatever
    # the line, its outcome is that of the full parser and the handler.  A
    # complete line plus an unknown argument reaches the root parser's
    # "unrecognized arguments" error, with every command in its usage line.
    monkeypatch.setattr(cli, "time", SimpleNamespace(perf_counter=lambda: 0.0))
    argvs = [[], ["--help"], ["-x"], ["nosuchcommand"], ["verify", FIG1_CSV, "--cap", "x"],
             ["gen", "--sizes", "2", "--density", "x", "--seed", "1"], ["order", FIG1_TSV],
             ["concepts", "--", FIG3_TSV], ["concepts", FIG3_TSV, "--", "-y"],
             ["concepts", FIG3_TSV, "--format=structured"], ["concepts", FIG3_TSV, "--form", "text"],
             ["verify", FIG1_CSV, "--ca", "0"], ["introducers", FIG3_TSV, "--non"],
             ["concepts", FIG3_TSV, "extra"], ["concepts", FIG3_TSV, "-x"],
             ["concepts", FIG3_TSV, "--format"]]
    for name, args in COMPLETE.items():
        argvs += [[name, "--help"], [name], [name, *args], [name, *args, "-h"],
                  [name, *args, "--bogus"]]
    for argv in argvs:
        assert _outcome(argv, capsys) == _outcome(argv, capsys, _full_parser_run), argv


def test_a_valid_command_line_builds_one_parser(monkeypatch, capsys):
    built = []
    init = argparse.ArgumentParser.__init__

    def counted(self, *args, **kwargs):
        built.append(kwargs.get("prog"))
        init(self, *args, **kwargs)

    monkeypatch.setattr(argparse.ArgumentParser, "__init__", counted)
    for name, args in COMPLETE.items():
        built.clear()
        assert cli.main([name, *args]) == 0
        assert built == [f"polyconcept {name}"]
    capsys.readouterr()


def test_leading_separator_before_the_command(capsys):
    # one leading "--" is dropped and the command after it runs; a second is not
    plain = _outcome(["verify", FIG1_CSV], capsys)
    assert plain[0] == 0
    assert _outcome(["--", "verify", FIG1_CSV], capsys) == plain
    status, out, err = _outcome(["--", "--", "verify", FIG1_CSV], capsys)
    assert status == 2 and out == ""
    assert "invalid choice: '--'" in err


def test_out_of_memory_is_exit_2(monkeypatch, capsys):
    def exhausted(ctx, **kwargs):
        raise MemoryError

    monkeypatch.setattr(cli, "enumerate_concepts", exhausted)
    assert cli.main(["concepts", FIG3_TSV]) == 2
    out, err = capsys.readouterr()
    assert out == ""
    assert err == "error: out of memory\n"


def test_verify_failure_is_exit_1(monkeypatch, capsys):
    # Faults on the full context only: the slices of the count identity
    # still go through the real enumerator.
    enumerate_concepts, introducers = cli.enumerate_concepts, cli.introducers
    dropped = {box("α", "1", "ab"), box("β", "3", "ac")}
    added = [box("β", "13", "a"), box("α", "1", "a")]  # full boxes, not maximal

    def faulty_concepts(ctx, **kwargs):
        found = enumerate_concepts(ctx, **kwargs)
        if ctx.provenance is not None:
            return found
        kept = [t for t in found if t not in dropped] + added
        return ConceptSet(ctx, map(ctx.sort_key, kept))

    monkeypatch.setattr(cli, "enumerate_concepts", faulty_concepts)
    monkeypatch.setattr(cli, "introducers", lambda ctx: introducers(ctx)[1:])
    assert cli.main(["verify", FIG3_TSV]) == 1
    lines = capsys.readouterr().out.splitlines()
    # missing and extra both list concepts in canonical order
    assert lines[0] == (
        "concept oracle: FAIL missing=['(α, 1, ab)', '(β, 3, ac)'] "
        "extra=['(α, 1, a)', '(β, 13, a)']"
    )
    assert lines[1] == (
        "introducer oracle: FAIL missing=['(∅, 123, abc) introduces dim2: 1 2 3; dim3: b c'] extra=[]"
    )
    assert lines[4] == "soundness: FAIL strays=['(α, 1, ab)', '(β, 3, ac)']"
    assert lines[5] == (
        "introduction counts: FAIL dim2/1: 2 != 3; dim2/2: 2 != 3; dim2/3: 2 != 3; "
        "dim3/b: 2 != 3; dim3/c: 2 != 3"
    )
    assert lines[-1] == "result: fail (4)"


def test_verify_one_failure_is_exit_1(monkeypatch, capsys):
    # The introducer oracle loses one record; every other check passes.
    oracle_records = cli._oracle_records
    monkeypatch.setattr(cli, "_oracle_records", lambda ctx, ref: oracle_records(ctx, ref)[1:])
    assert cli.main(["verify", FIG3_TSV]) == 1
    lines = capsys.readouterr().out.splitlines()
    assert lines[1] == (
        "introducer oracle: FAIL missing=[] extra=['(∅, 123, abc) introduces dim2: 1 2 3; dim3: b c']"
    )
    assert [line for line in lines if ": FAIL " in line] == [lines[1]]
    assert lines[-1] == "result: fail (1)"


def test_introducer_oracle_ignores_record_order(monkeypatch, capsys):
    # Records in another order are no longer equal tuples; counted, they
    # match.  A repeated record is named (test_verify_uniqueness_failure_...).
    introducers = cli.introducers
    monkeypatch.setattr(cli, "introducers", lambda ctx: introducers(ctx)[::-1])
    assert cli.main(["verify", FIG3_TSV]) == 0
    assert capsys.readouterr().out.splitlines()[1] == "introducer oracle: ok (7 records)"


def test_verify_uniqueness_failure_is_exit_1(monkeypatch, capsys):
    # A repeated record: the one path to a uniqueness failure, which the real
    # pipeline never takes.  The count identity sees its elements twice.
    introducers = cli.introducers

    def first_repeated(ctx):
        records = introducers(ctx)
        return records[:1] + records

    monkeypatch.setattr(cli, "introducers", first_repeated)
    assert cli.main(["verify", FIG3_TSV]) == 1
    lines = capsys.readouterr().out.splitlines()
    # the oracle check counts copies, so it names the repeated one
    assert lines[1] == (
        "introducer oracle: FAIL missing=[] extra=['(∅, 123, abc) introduces dim2: 1 2 3; dim3: b c']"
    )
    assert lines[2] == "uniqueness axiom: FAIL [('(∅, 123, abc)', '(∅, 123, abc)')]"
    assert lines[3] == "antiordinal axiom: ok"
    assert lines[5] == (
        "introduction counts: FAIL dim2/1: 4 != 3; dim2/2: 4 != 3; dim2/3: 4 != 3; "
        "dim3/b: 4 != 3; dim3/c: 4 != 3"
    )
    assert lines[-1] == "result: fail (3)"


def test_verify_antiordinal_failure_is_exit_1(monkeypatch, capsys):
    # A full box that is not maximal: (αβ, 1, a) lies below the concept
    # (αβ, 13, a) in dimension 2 and equals it in the others.  It breaks the
    # antiordinal axiom alone of the two, and is neither a concept nor an
    # introducer.
    introducers = cli.introducers
    stray = IntroducerRecord(box("αβ", "1", "a"), ())
    monkeypatch.setattr(cli, "introducers", lambda ctx: introducers(ctx) + (stray,))
    assert cli.main(["verify", FIG3_TSV]) == 1
    lines = capsys.readouterr().out.splitlines()
    assert lines[1] == "introducer oracle: FAIL missing=[] extra=['(αβ, 1, a) introduces ']"
    assert lines[2] == "uniqueness axiom: ok"
    assert lines[3] == "antiordinal axiom: FAIL [('(αβ, 1, a)', '(αβ, 13, a)')]"
    assert lines[4] == "soundness: FAIL strays=['(αβ, 1, a)']"
    assert lines[5] == "introduction counts: ok (8 elements)"
    assert lines[-1] == "result: fail (3)"
    # a concept that is not even a canonical tuple of the context is a stray
    unsorted = IntroducerRecord(box("βα", "1", "a"), ())
    monkeypatch.setattr(cli, "introducers", lambda ctx: introducers(ctx) + (unsorted,))
    assert cli.main(["verify", FIG3_TSV]) == 1
    assert capsys.readouterr().out.splitlines()[4] == "soundness: FAIL strays=['(βα, 1, a)']"


def test_introducer_commands_need_two_dimensions(tmp_path):
    f = tmp_path / "one.txt"
    f.write_text("x\ny\n", encoding="utf-8")
    inputs = (["introducers"], ["introducers", "--dim", "2"], ["stats"], ["verify"])
    for command, *extra in inputs:
        res = run_cli(command, str(f), *extra)
        assert res.returncode == 2, (command, extra)
        assert res.stdout == ""
        assert res.stderr == "error: introducer computation needs at least 2 dimensions\n"
    # concepts and order take the same file
    assert run_cli("concepts", str(f)).stdout == "(xy)\n"
    assert run_cli("order", str(f), "--dim", "1").returncode == 0


def test_search_commands_refuse_too_many_dimensions(tmp_path):
    # 1,100 dimensions of one element each: a search nested that deep would
    # overflow the interpreter's stack, and its traceback would exit with
    # status 1, which means a failed verification.
    f = tmp_path / "wide.tsv"
    f.write_text(serialize_tuples(generate_random((1,) * 1100, 1.0, 1)), encoding="utf-8")
    for command in ("concepts", "introducers"):
        res = run_cli(command, str(f))
        assert res.returncode == 2, command
        assert res.stdout == ""
        assert res.stderr == (
            f"error: concept search takes at most {MAX_ARITY} dimensions, got 1100\n"
        )


def test_cross_table_with_byte_order_mark(tmp_path):
    f = tmp_path / "export.csv"
    f.write_bytes(b"\xef\xbb\xbf" + Path(FIG1_CSV).read_bytes())
    res = run_cli("concepts", str(f))
    assert res.returncode == 0
    assert res.stdout == run_cli("concepts", FIG1_CSV).stdout


def test_order_dot_output():
    res = run_cli("order", FIG1_TSV, "--dim", "1")
    assert res.returncode == 0
    assert res.stdout.startswith("digraph order {")
    assert res.stdout.count(" -> ") == 12


def test_order_text_labels_a_class_as_its_members_are_printed():
    res = run_cli("order", FIG1_TSV, "--dim", "2", "--format", "text")
    assert res.returncode == 0
    assert "class 2 [ab]: (1, ab)" in res.stdout.splitlines()
    assert "class 0 [∅]: (123, ∅)" in res.stdout.splitlines()


def test_order_on_introducers_text():
    res = run_cli("order", FIG3_TSV, "--dim", "1", "--on", "introducers",
                  "--format", "text")
    assert res.returncode == 0
    assert res.stdout.splitlines()[0] == "dimension: 1 dim1"
    assert sum(1 for l in res.stdout.splitlines() if l.startswith("class ")) == 4


def test_gsh_fig1():
    res = run_cli("gsh", FIG1_CSV)
    assert res.returncode == 0
    assert res.stdout.count("[label=") == 6
    assert res.stdout.count(" -> ") == 6
    assert "introduces" in res.stdout


def test_gsh_requires_2d():
    res = run_cli("gsh", FIG3_TSV)
    assert res.returncode == 2


def test_stats_fig1():
    res = run_cli("stats", FIG1_CSV)
    assert res.returncode == 0
    lines = res.stdout.splitlines()
    assert "concepts: 8" in lines
    assert "introducers: 6" in lines
    assert "reduction ratio: 0.75" in lines
    assert "enumeration:" in res.stderr and "introduction:" in res.stderr


def test_stats_fig3_ratio_one():
    res = run_cli("stats", FIG3_TSV)
    lines = res.stdout.splitlines()
    assert "concepts: 7" in lines
    assert "introducers: 7" in lines
    assert "reduction ratio: 1.0" in lines
    assert "  dim1/α: 4" in lines
    assert "  dim1/β: 3" in lines


def test_verify_passes_on_fixtures():
    for path in (FIG1_CSV, FIG3_TSV):
        res = run_cli("verify", path)
        assert res.returncode == 0, res.stdout + res.stderr
        assert "result: pass" in res.stdout
        assert "concept oracle: ok" in res.stdout


def test_passing_verify_labels_no_enumerated_concept(monkeypatch, capsys):
    def refuse(self):
        raise AssertionError("labelled a concept set")

    monkeypatch.setattr(ConceptSet, "concepts", property(refuse))
    monkeypatch.setattr(ConceptSet, "_frozen", refuse)
    for path in (FIG1_CSV, FIG3_TSV):
        assert cli.main(["verify", path]) == 0
        assert capsys.readouterr().out.endswith("result: pass\n")


def test_verify_skips_oracle_when_infeasible():
    res = run_cli("verify", FIG3_TSV, "--cap", "4")
    assert res.returncode == 0
    assert "concept oracle: skipped (oracle infeasible" in res.stdout
    assert "result: pass" in res.stdout


def test_verify_cap_from_environment():
    res = run_cli("verify", FIG3_TSV, env_extra={"POLYCONCEPT_ORACLE_CAP": "4"})
    assert res.returncode == 0
    assert "skipped" in res.stdout


def test_verify_cap_from_environment_must_be_integer():
    res = run_cli("verify", FIG3_TSV, env_extra={"POLYCONCEPT_ORACLE_CAP": "abc"})
    assert res.returncode == 2
    assert res.stderr.startswith("error: ")
    assert res.stderr.count("\n") == 1


def test_verify_rejects_negative_cap():
    # a negative cap would skip both oracles and still report a pass
    for res in (
        run_cli("verify", FIG3_TSV, "--cap", "-1"),
        run_cli("verify", FIG3_TSV, env_extra={"POLYCONCEPT_ORACLE_CAP": "-1"}),
    ):
        assert res.returncode == 2
        assert res.stdout == ""
        assert res.stderr.startswith("error: ")
        assert res.stderr.count("\n") == 1
    res = run_cli("verify", FIG3_TSV, "--cap", "0")
    assert res.returncode == 0
    assert res.stdout.splitlines()[:2] == [
        "concept oracle: skipped (oracle infeasible: 32 combinations exceed cap 0)",
        "introducer oracle: skipped (oracle infeasible)",
    ]


# SHA-256 over argv (file names only), exit status and stdout of in-process
# runs: the acceptance module's CLI_INVOCATIONS, `verify --cap 0`, and five
# commands on each of five generated files of arity 1 to 4.  Standard error,
# which holds counts and timings, is left out.  A change that alters output
# on purpose updates this digest.
CLI_DIGEST = "dd22fdacd1bf08e15edfe9816a412b780313b7f14f06ff64dda83a2efa944e4f"
GENERATED = [((7,), 0.5), ((4, 5), 0.4), ((3, 3, 3), 0.5), ((2, 3, 4), 0.6), ((2, 2, 2, 3), 0.7)]


def test_cli_outputs_are_identical(tmp_path, capsys):
    argvs = [list(argv) for argv in CLI_INVOCATIONS] + [["verify", FIG3_TSV, "--cap", "0"]]
    for seed, (sizes, density) in enumerate(GENERATED):
        f = tmp_path / f"gen{seed}.tsv"
        f.write_text(serialize_tuples(generate_random(sizes, density, seed)), encoding="utf-8")
        commands = (["concepts"], ["introducers"], ["order", "--dim", "1"], ["stats"], ["verify"])
        argvs += [[command, str(f), *extra] for command, *extra in commands]
    h = hashlib.sha256()
    for argv in argvs:
        status, out, _ = _outcome(argv, capsys)
        h.update((repr(([os.path.basename(a) for a in argv], status, out)) + "\n").encode())
    assert h.hexdigest() == CLI_DIGEST


def test_gen_writes_tuple_file():
    res = run_cli("gen", "--sizes", "2,3,3", "--density", "0.35", "--seed", "42")
    assert res.returncode == 0
    pinned = (FIXTURES / "rand_2x3x3_d35_s42.tsv").read_text(encoding="utf-8")
    assert res.stdout == pinned


def test_gen_validates_sizes():
    res = run_cli("gen", "--sizes", "2,zero", "--density", "0.5", "--seed", "1")
    assert res.returncode == 2


def test_gen_size_error_is_one_line(capsys):
    argv = ["gen", "--sizes", "2,x", "--density", "0.5", "--seed", "1"]
    message = "error: --sizes must be comma-separated integers, got '2,x'\n"
    assert _outcome(argv, capsys) == (2, "", message)


def test_gen_pipes_into_concepts(tmp_path):
    out = run_cli("gen", "--sizes", "3,3", "--density", "0.6", "--seed", "5")
    f = tmp_path / "gen.tsv"
    f.write_text(out.stdout, encoding="utf-8")
    res = run_cli("verify", str(f))
    assert res.returncode == 0
