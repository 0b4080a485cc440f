"""End-to-end command-line behaviour via real subprocesses, plus in-process
checks of failures that a subprocess cannot provoke."""

import json
import os
import subprocess
import sys
from pathlib import Path

from conftest import FIXTURES, long_thin_context

from polyconcept import cli, serialize_tuples

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


def test_out_of_memory_is_exit_2(monkeypatch, capsys):
    def exhausted(ctx, **kwargs):
        raise MemoryError

    monkeypatch.setattr(cli, "enumerate_concepts", exhausted)
    assert cli.main(["concepts", FIG3_TSV]) == 2
    out, err = capsys.readouterr()
    assert out == ""
    assert err == "error: out of memory\n"


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


def test_gen_writes_tuple_file():
    res = run_cli("gen", "--sizes", "2,3,3", "--density", "0.35", "--seed", "42")
    assert res.returncode == 0
    pinned = (FIXTURES / "rand_2x3x3_d35_s42.tsv").read_text(encoding="utf-8")
    assert res.stdout == pinned


def test_gen_validates_sizes():
    res = run_cli("gen", "--sizes", "2,zero", "--density", "0.5", "--seed", "1")
    assert res.returncode == 2


def test_gen_pipes_into_concepts(tmp_path):
    out = run_cli("gen", "--sizes", "3,3", "--density", "0.6", "--seed", "5")
    f = tmp_path / "gen.tsv"
    f.write_text(out.stdout, encoding="utf-8")
    res = run_cli("verify", str(f))
    assert res.returncode == 0
