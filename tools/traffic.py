"""Which lines of ``src/`` does the benchmark run?

    python3 tools/traffic.py

Builds each workload's input pool for seed 1 as ``bench/run.py`` does: the
contexts of ``Workload.plan(1)`` from ``bench/workloads.py``, written as
tuple files by ``serialize_tuples``.  Then it runs each op once under
``sys.settrace``, counting the line events of ``src/``; building the pool is
not traced.  It prints, per workload, every ``src/`` function that ran with
its line hits, most first (comprehensions, lambdas and inner functions count
toward the function around them), then every statement inside a ``src/``
function that no workload ran.  A compound statement counts as run when its
header line does, and a ``try`` is left to its blocks.

Only the standard library is used; function names come from
``co_qualname``, so Python 3.11 or later is needed.  All three pools take a
few seconds on a 2-core machine.
"""

from __future__ import annotations

import ast
import sys
import tempfile
from collections import Counter
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src" / "polyconcept"
sys.path[:0] = [str(ROOT / "src"), str(ROOT / "bench")]

import polyconcept as pc  # noqa: E402
from polyconcept import cli  # noqa: E402
from workloads import WORKLOADS  # noqa: E402


def _tracer(hits: Counter):
    """A ``sys.settrace`` function counting the line events of ``src/`` in
    ``hits``, keyed by (file, line, function)."""
    prefix = str(SRC)

    def local(frame, event, arg):
        if event == "line":
            code = frame.f_code
            hits[code.co_filename, frame.f_lineno, code.co_qualname] += 1
        return local

    def start(frame, event, arg):
        return local if frame.f_code.co_filename.startswith(prefix) else None

    return start


def run_pool(wl, workdir: Path) -> tuple[int, Counter]:
    """(ops, line hits) of one op per input of the seed-1 pool of ``wl``."""
    paths = []
    for k, (shape, density, seed) in enumerate(wl.plan(1)):
        path = workdir / f"{wl.name}-{k:03d}.tsv"
        path.write_text(pc.serialize_tuples(pc.generate_random(shape, density, seed)),
                        encoding="utf-8")
        paths.append(str(path))
    hits: Counter = Counter()
    sys.settrace(_tracer(hits))
    try:
        for path in paths:
            wl.run(pc, cli, path)
    finally:
        sys.settrace(None)
    return len(paths), hits


def statements(path: Path):
    """(first line, last line, function, source) of every statement inside a
    function of one module; a compound statement spans its header only."""
    text = path.read_text(encoding="utf-8")
    lines = text.splitlines()

    def walk(body, qual, in_function):
        for node in body:
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                inner = f"{qual}.{node.name}" if qual else node.name
                if in_function:
                    yield node.lineno, node.body[0].lineno - 1, qual, lines[node.lineno - 1]
                stmts = node.body
                if (not isinstance(node, ast.ClassDef) and isinstance(stmts[0], ast.Expr)
                        and isinstance(stmts[0].value, ast.Constant)):
                    stmts = stmts[1:]  # the docstring
                yield from walk(stmts, inner, in_function or not isinstance(node, ast.ClassDef))
                continue
            blocks = [getattr(node, name, []) for name in ("body", "orelse", "finalbody")]
            blocks += [h.body for h in getattr(node, "handlers", [])]
            blocks += [c.body for c in getattr(node, "cases", [])]
            if in_function and not isinstance(node, ast.Try):
                last = node.body[0].lineno - 1 if hasattr(node, "body") else node.end_lineno
                yield node.lineno, max(last, node.lineno), qual, lines[node.lineno - 1]
            for block in blocks:
                yield from walk(block, qual, in_function)

    yield from walk(ast.parse(text).body, "", False)


def main() -> int:
    ran: set[tuple[str, int]] = set()
    with tempfile.TemporaryDirectory(prefix="traffic-") as tmp:
        for wl in WORKLOADS.values():
            ops, hits = run_pool(wl, Path(tmp))
            per_function: Counter = Counter()
            for (filename, line, qual), n in hits.items():
                ran.add((filename, line))
                per_function[f"{Path(filename).stem}:{qual.split('.<locals>')[0]}"] += n
            print(f"== {wl.name}: {ops} ops, {sum(hits.values())} line hits in src/")
            for name, n in per_function.most_common():
                print(f"{n:>10}  {name}")
    unrun = []
    for path in sorted(SRC.glob("*.py")):
        for first, last, qual, source in statements(path):
            if not any((str(path), line) in ran for line in range(first, last + 1)):
                unrun.append(f"{path.name}:{first}  {qual}  {source.strip()}")
    print(f"== statements no workload ran: {len(unrun)}")
    print("\n".join(unrun))
    return 0


if __name__ == "__main__":
    sys.exit(main())
