"""Seeded mutation probe: which small faults in ``src/`` does the test suite catch?

    python3 tools/mutants.py [--tree DIR] [--functions NAME ...]
                             [--sample N] [--seed S] [--list]

Each mutant changes one operator or constant inside the selected functions:

* a comparison: ``<`` and ``<=``, ``>`` and ``>=``, ``==`` and ``!=``,
  ``in`` and ``not in``, ``is`` and ``is not`` swap;
* an arithmetic or bit operator, also in an augmented assignment: ``+`` and
  ``-``, ``*`` and ``//``, ``%`` to ``//``, ``&`` and ``|``, ``^`` to ``|``,
  ``<<`` and ``>>``; ``and`` and ``or``;
* a unary ``not`` or ``-`` is dropped;
* an integer constant 0 becomes 1, 1 becomes 0 or 2, and 2 becomes 1.

Annotations and docstrings are left alone.  A ``NAME`` is a
module of the package, ``context``, or a function or method in it,
``context:NContext._extend_mask``; the default is every module.

The tree (default: the checkout holding this script) is copied into a
temporary directory, and only the copy is mutated, one mutant at a time.
Each mutant first runs the test files that cover its module, stopping at
the first failure; a mutant they miss runs the whole suite.  A mutant is
killed when the tests fail or time out.  The unmutated copy must pass the
covering files first.  Survivors listed in ``EQUIVALENT`` below compute the
same results as the original; any other survivor is a gap in the tests, and
the exit status is then 1.

Only the standard library is used; the tests need ``pytest`` and
``hypothesis``.  All mutants of one module take roughly ten seconds each on
a 2-core machine.
"""

from __future__ import annotations

import argparse
import ast
import copy
import os
import random
import shutil
import signal
import subprocess
import sys
import tempfile
from dataclasses import dataclass
from pathlib import Path

PACKAGE = "polyconcept"
TIMEOUT = 300  # seconds per test run; a mutant that loops is killed by it

# The test files that exercise each module, run before the whole suite.
COVERING = {
    "context": ["test_context.py", "test_concepts.py", "test_introducers.py",
                "test_properties.py", "test_reference.py"],
    "concepts": ["test_concepts.py", "test_properties.py", "test_reference.py"],
    "introducers": ["test_introducers.py", "test_properties.py", "test_reference.py"],
    "order": ["test_order.py", "test_properties.py", "test_reference.py"],
    "formats": ["test_formats.py", "test_text_boundary.py", "test_cli.py"],
    "cli": ["test_cli.py", "test_acceptance.py"],
}

# (module, function, original line, mutated line): mutants that survive
# because they compute the same results.
LOWEST_BIT = "x | -x is -(x & -x), and only its bit_length, which ignores the sign, is read"
EQUIVALENT = {
    ("context", "_layout", "wide = tuple([k for k in reversed(order) if sizes[k] > 1])",
     "wide = tuple([k for k in reversed(order) if (sizes[k] >= 1)])"):
        "a one-element dimension only adds shifts by 0",
    ("context", "NContext.slice", "st = self._strides[k][i0 - (i0 > k)]",
     "st = self._strides[k][i0 - ((i0 >= k))]"):
        "k != i0 on this line",
    ("context", "NContext._extend_mask", "if self._arity == 2 and masks[0].bit_count() < len(rows):",
     "if self._arity == 2 and (masks[0].bit_count() <= len(rows)):"):
        "the threshold only picks which of two equal answers is computed",
    ("context", "NContext._extend_mask", "ext &= cols[(w & -w).bit_length() - 1]",
     "ext &= cols[((w | -w)).bit_length() - 1]"): LOWEST_BIT,
    ("context", "NContext._extend_mask", "acc |= w << ((m & -m).bit_length() - 1) * strides[k]",
     "acc |= w << (((m | -m)).bit_length() - 1) * strides[k]"): LOWEST_BIT,
    ("concepts", "_cbo", "spread = [1 << b * stride if lv else 0 for b in range(n)]",
     "spread = [1 << b * stride if lv else (1) for b in range(n)]"):
        "level 0's spread is unused: closed_tuples drops its box",
    ("order", "_up_down", "if pairs <= len(above) * size - sum(map(len, above)):",
     "if (pairs < len(above) * size - sum(map(len, above))):"):
        "the threshold only picks which of two equal answers is computed",
    ("order", "_up_down", "cols[(row & -row).bit_length() - 1] |= bit",
     "cols[((row | -row)).bit_length() - 1] |= bit"): LOWEST_BIT,
}

CMP_SWAP = {ast.Lt: ast.LtE, ast.LtE: ast.Lt, ast.Gt: ast.GtE, ast.GtE: ast.Gt,
            ast.Eq: ast.NotEq, ast.NotEq: ast.Eq, ast.In: ast.NotIn,
            ast.NotIn: ast.In, ast.Is: ast.IsNot, ast.IsNot: ast.Is}
BIN_SWAP = {ast.Add: ast.Sub, ast.Sub: ast.Add, ast.Mult: ast.FloorDiv,
            ast.FloorDiv: ast.Mult, ast.Mod: ast.FloorDiv, ast.BitAnd: ast.BitOr,
            ast.BitOr: ast.BitAnd, ast.BitXor: ast.BitOr, ast.LShift: ast.RShift,
            ast.RShift: ast.LShift}
BOOL_SWAP = {ast.And: ast.Or, ast.Or: ast.And}
CONST_SWAP = {0: (1,), 1: (0, 2), 2: (1,)}
MUTABLE = (ast.Compare, ast.BinOp, ast.AugAssign, ast.BoolOp, ast.UnaryOp, ast.Constant)


@dataclass
class Mutant:
    module: str
    function: str
    line: int
    before: str  # the changed source lines, each stripped, joined by a space
    after: str
    source: str  # the whole mutated module

    def name(self) -> str:
        return f"{self.module}:{self.function}:{self.line}"


def _variants(node: ast.AST):
    """Mutated copies of one node, each differing in one operator or constant."""
    if isinstance(node, ast.Compare):
        for k, op in enumerate(node.ops):
            if type(op) in CMP_SWAP:
                new = copy.deepcopy(node)
                new.ops[k] = CMP_SWAP[type(op)]()
                yield new
    elif isinstance(node, (ast.BinOp, ast.AugAssign)) and type(node.op) in BIN_SWAP:
        new = copy.deepcopy(node)
        new.op = BIN_SWAP[type(node.op)]()
        yield new
    elif isinstance(node, ast.BoolOp):
        new = copy.deepcopy(node)
        new.op = BOOL_SWAP[type(node.op)]()
        yield new
    elif isinstance(node, ast.UnaryOp) and isinstance(node.op, (ast.Not, ast.USub)):
        yield node.operand
    elif isinstance(node, ast.Constant) and type(node.value) is int:
        for value in CONST_SWAP.get(node.value, ()):
            yield ast.Constant(value)


def _sites(tree: ast.Module):
    """(node, qualified name of the enclosing function) for every node that
    may be mutated, skipping annotations and docstrings."""
    def walk(node, qual):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            qual = f"{qual}.{node.name}" if qual else node.name
            body = node.body
            if body and isinstance(body[0], ast.Expr) and isinstance(body[0].value, ast.Constant):
                body = body[1:]
            children = [*node.decorator_list, *body]
            if not isinstance(node, ast.ClassDef):
                args = node.args
                children += [d for d in args.defaults + args.kw_defaults if d is not None]
        elif isinstance(node, ast.AnnAssign):
            children = [node.target] + ([node.value] if node.value else [])
        else:
            if isinstance(node, MUTABLE):
                yield node, qual
            children = list(ast.iter_child_nodes(node))
        for child in children:
            yield from walk(child, qual)

    for stmt in tree.body:
        yield from walk(stmt, "")


def _offset(lines: list[str], lineno: int, col: int) -> int:
    """Character offset of a node position; ``col`` counts UTF-8 bytes."""
    return sum(map(len, lines[: lineno - 1])) + len(lines[lineno - 1].encode()[:col].decode())


def _is_segment(segment: str, node: ast.AST) -> bool:
    """Whether a node's source positions really span it (some Python
    versions misplace nodes inside f-strings)."""
    try:
        if isinstance(node, ast.stmt):
            parsed = ast.parse(segment).body[0]
        else:
            parsed = ast.parse(f"({segment})", mode="eval").body
    except SyntaxError:
        return False
    return ast.dump(parsed) == ast.dump(node)


def _inside(qual: str, function: str) -> bool:
    """Whether qualified name ``qual`` is ``function`` or nested in it."""
    return qual == function or qual.startswith(function + ".")


def mutants(src_dir: Path, selectors: list[str]) -> list[Mutant]:
    """Every mutant of the selected modules and functions, in source order."""
    wanted: dict[str, set | None] = {}
    for sel in selectors or sorted(COVERING):
        module, _, function = sel.partition(":")
        if module not in COVERING:
            raise SystemExit(f"unknown module {module!r}; choose from {sorted(COVERING)}")
        if function and wanted.get(module, set()) is not None:
            wanted.setdefault(module, set()).add(function)
        else:
            wanted[module] = None
    out = []
    for module, functions in wanted.items():
        text = (src_dir / f"{module}.py").read_text(encoding="utf-8")
        lines = [line + "\n" for line in text.split("\n")]  # as ast numbers them
        seen = set()
        for node, qual in _sites(ast.parse(text)):
            if functions is not None and not any(_inside(qual, f) for f in functions):
                continue
            seen.add(qual)
            start = _offset(lines, node.lineno, node.col_offset)
            end = _offset(lines, node.end_lineno, node.end_col_offset)
            if not _is_segment(text[start:end], node):
                continue
            first = sum(map(len, lines[: node.lineno - 1]))
            last = sum(map(len, lines[: node.end_lineno]))
            for new in _variants(node):
                code = ast.unparse(new)
                if not isinstance(node, ast.stmt):
                    code = f"({code})"
                source = text[:start] + code + text[end:]
                try:
                    compile(source, module, "exec")
                except SyntaxError:
                    continue
                changed = source[first : last + len(source) - len(text)]
                out.append(Mutant(
                    module, qual or "<module>", node.lineno,
                    " ".join(s.strip() for s in text[first:last].splitlines()),
                    " ".join(s.strip() for s in changed.splitlines()),
                    source,
                ))
        for f in sorted(functions or ()):
            if not any(_inside(q, f) for q in seen):
                print(f"note: no mutation site in {module}:{f}", file=sys.stderr)
    return out


def _run_tests(root: Path, files: list[str]) -> bool:
    """True when pytest passes on ``files`` (all of ``tests/`` if empty)."""
    env = dict(os.environ, PYTHONPATH=str(root / "src"), PYTHONDONTWRITEBYTECODE="1")
    cmd = [sys.executable, "-m", "pytest", "-x", "-q", "-p", "no:cacheprovider",
           *[f"tests/{f}" for f in files]]
    proc = subprocess.Popen(cmd, cwd=root, env=env, stdout=subprocess.DEVNULL,
                            stderr=subprocess.DEVNULL, start_new_session=True)
    try:
        return proc.wait(timeout=TIMEOUT) == 0
    except subprocess.TimeoutExpired:
        os.killpg(proc.pid, signal.SIGKILL)
        proc.wait()
        return False


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--tree", type=Path, default=Path(__file__).resolve().parent.parent,
                    help="source checkout to copy and mutate (default: this one)")
    ap.add_argument("--functions", nargs="*", default=[],
                    help="modules or module:function names (default: every module)")
    ap.add_argument("--sample", type=int, default=None, help="run this many mutants, drawn by --seed")
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--list", action="store_true", help="list the mutants without running them")
    args = ap.parse_args(argv)

    found = mutants(args.tree / "src" / PACKAGE, args.functions)
    if args.sample is not None and args.sample < len(found):
        chosen = set(map(id, random.Random(args.seed).sample(found, args.sample)))
        found = [m for m in found if id(m) in chosen]
    if args.list:
        for m in found:
            print(f"{m.name()}\t{m.before}\t->\t{m.after}")
        return 0

    with tempfile.TemporaryDirectory(prefix="mutants-") as tmp:
        root = Path(tmp)
        for part in ("src", "tests"):
            shutil.copytree(args.tree / part, root / part,
                            ignore=shutil.ignore_patterns("__pycache__", ".hypothesis"))
        shutil.copy(args.tree / "pyproject.toml", root)
        for module in sorted({m.module for m in found}):
            if not _run_tests(root, COVERING[module]):
                raise SystemExit(f"the unmutated tree fails the tests covering {module}")
        counts = {"killed": 0, "equivalent": 0, "SURVIVED": 0}
        for m in found:
            path = root / "src" / PACKAGE / f"{m.module}.py"
            original = path.read_text(encoding="utf-8")
            path.write_text(m.source, encoding="utf-8")
            try:
                killed = not _run_tests(root, COVERING[m.module]) or not _run_tests(root, [])
            finally:
                path.write_text(original, encoding="utf-8")
            reason = EQUIVALENT.get((m.module, m.function, m.before, m.after))
            status = "killed" if killed else ("equivalent" if reason else "SURVIVED")
            counts[status] += 1
            note = f"\t({reason})" if status == "equivalent" else ""
            print(f"{status}\t{m.name()}\t{m.before}\t->\t{m.after}{note}", flush=True)
    print(", ".join(f"{n} {k}" for k, n in counts.items()) + f" of {len(found)} mutants")
    return 1 if counts["SURVIVED"] else 0


if __name__ == "__main__":
    sys.exit(main())
