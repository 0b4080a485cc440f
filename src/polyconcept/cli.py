"""Command-line front end: parse, enumerate, introduce, verify, export.

Results go to standard output and are byte-identical across repeated runs on
the same input; counts, timings, and warnings go to standard error.  Exit
status: 0 on success, 1 when a verification check fails, 2 on usage or parse
errors, out of memory and internal consistency failures.
"""

from __future__ import annotations

import argparse
import os
import sys
import time
from collections import Counter

from .concepts import (
    DEFAULT_ORACLE_CAP,
    ConsistencyError,
    OracleInfeasibleError,
    brute_force_concepts,
    enumerate_concepts,
    oracle_cost,
)
from .context import InputError, NContext, component_text
from .formats import (
    ParseError,
    export_dot,
    format_record,
    generate_random,
    parse_context,
    serialize_concepts,
    serialize_tuples,
)
from .introducers import (
    _oracle_records,
    introducer_dim,
    introducers,
    nontrivial_filter,
)
from .order import check_n_ordered, dimension_diagram, gsh_2d

CAP_ENV = "POLYCONCEPT_ORACLE_CAP"


def _note(msg: str) -> None:
    print(msg, file=sys.stderr)


def _load(path: str) -> NContext:
    with open(path, encoding="utf-8") as fh:
        try:
            text = fh.read()
        except UnicodeDecodeError as exc:
            raise ParseError(f"{path}: {exc}") from None
    return parse_context(text)


def _dim_arg(value: str):
    return int(value) if value.isascii() and value.isdigit() else value


def _oracle_cap(args) -> int:
    cap = getattr(args, "cap", None)
    if cap is None:
        env = os.environ.get(CAP_ENV)
        try:
            cap = int(env) if env else DEFAULT_ORACLE_CAP
        except ValueError:
            raise InputError(f"${CAP_ENV} must be an integer, got {env!r}") from None
    if cap < 0:
        raise InputError(f"the oracle cap must not be negative, got {cap}")
    return cap


def _write_diagram(ctx, diagram, fmt: str, name: str, noun: str) -> None:
    """The diagram to stdout, then ``N <noun>, M edges`` to stderr."""
    if fmt == "dot":
        sys.stdout.write(export_dot(ctx, diagram, name=name))
    else:
        lines = [f"dimension: {diagram.dimension} {ctx.dims[diagram.dimension - 1].name}"]
        for k, node in enumerate(diagram.nodes):
            sep = ctx._seps[diagram.dimension - 1]
            comp = component_text([node.component], [sep])[1:-1]  # without the parentheses
            members = "; ".join(format_record(ctx, m) for m in node.members)
            lines.append(f"class {k} [{comp}]: {members}")
        for lo, hi in diagram.edges:
            lines.append(f"edge: {lo} -> {hi}")
        sys.stdout.write("\n".join(lines) + "\n")
    _note(f"{len(diagram.nodes)} {noun}, {len(diagram.edges)} edges")


def _introduction_counts(records) -> tuple[Counter, Counter]:
    """Records introducing something per dimension, and per (dimension, label)."""
    pairs = [pair for r in records for pair in r.introduces]
    return Counter(d for d, _ in pairs), Counter((d, x) for d, xs in pairs for x in xs)


def cmd_concepts(args) -> int:
    ctx = _load(args.input)
    found = enumerate_concepts(ctx)
    sys.stdout.write(serialize_concepts(ctx, found, args.format))
    _note(f"{len(found)} concepts")
    return 0


def cmd_introducers(args) -> int:
    ctx = _load(args.input)
    records = introducers(ctx) if args.dim is None else introducer_dim(ctx, args.dim)
    if args.nontrivial:
        records = nontrivial_filter(records)
    sys.stdout.write(serialize_concepts(ctx, records, args.format))
    _note(f"{len(records)} introducer records")
    return 0


def cmd_order(args) -> int:
    ctx = _load(args.input)
    dim = ctx.dim(args.dim).index  # resolve the selector before computing
    members = introducers(ctx) if args.on == "introducers" else enumerate_concepts(ctx)
    diagram = dimension_diagram(ctx, members, dim)
    _write_diagram(ctx, diagram, args.format, "order", "classes")
    return 0


def cmd_gsh(args) -> int:
    ctx = _load(args.input)
    diagram = gsh_2d(ctx)
    _write_diagram(ctx, diagram, args.format, "gsh", "nodes")
    return 0


def cmd_stats(args) -> int:
    ctx = _load(args.input)
    t0 = time.perf_counter()
    found = enumerate_concepts(ctx)
    t1 = time.perf_counter()
    records = introducers(ctx)
    t2 = time.perf_counter()

    out = [f"dimensions: {ctx.arity}"]
    for d in ctx.dims:
        out.append(f"  {d.index} {d.name}: {len(d)} elements")
    out.append(f"relation: {ctx.relation_size} tuples")
    out.append(f"concepts: {len(found)}")
    out.append(f"introducers: {len(records)}")
    ratio = len(records) / len(found) if found else 0.0
    out.append(f"reduction ratio: {ratio}")
    per_dim, per_element = _introduction_counts(records)
    out.append("introducers per dimension:")
    for d in ctx.dims:
        out.append(f"  {d.index} {d.name}: {per_dim[d.index]}")
    out.append("introducers per element:")
    for d in ctx.dims:
        for x in d.elements:
            out.append(f"  {d.name}/{x}: {per_element[d.index, x]}")
    sys.stdout.write("\n".join(out) + "\n")
    _note(f"enumeration: {t1 - t0:.4f}s")
    _note(f"introduction: {t2 - t1:.4f}s")
    return 0


def _verdict(failure, note: str = "") -> str:
    """A check's status: ``FAIL`` and the failure if there is one, else
    ``ok`` and the note if there is one."""
    if failure:
        return f"FAIL {failure}"
    return f"ok ({note})" if note else "ok"


def _diff(ctx, have, want) -> str:
    """``missing=[...] extra=[...]``: what ``have`` lacks and has in excess
    against ``want``, each copy counted, in canonical order; "" for none.
    Both come canonically ordered, so copies are counted only when they
    differ as sequences."""
    if have == want or (have := Counter(have)) == (want := Counter(want)):
        return ""
    missing = [format_record(ctx, m) for m in (want - have).elements()]
    extra = [format_record(ctx, m) for m in (have - want).elements()]
    return f"missing={missing} extra={extra}"


def cmd_verify(args) -> int:
    ctx = _load(args.input)
    cap = _oracle_cap(args)
    found = enumerate_concepts(ctx)
    records = introducers(ctx)
    cost = oracle_cost(ctx)
    table = {}  # check -> "ok ...", "FAIL ..." or "skipped (...)", in report order

    if cost <= cap:
        reference = brute_force_concepts(ctx, cap=cap)
        table["concept oracle"] = _verdict(_diff(ctx, found, reference), f"{len(found)} concepts")
        want = _oracle_records(ctx, reference)  # the records of introducer_oracle(ctx)
        table["introducer oracle"] = _verdict(_diff(ctx, records, want), f"{len(records)} records")
    else:
        table["concept oracle"] = (
            f"skipped (oracle infeasible: {cost} combinations exceed cap {cap})"
        )
        table["introducer oracle"] = "skipped (oracle infeasible)"

    report = check_n_ordered(records)
    for axiom, violations in (
        ("uniqueness", report.uniqueness_violations),
        ("antiordinal", report.antiordinal_violations),
    ):
        pairs = [(format_record(ctx, a), format_record(ctx, b)) for a, b in violations]
        table[f"{axiom} axiom"] = _verdict(pairs)

    keys = set(found._keys)
    strays = []
    for r in records:
        try:
            if ctx.sort_key(r.concept) in keys:
                continue
        except InputError:  # not a canonical tuple of ctx
            pass
        strays.append(format_record(ctx, r.concept))
    sound = f"{len(records)} of {len(records)} records are concepts"
    table["soundness"] = _verdict(strays and f"strays={strays}", sound)

    count_fails = []
    _, per_element = _introduction_counts(records)
    for d in ctx.dims:
        for x in d.elements:
            expected = len(enumerate_concepts(ctx.slice(d.index, x)))
            if per_element[d.index, x] != expected:
                count_fails.append(f"{d.name}/{x}: {per_element[d.index, x]} != {expected}")
    n_elements = sum(len(d) for d in ctx.dims)
    table["introduction counts"] = _verdict("; ".join(count_fails), f"{n_elements} elements")

    failures = sum(status.startswith("FAIL") for status in table.values())
    table["result"] = f"fail ({failures})" if failures else "pass"
    sys.stdout.write("".join(f"{name}: {status}\n" for name, status in table.items()))
    return 1 if failures else 0


def cmd_gen(args) -> int:
    try:
        sizes = [int(s) for s in args.sizes.split(",")]
    except ValueError:
        raise InputError(f"--sizes must be comma-separated integers, got {args.sizes!r}")
    ctx = generate_random(sizes, args.density, args.seed)
    sys.stdout.write(serialize_tuples(ctx))
    _note(f"{ctx.relation_size} tuples")
    return 0


_FORMATS = {"choices": ["text", "structured"], "default": "text"}
_DIAGRAM_FORMATS = {"choices": ["dot", "text"], "default": "dot"}

# name -> (help, handler, arguments); an argument is (flags, add_argument keywords)
COMMANDS = {
    "concepts": ("enumerate all concepts of a context", cmd_concepts, [
        (["input"], {"help": "tuple file or cross table"}),
        (["--format"], _FORMATS),
    ]),
    "introducers": ("compute introducer concepts", cmd_introducers, [
        (["input"], {}),
        (["--dim"], {"type": _dim_arg, "default": None,
                     "help": "restrict to one dimension (1-based index or name)"}),
        (["--nontrivial"], {"action": "store_true",
                            "help": "drop concepts with an empty component"}),
        (["--format"], _FORMATS),
    ]),
    "order": ("per-dimension class diagram", cmd_order, [
        (["input"], {}),
        (["--dim"], {"type": _dim_arg, "required": True,
                     "help": "dimension to order by (1-based index or name)"}),
        (["--on"], {"choices": ["concepts", "introducers"], "default": "concepts",
                    "help": "which set to draw"}),
        (["--format"], _DIAGRAM_FORMATS),
    ]),
    "gsh": ("introducer sub-order of a 2D context", cmd_gsh, [
        (["input"], {}),
        (["--format"], _DIAGRAM_FORMATS),
    ]),
    "stats": ("concept/introducer counts and ratios", cmd_stats, [(["input"], {})]),
    "verify": ("cross-check the pipeline on one input", cmd_verify, [
        (["input"], {}),
        (["--cap"], {"type": int, "default": None,
                     "help": f"oracle work cap (default {DEFAULT_ORACLE_CAP}, or ${CAP_ENV})"}),
    ]),
    "gen": ("emit a seeded random context as a tuple file", cmd_gen, [
        (["--sizes"], {"required": True, "help": "comma-separated dimension sizes"}),
        (["--density"], {"type": float, "required": True}),
        (["--seed"], {"type": int, "required": True}),
    ]),
}


def _add_command(parser: argparse.ArgumentParser, name: str) -> argparse.ArgumentParser:
    """``parser`` given the arguments and the handler of command ``name``."""
    _, handler, arguments = COMMANDS[name]
    for flags, kwargs in arguments:
        parser.add_argument(*flags, **kwargs)
    parser.set_defaults(func=handler)
    return parser


def build_parser() -> argparse.ArgumentParser:
    """The parser of every command.  ``main`` builds it only for help, for no
    or an unknown command and for arguments left over, so its errors stand."""
    parser = argparse.ArgumentParser(
        prog="polyconcept",
        description="n-dimensional concept enumeration and introducer analysis",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for name, (help_text, _, _) in COMMANDS.items():
        _add_command(sub.add_parser(name, help=help_text), name)
    return parser


def main(argv=None) -> int:
    """Run the command named by ``argv`` (default ``sys.argv[1:]``), parsed by
    that command's own parser, which acts as its sub-parser of ``build_parser``."""
    argv = list(sys.argv[1:] if argv is None else argv)
    if argv[:1] == ["--"]:  # one leading "--" is accepted; the command follows it
        del argv[0]
    name = argv[0] if argv else None
    if name in COMMANDS:
        parser = _add_command(argparse.ArgumentParser(prog=f"polyconcept {name}"), name)
        args, rest = parser.parse_known_args(argv[1:], argparse.Namespace(command=name))
    if name not in COMMANDS or rest:  # the full parser prints help and root errors
        args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except (ParseError, InputError, OSError, OracleInfeasibleError, ConsistencyError) as exc:
        _note(f"error: {exc}")
        return 2
    except MemoryError:
        _note("error: out of memory")
        return 2


if __name__ == "__main__":
    sys.exit(main())
