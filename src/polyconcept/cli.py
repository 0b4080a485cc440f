"""Command-line front end: parse, enumerate, introduce, verify, export.

Results go to standard output and are byte-identical across repeated runs on
the same input; counts, timings, and warnings go to standard error.  Exit
status: 0 on success, 1 when a verification check fails, 2 on usage or parse
errors.
"""

from __future__ import annotations

import argparse
import os
import sys
import time
from collections import Counter

from .concepts import (
    DEFAULT_ORACLE_CAP,
    OracleInfeasibleError,
    brute_force_concepts,
    enumerate_concepts,
    oracle_cost,
)
from .context import InputError, NContext
from .formats import (
    ParseError,
    export_dot,
    format_concept,
    format_record,
    generate_random,
    parse_context,
    serialize_concepts,
    serialize_tuples,
)
from .introducers import (
    IntroducerRecord,
    introducer_dim,
    introducer_oracle,
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
    return int(value) if value.isdigit() else value


def _oracle_cap(args) -> int:
    cap = getattr(args, "cap", None)
    if cap is not None:
        return cap
    env = os.environ.get(CAP_ENV)
    try:
        return int(env) if env else DEFAULT_ORACLE_CAP
    except ValueError:
        raise InputError(f"${CAP_ENV} must be an integer, got {env!r}") from None


def _write_diagram(ctx, diagram, fmt: str, name: str) -> None:
    if fmt == "dot":
        sys.stdout.write(export_dot(ctx, diagram, name=name))
        return
    lines = [f"dimension: {diagram.dimension} {ctx.dims[diagram.dimension - 1].name}"]
    for k, node in enumerate(diagram.nodes):
        comp = " ".join(node.component) if node.component else "∅"
        members = "; ".join(
            (format_record if isinstance(m, IntroducerRecord) else format_concept)(ctx, m)
            for m in node.members
        )
        lines.append(f"class {k} [{comp}]: {members}")
    for lo, hi in diagram.edges:
        lines.append(f"edge: {lo} -> {hi}")
    sys.stdout.write("\n".join(lines) + "\n")


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
    if args.dim is not None:
        records = introducer_dim(ctx, args.dim)
    else:
        records = introducers(ctx)
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
    _write_diagram(ctx, diagram, args.format, "order")
    _note(f"{len(diagram.nodes)} classes, {len(diagram.edges)} edges")
    return 0


def cmd_gsh(args) -> int:
    ctx = _load(args.input)
    diagram = gsh_2d(ctx)
    _write_diagram(ctx, diagram, args.format, "gsh")
    _note(f"{len(diagram.nodes)} nodes, {len(diagram.edges)} edges")
    return 0


def cmd_stats(args) -> int:
    ctx = _load(args.input)
    t0 = time.perf_counter()
    found = enumerate_concepts(ctx)
    t1 = time.perf_counter()
    records = introducers(ctx)
    t2 = time.perf_counter()

    out = []
    out.append(f"dimensions: {ctx.arity}")
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


def cmd_verify(args) -> int:
    ctx = _load(args.input)
    cap = _oracle_cap(args)
    failures = 0
    lines = []

    found = enumerate_concepts(ctx)
    records = introducers(ctx)
    feasible = oracle_cost(ctx) <= cap

    if feasible:
        reference = brute_force_concepts(ctx, cap=cap)
        if found == reference:
            lines.append(f"concept oracle: ok ({len(found)} concepts)")
        else:
            failures += 1
            missing = sorted(
                reference.as_frozenset() - found.as_frozenset(), key=ctx.sort_key
            )
            extra = sorted(
                found.as_frozenset() - reference.as_frozenset(), key=ctx.sort_key
            )
            lines.append(
                "concept oracle: FAIL missing="
                + str([format_concept(ctx, t) for t in missing])
                + " extra="
                + str([format_concept(ctx, t) for t in extra])
            )
        oracle_records = introducer_oracle(ctx, cap=cap)
        if set(oracle_records) == set(records):
            lines.append(f"introducer oracle: ok ({len(records)} records)")
        else:
            failures += 1
            diff = set(oracle_records) ^ set(records)
            witness = sorted(str(r) for r in diff)
            lines.append(f"introducer oracle: FAIL disagreement={witness}")
    else:
        lines.append(
            f"concept oracle: skipped (oracle infeasible: {oracle_cost(ctx)} "
            f"combinations exceed cap {cap})"
        )
        lines.append("introducer oracle: skipped (oracle infeasible)")

    report = check_n_ordered(records)
    if report.uniqueness_ok:
        lines.append("uniqueness axiom: ok")
    else:
        failures += 1
        lines.append(
            "uniqueness axiom: FAIL "
            + str([(str(a), str(b)) for a, b in report.uniqueness_violations])
        )
    if report.antiordinal_ok:
        lines.append("antiordinal axiom: ok")
    else:
        failures += 1
        lines.append(
            "antiordinal axiom: FAIL "
            + str([(str(a), str(b)) for a, b in report.antiordinal_violations])
        )

    stray = [r for r in records if r.concept not in found]
    if not stray:
        lines.append(f"soundness: ok ({len(records)} of {len(records)} records are concepts)")
    else:
        failures += 1
        lines.append(
            "soundness: FAIL strays="
            + str([format_concept(ctx, r.concept) for r in stray])
        )

    count_fails = []
    _, per_element = _introduction_counts(records)
    for d in ctx.dims:
        for x in d.elements:
            introduced_here = per_element[d.index, x]
            expected = len(enumerate_concepts(ctx.slice(d.index, x)))
            if introduced_here != expected:
                count_fails.append(f"{d.name}/{x}: {introduced_here} != {expected}")
    n_elements = sum(len(d) for d in ctx.dims)
    if not count_fails:
        lines.append(f"introduction counts: ok ({n_elements} elements)")
    else:
        failures += 1
        lines.append("introduction counts: FAIL " + "; ".join(count_fails))

    lines.append("result: " + ("pass" if failures == 0 else f"fail ({failures})"))
    sys.stdout.write("\n".join(lines) + "\n")
    return 0 if failures == 0 else 1


def cmd_gen(args) -> int:
    try:
        sizes = [int(s) for s in args.sizes.split(",")]
    except ValueError:
        raise InputError(f"--sizes must be comma-separated integers, got {args.sizes!r}")
    ctx = generate_random(sizes, args.density, args.seed)
    sys.stdout.write(serialize_tuples(ctx))
    _note(f"{ctx.relation_size} tuples")
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="polyconcept",
        description="n-dimensional concept enumeration and introducer analysis",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("concepts", help="enumerate all concepts of a context")
    p.add_argument("input", help="tuple file or cross table")
    p.add_argument("--format", choices=["text", "structured"], default="text")
    p.set_defaults(func=cmd_concepts)

    p = sub.add_parser("introducers", help="compute introducer concepts")
    p.add_argument("input")
    p.add_argument("--dim", type=_dim_arg, default=None,
                   help="restrict to one dimension (1-based index or name)")
    p.add_argument("--nontrivial", action="store_true",
                   help="drop concepts with an empty component")
    p.add_argument("--format", choices=["text", "structured"], default="text")
    p.set_defaults(func=cmd_introducers)

    p = sub.add_parser("order", help="per-dimension class diagram")
    p.add_argument("input")
    p.add_argument("--dim", type=_dim_arg, required=True,
                   help="dimension to order by (1-based index or name)")
    p.add_argument("--on", choices=["concepts", "introducers"], default="concepts",
                   help="which set to draw")
    p.add_argument("--format", choices=["dot", "text"], default="dot")
    p.set_defaults(func=cmd_order)

    p = sub.add_parser("gsh", help="introducer sub-order of a 2D context")
    p.add_argument("input")
    p.add_argument("--format", choices=["dot", "text"], default="dot")
    p.set_defaults(func=cmd_gsh)

    p = sub.add_parser("stats", help="concept/introducer counts and ratios")
    p.add_argument("input")
    p.set_defaults(func=cmd_stats)

    p = sub.add_parser("verify", help="cross-check the pipeline on one input")
    p.add_argument("input")
    p.add_argument("--cap", type=int, default=None,
                   help=f"oracle work cap (default {DEFAULT_ORACLE_CAP}, "
                        f"or ${CAP_ENV})")
    p.set_defaults(func=cmd_verify)

    p = sub.add_parser("gen", help="emit a seeded random context as a tuple file")
    p.add_argument("--sizes", required=True, help="comma-separated dimension sizes")
    p.add_argument("--density", type=float, required=True)
    p.add_argument("--seed", type=int, required=True)
    p.set_defaults(func=cmd_gen)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except (ParseError, InputError, OSError, OracleInfeasibleError) as exc:
        _note(f"error: {exc}")
        return 2
    except MemoryError:
        _note("error: out of memory")
        return 2


if __name__ == "__main__":
    sys.exit(main())
