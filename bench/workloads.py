"""The benchmark's three seeded workloads.

Each workload draws a pool of input contexts from the benchmark seed with
``generate_random``, runs one op (one context through one pipeline) on a
tuple file, and checks an op's output against a reference derived from the
exhaustive oracles (``brute_force_concepts``, ``introducer_oracle``).
Checking happens once per distinct output, after the timed window.
"""

from __future__ import annotations

import io
import itertools
import math
import random
from contextlib import redirect_stderr, redirect_stdout


class OpError(RuntimeError):
    """An op ended with an unexpected exit status."""


class Workload:
    """``counts[k]`` input contexts of each (shape, density) in ``strata``."""

    strata: tuple = ()
    counts: tuple = ()

    def plan(self, seed: int) -> list[tuple[tuple[int, ...], float, int]]:
        """(shape, density, generator seed) per input, in op order.

        The inputs come in blocks that each hold the strata in the same
        proportions, in shuffled order, so the op mix of a run does not
        depend on where its window ends.
        """
        rng = random.Random(seed)
        blocks = math.gcd(*self.counts)
        pools = [
            [(shape, density, rng.getrandbits(63)) for _ in range(count)]
            for (shape, density), count in zip(self.strata, self.counts)
        ]
        plan = []
        for b in range(blocks):
            block = [
                spec
                for pool, count in zip(pools, self.counts)
                for spec in pool[b * count // blocks:(b + 1) * count // blocks]
            ]
            rng.shuffle(block)
            plan += block
        return plan


def _cli(cli, argv) -> str:
    out = io.StringIO()
    with redirect_stdout(out), redirect_stderr(io.StringIO()):
        status = cli.main(argv)
    if status != 0:
        raise OpError(f"exit status {status} from {argv[0]}")
    return out.getvalue()


class SweepVerify(Workload):
    """``polyconcept verify FILE`` on the acceptance sweep's shapes.

    Every shape/density pair gets the same number of contexts so that the op
    mix, and with it the median, does not depend on the seed.
    """

    name = "sweep-verify"
    strata = tuple(itertools.product(
        ((4, 4), (5, 5), (3, 3, 3), (2, 3, 4), (2, 2, 3, 3)), (0.2, 0.4, 0.6)))
    counts = (8,) * len(strata)

    def run(self, pc, cli, path: str) -> str:
        return _cli(cli, ["verify", path])

    def check(self, pc, ctx, text: str) -> str | None:
        lines = text.splitlines()
        n_concepts = len(pc.brute_force_concepts(ctx))
        n_records = len(pc.introducer_oracle(ctx))
        n_elements = sum(len(d) for d in ctx.dims)
        for want in (
            f"concept oracle: ok ({n_concepts} concepts)",
            f"introducer oracle: ok ({n_records} records)",
            f"introduction counts: ok ({n_elements} elements)",
        ):
            if want not in lines:
                return f"missing line {want!r}"
        if not lines or lines[-1] != "result: pass":
            return "last line is not 'result: pass'"
        return None


class EnumFull(Workload):
    """``polyconcept concepts FILE``: one full-route enumeration per op.

    Strata weights 4:6:3:3 (4x4x4, 8x10, 10x8, 5x5x5) put the median
    inside the 8x10 cluster and the p90 inside the slow 10x8/5x5x5 cluster;
    equal weights would put the median on the gap between two clusters,
    where it jumps with the seed.
    """

    name = "enum-full"
    strata = (((4, 4, 4), 0.5), ((8, 10), 0.4), ((10, 8), 0.4), ((5, 5, 5), 0.5))
    counts = (48, 72, 36, 36)

    def run(self, pc, cli, path: str) -> str:
        return _cli(cli, ["concepts", path])

    def check(self, pc, ctx, text: str) -> str | None:
        reference = pc.brute_force_concepts(ctx)
        got = text.count("\n")
        if got != len(reference):
            return f"{got} concepts printed, oracle has {len(reference)}"
        if text != pc.serialize_concepts(ctx, reference):
            return "concept lines differ from the oracle's"
        return None


def _render(n_records: int, axioms_ok: bool, dots) -> str:
    return f"records: {n_records}\naxioms: {'ok' if axioms_ok else 'FAIL'}\n" + "".join(dots)


def _covering_diagram(pc, ctx, records, i0: int):
    """Covering diagram of one dimension, built independently of ``order``."""
    groups: dict = {}
    for r in records:
        groups.setdefault(r.concept.components[i0], []).append(r)
    dim = ctx.dims[i0]
    keys = sorted(groups, key=lambda comp: [dim.position(x) for x in comp])
    sets = [frozenset(k) for k in keys]
    edges = []
    for a, sa in enumerate(sets):
        ups = [b for b, sb in enumerate(sets) if sa < sb]
        edges += [(a, b) for b in ups if not any(sets[c] < sets[b] for c in ups)]
    nodes = tuple(pc.DiagramNode(k, tuple(groups[k])) for k in keys)
    return pc.DimensionDiagram(i0 + 1, nodes, tuple(sorted(edges)))


class IntroOrder(Workload):
    """Library pipeline on wide 2-D tables: parse, introducers, axiom check,
    one diagram per dimension, DOT export.

    No CLI command reaches ``check_n_ordered`` without also running the
    full-route enumeration and the oracles, hence the direct calls.
    """

    name = "intro-order"
    strata = (((100, 10), 0.3),)
    counts = (16,)

    def run(self, pc, cli, path: str) -> str:
        with open(path, encoding="utf-8") as fh:
            ctx = pc.parse_context(fh.read())
        records = pc.introducers(ctx)
        report = pc.check_n_ordered(records)
        dots = [
            pc.export_dot(ctx, pc.dimension_diagram(ctx, records, d.index))
            for d in ctx.dims
        ]
        return _render(len(records), report.ok, dots)

    def check(self, pc, ctx, text: str) -> str | None:
        records = pc.introducer_oracle(ctx)
        dots = [
            pc.export_dot(ctx, _covering_diagram(pc, ctx, records, i0))
            for i0 in range(ctx.arity)
        ]
        if text != _render(len(records), True, dots):
            head = text.split("\n", 2)[:2]
            return f"output differs from the oracle's ({head}, oracle has {len(records)} records)"
        return None


WORKLOADS = {w.name: w for w in (SweepVerify(), EnumFull(), IntroOrder())}
