"""Seeded closed-loop benchmark of polyconcept.

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a source checkout; the package is imported from its
``src/`` directory.  One client in one process runs one op at a time for
``--seconds`` seconds, then every distinct op output is checked against the
oracles.  With ``--trace 0`` the last stdout line reports the end-to-end
metrics; with ``--trace 1`` each input runs once untraced and once traced,
and it reports per-layer metrics from the traced ops.  Every time is scaled
to the reference host speed measured by ``calibrate.kernel``.  Workloads and
the predictions tied to each metric are described in bench/README.md.
"""

from __future__ import annotations

import argparse
import hashlib
import importlib
import json
import os
import platform
import resource
import shutil
import statistics
import sys
from pathlib import Path
from time import perf_counter

import calibrate
from spans import Tracer
from workloads import WORKLOADS

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
SETUP_REPEATS = 7
MIN_OPS = 100  # so that at least ten samples lie beyond the p90


def set_up(wl, seed: int, workdir: Path):
    """Import the package afresh, generate the inputs and write them out."""
    t0 = perf_counter()
    for name in [m for m in sys.modules if m == "polyconcept" or m.startswith("polyconcept.")]:
        del sys.modules[name]
    pc = importlib.import_module("polyconcept")
    cli = importlib.import_module("polyconcept.cli")
    contexts = [pc.generate_random(shape, density, s) for shape, density, s in wl.plan(seed)]
    paths = []
    for k, ctx in enumerate(contexts):
        path = workdir / f"input{k:03d}.tsv"
        path.write_text(pc.serialize_tuples(ctx), encoding="utf-8")
        paths.append(str(path))
    return perf_counter() - t0, pc, cli, contexts, paths


class Outcomes:
    """Every op's latency and the calibration kernel's time after it, with
    the ops grouped by input and by distinct output text."""

    def __init__(self, n_inputs: int):
        self.by_input: list[dict[str, list[int]]] = [{} for _ in range(n_inputs)]
        self.errors: list[tuple[int, str]] = []
        self.latency: list[float] = []
        self.calibration: list[float] = []

    @property
    def attempted(self) -> int:
        return len(self.latency)

    def run(self, wl, pc, cli, paths, i: int) -> float:
        k = len(self.latency)
        t = perf_counter()
        try:
            text = wl.run(pc, cli, paths[i])
        except (Exception, SystemExit) as exc:  # an op failure, counted below
            self.errors.append((i, f"{type(exc).__name__}: {exc}"))
            text = None
        dt = perf_counter() - t
        self.latency.append(dt)
        if text is not None:
            self.by_input[i].setdefault(text, []).append(k)
        self.calibration.append(calibrate.kernel())
        return dt

    def check(self, wl, pc, contexts):
        """Indices of the correct ops, and one line per kind of failure."""
        correct: list[int] = []
        problems = [f"input {i}: {msg}" for i, msg in self.errors]
        for i, texts in enumerate(self.by_input):
            for text, ops in texts.items():
                why = wl.check(pc, contexts[i], text)
                if why is None:
                    correct.extend(ops)
                else:
                    problems.append(f"input {i}: {len(ops)} ops: {why}")
        return correct, problems

    def time_scale(self) -> float:
        """Factor that turns a time on this host now into one at reference speed."""
        return calibrate.REFERENCE_S / statistics.median(self.calibration)

    def scaled_latency(self) -> list[float]:
        """Each op's latency at reference speed, scaled by the median kernel
        time of the eleven ops around it, so slow phases within a run cancel."""
        c = self.calibration
        return [
            lat * calibrate.REFERENCE_S / statistics.median(c[max(0, k - 5):k + 6])
            for k, lat in enumerate(self.latency)
        ]


def measure(wl, pc, cli, paths, seconds: float, max_ops: int | None) -> Outcomes:
    """Closed loop over the input pool for ``seconds``."""
    outcomes = Outcomes(len(paths))
    wl.run(pc, cli, paths[0])  # warm-up, not counted
    t0 = perf_counter()
    k = 0
    while True:
        outcomes.run(wl, pc, cli, paths, k % len(paths))
        k += 1
        if max_ops is not None:
            if k >= max_ops:
                break
        elif perf_counter() - t0 >= seconds and k >= MIN_OPS:
            break
    return outcomes


def measure_traced(wl, pc, cli, paths, seconds: float, max_ops: int | None, tracer: Tracer):
    """Each input once untraced and once traced, alternating which goes first."""
    outcomes = Outcomes(len(paths))
    plain = traced = 0.0
    t0 = perf_counter()
    pair = 0
    while True:
        i = pair % len(paths)
        for traced_now in ((False, True) if pair % 2 == 0 else (True, False)):
            if traced_now:
                tracer.op = pair
                tracer.install()
                try:
                    traced += outcomes.run(wl, pc, cli, paths, i)
                finally:
                    tracer.uninstall()
            else:
                plain += outcomes.run(wl, pc, cli, paths, i)
        pair += 1
        if max_ops is not None:
            if 2 * pair >= max_ops:
                break
        elif perf_counter() - t0 >= seconds:
            break
    return outcomes, pair, traced / plain - 1.0


def p90(values) -> float:
    """The 90th percentile; the largest value when there are fewer than two."""
    return statistics.quantiles(values, n=10)[8] if len(values) > 1 else max(values)


def _git_sha() -> str:
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
    except OSError:
        return "unknown (not a git checkout)"
    if not head.startswith("ref: "):
        return head
    ref = head[5:]
    try:
        return (git / ref).read_text().strip()
    except OSError:
        pass
    try:
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


def _cpu_model() -> str:
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or platform.machine()


def _src_sha256() -> str:
    h = hashlib.sha256()
    for path in sorted((SRC / "polyconcept").glob("*.py")):
        h.update(path.name.encode() + b"\0" + path.read_bytes())
    return h.hexdigest()[:16]


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--max-ops", type=int, default=None,
                    help="stop after this many ops instead of after --seconds (smoke test)")
    args = ap.parse_args(argv)

    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    units = {m["name"]: m["unit"] for m in spec["end_to_end"] + spec["per_layer"]}
    if not (SRC / "polyconcept" / "__init__.py").is_file():
        print(f"error: no polyconcept sources under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    wl = WORKLOADS[args.workload]
    work = ROOT / ".bench_build" / "polyconcept-bench"
    workdir = work / f"{wl.name}-{os.getpid()}"
    workdir.mkdir(parents=True, exist_ok=True)
    try:
        setups = []
        for _ in range(SETUP_REPEATS):
            dt, pc, cli, contexts, paths = set_up(wl, args.seed, workdir)
            setups.append(dt)
        setup_s = statistics.median(setups)

        if args.trace:
            tracer = Tracer(pc)
            outcomes, n_traced, overhead = measure_traced(
                wl, pc, cli, paths, args.seconds, args.max_ops, tracer)
        else:
            outcomes = measure(wl, pc, cli, paths, args.seconds, args.max_ops)
        peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0

        correct, problems = outcomes.check(wl, pc, contexts)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    attempted = outcomes.attempted
    failed = attempted - len(correct)
    scale = outcomes.time_scale()
    stamp = {
        "git_sha": _git_sha(),
        "src_sha256": _src_sha256(),
        "python": platform.python_version(),
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_model": _cpu_model(),
        "workload": wl.name,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "inputs": len(paths),
        "ops": attempted,
        "setup_repeats": SETUP_REPEATS,
        "peak_rss_mb": peak_rss_mb,
        "calibration_ms": 1000 * calibrate.REFERENCE_S / scale,
        "time_scale": scale,
    }
    if args.trace:
        stamp["traced_ops"] = n_traced
        unscaled = tracer.layer_metrics(n_traced, overhead)
        metrics = {k: v * scale if k.endswith("_s") else v for k, v in unscaled.items()}
        tracer.write(work / f"spans-{wl.name}.tsv")
    else:
        stamp["percentile_samples"] = {"op_p50_ms": len(correct), "op_p90_ms": len(correct)}

        def timings(latency, setup):
            ok = [latency[k] for k in correct] or [0.0]
            return {
                "ops_per_s": len(correct) / sum(latency),
                "op_p50_ms": 1000 * statistics.median(ok),
                "op_p90_ms": 1000 * p90(ok),
                "peak_rss_mb": peak_rss_mb,
                "setup_s": setup,
            }

        unscaled = timings(outcomes.latency, setup_s)
        metrics = timings(outcomes.scaled_latency(), setup_s * scale)
    stamp["unscaled"] = unscaled

    print("stamp " + json.dumps(stamp, sort_keys=True))
    for problem in problems[:20]:
        print("FAILED " + problem)
    for name, value in metrics.items():
        print(f"{name} {value:.6g} {units[name]}")
    print(f"failed_frac {failed / attempted:.6g} ratio")
    print(json.dumps({
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": units[name]} for name, value in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
