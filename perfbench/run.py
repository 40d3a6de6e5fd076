"""matterkb benchmark.

    python3 perfbench/run.py --workload ingest|validate|session|all \
        --seed N --seconds S --trace 0|1

Run from the root of a checkout; the program is imported from `src/`. The
untraced run (`--trace 0`) repeats the workload's set-up and pass until
`--seconds` have passed and reports the end-to-end metrics. The traced run
(`--trace 1`) runs one pass untraced, the same pass traced, and one pass
traced at half size, and reports the per-layer metrics. The last line of
stdout is a JSON object with `correct`, `attempted`, `failed` and
`metrics`; the lines before it are the same numbers for people, including
the per-workload breakdown. The exit code is 1 if any output check failed.
`--workload all` runs each workload in its own process and prints their
tables.
"""

from __future__ import annotations

import argparse
import gc
import importlib
import json
import math
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

from tracer import LAYERS, TARGETS, Tracer
from workloads import WORKLOADS, Tally, scaled

ROOT = Path(__file__).resolve().parent.parent
WORK = ROOT / ".perfbench-work"
TRACES = ROOT / ".perfbench-traces"

HALF = 0.5         # scale of the traced run that gives the scaling exponents

# Every metric of the per-workload table, in print order.
TABLE = (
    ("setup_s", "s"), ("pass_s", "s"), ("peak_rss_mb", "MB"), ("setup_raw_s", "s"),
    ("export_s", "s"), ("replay_check_s", "s"), ("query_cli_s", "s"), ("validate_s", "s"),
    ("validate_at_s", "s"), ("read_p50_ms", "ms"), ("read_p99_ms", "ms"), ("write_p50_ms", "ms"),
    ("session_ops_per_s", "ops/s"), ("reference_ms", "ms"), ("error_rate", "ratio"),
    ("passes", "count"), ("rss_floor_mb", "MB"),
)


class Program:
    """The matterkb modules the workloads call."""

    def __init__(self) -> None:
        self.cli = importlib.import_module("matterkb.cli")
        self.events = importlib.import_module("matterkb.events")


def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024


def untraced(cls, seed: int, seconds: float, work: Path) -> tuple[dict, dict, Tally]:
    """Set up and run whole passes until `seconds` have passed.

    `setup_s` and `pass_s` are medians over the run's passes, each pass in
    seconds at the reference loop's speed (see `workloads.scaled`).
    """
    w = cls(seed, 1.0, work)
    floor = peak_rss_mb()  # the generator's share, before any program call
    w.prepare(Program())
    tally = Tally()
    setups: list[float] = []
    passes: list[float] = []
    start = time.perf_counter()
    while not passes or time.perf_counter() - start < seconds:
        w.setup(tally)
        setups.append(scaled(tally.samples[-1:]))
        gc.collect()
        first = len(tally.samples)
        w.run_pass(tally)
        passes.append(scaled(tally.samples[first:]))
    w.finish(tally)

    metrics = {
        "setup_s": (statistics.median(setups), "s"),
        "pass_s": (statistics.median(passes), "s"),
        "peak_rss_mb": (peak_rss_mb(), "MB"),
    }
    table = dict(metrics)
    table["setup_raw_s"] = (statistics.median(tally.times["setup"]), "s")
    table.update(w.breakdown(tally))
    table["reference_ms"] = (statistics.median(ref for _, ref in tally.samples) * 1e3, "ms")
    table["error_rate"] = (tally.failed / max(tally.attempted, 1), "ratio")
    table["passes"] = (len(passes), "count")
    table["rss_floor_mb"] = (floor, "MB")
    return metrics, table, tally


def _sizes(sc) -> dict[str, int]:
    return {
        "kb.events": len(sc.event_ticks),
        "kb.quantities": len(sc.quantities),
        "kb.objects": len(sc.objects),
        "kb.adjacency": len(sc.intervals),
        "kb.change_points": len(sc.change_points()),
    }


def _pass(cls, prog, seed: int, scale: float, work: Path, tally: Tally, tracer=None):
    """Set up and run one pass, traced if a tracer is given; returns its scaled seconds."""
    w = cls(seed, scale, work)
    w.prepare(prog)
    gc.collect()
    if tracer:
        tracer.install()
    first = len(tally.samples)
    try:
        w.setup(tally)
        w.run_pass(tally)
    finally:
        if tracer:
            tracer.uninstall()
    return scaled(tally.samples[first:]), w


def traced(cls, seed: int, work: Path) -> tuple[dict, dict, Tally]:
    prog = Program()
    tally = Tally()
    full, half = Tracer(), Tracer()
    plain_s, _ = _pass(cls, prog, seed, 1.0, work / "plain", tally)
    full_s, w = _pass(cls, prog, seed, 1.0, work / "full", tally, full)
    _, w_half = _pass(cls, prog, seed, HALF, work / "half", tally, half)
    full.write(TRACES / f"{cls.name}-seed{seed}.json")

    tot = full.totals()

    def row(name: str, key: str):
        return tot.get(name, {}).get(key, 0)

    metrics: dict[str, tuple[float, str]] = {}
    for span in dict.fromkeys(t[2] for t in TARGETS):
        metrics[f"{span}_s"] = (row(span, "self_s"), "s")
    metrics["dsl.statements"] = (row("dsl.parse", "statements"), "count")
    metrics["events.applied"] = (row("events.apply_creation", "calls") + row("events.apply_transfer", "calls"), "count")
    metrics["model.live_quantities_at_calls"] = (row("model.live_quantities_at", "calls"), "count")
    metrics["model.adjacency_at_calls"] = (row("model.adjacency_at", "calls"), "count")
    metrics["validation.worlds_checked"] = (row("validation.validate_all", "worlds"), "count")
    metrics["validation.violations"] = (row("validation.validate_all", "violations"), "count")
    metrics["canonical.bytes"] = (row("canonical.export", "bytes") + row("canonical.import", "bytes"), "count")
    sizes, half_sizes = _sizes(w.sc), _sizes(w_half.sc)
    metrics.update({k: (v, "count") for k, v in sizes.items()})
    metrics["trace.overhead_ratio"] = (full_s / plain_s, "ratio")

    def n(s: dict) -> int:
        return s["kb.events"] + s["kb.objects"] + s["kb.adjacency"]

    full_layers, half_layers = full.layer_self(), half.layer_self()
    for layer in LAYERS:
        a, b = full_layers[layer], half_layers[layer]
        exponent = math.log(a / b) / math.log(n(sizes) / n(half_sizes)) if a > 0 and b > 0 else 0.0
        metrics[f"{layer}.exponent"] = (exponent, "exponent")

    table = {k: v for k, v in metrics.items() if k.endswith("_s") and v[0] > 0}
    table["trace.overhead_ratio"] = metrics["trace.overhead_ratio"]
    return metrics, table, tally


def run_all(args) -> int:
    """Each workload in its own process; prints every table."""
    code = 0
    for name in WORKLOADS:
        proc = subprocess.run(
            [sys.executable, __file__, "--workload", name, "--seed", str(args.seed),
             "--seconds", str(args.seconds), "--trace", str(args.trace)],
            cwd=ROOT, capture_output=True, text=True, check=False,
        )
        lines = proc.stdout.rstrip("\n").split("\n")
        print("\n".join(lines[:-1]))
        sys.stderr.write(proc.stderr)
        code = code or proc.returncode
    return code


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=("ingest", "validate", "session", "all"))
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=10)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (ROOT / "src" / "matterkb" / "__init__.py").is_file():
        print(f"perfbench: no matterkb sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(ROOT / "src"))
    if args.workload == "all":
        return run_all(args)

    cls = WORKLOADS[args.workload]
    WORK.mkdir(exist_ok=True)
    work = Path(tempfile.mkdtemp(prefix=f"{args.workload}-", dir=WORK))
    for sub in ("plain", "full", "half"):
        (work / sub).mkdir()
    try:
        if args.trace:
            metrics, table, tally = traced(cls, args.seed, work)
        else:
            metrics, table, tally = untraced(cls, args.seed, args.seconds, work / "plain")
    finally:
        shutil.rmtree(work, ignore_errors=True)

    mode = "traced" if args.trace else "untraced"
    print(f"# {args.workload} seed={args.seed} {mode}: {tally.attempted} operations, {tally.failed} failed")
    names = [name for name, _ in TABLE] if not args.trace else list(table)
    for name in names:
        value, unit = table.get(name, (None, ""))
        shown = "n/a" if value is None else f"{value:.6g} {unit}"
        print(f"{args.workload:10s} {name:42s} {shown}")
    for problem in tally.problems:
        print(f"# FAILED {problem}")
    print(json.dumps({
        "correct": tally.failed == 0,
        "attempted": tally.attempted,
        "failed": tally.failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }))
    return 1 if tally.failed else 0


if __name__ == "__main__":
    sys.exit(main())
