#!/usr/bin/env python3
"""chronocheck benchmark: time to verdict on three workloads.

    python3 chronobench/run.py --workload suite|wide|dense --seed N --seconds S --trace 0|1

Run from the root of a source checkout.  The model set of each workload is
fixed (see workloads.py) and checked against the digest recorded in
answers.json; --seed orders the operations within each pass.  One process
runs one workload, closed loop: the next model starts after the previous
verdict, with no threads.  A run repeats whole passes over the models, and
each model's latency is the fastest of its repetitions.  Every verdict is
compared with the recorded answer.  With --trace 0 the last line of stdout
is a JSON object holding the end-to-end metrics; with --trace 1 it holds
the per-layer metrics of a traced run.  See README.md in this directory.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import io
import json
import math
import os
import random
import resource
import statistics
import subprocess
import sys
import traceback
from pathlib import Path
from time import perf_counter, perf_counter_ns
from typing import Any, Callable

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
WORK = ROOT / ".chronobench"
ANSWERS = BENCH / "answers.json"

if __name__ == "__main__" and not (SRC / "chronocheck" / "__init__.py").is_file():
    print(f"chronobench: no chronocheck sources under {SRC}; run from a source checkout", file=sys.stderr)
    raise SystemExit(2)
sys.path[:0] = [str(SRC), str(BENCH)]

import chronocheck  # noqa: E402
import chronocheck.cli  # noqa: E402
from chronocheck.report import taxonomy_json  # noqa: E402  (the original, never wrapped)

import tracing  # noqa: E402
import workloads  # noqa: E402
from workloads import projection, projection_digest  # noqa: E402

# Conventional percentiles, highest first; the tail is the first one that
# leaves at least TAIL_BEYOND samples above it.
TAIL_PERCENTILES = (99.0, 95.0, 90.0, 75.0, 50.0)
TAIL_BEYOND = 10
SPAWNS = 15
SETUP = "import chronocheck.cli"  # what every CLI user pays before any work
BARE = "pass"
MIN_PASSES = 2


def tail_percentile(samples: list[float]) -> tuple[float, float]:
    """(percentile, value): the highest percentile in TAIL_PERCENTILES whose
    nearest-rank value has at least TAIL_BEYOND samples above it in rank.
    With too few samples for any of them, the maximum, as percentile 100."""
    ordered = sorted(samples)
    n = len(ordered)
    for p in TAIL_PERCENTILES:
        rank = math.ceil(p / 100 * n) - 1
        if n - 1 - rank >= TAIL_BEYOND:
            return p, ordered[rank]
    return 100.0, ordered[-1]


class Spawns:
    """Wall times of fresh interpreters running each of `codes`.

    The work is the same every time, so the spread between spawns is the
    host's, whose speed shifts by up to half for seconds at a time.  The
    spawns are therefore taken a few at a time between passes, spread over
    the run, and each code's time is the fastest of SPAWNS spawns."""

    def __init__(self, codes: tuple[str, ...]):
        self.env = dict(os.environ)
        self.env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), self.env.get("PYTHONPATH")]))
        self.times: dict[str, list[float]] = {code: [] for code in codes}
        self.spawn()  # unmeasured: fills the bytecode cache
        for times in self.times.values():
            times.clear()

    def spawn(self) -> None:
        for code, times in self.times.items():
            start = perf_counter()
            subprocess.run([sys.executable, "-c", code], env=self.env, cwd=ROOT, check=True)
            times.append(perf_counter() - start)

    def seconds(self, code: str) -> float:
        while len(self.times[code]) < SPAWNS:
            self.spawn()
        return min(self.times[code])


class Workload:
    """The operations of one workload and the checks on their outputs."""

    def __init__(self, name: str, inputs: list[tuple[str, Path]], answers: dict[str, str]):
        self.name = name
        self.inputs = inputs
        self.answers = answers
        self.stdout_digests: dict[str, str] = {}
        if name == "suite":
            self.op: Callable[[Path], Any] = suite_op
        else:
            self.op = cli_op

    def project(self, output: Any) -> dict[str, Any]:
        if self.name == "suite":
            return projection(taxonomy_json(output), None)
        status, text = output
        return projection(json.loads(text)["results"], status)

    def check(self, name: str, output: Any) -> bool:
        """True when the projection matches the recorded answer and, for CLI
        runs, stdout is byte-identical to the first run of the same model."""
        if self.name != "suite":
            digest = hashlib.sha256(output[1].encode("utf-8")).hexdigest()
            if self.stdout_digests.setdefault(name, digest) != digest:
                print(f"{name}: stdout differs from an earlier run of the same model", file=sys.stderr)
                return False
        projected = self.project(output)
        if projection_digest(projected) != self.answers.get(name):
            print(f"{name}: projection differs from the recorded answer: {json.dumps(projected)}", file=sys.stderr)
            return False
        return True

    def run_pass(self, order: list[tuple[str, Path]], tracer: Any = None) -> tuple[dict[str, int], int]:
        """Run every operation once in `order`; (latency in ns by model, failures)."""
        latencies = {}
        failed = 0
        for name, path in order:
            start = perf_counter_ns()
            try:
                output = tracer.call(tracing.ROOT, self.op, path) if tracer else self.op(path)
            except Exception:  # an operation that raises is a failed operation
                latencies[name] = perf_counter_ns() - start
                print(f"{name}: operation raised", file=sys.stderr)
                traceback.print_exc()
                failed += 1
                continue
            latencies[name] = perf_counter_ns() - start
            failed += not self.check(name, output)
        return latencies, failed


def suite_op(path: Path) -> Any:
    """The README's Python API path."""
    return chronocheck.diagnose(chronocheck.load_model(path))


def cli_op(path: Path) -> tuple[int, str]:
    """One in-process `chronocheck diagnose FILE`, stdout captured."""
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        status = chronocheck.cli.main(["diagnose", str(path)])
    return status, out.getvalue()


def passes(workload: Workload, rng: random.Random, seconds: float, spawns: Spawns, run_pass: Callable) -> Any:
    """Yield the results of whole passes, each over a fresh seeded order, for
    about `seconds`: at least MIN_PASSES, and no pass that would be expected
    to end more than half a pass after `seconds`.  Between passes, take the
    spawns that are due, SPAWNS of them evenly over `seconds`."""
    start = perf_counter()
    count = spawned = 0
    while True:
        order = workload.inputs[:]
        rng.shuffle(order)
        yield run_pass(order, count)
        count += 1
        while spawned < SPAWNS and perf_counter() - start >= spawned * seconds / SPAWNS:
            spawns.spawn()
            spawned += 1
        elapsed = perf_counter() - start
        if count >= MIN_PASSES and elapsed * (count + 0.5) / count > seconds:
            return


def measure(workload: Workload, rng: random.Random, seconds: float, spawns: Spawns) -> dict[str, Any]:
    """Repeated passes; each model's latency is the fastest of its passes.

    The program is deterministic, so a model's repetitions differ only by
    the host: its speed shifts by up to half for seconds at a time.  The
    fastest repetition removes that, and the latency percentiles are then
    taken over the models."""
    best: dict[str, int] = {}
    failed = attempted = count = 0
    for latencies, pass_failed in passes(workload, rng, seconds, spawns, lambda order, _: workload.run_pass(order)):
        for name, ns in latencies.items():
            best[name] = min(ns, best.get(name, ns))
        failed += pass_failed
        attempted += len(latencies)
        count += 1
    samples_ms = [ns / 1e6 for ns in best.values()]
    percentile, tail = tail_percentile(samples_ms)
    return {
        "passes": count,
        "attempted": attempted,
        "failed": failed,
        "models_per_s": len(best) / (sum(best.values()) / 1e9),
        "latency_p50_ms": statistics.median(samples_ms),
        "latency_tail_ms": tail,
        "tail_percentile": percentile,
        "models": len(best),
    }


def per_layer_units() -> dict[str, str]:
    """The per-layer metrics of a traced run and their units, from BENCHMARK.json."""
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    return {metric["name"]: metric["unit"] for metric in spec["per_layer"]}


def measure_traced(
    workload: Workload, rng: random.Random, seconds: float, spawns: Spawns, names: list[str]
) -> dict[str, Any]:
    """Alternate untraced and traced passes for about `seconds`.  Layer values
    are per pass over the workload, averaged over the traced passes."""
    tracer = tracing.Tracer()

    def run_pass(order: list[tuple[str, Path]], index: int) -> tuple[bool, dict[str, int], int]:
        traced = index % 2 == 1
        if traced:
            tracer.install()
        try:
            return (traced, *workload.run_pass(order, tracer if traced else None))
        finally:
            tracer.remove()

    untraced_ns = traced_ns = count = failed = attempted = 0
    for traced, latencies, pass_failed in passes(workload, rng, seconds, spawns, run_pass):
        if traced:
            traced_ns += sum(latencies.values())
        else:
            untraced_ns += sum(latencies.values())
        failed += pass_failed
        attempted += len(latencies)
        count += 1
    traced_passes = count // 2
    untraced_passes = count - traced_passes
    totals = {**tracer.counts, **tracing.self_times(tracer.spans)}
    layers = {name: totals.get(name, 0) / traced_passes for name in names if name in tracer.present}
    if {"reachability.nodes", "reachability.states"} <= tracer.present:
        states = layers["reachability.states"]
        layers["reachability.node_state_ratio"] = layers["reachability.nodes"] / states if states else 0.0
    if {"model.apply_calls", "model.apply_event_calls"} <= tracer.present:
        calls = layers["model.apply_calls"]
        layers["model.apply_hit_ratio"] = 1 - layers["model.apply_event_calls"] / calls if calls else 0.0
    traced_pass_s = traced_ns / traced_passes / 1e9
    untraced_pass_s = untraced_ns / untraced_passes / 1e9
    layers["trace.overhead_pct"] = 100 * (traced_pass_s / untraced_pass_s - 1)
    tracer.write(WORK / f"trace-{workload.name}.json")
    return {
        "passes": count,
        "attempted": attempted,
        "failed": failed,
        "layers": layers,
        "traced_pass_s": traced_pass_s,
        "untraced_pass_s": untraced_pass_s,
    }


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    parser.add_argument("--seed", type=int, default=0, help="orders the operations of each pass")
    parser.add_argument("--seconds", type=float, default=30.0, help="measured wall time, in whole passes")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    with ANSWERS.open(encoding="utf-8") as fh:
        recorded = json.load(fh)[args.workload]

    inputs = workloads.write_inputs(args.workload, WORK / args.workload)
    digest = workloads.inputs_digest(inputs)
    if digest != recorded["inputs_sha256"]:
        print(
            f"chronobench: the {args.workload} inputs no longer match the recorded "
            f"digest ({digest} != {recorded['inputs_sha256']}); the generators changed, "
            "so the recorded answers do not apply",
            file=sys.stderr,
        )
        return 3

    workload = Workload(args.workload, inputs, recorded["projections"])
    rng = random.Random(args.seed)
    spawns = Spawns((SETUP, BARE) if args.trace else (SETUP,))
    print(f"workload={args.workload} seed={args.seed} models={len(inputs)} inputs_sha256={digest}")

    if args.trace:
        units = per_layer_units()
        result = measure_traced(workload, rng, args.seconds, spawns, list(units))
        layers = result["layers"]
        layers["cli.import_s"] = spawns.seconds(SETUP) - spawns.seconds(BARE)
        metrics = {name: {"value": value, "unit": units[name]} for name, value in sorted(layers.items())}
        op_s = result["traced_pass_s"]
        print(f"passes={result['passes']} (alternating untraced/traced) traced_pass_s={op_s:.4f} untraced_pass_s={result['untraced_pass_s']:.4f}")
        for name, metric in metrics.items():
            share = f"  {100 * metric['value'] / op_s:5.1f}% of traced pass" if metric["unit"] == "s" and name != "cli.import_s" else ""
            print(f"  {name:28s} {metric['value']:.6g} {metric['unit']}{share}")
        absent = [name for name in units if name not in metrics]
        if absent:
            print(f"absent (wrapped name no longer exists): {', '.join(absent)}")
    else:
        result = measure(workload, rng, args.seconds, spawns)
        setup_s = spawns.seconds(SETUP)
        peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
        metrics = {
            "setup_s": {"value": setup_s, "unit": "s"},
            "models_per_s": {"value": result["models_per_s"], "unit": "1/s"},
            "latency_p50_ms": {"value": result["latency_p50_ms"], "unit": "ms"},
            "latency_tail_ms": {"value": result["latency_tail_ms"], "unit": "ms"},
            "peak_rss_mb": {"value": peak_rss_mb, "unit": "MB"},
        }
        print(f"passes={result['passes']} operations={result['attempted']} (latencies: fastest pass of each model)")
        for name, metric in metrics.items():
            print(f"  {name:16s} {metric['value']:.6g} {metric['unit']}")
        print(f"  (latency_tail_ms is p{result['tail_percentile']:g} of {result['models']} models)")
        print(f"  {'error_rate':16s} {result['failed'] / result['attempted']:.6g} ratio ({result['failed']} of {result['attempted']} failed)")

    print(json.dumps({
        "correct": result["failed"] == 0,
        "attempted": result["attempted"],
        "failed": result["failed"],
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
