#!/usr/bin/env python3
"""Wall-clock benchmark of the APSP system: solve, serve and patch.

Run from the repository root::

    python3 perfbench/run.py --workload solve-ooc --seed 1 --seconds 25 --trace 0

Each workload runs one leg (see ``perfbench/legs.py``): set-up
``SETUP_REPEATS`` times, then whole passes of the leg until ``--seconds``
of timed work have passed; times are rescaled to a reference host speed
(``perfbench/speed.py``).  ``--trace 1`` instead runs pairs of untraced
and traced passes and reports per-layer metrics, checking the busy/idle
predictions and the trace coverage.  The last line of standard output is
one JSON object with the keys ``correct``, ``attempted``, ``failed`` and
``metrics``; metric names and units are the ones ``BENCHMARK.json``
declares.  See ``perfbench/README.md`` for the metric definitions.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
BUILD = ROOT / ".bench_build"

WORKLOADS = ("solve-ooc", "serve-road", "patch-road")
SETUP_REPEATS = 15
COVERAGE_FLOOR = 0.90

#: layers each workload must call, and layers it must leave idle
PREDICTIONS = {
    "solve-ooc": {
        "busy": ("sssp.near_far", "engine", "partition", "gpu", "store",
                 "checkpoint", "graphs"),
        "idle": ("sssp.dijkstra", "serve.admission", "serve.drain", "dynamic"),
    },
    "serve-road": {
        "busy": ("sssp.near_far", "gpu", "graphs", "serve.admission", "serve.drain"),
        "idle": ("sssp.dijkstra", "engine", "partition"),
    },
    "patch-road": {
        "busy": ("sssp.dijkstra", "dynamic"),
        "idle": ("sssp.near_far", "partition", "gpu", "serve.admission", "serve.drain"),
    },
}

#: per-pass numbers the traced run reports next to the layer metrics
#: (0 on workloads that do not produce them)
PASS_DETAILS = (
    "solve.johnson.wall_s", "solve.fw.wall_s", "solve.boundary.wall_s",
    "solve.johnson.modeled_s", "solve.fw.modeled_s", "solve.boundary.modeled_s",
    "serve.wall_p95_ms", "serve.modeled_p50_ms", "serve.modeled_p95_ms",
    "dynamic.modeled_bytes",
)


def _prepare_environment() -> None:
    """Keep every file the run writes inside the checkout, and every
    library to one thread; must run before numpy is imported."""
    for sub in ("jit", "tmp"):
        (BUILD / sub).mkdir(parents=True, exist_ok=True)
    os.environ["REPRO_JIT_CACHE"] = str(BUILD / "jit")
    os.environ["TMPDIR"] = str(BUILD / "tmp")
    for var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
        os.environ[var] = "1"
    sys.path[:0] = [str(ROOT / "src"), str(ROOT)]


def _pin_to_one_cpu() -> None:
    """Keep the program and the speed probe on one CPU for the timed part:
    on a shared VM each CPU's speed drifts on its own.  Called after
    set-up, so the kernel engine resolves against every CPU (the
    autotuned backend is keyed by the machine's CPU count)."""
    os.sched_setaffinity(0, {min(os.sched_getaffinity(0))})


def _fingerprint() -> dict:
    import numpy
    import scipy

    from repro.core.engine import default_engine

    return {
        "nproc": os.cpu_count(),
        "engine": default_engine().describe(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
    }


def _setup(workload: str, seed: int, workdir: Path):
    """Build the workload's leg ``SETUP_REPEATS`` times; returns
    ``(leg, median seconds rescaled to the reference host)``.

    Set-up is everything before the first operation: resolving the kernel
    engine (micro-calibration picks the backend) and building the inputs.
    """
    from perfbench import speed
    from perfbench.legs import LEGS
    from repro.core.engine import default_engine, reset_default_engine

    default_engine()  # compile the native kernels once, outside the timing
    times, probes = [], []
    leg = None
    for _ in range(SETUP_REPEATS):
        probes.append(speed.probe())
        t0 = time.perf_counter()
        reset_default_engine()
        default_engine()
        leg = LEGS[workload](seed, workdir)
        times.append(time.perf_counter() - t0)
    return leg, statistics.median(times) * speed.scale(probes)


def _known_defect(leg) -> tuple[float, bool]:
    """Run the leg's untimed known-defect probe, if it has one, and print
    its outcome; returns ``(1.0 while the defect shows else 0.0, ok)``."""
    if not hasattr(leg, "probe_known_defect"):
        return 0.0, True
    present, ok = leg.probe_known_defect()
    print("known defect: submit(Query.full()) raises KeyError 'johnson'"
          if present else "known defect: no longer shows", "" if ok else "(probe FAILED)")
    return float(present), ok


def _tally(workload: str, passes: list) -> dict:
    """The result fields every run reports, from all its passes; prints
    the operation tally and any inconsistency."""
    attempted = sum(r.attempted for r in passes)
    failed = sum(r.failed for r in passes)
    correct = all(r.wrong == 0 and r.unexpected == 0 for r in passes)
    first = {}
    if any(r.modeled != first.setdefault(r.inputs, r).modeled for r in passes):
        print(f"{workload}: modeled numbers differ between passes over the same inputs",
              file=sys.stderr)
        correct = False
    print(f"{workload}: passes={len(passes)} attempted={attempted} failed={failed} "
          f"refused={sum(r.refused for r in passes)} raised={sum(r.raised for r in passes)} "
          f"wrong={sum(r.wrong for r in passes)} "
          f"unexpected={sum(r.unexpected for r in passes)}")
    return {"correct": correct, "attempted": attempted, "failed": failed}


def measure(workload: str, seed: int, seconds: float, workdir: Path) -> dict:
    """End-to-end run: whole untraced passes until ``seconds`` of timed
    work.  Each pass's times are rescaled by the speed probes taken
    alongside it."""
    from perfbench.legs import Clock, drive, pass_leg

    leg, setup_s = _setup(workload, seed, workdir)
    _, defect_ok = _known_defect(leg)
    _pin_to_one_cpu()
    passes, scales = [], []
    while not passes or sum(r.wall_s for r in passes) < seconds:
        clock = Clock()
        passes.append(drive(pass_leg(leg, len(passes)).run_pass(clock)))
        scales.append(clock.scale())
    result = _tally(workload, passes)
    result["correct"] = result["correct"] and defect_ok
    latencies = [x * k for r, k in zip(passes, scales) for x in r.latencies]
    wall = sum(r.wall_s for r in passes)
    print(f"{workload}: {len(latencies)} latency samples, {wall:.3f} s host wall, "
          f"speed scale per pass {' '.join(f'{k:.3f}' for k in scales)}")
    metrics = {
        "setup_s": setup_s,
        "throughput": sum(r.completed for r in passes)
        / sum(r.wall_s * k for r, k in zip(passes, scales)),
    }
    if latencies:
        metrics["latency_p50_ms"] = 1e3 * statistics.median(latencies)
    return {**result, "metrics": metrics}


def selftest_problems(workload: str, layers: dict) -> list[str]:
    """Failed busy/idle predictions and a trace coverage below the floor."""
    problems = []
    pred = PREDICTIONS[workload]
    for layer in pred["busy"]:
        if layers[f"{layer}.calls"] == 0:
            problems.append(f"layer {layer} predicted busy, recorded no calls")
    for layer in pred["idle"]:
        if layers[f"{layer}.calls"] != 0:
            problems.append(
                f"layer {layer} predicted idle, recorded {layers[f'{layer}.calls']:.0f} calls"
            )
    if layers["trace.coverage"] < COVERAGE_FLOOR:
        problems.append(
            f"named layers cover {layers['trace.coverage']:.1%} of traced wall time "
            f"(< {COVERAGE_FLOOR:.0%})"
        )
    return problems


def _median_dict(dicts: list[dict]) -> dict:
    keys = {k for d in dicts for k in d}
    return {k: statistics.median(d.get(k, 0.0) for d in dicts) for k in sorted(keys)}


def measure_traced(workload: str, seed: int, seconds: float, workdir: Path) -> dict:
    """Pairs of untraced and traced passes, their operations interleaved
    (alternating which goes first) so both see the same machine state,
    until ``seconds`` of timed work.
    A failed busy/idle prediction or coverage below the floor makes the
    run incorrect: the per-layer numbers would then be misattributed."""
    from perfbench.legs import Clock, interleave, pass_leg
    from perfbench.tracer import Tracer, layer_metrics

    leg, _ = _setup(workload, seed, workdir)
    defect, defect_ok = _known_defect(leg)
    _pin_to_one_cpu()
    plain, traced, layers = [], [], []
    while not traced or sum(r.wall_s for r in plain + traced) < seconds:
        tracer = Tracer()
        this = pass_leg(leg, len(traced))
        gens = {"plain": this.run_pass(Clock()), "traced": this.run_pass(Clock(tracer))}
        first = ("plain", "traced")[len(traced) % 2]  # alternate who runs first
        pair = interleave({name: gens[name] for name in sorted(gens, key=lambda n: n != first)})
        plain.append(pair["plain"])
        traced.append(pair["traced"])
        layers.append(layer_metrics(tracer.values, pair["traced"].wall_s))
    result = _tally(workload, plain + traced)
    metrics = _median_dict(layers)
    details = _median_dict([r.wall for r in plain])
    details.update(plain[0].modeled)
    metrics.update({name: details.get(name, 0.0) for name in PASS_DETAILS})
    metrics["serve.full_query_defect"] = defect
    metrics["trace.overhead_s"] = (
        statistics.median(r.wall_s for r in traced) - statistics.median(r.wall_s for r in plain)
    )
    problems = selftest_problems(workload, metrics)
    for problem in problems:
        print(f"selftest {workload}: {problem}")
    if problems or not defect_ok:
        result["correct"] = False
    return {**result, "metrics": metrics}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=WORKLOADS, required=True)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=25.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (ROOT / "src" / "repro").is_dir():
        print(f"perfbench: no program sources at {ROOT / 'src' / 'repro'}", file=sys.stderr)
        return 2
    _prepare_environment()
    declared = json.loads((ROOT / "BENCHMARK.json").read_text())
    units = {m["name"]: m["unit"] for m in declared["per_layer" if args.trace else "end_to_end"]}
    run = measure_traced if args.trace else measure
    result = run(args.workload, args.seed, args.seconds, BUILD)
    if units.keys() != result["metrics"].keys():
        print(f"perfbench: measured metrics {sorted(result['metrics'])} differ from the "
              f"declared {sorted(units)}", file=sys.stderr)
        return 1
    fingerprint = _fingerprint()
    baseline = json.loads((Path(__file__).parent / "fingerprint.json").read_text())
    print("fingerprint", json.dumps(fingerprint, sort_keys=True),
          "comparable" if fingerprint == baseline else "NOT-COMPARABLE (baseline "
          + json.dumps(baseline, sort_keys=True) + ")")
    for name, value in result["metrics"].items():
        print(f"{name:32s} {value:16.6f} {units[name]}")
    result["metrics"] = {
        name: {"value": value, "unit": units[name]} for name, value in result["metrics"].items()
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
