#!/usr/bin/env python3
"""seqboost benchmark.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a checkout of the repository; the program is imported
from its ``src/``.  The seed generates the workload's input files; the program
sees only those files.  For ``--seconds``, the program is set up afresh (a new
import of seqboost and the workload's preparation) and one unit of the
workload is run, again and again; every unit's outputs are checked.

With ``--trace 0`` the end-to-end metrics are reported: the median set-up time,
the median unit wall time, peak resident memory and the log-loss of the unit's
model.  Both times are scaled to a reference machine speed by the probe in
``speedprobe.py``, which is timed around and during every set-up and unit.  With ``--trace 1`` half the time runs untraced units and half runs
units with the per-layer tracer installed; the per-layer metrics are medians
over the traced units, and ``trace.overhead`` is the ratio of the traced to
the untraced median unit time.

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``.  The result, with every
set-up and unit time, and for traced runs the spans of the last traced unit,
is also written under ``perfbench/results/``.
"""

from __future__ import annotations

import argparse
import gc
import importlib
import json
import os
import random
import resource
import shutil
import statistics
import sys
import time
import traceback
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
MIN_UNITS = 2  # per timed phase, so that units can be compared with each other


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def import_seqboost():
    """Import seqboost afresh, dropping any earlier import, and return the package."""
    for name in [m for m in sys.modules if m == "seqboost" or m.startswith("seqboost.")]:
        del sys.modules[name]
    sb = importlib.import_module("seqboost")
    importlib.import_module("seqboost.serialize")
    importlib.import_module("seqboost.checks")
    return sb


def set_up(workload, inputs):
    sb = import_seqboost()
    return sb, workload.setup(sb, inputs)


def timed(probe, fn, *args):
    """Call ``fn(*args)``; return its result, its raw wall seconds and its seconds
    at the probe's reference speed (the raw seconds again when there is no probe)."""
    if probe is not None:
        return probe.measure(fn, *args)
    start = time.perf_counter()
    result = fn(*args)
    raw = time.perf_counter() - start
    return result, raw, raw


def run_units(workload, inputs, seconds, tracer=None, probe=None):
    """Set up and run one unit after another for ``seconds``, checking each unit.

    Each unit gets a fresh set-up, so that set-up times are sampled across the
    whole run, as unit times are, and no unit inherits state from the last.
    Runs at least MIN_UNITS units, and no unit that would end past the deadline
    by the last set-up and unit's time.  ``setup_s`` and ``unit_s`` hold the
    times at the probe's reference speed, ``*_raw_s`` the wall times less the
    probe's own slices.  Returns a dict of samples and results.
    """
    run = {"setup_s": [], "unit_s": [], "setup_raw_s": [], "unit_raw_s": [], "layers": [],
           "failed": 0, "failures": [], "loss": None}
    fingerprint = None
    deadline = time.perf_counter() + seconds
    last = 0.0
    while len(run["unit_s"]) + run["failed"] < MIN_UNITS or time.perf_counter() + last <= deadline:
        began = time.perf_counter()
        state = out = None  # so that the last unit's objects do not count in this unit's memory
        gc.collect()  # and no set-up or unit collects an earlier one's garbage
        (sb, state), raw, scaled = timed(probe, set_up, workload, inputs)
        run["setup_raw_s"].append(raw)
        run["setup_s"].append(scaled)
        gc.collect()
        if tracer is not None:
            tracer.reset()
            tracer.install(sb)
        try:
            out, raw, scaled = timed(probe, workload.unit, sb, state)
        except Exception:
            run["failed"] += 1
            traceback.print_exc(file=sys.stderr)
            continue
        finally:
            if tracer is not None:
                tracer.uninstall()
            last = time.perf_counter() - began
        run["unit_raw_s"].append(raw)
        run["unit_s"].append(scaled)
        if tracer is not None:
            metrics = tracer.unit_metrics()
            round_s = out.get("round_s") or [0.0]
            metrics["boost.first_round_s"] = round_s[0]
            metrics["boost.last_round_s"] = round_s[-1]
            run["layers"].append(metrics)
        run["failures"] += workload.check(state, out)
        if fingerprint is None:
            fingerprint = workload.fingerprint(out)
        elif workload.fingerprint(out) != fingerprint:
            run["failures"].append("unit output differs from the first unit's")
        run["loss"] = workload.loss(state, out)
    if tracer is not None:
        run["self_seconds"] = tracer.self_seconds()
        run["spans"] = [dict(zip(("name", "start", "end", "parent"), s)) for s in tracer.spans]
    return run


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (ROOT / "src" / "seqboost" / "__init__.py").is_file():
        print(f"perfbench: no src/seqboost under {ROOT}; run from a checkout of the repository",
              file=sys.stderr)
        return 2
    # One thread: numpy's pools are sized when numpy is first imported.
    for var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
        os.environ[var] = "1"
    sys.path.insert(0, str(ROOT / "src"))
    import layertrace
    import selftest
    import speedprobe
    import workloads

    workload = workloads.WORKLOADS.get(args.workload)
    if workload is None:
        print(f"perfbench: unknown workload {args.workload!r}; "
              f"choose from {', '.join(workloads.WORKLOADS)}", file=sys.stderr)
        return 2
    workdir = HERE / "work" / f"{workload.name}-{os.getpid()}"
    workdir.mkdir(parents=True, exist_ok=True)
    try:
        inputs = workload.make_inputs(random.Random(f"{workload.name}:{args.seed}"), workdir)
        sb = import_seqboost()  # also compiles bytecode, outside the timing
        failures = [f"self-test: {f}" for f in selftest.stepwise_check_catches_fault(sb)]
        if not args.trace:
            runs = [run_units(workload, inputs, args.seconds, probe=speedprobe.SpeedProbe())]
        else:
            runs = [run_units(workload, inputs, args.seconds / 2),
                    run_units(workload, inputs, args.seconds / 2, layertrace.Tracer())]
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    if not all(r["unit_s"] for r in runs):
        print("perfbench: every unit failed", file=sys.stderr)
        return 1
    failures += [f for r in runs for f in r["failures"]]
    failed = sum(r["failed"] for r in runs)
    attempted = sum(len(r["unit_s"]) for r in runs) + failed
    if not args.trace:
        (run,) = runs
        metrics = {
            "setup_s": (statistics.median(run["setup_s"]), "s"),
            "wall_s": (statistics.median(run["unit_s"]), "s"),
            "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, "MB"),
            "loss_nats": (run["loss"], "nats"),
        }
        samples = {name: run[name] for name in ("setup_s", "unit_s", "setup_raw_s", "unit_raw_s")}
        spans = None
    else:
        plain, traced = runs
        layers = traced["layers"]
        metrics = {name: (statistics.median(m[name] for m in layers), unit_of(name)) for name in layers[0]}
        overhead = statistics.median(traced["unit_s"]) / statistics.median(plain["unit_s"])
        metrics["trace.overhead"] = (overhead, "ratio")
        samples = {"untraced_unit_s": plain["unit_s"], "traced_unit_s": traced["unit_s"]}
        spans = {"self_seconds": traced["self_seconds"], "spans": traced["spans"]}

    for failure in dict.fromkeys(failures):
        print(f"CHECK FAILED: {failure}", file=sys.stderr)
    result = {
        "correct": not failures,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }
    results = HERE / "results"
    results.mkdir(exist_ok=True)
    stem = f"{workload.name}-seed{args.seed}-trace{args.trace}"
    (results / f"{stem}.json").write_text(
        json.dumps(dict(result, samples=samples), indent=1) + "\n", encoding="utf-8")
    if spans is not None:
        (results / f"{stem}.spans.json").write_text(json.dumps(spans) + "\n", encoding="utf-8")
    print(f"{workload.name} seed {args.seed} trace {args.trace}: {attempted} units, "
          f"{failed} failed, checks {'passed' if not failures else 'FAILED'}")
    for name, (value, unit) in metrics.items():
        print(f"  {name:32s} {value:14.6g} {unit}")
    if not args.trace:
        for name in ("setup_raw_s", "unit_raw_s"):
            print(f"  {'(median ' + name + ', unscaled)':32s} {statistics.median(run[name]):14.6g} s")
    print(json.dumps(result))
    return 0


def unit_of(metric: str) -> str:
    if metric.endswith("_s"):
        return "s"
    if metric.endswith("_ratio"):
        return "ratio"
    if metric == "serialize.bytes":
        return "B"
    return "count"


if __name__ == "__main__":
    sys.exit(main())
