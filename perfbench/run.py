"""Benchmark of the ``algebroids`` package.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 perfbench/run.py --check-trace [--seed N]

Run from the root of a source checkout.  Each run first builds the package
the way an installed user has it: ``src/algebroids`` is copied to
``.bench_build/site`` and compiled to bytecode there.  It then checks once
that a pass verdict can fail, runs the workload for ``S`` seconds (whole
rounds), checks every answer, and prints one JSON object as its last line:
the end-to-end metrics with ``--trace 0``, the per-layer metrics with
``--trace 1``.  A line before it records the host reference timings.

``--check-trace`` runs two rounds of model-stream traced and under
``cProfile`` at once and compares the call counts of every traced function.

See README.md for the workloads, metrics and reference figures.
"""

from __future__ import annotations

import argparse
import compileall
import json
import math
import os
import shutil
import statistics
import sys
from pathlib import Path

from hostprobe import probe

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
BUILD = ROOT / ".bench_build"
SITE = BUILD / "site"

WORKLOADS = ("suite-all", "cli-oneshot", "model-stream")
SETUP_REPEATS = 11
HOST_REPEATS = 5


# -- build and environment -------------------------------------------------------

def build():
    """Copy the package into the benchmark's own tree and compile it."""
    source = ROOT / "src" / "algebroids"
    if not (source / "__init__.py").is_file():
        raise SystemExit(f"no package source at {source}")
    shutil.rmtree(SITE, ignore_errors=True)
    shutil.copytree(source, SITE / "algebroids",
                    ignore=shutil.ignore_patterns("__pycache__"))
    if not compileall.compile_dir(SITE, quiet=1):
        raise SystemExit("the package does not compile")
    sys.path.insert(0, str(SITE))
    env = dict(os.environ)
    env["PYTHONPATH"] = str(SITE)
    env.pop("PYTHONPYCACHEPREFIX", None)
    return env


def host_ref_ms():
    """A fixed pure-Python Fraction loop: the host's speed, not the
    program's."""
    return statistics.median(probe(3000) for _ in range(HOST_REPEATS)) * 1000


def interp_ms(env, workdir):
    """Wall time of a bare interpreter start."""
    from workloads import spawn

    samples = [spawn([sys.executable, "-c", "pass"], env, workdir, "interp")[0]
               for _ in range(HOST_REPEATS)]
    return statistics.median(samples) * 1000


def setup_seconds(workload, env, workdir):
    """Medians over fresh processes of the normalized and the raw CPU time
    of the workload's imports and model loading, timed inside each
    process."""
    from workloads import spawn

    normalized, raw = [], []
    for _ in range(SETUP_REPEATS):
        _, _, code, out, _ = spawn([sys.executable, str(HERE / "child.py"),
                                    "setup", workload], env, workdir, "setup")
        if code != 0:
            raise SystemExit(f"set-up child exited {code}")
        first, second = out.split()
        normalized.append(float(first))
        raw.append(float(second))
    return statistics.median(normalized), statistics.median(raw)


# -- the check that a verdict can fail --------------------------------------------

def verdict_can_fail(env, workdir):
    """Flip the contraction order: theorem-2 must fail, and its witness must
    replay through ``algebroids eval`` to the same nonzero values.  The two
    broken fixtures must be rejected for the axiom they break."""
    import algebroids.tensor as tensor
    from algebroids.errors import (AnchorNotMorphism, JacobiViolation,
                                   ValidationError)
    from algebroids.model import load_model
    from algebroids.suites import run_suite
    from workloads import FIXTURES, spawn

    problems = []
    model = load_model(FIXTURES / "standard.json")
    saved = tensor.CONTRACTION_ORDER
    tensor.CONTRACTION_ORDER = "last-factor-innermost"
    try:
        result = run_suite("theorem-2", model)
    finally:
        tensor.CONTRACTION_ORDER = saved
    failing = [item for item in result["items"] if item["status"] == "fail"]
    if result["status"] != "fail" or not failing:
        problems.append("theorem-2 passes with the contraction order flipped")
    else:
        witness = failing[0]["witness"]
        path = workdir / "witness.json"
        path.write_text(json.dumps(witness["model"]), encoding="utf-8")
        argv = [sys.executable, "-m", "algebroids", "eval", "--model",
                str(path), "--tensor", "residual"]
        if witness["point"]:
            argv += ["--at", ",".join(f"{k}={v}"
                                      for k, v in witness["point"].items())]
        _, _, code, out, _ = spawn(argv, env, workdir, "witness")
        values = json.loads(out)["items"][0]["result"] if code == 0 else {}
        recorded = witness["residual_at_point"]
        if (values.get("values") != recorded or values.get("nonzero") is not True
                or not any(v != "0" for v in recorded.values())):
            problems.append(f"theorem-2 witness does not replay: exit {code}")
    for name, axiom in (("broken_anchor.json", AnchorNotMorphism),
                        ("broken_jacobi.json", JacobiViolation)):
        try:
            load_model(FIXTURES / name)
        except ValidationError as exc:
            if not isinstance(exc.__cause__, axiom):
                problems.append(f"{name} rejected for {exc.__cause__!r}")
        else:
            problems.append(f"{name} was accepted")
    return problems


# -- statistics ------------------------------------------------------------------

def tail_percentile(n):
    """The highest whole percentile with at least ten ops beyond it."""
    return max(0, math.floor(100 * (n - 10) / n))


def nearest_rank(values, percentile):
    ordered = sorted(values)
    rank = max(1, math.ceil(percentile / 100 * len(ordered)))
    return ordered[rank - 1]


# -- main ----------------------------------------------------------------------------

def run_workload(name, seed, seconds, env, workdir, tracer):
    import workloads

    if name == "suite-all":
        return workloads.suite_all(seed, seconds, tracer)
    if name == "cli-oneshot":
        return workloads.cli_oneshot(seed, seconds, env, workdir / "cli",
                                     trace=tracer is not None)
    return workloads.model_stream(seed, seconds, tracer)


def figures(run, values, percentile):
    """The timing metrics of a run from one list of op latencies."""
    return {"total_s": run.total_s(values),
            "op_p50_ms": statistics.median(values) * 1000,
            "op_tail_ms": nearest_rank(values, percentile) * 1000}


def metric(value, unit):
    return {"value": value, "unit": unit}


def check_trace(seed):
    """Compare traced call counts with cProfile's on model-stream."""
    import cProfile

    import workloads
    from tracer import Tracer, profile_counts

    tracer = Tracer()
    profile = cProfile.Profile()
    profile.enable()
    run = workloads.model_stream(seed, 0, tracer)
    profile.disable()
    seen = profile_counts(profile)
    mismatched = 0
    for name, calls in tracer.calls.items():
        flag = "" if calls == seen[name] else "  MISMATCH"
        mismatched += bool(flag)
        print(f"{name:34s} traced {calls:>9d}  cProfile {seen[name]:>9d}{flag}")
    print(f"{run.attempted} ops, {len(run.errors)} wrong answers, "
          f"{mismatched} mismatched counts")
    return 1 if mismatched or run.errors else 0


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--check-trace", action="store_true")
    args = parser.parse_args(argv)
    if not args.check_trace and args.workload is None:
        parser.error("--workload is required")

    env = build()
    if args.check_trace:
        return check_trace(args.seed)

    workdir = BUILD / "work" / args.workload
    shutil.rmtree(workdir, ignore_errors=True)
    workdir.mkdir(parents=True)
    ref_start = host_ref_ms()
    interp = interp_ms(env, workdir)
    problems = verdict_can_fail(env, workdir)
    setup, raw_setup = (None, None) if args.trace else \
        setup_seconds(args.workload, env, workdir)

    tracer = None
    if args.trace:
        from tracer import Tracer

        tracer = Tracer()
    run = run_workload(args.workload, args.seed, args.seconds, env, workdir,
                       tracer)
    ref_end = host_ref_ms()

    latencies = run.normalized()
    problems += run.errors
    if len(set(run.round_instances)) != 1:
        problems.append(f"instances per round vary: {run.round_instances}")
    n = len(latencies)
    percentile = tail_percentile(n)
    print(json.dumps({"workload": args.workload, "seed": args.seed,
                      "rounds": len(run.round_instances), "ops": n,
                      "op_tail_percentile": percentile,
                      "cpu": figures(run, run.cpu, percentile),
                      "wall": figures(run, run.walls, percentile),
                      "cpu_setup_s": raw_setup,
                      "probe_ms": statistics.median(s for _, s in run.probes)
                      * 1000 if run.probes else None,
                      "host.ref_ms": {"start": ref_start, "end": ref_end},
                      "cli.interp_ms": interp}))
    for problem in problems:
        print(f"wrong: {problem}", file=sys.stderr)

    if args.trace:
        from tracer import layer_metrics, merge_counts
        from algebroids.suites import SUITE_NAMES

        parts = run.layer_counts or [tracer.counts()]
        layers = layer_metrics(merge_counts(parts), SUITE_NAMES)
        metrics = {name: metric(value, unit)
                   for name, (value, unit) in layers.items()}
        median_ms = (lambda xs: statistics.median(xs) if xs else 0.0)
        metrics["cli.import_ms"] = metric(median_ms(run.cli_import_ms), "ms")
        metrics["cli.main_ms"] = metric(median_ms(run.cli_main_ms), "ms")
        metrics["cli.interp_ms"] = metric(interp, "ms")
        metrics["host.ref_ms"] = metric((ref_start + ref_end) / 2, "ms")
        metrics["trace.total_s"] = metric(run.total_s(latencies), "s")
    else:
        timings = figures(run, latencies, percentile)
        metrics = {
            "total_s": metric(timings["total_s"], "s"),
            "op_p50_ms": metric(timings["op_p50_ms"], "ms"),
            "op_tail_ms": metric(timings["op_tail_ms"], "ms"),
            "setup_s": metric(setup, "s"),
            "peak_rss_mb": metric(run.peak_rss_kb / 1024, "MB"),
            "instances_checked": metric(run.round_instances[0], "count"),
        }
    print(json.dumps({"correct": not problems, "attempted": run.attempted,
                      "failed": run.failed, "metrics": metrics}))
    return 0 if not problems else 1


if __name__ == "__main__":
    sys.exit(main())
