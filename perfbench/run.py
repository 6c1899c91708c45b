#!/usr/bin/env python3
"""Benchmark entry point: one workload per process.

    python3 perfbench/run.py --workload turan_families --seed 1 --seconds 10 --trace 0

With --trace 0 it times whole passes of the workload until --seconds have
passed and reports the end-to-end metrics; with --trace 1 it runs pairs of
an untraced and a traced pass and reports the per-layer metrics.  Every
output is checked against the reference recorded by record.py.  The last
stdout line is one JSON object: correct, attempted, failed, metrics.
--smoke swaps in tiny inputs (seconds per run) for the benchmark's tests.
"""

import time

T_START = time.perf_counter()

import argparse  # noqa: E402
import json  # noqa: E402
import os  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import sys  # noqa: E402
from pathlib import Path  # noqa: E402

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
REFERENCE = HERE / "reference.json"
OUT = HERE / "out"

# BLAS threads are pinned before numpy loads, so both commits of a
# comparison run the same thread count whatever the machine's core count.
BLAS_THREADS = "1"
THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
for _var in THREAD_VARS:
    os.environ[_var] = BLAS_THREADS


def parse_args(argv):
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--seconds", type=float, default=20.0)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--smoke", action="store_true", help="tiny inputs")
    return p.parse_args(argv)


def load_library():
    """Import specturan from this checkout's sources, never from elsewhere."""
    if not (SRC / "specturan" / "__init__.py").is_file():
        raise SystemExit(f"error: no specturan sources under {SRC}")
    sys.path.insert(0, str(SRC))
    import specturan

    if Path(specturan.__file__).resolve().parent != SRC / "specturan":
        raise SystemExit(f"error: imported specturan from {specturan.__file__}")
    import workloads

    return workloads


def run_pass(units, api):
    start = time.perf_counter()
    outcomes = [(u.key, u.run(api)) for u in units]
    return time.perf_counter() - start, outcomes


def fits_another(began, done, seconds):
    """Whether one more pass, at the mean pass time so far, ends within seconds."""
    elapsed = time.perf_counter() - began
    return elapsed * (done + 1) / done <= seconds


def count_failed(wl, reference, outcomes):
    """(attempted, failed) verdicts against the recorded exact fields."""
    attempted = failed = 0
    for key, out in outcomes:
        attempted += out.verdicts
        ref = reference.get(key)
        got = json.loads(json.dumps(out.exact))
        if ref is None:
            print(f"no reference for unit {key}", file=sys.stderr)
            failed += out.verdicts
            continue
        bad = wl.count_failed(ref, got, out.verdicts)
        if bad:
            print(f"unit {key}: {bad} verdicts differ from the reference", file=sys.stderr)
        failed += bad
    return attempted, failed


def environment():
    import importlib.metadata as md

    env = {"nproc": len(os.sched_getaffinity(0)), "python": platform.python_version()}
    for pkg in ("numpy", "sympy"):
        env[pkg] = md.version(pkg)
    env.update({v: os.environ[v] for v in THREAD_VARS})
    return env


def untraced(args, wl, api, reference):
    passes = []
    began = time.perf_counter()
    while not passes or fits_another(began, len(passes), args.seconds):
        passes.append(run_pass(wl.passes(len(passes)), api))
    peak_mib = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    outcomes = [o for _, outs in passes for o in outs]
    attempted, failed = count_failed(wl, reference, outcomes)
    rates = [sum(o.verdicts for _, o in outs) / secs for secs, outs in passes]
    metrics = {
        "verdicts_per_s": (statistics.median(rates), "1/s"),
        "setup_s": (args.setup_s, "s"),
        "peak_rss_mb": (peak_mib, "MiB"),
    }
    print(f"{len(passes)} passes in {sum(s for s, _ in passes):.3f} s")
    return attempted, failed, metrics


def traced(args, wl, plain, reference):
    import sympy  # noqa: F401  lazy imports land in neither side of the overhead
    import mpmath  # noqa: F401
    from spans import LAYERS, Recorder, layer_metrics

    rec = Recorder()
    api = rec.api(vars(plain))
    plain_s = traced_s = 0.0
    mismatched = 0
    ties = {"exact": 0, "tol13": 0}
    pairs = []
    began = time.perf_counter()
    while not pairs or fits_another(began, len(pairs), args.seconds):
        units = wl.passes(len(pairs))
        secs0, outs0 = run_pass(units, plain)
        rec.install()
        try:
            secs1, outs1 = run_pass(units, api)
        finally:
            rec.uninstall()
        plain_s += secs0
        traced_s += secs1
        for (key, a), (_, b) in zip(outs0, outs1):
            if json.dumps(a.exact) != json.dumps(b.exact):
                print(f"unit {key}: traced output differs from untraced", file=sys.stderr)
                mismatched += b.verdicts
            for stage in ties:
                ties[stage] += b.ties.get(stage, 0)
        pairs.append(outs1)
    OUT.mkdir(exist_ok=True)
    rec.write(OUT / f"spans-{args.workload}-seed{args.seed}.jsonl")

    attempted, failed = count_failed(wl, reference, [o for outs in pairs for o in outs])
    k = len(pairs)
    per_pass = {name: v / k for name, v in layer_metrics(rec.spans).items()}
    n_ties = ties["exact"] + ties["tol13"]
    per_pass.update({
        "harness.ties": n_ties / k,
        "harness.ties_exact": ties["exact"] / k,
        "harness.ties_tol13": ties["tol13"] / k,
        "harness.tol13_settled_ratio": ties["tol13"] / n_ties if n_ties else 0.0,
        "trace.overhead_s": (traced_s - plain_s) / k,
        "trace.untraced_s": plain_s / k,
    })
    metrics = {}
    for name in sorted(per_pass):
        unit = "s" if name.endswith("_s") else "ratio" if name.endswith("ratio") else "count"
        metrics[name] = (per_pass[name], unit)
    print(f"{k} untraced/traced pass pairs; layers {', '.join(LAYERS)}")
    return attempted, min(failed + mismatched, attempted), metrics


def main(argv=None) -> int:
    args = parse_args(argv)
    workloads = load_library()
    if args.workload not in workloads.WORKLOADS:
        raise SystemExit(f"error: unknown workload {args.workload!r}; "
                         f"choose from {', '.join(workloads.WORKLOADS)}")
    wl = workloads.WORKLOADS[args.workload](args.seed, args.smoke)
    args.setup_s = time.perf_counter() - T_START

    with open(REFERENCE, encoding="utf-8") as fh:
        reference = json.load(fh)["smoke" if args.smoke else "full"][args.workload]
    from spans import plain_api

    plain = plain_api(workloads.API_NAMES)
    run = traced if args.trace else untraced
    attempted, failed, metrics = run(args, wl, plain, reference)
    checked, bad = count_failed(wl, reference, [(u.key, u.run(plain)) for u in wl.checks()])
    attempted += checked
    failed += bad

    print("env " + " ".join(f"{k}={v}" for k, v in environment().items()))
    for name, (value, unit) in metrics.items():
        print(f"{name} = {value:.6g} {unit}")
    print(f"failed_frac = {failed / attempted:.6g} ratio ({failed} of {attempted} verdicts)")
    print(json.dumps({
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
