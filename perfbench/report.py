#!/usr/bin/env python3
"""Run workloads through run.py, one process per run, and summarise them.

    python3 perfbench/report.py                      # every workload once
    python3 perfbench/report.py --runs 10            # ten seeds each, with spread
    python3 perfbench/report.py --trace 1            # per-layer metrics + shape checks

For each workload and metric it prints the median, the quartiles and the
spread (quartile distance over the median) across runs, plus failed_frac.
With --trace 1 on full inputs it checks that the trace keeps the cost
shape measured at the commit the reference was recorded on (see
README.md); a later change that moves those costs is expected to fail
those checks, and says so.
"""

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
WORKLOADS = ("exhaustive_n7", "turan_families", "random_hunt", "large_n")


def run_once(workload, seed, args):
    cmd = [sys.executable, str(HERE / "run.py"), "--workload", workload,
           "--seed", str(seed), "--seconds", str(args.seconds), "--trace", str(args.trace)]
    done = subprocess.run(cmd + (["--smoke"] if args.smoke else []), cwd=HERE.parent,
                          capture_output=True, text=True, timeout=900)
    if done.returncode != 0:
        sys.stderr.write(done.stderr)
        raise SystemExit(f"{workload} seed {seed} exited with {done.returncode}")
    return json.loads(done.stdout.strip().splitlines()[-1])


def summarise(values):
    med = statistics.median(values)
    q1, _, q3 = statistics.quantiles(values, n=4) if len(values) > 1 else (med, med, med)
    return {"median": med, "q1": q1, "q3": q3,
            "spread": (q3 - q1) / abs(med) if med else 0.0, "values": values}


def shape_checks(summary):
    """The reference-commit cost shape of the traced run, one (label, ok) per check."""
    m = {w: {k: v["median"] for k, v in s["metrics"].items()} for w, s in summary.items()}
    out = []
    if "exhaustive_n7" in m:
        e = m["exhaustive_n7"]
        traced_wall = e["trace.untraced_s"] + e["trace.overhead_s"]
        out.append(("harness.self_s >= 90% of exhaustive_n7 wall time (same traced pass)",
                    e["harness.self_s"] >= 0.9 * traced_wall))
        out.append(("140 exact ties and 0 tol13 ties on exhaustive_n7",
                    e["harness.ties_exact"] == 140 and e["harness.ties_tol13"] == 0))
    if "turan_families" in m:
        t = m["turan_families"]
        others = [t[f"{layer}.self_s"] for layer in ("graph", "spectral", "theorems", "harness")]
        others.append(t["subgraph.self_s"] - t["subgraph.joint_s"])
        out.append(("subgraph.joint_s is the largest layer cost on turan_families",
                    t["subgraph.joint_s"] > max(others)))
    if "large_n" in m:
        out.append(("spectral.power_iters in the thousands on large_n",
                    m["large_n"]["spectral.power_iters"] >= 1000))
    return out


def main() -> int:
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--runs", type=int, default=1)
    p.add_argument("--seconds", type=float, default=20.0)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--smoke", action="store_true")
    args = p.parse_args()

    summary = {}
    ok = True
    for workload in WORKLOADS:
        results = [run_once(workload, seed, args) for seed in range(1, args.runs + 1)]
        attempted = sum(r["attempted"] for r in results)
        failed = sum(r["failed"] for r in results)
        ok &= failed == 0 and all(r["correct"] for r in results)
        metrics = {}
        for name, first in results[0]["metrics"].items():
            metrics[name] = summarise([r["metrics"][name]["value"] for r in results])
            metrics[name]["unit"] = first["unit"]
        summary[workload] = {"attempted": attempted, "failed": failed, "metrics": metrics}
        print(f"{workload}: {args.runs} runs, failed_frac = {failed / attempted:.6g} ratio "
              f"({failed} of {attempted} verdicts)")
        for name, s in metrics.items():
            print(f"  {name} = {s['median']:.6g} {s['unit']}  "
                  f"[q1 {s['q1']:.6g}, q3 {s['q3']:.6g}, spread {s['spread']:.3%}]")
    if args.trace and not args.smoke:
        for label, good in shape_checks(summary):
            print(f"shape: {label}: {'yes' if good else 'NO'}")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
