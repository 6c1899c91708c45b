#!/usr/bin/env python3
"""Record the exact-field reference every benchmark run is checked against.

    python3 perfbench/record.py            # writes perfbench/reference.json

Run it once on the commit whose outputs are the reference.  It covers the
full and smoke inputs of every workload, and every random_hunt experiment
seed in the pool, so any --seed passed to run.py has a reference.
"""

import json
import sys
from pathlib import Path

from run import REFERENCE, load_library


def record(workloads, smoke: bool) -> dict:
    from spans import plain_api

    api = plain_api(workloads.API_NAMES)
    out: dict = {}
    for name, make in workloads.WORKLOADS.items():
        seeds = workloads.RANDOM_POOL if name == "random_hunt" else 1
        table = out[name] = {}
        for seed in range(seeds):
            wl = make(seed, smoke)
            for unit in wl.passes(0) + wl.checks():
                table[unit.key] = json.loads(json.dumps(unit.run(api).exact))
        print(f"{'smoke' if smoke else 'full'} {name}: {len(table)} units", file=sys.stderr)
    return out


def main() -> int:
    workloads = load_library()
    data = {"smoke": record(workloads, True), "full": record(workloads, False)}
    Path(REFERENCE).write_text(json.dumps(data, sort_keys=True, indent=0) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
