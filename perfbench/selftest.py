"""Self-test of the benchmark.

    python3 perfbench/selftest.py [--second-seed N]

1. Each workload's traced run, made twice at its default seed, repeats
   every count exactly: calls, states in and out, peak sizes, build steps,
   sentence nodes, and the numbers of attempted and failed jobs.
2. On the workloads with goldens, a traced run at a second seed fails no
   larger share of its jobs than the run at the default seed.

Exits with status 1 if a check fails.
"""

from __future__ import annotations

import argparse
import json
import subprocess
import sys
from pathlib import Path

from workloads import WORKLOADS

RUN = Path(__file__).resolve().parent / "run.py"
WITH_GOLDENS = ("roundtrip", "sample")


def traced(workload: str, seed: int) -> dict:
    done = subprocess.run([sys.executable, str(RUN), "--workload", workload,
                           "--seed", str(seed), "--trace", "1"],
                          capture_output=True, text=True, check=True)
    return json.loads(done.stdout.splitlines()[-1])


def counts(result: dict) -> dict:
    out = {name: m["value"] for name, m in result["metrics"].items() if m["unit"] != "s"}
    out.update(attempted=result["attempted"], failed=result["failed"])
    return out


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--second-seed", type=int, default=7)
    args = parser.parse_args(argv)
    ok = True
    for name, workload in WORKLOADS.items():
        first = traced(name, workload.default_seed)
        again = counts(traced(name, workload.default_seed))
        differ = {k: (v, again[k]) for k, v in counts(first).items() if again[k] != v}
        ok &= not differ
        print(f"{'PASS' if not differ else 'FAIL'} {name}: counts repeat at seed "
              f"{workload.default_seed}" + (f"; differing {differ}" if differ else ""))
        if name in WITH_GOLDENS:
            other = traced(name, args.second_seed)
            base = first["failed"] / first["attempted"]
            ratio = other["failed"] / other["attempted"]
            ok &= ratio <= base
            print(f"{'PASS' if ratio <= base else 'FAIL'} {name}: failed_ratio {ratio:g} "
                  f"at seed {args.second_seed}, {base:g} at seed {workload.default_seed}")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
