"""Record the golden digests of canonical outputs in goldens.json.

    python3 perfbench/make_goldens.py

Runs every roundtrip round and the sample round at their default seeds and
stores the digest of ``render_automaton`` of every compiled DFA, keyed by
input.  Nothing is written unless every job passes its reference checks.
Unary has no goldens: a fix of its known defect must change its outputs.
"""

from __future__ import annotations

import json
import sys

from run import SRC, WORK, fresh_import
from workloads import GOLDENS_FILE, WORKLOADS, Goldens

RECORDED = {"roundtrip": None, "sample": 1}  # workload -> rounds to record (None: all)


def main() -> int:
    sys.path.insert(0, str(SRC))
    package = fresh_import()
    goldens = Goldens({}, record=True)
    failures = []
    for name, count in RECORDED.items():
        workload = WORKLOADS[name]
        rounds = workload.prepare(package, workload.default_seed, WORK, goldens)
        for jobs in rounds[:count]:
            for job in jobs:
                error = job.check(job.run())
                if error is not None:
                    failures.append(f"{name} {job.label}: {error}")
        print(f"{name}: {len(goldens.table.get(name, {}))} digests")
    if failures:
        print("\n".join(failures))
        print("goldens not written")
        return 1
    GOLDENS_FILE.write_text(json.dumps(goldens.table, indent=1, sort_keys=True) + "\n",
                            encoding="utf-8")
    return 0


if __name__ == "__main__":
    sys.exit(main())
