#!/usr/bin/env python3
"""Check each benchmark workload's output digest against its pinned value.

perfbench/run.py checks only that a run's iterations agree with each other,
so a change that moves a workload's output would still pass it. This script
compares the digest each workload's last run recorded in
.bench_build/results/<workload>.json with tests/golden/perfbench_digests.txt
("<workload> <digest>" per line, pinned at seed 1, run.py's default seed).
A deliberate change of output re-pins that file in the same change.

  python3 perfbench/run.py --seconds 1
  python3 tools/check_perfbench_digests.py

Exit code 0 when every pinned workload ran at seed 1 with its pinned digest;
1 with one line per mismatch otherwise.
"""

import json
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
GOLDEN = ROOT / "tests" / "golden" / "perfbench_digests.txt"
RESULTS = ROOT / ".bench_build" / "results"
PINNED_SEED = 1


def main():
    problems = []
    for line in GOLDEN.read_text().splitlines():
        if not line.strip():
            continue
        workload, pinned = line.split()
        path = RESULTS / f"{workload}.json"
        if not path.is_file():
            problems.append(f"{workload}: no result at {path}")
            continue
        doc = json.loads(path.read_text())
        seed = doc["provenance"]["seed"]
        digest = doc["result"]["digest"]
        if seed != PINNED_SEED:
            problems.append(f"{workload}: ran at seed {seed}; the golden pins seed {PINNED_SEED}")
        elif digest != pinned:
            problems.append(f"{workload}: digest {digest}, pinned {pinned}")
        else:
            print(f"{workload}: digest {digest} matches")
    for p in problems:
        print(p, file=sys.stderr)
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
