"""Record the SHA-256 of every workload's deterministic outputs at a range of seeds.

Usage (from the repository root, at the commit whose outputs are the
reference):

    python3 bench/make_golden.py [FIRST_SEED LAST_SEED]    # default 0 31

Writes bench/golden.json. bench/run.py compares each run's output hashes
with the entry for its workload and seed and reports `bit_identical`
(null for a seed that has no entry). The comparison is reported, never
gated: a change may alter the bits of the frames on purpose.
"""

from __future__ import annotations

import json
import sys

import run


def main(argv):
    first, last = (int(argv[0]), int(argv[1])) if argv else (0, 31)
    golden = {}
    for name in sorted(run.WORKLOADS):
        golden[name] = {}
        for seed in range(first, last + 1):
            golden[name][str(seed)] = run.reference_hashes(name, seed)
            print(f"{name} seed {seed}: ok", flush=True)
    with open(run.GOLDEN, "w") as fh:
        json.dump(golden, fh, indent=1, sort_keys=True)
        fh.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
