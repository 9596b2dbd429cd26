"""Regenerate ``reference.json``: the seed-dependent report values of every
workload at seeds 0-63, as the program at the current commit computes them.

    python3 perfbench/make_reference.py

``run.py`` compares each run's report with these values when its seed is
covered, at 1e-9 on log-Z-derived values and 1e-10 on correlation
differences.  Regenerate only from a commit whose results are trusted; a
change that moves a reference value has to say why.
"""

import json
import sys

from run import REFERENCE, run_child
from workloads import WORKLOADS, reference_entry

SEEDS = range(64)


def main() -> int:
    reference: dict = {}
    for name in WORKLOADS:
        reference[name] = {}
        for seed in SEEDS:
            out = run_child(name, seed, "run")
            if "error" in out:
                print(f"{name} seed {seed}: {out['error']}", file=sys.stderr)
                return 1
            reference[name][str(seed)] = reference_entry(name, out["report"]["summary"])
            print(f"{name} seed {seed}: run_s {out['run_s']:.3f}", flush=True)
    REFERENCE.write_text(json.dumps(reference, sort_keys=True) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
