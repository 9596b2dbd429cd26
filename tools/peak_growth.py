"""Print how far one benchmark workload's run lifts the resident memory of a
fresh process above what importing the package leaves.

    python tools/peak_growth.py [--workload martingale-6x6] [--runs 5] [--seed 1]

Each of ``--runs`` children is a fresh interpreter on this checkout's
``src/``, with one eafluct worker and one BLAS/OpenMP thread (the
benchmark's child environment), in a temporary directory of its own.  It
reads ``VmRSS`` from ``/proc/self/status`` after ``import eafluct.harness``
(and ``VmHWM``, the peak so far), runs the workload's config
(``perfbench/workloads.make_config``) through ``harness.run`` once, and
reads ``VmHWM`` at the end.  The script prints each child's readings, then
their medians and that of the growth, the end peak minus the post-import
resident size.  The end peak is what the benchmark reports as
``peak_rss_mb``; the growth leaves out the memory the import itself touched,
such as that of compiling the package from source.  When the import gave
some of that memory back (resident size below the import peak), the run
takes it again and the growth reads up to a few tenths of a MB more.
"""

from __future__ import annotations

# a child imports little before the package, as the benchmark's child does,
# so that its end peak reads like the benchmark's
import json
import sys
from pathlib import Path

PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"


def status_mb(key: str) -> float:
    with open("/proc/self/status", encoding="ascii") as fh:
        for line in fh:
            if line.startswith(key + ":"):
                return int(line.split()[1]) / 1024.0
    raise RuntimeError(f"no {key} line in /proc/self/status")


def child(config_path: str) -> None:
    import eafluct.harness as harness

    after_import = {"import_rss_mb": status_mb("VmRSS"), "import_peak_mb": status_mb("VmHWM")}
    harness.run(harness.load_config(config_path))
    print(json.dumps({**after_import, "end_peak_mb": status_mb("VmHWM")}))


def measure(workload: str, seed: int) -> dict:
    """One child's readings, in the environment the benchmark gives its
    children (``perfbench/run.child_env``)."""
    import subprocess
    import tempfile

    sys.path.insert(0, str(PERFBENCH))
    from run import child_env
    from workloads import make_config

    with tempfile.TemporaryDirectory() as rundir:
        (Path(rundir) / "config.json").write_text(json.dumps(make_config(workload, seed)))
        proc = subprocess.run(
            [sys.executable, str(Path(__file__).resolve()), "--child", "config.json"],
            cwd=rundir, env=child_env(), capture_output=True, text=True, check=True,
        )
    return json.loads(proc.stdout.splitlines()[-1])


def main() -> None:
    import argparse
    import statistics

    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", default="martingale-6x6")
    parser.add_argument("--runs", type=int, default=5)
    parser.add_argument("--seed", type=int, default=1)
    args = parser.parse_args()
    runs = []
    for _ in range(args.runs):
        r = measure(args.workload, args.seed)
        r["growth_mb"] = r["end_peak_mb"] - r["import_rss_mb"]
        runs.append(r)
        print(" ".join(f"{k} {v:.3f}" for k, v in r.items()))
    medians = {k: statistics.median(r[k] for r in runs) for k in runs[0]}
    print(f"{args.workload} medians over {len(runs)} runs: "
          + " ".join(f"{k} {v:.3f}" for k, v in medians.items()))


if __name__ == "__main__":
    if sys.argv[1:2] == ["--child"]:
        child(sys.argv[2])
    else:
        main()
