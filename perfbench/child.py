"""One measured eafluct process: what a user's ``eafluct <kind> -c config.json``
invocation does, timed from inside a fresh interpreter.

    python3 child.py CONFIG RESULT {setup,run,trace}

``setup`` stops after importing eafluct and loading the config; ``run`` then
calls ``harness.run`` once; ``trace`` does the same with the layer tracer
installed and also writes the spans next to RESULT.  RESULT receives a JSON
object with the times and the peak resident memory of this process.
"""

import json
import sys
import time


def peak_rss_mb() -> float:
    """Peak resident memory of this process (VmHWM).  getrusage's ru_maxrss
    is not used: Linux carries the parent's peak into it across fork and exec."""
    with open("/proc/self/status", encoding="ascii") as fh:
        for line in fh:
            if line.startswith("VmHWM:"):
                return int(line.split()[1]) / 1024.0
    raise RuntimeError("no VmHWM line in /proc/self/status")


def main(config_path: str, result_path: str, mode: str) -> None:
    t0 = time.perf_counter()
    from eafluct import harness

    cfg = harness.load_config(config_path)
    result = {"setup_s": time.perf_counter() - t0, "module": harness.__file__}
    if mode != "setup":
        if mode == "trace":
            import tracer as tracing

            tracer = tracing.Tracer()
            tracing.install(tracer)
        t1 = time.perf_counter()
        harness.run(cfg)
        result["run_s"] = time.perf_counter() - t1
        if mode == "trace":
            tracer.dump(result_path + ".spans")
    result["peak_rss_mb"] = peak_rss_mb()
    with open(result_path, "w", encoding="utf-8") as fh:
        json.dump(result, fh)


if __name__ == "__main__":
    main(*sys.argv[1:4])
