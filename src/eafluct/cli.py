"""Command-line entry point: one subcommand per experiment kind.

Every run is driven by a JSON config; flags override individual fields.
A seed must come from the config or ``--seed`` (wall-clock seeding does
not exist here).  Worker count comes from the ``EAFLUCT_WORKERS``
environment variable.
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import sys

from .errors import EafluctError, IncompleteRunError
from .harness import (
    KINDS,
    load_config,
    report_from_file,
    run,
    validate_config,
    write_csv_reports,
)


def _add_run_parser(sub, kind: str) -> None:
    p = sub.add_parser(kind, help=f"run a {kind} experiment")
    p.add_argument("-c", "--config", required=True, help="JSON experiment config")
    p.add_argument("--seed", type=int, default=None, help="master seed (overrides config)")
    p.add_argument("--n", type=int, default=None, help="realization count override")
    p.add_argument("--beta", type=float, default=None, help="inverse temperature override")
    p.add_argument("--records", default=None, help="records JSONL path override")
    p.add_argument("--report", default=None, help="report JSON path override")
    p.set_defaults(kind=kind)


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="eafluct",
        description="interface free-energy experiments on finite spin-glass boxes",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for kind in KINDS:
        _add_run_parser(sub, kind)
    rp = sub.add_parser("report", help="emit CSV summaries from a finished run")
    rp.add_argument("--report", required=True, help="report JSON produced by a run")
    rp.add_argument("--out-dir", default=None,
                    help="directory for the CSV files (default: the report's output.csv_dir)")
    return parser


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    try:
        if args.command == "report":
            report = report_from_file(args.report)
            out_dir = args.out_dir
            if out_dir is None:
                try:
                    out_dir = report["config"]["output"]["csv_dir"]
                except (KeyError, TypeError):
                    msg = "report names no output.csv_dir; pass --out-dir"
                    raise IncompleteRunError(msg) from None
            for path in write_csv_reports(report, out_dir):
                print(path)
            return 0
        cfg = load_config(args.config)
        overrides = {}
        if cfg.kind != args.kind:
            overrides["kind"] = args.kind
        for name in ("seed", "n", "beta", "records", "report"):
            value = getattr(args, name)
            if value is not None:
                overrides[name] = value
        if args.beta is not None:  # the kinds that read physics.betas run at --beta too
            overrides["betas"] = ()
        if overrides:
            cfg = dataclasses.replace(cfg, **overrides)
            validate_config(cfg)
        run(cfg)
        print(
            json.dumps(
                {"kind": cfg.kind, "report": cfg.report, "records": cfg.records},
                sort_keys=True,
            )
        )
        return 0
    except EafluctError as err:
        print(f"error: {err}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    raise SystemExit(main())
