"""Command-line driver.

    quantplan <stage> --config experiment.json [--output DIR]

Stages: gen-data, train, variants, eval, stats, report, all.
"""

from __future__ import annotations

import argparse
import dataclasses
import sys

from .config import ExperimentConfig, load_config
from .errors import StageError, TrainingDivergenceError, ValidationError
from .pipeline import STAGES, run_stage


def build_parser() -> argparse.ArgumentParser:
    p = argparse.ArgumentParser(prog="quantplan", description=__doc__)
    p.add_argument("stage", nargs="?", choices=("all", *STAGES), help="pipeline stage to run")
    p.add_argument("--config", help="experiment config JSON (defaults apply if omitted)")
    p.add_argument("--output", help="override config output_dir")
    return p


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    if args.stage is None:
        print("error: no stage given", file=sys.stderr)
        return 2
    try:
        cfg = load_config(args.config) if args.config else ExperimentConfig()
        if args.output is not None:  # replace runs ExperimentConfig's checks on the new output_dir
            cfg = dataclasses.replace(cfg, output_dir=args.output)
        run_stage(cfg, args.stage)
    except (ValidationError, StageError, TrainingDivergenceError, OSError, MemoryError) as e:
        print(f"error: {e}", file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
