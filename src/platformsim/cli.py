"""Command-line front end: run a preset catalog entry or a config file.

Every flag can also be supplied through an environment variable with the
``SIMULATE_`` prefix (SIMULATE_PRESET, SIMULATE_CONFIG, SIMULATE_OUT,
SIMULATE_SEED, SIMULATE_REPS, SIMULATE_WORKERS, SIMULATE_MODE); explicit
flags win over the environment.
"""

from __future__ import annotations

import argparse
import os
import sys

from .engine import DEFAULT_MODE, DEFAULT_REPS, DEFAULT_SEED, SimulationMode
from .presets import available_presets, run_config, run_preset

_ENV_PREFIX = "SIMULATE_"


def _env(name: str):
    return os.environ.get(_ENV_PREFIX + name)


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="simulate",
        description=(
            "Simulate operating characteristics (error rates and power) of "
            "platform trials with a shared or individual control arms."
        ),
    )
    source = parser.add_argument_group("scenario source (exactly one)")
    source.add_argument(
        "--preset",
        metavar="NAME",
        help=f"preset scenario catalog entry; one of: {', '.join(available_presets())}",
    )
    source.add_argument("--config", metavar="FILE", help="JSON scenario configuration file")
    parser.add_argument("--out", metavar="DIR", help="output directory (default: results)")
    parser.add_argument("--seed", type=int, help=f"base random seed (default: {DEFAULT_SEED})")
    parser.add_argument("--reps", type=int, help=f"replications per scenario (default: {DEFAULT_REPS})")
    parser.add_argument("--workers", type=int, help="worker threads (default: 1)")
    parser.add_argument(
        "--mode",
        choices=[mode.value for mode in SimulationMode],
        help=f"simulate patient-level outcomes or arm-period means (default: {DEFAULT_MODE.value})",
    )
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    preset, config = args.preset, args.config
    if preset is None and config is None:  # a source flag hides both source variables
        preset, config = _env("PRESET"), _env("CONFIG")
    if bool(preset) == bool(config):
        print("error: exactly one of --preset or --config is required", file=sys.stderr)
        return 2
    out_dir = args.out if args.out is not None else (_env("OUT") or "results")
    overrides = {}
    for key, flag in (("seed", args.seed), ("reps", args.reps), ("workers", args.workers)):
        value = flag if flag is not None else _env(key.upper())
        if value is None:
            continue
        try:
            overrides[key] = int(value)
        except ValueError:  # only an environment string can fail; argparse checked the flag
            name = _ENV_PREFIX + key.upper()
            print(f"error: {name} must be an integer, got {value!r}", file=sys.stderr)
            return 2  # the code argparse gives the same value as a flag
    mode = args.mode if args.mode is not None else _env("MODE")
    if mode is not None:
        overrides["mode"] = mode
    try:
        if preset:
            result = run_preset(preset, overrides=overrides, out_dir=out_dir)
        else:
            result = run_config(config, overrides=overrides, out_dir=out_dir)
    except Exception as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    print(f"wrote {result.results_csv}")
    print(f"wrote {result.results_json}")
    for path in result.plotdata_paths:
        print(f"wrote {path}")
    return 0


def entry_point() -> None:
    sys.exit(main())


if __name__ == "__main__":
    entry_point()
