"""Command-line entry point: spectra, synth, ddtl-fit, sparsity-sweep, denoise.

Each subcommand reads an optional JSON config file (keys matching the config
dataclass fields) and applies explicit command-line flags on top.  Exit code
is 0 on success; failures print one machine-readable JSON line to stderr and
exit nonzero.
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import sys

from .experiments import (
    DenoiseConfig,
    FitConfig,
    SpectraConfig,
    SweepConfig,
    SynthConfig,
    run_ddtl_fit,
    run_denoise,
    run_sparsity_sweep,
    run_spectra,
    run_synth,
)
from .synth import SIGNAL_CLASSES

__all__ = ["main", "build_parser"]


def _int_grid(text: str) -> tuple[int, ...]:
    return tuple(int(x) for x in text.split(",") if x.strip())


def _float_grid(text: str) -> tuple[float, ...]:
    return tuple(float(x) for x in text.split(",") if x.strip())


def _add_common(sub: argparse.ArgumentParser) -> None:
    sub.add_argument("--config", help="JSON file with config-field overrides")
    sub.add_argument("--out", help="output directory")
    sub.add_argument("--seed", type=int, help="master seed")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="topospinor", description=__doc__)
    commands = parser.add_subparsers(dest="command", required=True)

    p = commands.add_parser("spectra", help="dump singular spectrum and structural residuals")
    _add_common(p)
    p.add_argument("--graph", dest="graph_path", help="edge-list file (otherwise a random graph)")
    p.add_argument("--num-nodes", type=int)
    p.add_argument("--num-edges", type=int)
    p.set_defaults(config_cls=SpectraConfig, runner=run_spectra)

    p = commands.add_parser("synth", help="generate a synthetic dataset")
    _add_common(p)
    p.add_argument("--graph", dest="graph_path", help="edge-list file (otherwise a random graph)")
    p.add_argument("--num-nodes", type=int)
    p.add_argument("--num-edges", type=int)
    p.add_argument("--signal-class", choices=SIGNAL_CLASSES)
    p.add_argument("--eta0", type=int, help="support size of the generated batch")
    p.add_argument("--num-signals", type=int)
    p.set_defaults(config_cls=SynthConfig, runner=run_synth)

    p = commands.add_parser("ddtl-fit", help="fit the coupling transform to a dataset")
    _add_common(p)
    p.add_argument("--dataset", dest="dataset_dir", help="directory written by the synth command")
    p.add_argument("--graph", dest="graph_path", help="edge-list file")
    p.add_argument("--node-csv", help="node time-series CSV")
    p.add_argument("--edge-csv", help="edge time-series CSV")
    p.add_argument("--eta0", type=int, help="bandwidth (row-sparsity) of the codes")
    p.add_argument("--max-iter", type=int)
    p.set_defaults(config_cls=FitConfig, runner=run_ddtl_fit)

    p = commands.add_parser("sparsity-sweep", help="reconstruction error vs sparsity for all dictionaries")
    _add_common(p)
    p.add_argument("--signal-class", choices=SIGNAL_CLASSES)
    p.add_argument("--num-nodes", type=int)
    p.add_argument("--num-edges", type=int)
    p.add_argument("--eta0", type=int)
    p.add_argument("--num-signals", type=int)
    p.add_argument("--realizations", type=int)
    p.add_argument("--sparsity-grid", type=_int_grid, help="comma-separated sparsity levels")
    p.add_argument("--ddtl-max-iter", type=int)
    p.set_defaults(config_cls=SweepConfig, runner=run_sparsity_sweep)

    p = commands.add_parser("denoise", help="denoising sweep over SNR and bandwidth")
    _add_common(p)
    p.add_argument("--graph", dest="graph_path", help="edge-list file")
    p.add_argument("--node-csv", help="node time-series CSV")
    p.add_argument("--edge-csv", help="edge time-series CSV")
    p.add_argument("--num-nodes", type=int)
    p.add_argument("--num-edges", type=int)
    p.add_argument("--num-signals", type=int)
    p.add_argument("--signal-class", choices=SIGNAL_CLASSES)
    p.add_argument("--gen-eta0", type=int, help="support size of the synthetic surrogate")
    p.add_argument("--snr-grid", type=_float_grid, help="comma-separated SNR levels in dB")
    p.add_argument("--bandwidth-grid", type=_int_grid, help="comma-separated bandwidths")
    p.add_argument("--realizations", type=int)
    p.add_argument("--ddtl-max-iter", type=int)
    p.set_defaults(config_cls=DenoiseConfig, runner=run_denoise)

    return parser


def _build_config(args: argparse.Namespace):
    cls = args.config_cls
    field_names = {f.name for f in dataclasses.fields(cls)}
    values: dict = {}
    if args.config:
        with open(args.config) as fh:
            file_values = json.load(fh)
        unknown = set(file_values) - field_names
        if unknown:
            raise ValueError(f"unknown config keys for {cls.__name__}: {sorted(unknown)}")
        values.update(file_values)
    for name in field_names:
        flag_value = getattr(args, name, None)
        if flag_value is not None:
            values[name] = flag_value
    # Grids arrive as lists from JSON; normalize to tuples for the frozen configs.
    for key in ("sparsity_grid", "snr_grid", "bandwidth_grid"):
        if key in values and values[key] is not None:
            values[key] = tuple(values[key])
    if "out" not in values or values["out"] is None:
        raise ValueError("an output directory is required (--out or config key 'out')")
    return cls(**values)


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        cfg = _build_config(args)
        out = args.runner(cfg)
    except Exception as exc:  # single failure channel: machine-readable stderr line
        print(json.dumps({"error": type(exc).__name__, "message": str(exc)}), file=sys.stderr)
        return 1
    print(out)
    return 0


if __name__ == "__main__":
    sys.exit(main())
