"""Command-line entry point: spectra, synth, ddtl-fit, sparsity-sweep, denoise.

Each subcommand's flags are its config dataclass's fields: --<field name with
dashes>, parsed by the field's annotation (a tuple grid as a comma-separated
list), with the help text, the choices and the two renamed flags (--dataset,
--graph) taken from the field's metadata.  A config is built from the flags
given and the field defaults alone; run.json's ``config`` records every
field, so its values, written as flags, repeat a run.  Exit code is 0 on
success.  A usage error (an unknown flag, a value that does not parse) exits
2 with argparse's usage text on stderr; every other failure prints one
machine-readable JSON line to stderr and exits 1.
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

__all__ = ["main", "build_parser"]

# Subcommand -> (config dataclass, runner, help line).
COMMANDS = {
    "spectra": (SpectraConfig, run_spectra, "dump singular spectrum and structural residuals"),
    "synth": (SynthConfig, run_synth, "generate a synthetic dataset"),
    "ddtl-fit": (FitConfig, run_ddtl_fit, "fit the coupling transform to a dataset"),
    "sparsity-sweep": (SweepConfig, run_sparsity_sweep, "reconstruction error vs sparsity for all dictionaries"),
    "denoise": (DenoiseConfig, run_denoise, "denoising sweep over SNR and bandwidth"),
}


def _grid(kind):
    """A comma-separated flag value as a tuple of ``kind`` (the frozen configs hold tuples)."""

    def parse(text: str) -> tuple:
        return tuple(kind(x) for x in text.split(",") if x.strip())

    parse.__name__ = f"{kind.__name__} grid"  # argparse names the parser in "invalid ... value"
    return parse


# The flag's value parser by a field's annotation (a string: experiments uses postponed annotations).
FIELD_TYPES = {
    "int": int, "str": str, "str | None": str, "tuple[int, ...]": _grid(int), "tuple[float, ...]": _grid(float),
}


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="topospinor", description=__doc__)
    commands = parser.add_subparsers(dest="command", required=True)
    for command, (cls, runner, help_line) in COMMANDS.items():
        p = commands.add_parser(command, help=help_line)
        for f in dataclasses.fields(cls):
            flag = f.metadata.get("flag", "--" + f.name.replace("_", "-"))
            p.add_argument(
                flag, dest=f.name, type=FIELD_TYPES[f.type], choices=f.metadata.get("choices"),
                help=f.metadata.get("help"),
            )
        p.set_defaults(config_cls=cls, runner=runner)
    return parser


def _build_config(args: argparse.Namespace):
    if not args.out:  # missing, or empty: "" would write into the working directory
        raise ValueError("an output directory is required (--out)")
    given = {f.name: getattr(args, f.name) for f in dataclasses.fields(args.config_cls)}
    return args.config_cls(**{name: value for name, value in given.items() if value is not None})


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
