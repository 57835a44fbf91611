"""Command-line entry point: spectra, synth, ddtl-fit, sparsity-sweep, denoise.

Each subcommand's flags are its config dataclass's fields: --<field name with
dashes>, parsed by the field's annotation (a tuple grid as a comma-separated
list), with the help text, the choices and the two renamed flags (--dataset,
--graph) taken from the field's metadata.  An optional JSON config file
(--config, keys matching the fields) is read first and explicit flags apply
on top; each file value must have its field's JSON type (``FIELD_TYPES``),
a list of numbers spelling a non-finite one as run.json does (``"inf"``).
Exit code is 0 on success.  A usage error (an unknown flag, a value that
does not parse) exits 2 with argparse's usage text on stderr; every other
failure prints one machine-readable JSON line to stderr and exits 1.
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
from .io import read_non_finite

__all__ = ["main", "build_parser"]

# Subcommand -> (config dataclass, runner, help line).
COMMANDS = {
    "spectra": (SpectraConfig, run_spectra, "dump singular spectrum and structural residuals"),
    "synth": (SynthConfig, run_synth, "generate a synthetic dataset"),
    "ddtl-fit": (FitConfig, run_ddtl_fit, "fit the coupling transform to a dataset"),
    "sparsity-sweep": (SweepConfig, run_sparsity_sweep, "reconstruction error vs sparsity for all dictionaries"),
    "denoise": (DenoiseConfig, run_denoise, "denoising sweep over SNR and bandwidth"),
}


def _is_int(value) -> bool:
    return isinstance(value, int) and not isinstance(value, bool)  # JSON's true and false load as bool, an int


def _grid(kind, what: str, check) -> tuple:
    """The FIELD_TYPES entry of a tuple of ``kind``: a comma-separated flag or a JSON list of ``what``."""

    def parse(text: str) -> tuple:
        return tuple(kind(x) for x in text.split(",") if x.strip())

    def check_list(value) -> bool:
        return isinstance(value, list) and all(map(check, value))

    parse.__name__ = f"{kind.__name__} grid"  # argparse names the parser in "invalid ... value"
    return parse, f"a list of {what}", check_list, lambda v: tuple(map(kind, v))


# By a field's annotation (a string: experiments uses postponed annotations): the flag's value parser, what a
# config file value must be, the check of its JSON type, and the value to store (the frozen configs hold tuples).
FIELD_TYPES = {
    "int": (int, "an integer", _is_int, lambda v: v),
    "str": (str, "a string", lambda v: isinstance(v, str), lambda v: v),
    "str | None": (str, "a string or null", lambda v: v is None or isinstance(v, str), lambda v: v),
    "tuple[int, ...]": _grid(int, "integers", _is_int),
    "tuple[float, ...]": _grid(float, "numbers", lambda x: _is_int(x) or isinstance(x, float)),
}


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="topospinor", description=__doc__)
    commands = parser.add_subparsers(dest="command", required=True)
    for command, (cls, runner, help_line) in COMMANDS.items():
        p = commands.add_parser(command, help=help_line)
        p.add_argument("--config", help="JSON file with config-field overrides")
        for f in dataclasses.fields(cls):
            flag = f.metadata.get("flag", "--" + f.name.replace("_", "-"))
            p.add_argument(
                flag, dest=f.name, type=FIELD_TYPES[f.type][0], choices=f.metadata.get("choices"),
                help=f.metadata.get("help"),
            )
        p.set_defaults(config_cls=cls, runner=runner)
    return parser


def _build_config(args: argparse.Namespace):
    cls = args.config_cls
    fields = dataclasses.fields(cls)
    values: dict = {}
    if args.config:
        with open(args.config, encoding="utf-8-sig") as fh:  # as io reads every input file
            file_values = json.load(fh)
        if not isinstance(file_values, dict):
            raise ValueError(f"config file {args.config} must hold a JSON object, got {json.dumps(file_values)}")
        unknown = set(file_values) - {f.name for f in fields}
        if unknown:
            raise ValueError(f"unknown config keys for {cls.__name__}: {sorted(unknown)}")
        for f in (f for f in fields if f.name in file_values):
            value = read_non_finite(file_values[f.name])  # as run.json spells non-finite floats: a stored config loads
            _, kind, check, store = FIELD_TYPES[f.type]
            if not check(value):
                raise ValueError(f"config key {f.name!r} must be {kind}, got {json.dumps(file_values[f.name])}")
            values[f.name] = store(value)
    for f in fields:
        if getattr(args, f.name) is not None:
            values[f.name] = getattr(args, f.name)
    if not values.get("out"):  # missing, or empty: "" would write into the working directory
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
