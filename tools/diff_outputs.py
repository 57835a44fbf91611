"""Run one fixed list of commands in a parent revision and in HEAD, and name every output file that differs.

    python tools/diff_outputs.py [--parent REV]    # default HEAD~1

Both revisions are exported with ``bench_pairs.export`` (``git archive``)
into a temporary directory, so that neither reads a ``__pycache__`` or an
uncommitted edit.  In each tree the commands run in order as
``python -m topospinor.cli ...`` with ``PYTHONPATH=src``, one BLAS thread and
``PYTHONDONTWRITEBYTECODE=1``, each writing under the same relative path in
``runs/``, so that the paths recorded in run.json agree.  For each seed
0, 1 and 2:

- ``sparsity-sweep --signal-class C`` for each of the four signal classes,
  into ``runs/sweep-C-sS``;
- ``denoise`` into ``runs/denoise-sS`` and ``spectra`` into
  ``runs/spectra-sS``, at their defaults;
- ``synth --num-nodes 40 --num-edges 80 --signal-class mixture_of_dirac``
  into ``runs/synth-sS``, then ``ddtl-fit --max-iter 25`` on it into
  ``runs/fit-sS`` and ``denoise --dataset`` on it into
  ``runs/denoise-data-sS``;
- ``synth --num-nodes 40 --num-edges 80 --signal-class fully_decoupled``
  into ``runs/synth-dec-sS``, then ``ddtl-fit --max-iter 25`` on it into
  ``runs/fit-dec-sS``: the class whose tied rows at the ADMM's hard
  threshold a round-off change can flip.

Every file under ``runs/`` is compared byte for byte.  Each one that differs
or exists on one side only is printed with its path, and the exit status is
1 if there is any, else 0.  ``--parent HEAD`` runs HEAD against a second
export of itself, which checks that every output is deterministic.
"""

from __future__ import annotations

import argparse
import os
import subprocess
import sys
import tempfile
from pathlib import Path

from bench_pairs import RUN_ENV, _git, export

SIGNAL_CLASSES = ("fully_coupled", "fully_decoupled", "partially_coupled", "mixture_of_dirac")


def commands() -> list[list[str]]:
    """The command lines of the module docstring, in the order run."""
    argvs = []
    for seed in range(3):
        s = ["--seed", str(seed)]
        for signal_class in SIGNAL_CLASSES:
            out = f"runs/sweep-{signal_class}-s{seed}"
            argvs.append(["sparsity-sweep", "--signal-class", signal_class, *s, "--out", out])
        argvs.append(["denoise", *s, "--out", f"runs/denoise-s{seed}"])
        argvs.append(["spectra", *s, "--out", f"runs/spectra-s{seed}"])
        data = f"runs/synth-s{seed}"
        argvs.append(["synth", "--num-nodes", "40", "--num-edges", "80", "--signal-class", "mixture_of_dirac", *s,
                      "--out", data])
        argvs.append(["ddtl-fit", "--dataset", data, "--max-iter", "25", *s, "--out", f"runs/fit-s{seed}"])
        argvs.append(["denoise", "--dataset", data, *s, "--out", f"runs/denoise-data-s{seed}"])
        data = f"runs/synth-dec-s{seed}"
        argvs.append(["synth", "--num-nodes", "40", "--num-edges", "80", "--signal-class", "fully_decoupled", *s,
                      "--out", data])
        argvs.append(["ddtl-fit", "--dataset", data, "--max-iter", "25", *s, "--out", f"runs/fit-dec-s{seed}"])
    return argvs


def run_all(tree: Path) -> None:
    """Every command of ``commands()`` in ``tree``, which must exit 0."""
    env = dict(os.environ, **RUN_ENV, PYTHONPATH="src")
    for argv in commands():
        subprocess.run([sys.executable, "-m", "topospinor.cli", *argv], cwd=tree, env=env, check=True,
                       stdout=subprocess.DEVNULL)


def compare(parent: Path, change: Path) -> list[str]:
    """One line per file, by its path under the two directories, that differs between them or exists in one alone."""
    roots = {"parent": parent, "change": change}
    files = {side: {p.relative_to(root) for p in root.rglob("*") if p.is_file()} for side, root in roots.items()}
    lines = []
    for rel in sorted(files["parent"] | files["change"]):
        if rel not in files["change"]:
            lines.append(f"only in parent: {rel}")
        elif rel not in files["parent"]:
            lines.append(f"only in change: {rel}")
        elif (parent / rel).read_bytes() != (change / rel).read_bytes():
            lines.append(f"differs: {rel}")
    return lines


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--parent", default="HEAD~1", help="revision to compare with HEAD (default HEAD~1)")
    args = parser.parse_args(argv)
    revs = {"parent": _git("rev-parse", args.parent), "change": _git("rev-parse", "HEAD")}
    with tempfile.TemporaryDirectory(prefix="diff_outputs_") as tmp:
        trees = {side: export(rev, Path(tmp) / side) for side, rev in revs.items()}
        for tree in trees.values():
            run_all(tree)
        lines = compare(trees["parent"] / "runs", trees["change"] / "runs")
    print(f"parent {revs['parent']}, change {revs['change']}: {len(commands())} commands each")
    print("\n".join(lines) if lines else "every output file is identical")
    return 1 if lines else 0


if __name__ == "__main__":
    sys.exit(main())
