"""The README's commands and library example still work with the code."""

import math
import re
import shlex
from pathlib import Path

import pytest

from topospinor.cli import build_parser, main
from topospinor.synth import SIGNAL_CLASSES

README = (Path(__file__).resolve().parent.parent / "README.md").read_text()


def _blocks(language: str) -> list[str]:
    return re.findall(rf"^```{language}\n(.*?)^```", README, flags=re.MULTILINE | re.DOTALL)


def _commands() -> list[str]:
    """Every ``topospinor`` command of the bash blocks, continuation lines joined, class loops expanded."""
    commands = []
    for block in _blocks("bash"):
        loop_classes = None
        for line in block.replace("\\\n", " ").splitlines():
            line = line.strip()
            loop = re.fullmatch(r"for class in (.+); do", line)
            if loop:
                loop_classes = loop.group(1).split()
                assert tuple(loop_classes) == SIGNAL_CLASSES, "the README loop should run every signal class"
            elif line == "done":
                loop_classes = None
            elif line.startswith("topospinor "):
                for cls in loop_classes or [None]:
                    commands.append(line if cls is None else line.replace("$class", cls))
    return commands


COMMANDS = _commands()


def _python_example(marker: str) -> str:
    (example,) = [block for block in _blocks("python") if marker in block]
    return example


def test_readme_has_commands_a_library_example_and_a_repeat_example():
    assert {shlex.split(c)[1] for c in COMMANDS} == {"spectra", "synth", "ddtl-fit", "sparsity-sweep", "denoise"}
    assert len(_blocks("python")) == 2
    assert _python_example("reconstruction NMSE") != _python_example("run.json")


@pytest.mark.parametrize("command", COMMANDS)
def test_command_parses(command):
    argv = shlex.split(command)[1:]
    args = build_parser().parse_args(argv)
    assert args.command == argv[0]


def test_library_example_prints_a_finite_nmse(capsys):
    exec(compile(_python_example("reconstruction NMSE"), "README.md", "exec"), {})
    match = re.search(r"^reconstruction NMSE: (\S+)$", capsys.readouterr().out, flags=re.MULTILINE)
    assert match and math.isfinite(float(match.group(1)))


def test_repeat_example_writes_the_same_run_from_run_json(tmp_path, monkeypatch):
    # The README's sweep into runs/sweep, then its example that repeats it from run.json's config alone.
    (sweep,) = [c for c in COMMANDS if c.endswith("--out runs/sweep")]
    monkeypatch.chdir(tmp_path)
    assert main(shlex.split(sweep)[1:]) == 0
    exec(compile(_python_example("run.json"), "README.md", "exec"), {})
    first, again = tmp_path / "runs" / "sweep", tmp_path / "runs" / "sweep-again"
    names = sorted(f.name for f in first.iterdir())
    assert "run.json" in names and names == sorted(f.name for f in again.iterdir())
    assert all((first / name).read_bytes() == (again / name).read_bytes() for name in names)
