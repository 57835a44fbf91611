import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "tools"))
import diff_outputs  # noqa: E402


def make_tree(root: Path) -> Path:
    for rel, data in {"fit-s0/run.json": b'{"k": 1}\n', "fit-s0/omega_star.csv": b"0,1.5\n0,0\n",
                      "spectra-s0/spectrum.csv": b"index,sigma\n0,2\n"}.items():
        (root / rel).parent.mkdir(parents=True, exist_ok=True)
        (root / rel).write_bytes(data)
    return root


def test_identical_trees_report_nothing(tmp_path):
    assert diff_outputs.compare(make_tree(tmp_path / "parent"), make_tree(tmp_path / "change")) == []


def test_one_changed_byte_is_named(tmp_path):
    parent, change = make_tree(tmp_path / "parent"), make_tree(tmp_path / "change")
    (change / "fit-s0/omega_star.csv").write_bytes(b"0,1.6\n0,0\n")
    assert diff_outputs.compare(parent, change) == [f"differs: {Path('fit-s0/omega_star.csv')}"]


def test_a_missing_file_is_named_with_the_side_that_has_it(tmp_path):
    parent, change = make_tree(tmp_path / "parent"), make_tree(tmp_path / "change")
    (change / "spectra-s0/spectrum.csv").unlink()
    (change / "fit-s0/history.csv").write_bytes(b"iteration\n")
    assert diff_outputs.compare(parent, change) == [f"only in change: {Path('fit-s0/history.csv')}",
                                                    f"only in parent: {Path('spectra-s0/spectrum.csv')}"]


def test_every_command_writes_under_its_own_runs_directory():
    outs = [argv[argv.index("--out") + 1] for argv in diff_outputs.commands()]
    assert len(outs) == len(set(outs)) == 3 * 9 and all(out.startswith("runs/") for out in outs)
