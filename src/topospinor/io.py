r"""File formats: edge lists, dataset directories, matrix CSVs, and result tables.

Input files are read as UTF-8, and a leading byte-order mark (the one
Excel's "CSV UTF-8" writes) is ignored.

Edge list format
    line 1:            V (node count)
    lines 2..E+1:      "tail head", whitespace separated, 0-indexed;
                       the line order defines the edge indexing.

Dataset directory (``save_dataset`` / ``load_dataset``)
    ``graph.txt`` (an edge list), ``node_series.csv`` and ``edge_series.csv``:
    one row per time step, the same count in both, and V or E numeric columns
    in index order.  An optional header row, detected by a non-numeric first
    cell, is checked for its width and skipped; no file is written with one.
    A graph with no edges has an edge file of blank rows, as the writer gives
    a T x 0 matrix: its edge block is read as 0 x T, T taken from the nodes.

Matrix CSV dialect (``write_matrix_csv`` / ``read_matrix_csv``)
    Written: comma-separated, ``\r\n`` row ends, every value with 17
    significant digits (``nan``, ``inf`` and ``-inf`` for the non-finite
    ones), and no header row.
    Read: any of ``\n``, ``\r\n`` or ``\r`` row ends; rows whose cells are
    all blank are skipped; cells may be padded with whitespace and
    csv-quoted, but a quoted cell may not span rows.  An empty file, a header
    with no data rows, a header or row with the wrong column count and a
    non-numeric cell are rejected with a ValueError that names the row,
    counted among the non-blank rows.  Numbers are read as numpy reads them,
    so a spelling only Python's ``float`` accepts (``1_000``) is rejected.
    A file is read in one process with one ``np.loadtxt`` parse.  Only the
    writer works on two cores: a matrix of two or more rows has its first half
    formatted in the calling process and its second half in one child made
    with ``os.fork`` (POSIX), which hands its part back through an unnamed
    temporary file; a process running another Python thread formats every
    row itself.  A BLAS's own OS threads do not count (see ``_fork``), so at
    numpy's default thread count a process still forks; CI and perfbench pin
    one BLAS thread.  The bytes written are the ones a single process
    writes, and there is nothing to configure.

Results
    ``save_results`` writes a run directory containing ``run.json`` (metadata:
    config, seeds, graph summary) and one CSV per table with one row per
    (method, sweep point, realization).  Floats are printed with 17
    significant digits so a load/save round trip is lossless.  ``run.json``
    is strict JSON: a non-finite float in it (an ``inf`` SNR level) is the
    string ``"inf"``, ``"-inf"`` or ``"nan"``, the CSVs' spelling.
    ``read_non_finite`` turns them back into floats inside a list of numbers,
    for ``load_results``.

Joint signals everywhere use the fixed stacking order: node block first, edge
block second.
"""

from __future__ import annotations

import csv
import json
import os
import re
import shutil
import tempfile
import threading
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from .topology import GraphError, OrientedGraph

__all__ = [
    "EdgeListParseError",
    "ResultTable",
    "load_edge_list",
    "save_edge_list",
    "load_time_series",
    "save_dataset",
    "load_dataset",
    "save_results",
    "load_results",
    "read_non_finite",
    "format_float",
    "write_matrix_csv",
    "read_matrix_csv",
]


class EdgeListParseError(ValueError):
    """Malformed edge-list file; carries the 1-based offending line number."""

    def __init__(self, path, line_number: int, message: str):
        self.path = str(path)
        self.line_number = line_number
        super().__init__(f"{path}:{line_number}: {message}")


def load_edge_list(path) -> OrientedGraph:
    """Parse an edge-list file into an OrientedGraph.

    Raises EdgeListParseError with the offending line number on malformed
    input; graph-structure violations (self-loops, duplicates, bad indices)
    are found by one validation of the whole edge list and reported against
    the line that introduced them.
    """
    path = Path(path)
    lines = path.read_text(encoding="utf-8-sig").splitlines()
    meaningful = [(i + 1, line.strip()) for i, line in enumerate(lines) if line.strip()]
    if not meaningful:
        raise EdgeListParseError(path, 1, "empty file")
    first_no, first = meaningful[0]
    try:
        num_nodes = int(first)
    except ValueError:
        raise EdgeListParseError(path, first_no, f"expected node count, got {first!r}") from None
    if num_nodes < 1:
        raise EdgeListParseError(path, first_no, f"node count must be positive, got {num_nodes}")
    edges: list[tuple[int, int]] = []
    edge_lines = [line_no for line_no, _ in meaningful[1:]]
    for line_no, line in meaningful[1:]:
        parts = line.split()
        if len(parts) != 2:
            raise EdgeListParseError(path, line_no, f"expected 'tail head', got {line!r}")
        try:
            tail, head = int(parts[0]), int(parts[1])
        except ValueError:
            raise EdgeListParseError(path, line_no, f"non-integer node index in {line!r}") from None
        edges.append((tail, head))
    try:
        return OrientedGraph(num_nodes, tuple(edges))
    except GraphError as exc:
        raise EdgeListParseError(path, edge_lines[exc.edge], str(exc)) from None


def save_edge_list(path, graph: OrientedGraph) -> None:
    lines = [str(graph.num_nodes)]
    lines.extend(f"{tail} {head}" for tail, head in graph.edges)
    Path(path).write_text("\n".join(lines) + "\n")


# printf-style: ``format_float`` applies it to one value, ``write_matrix_csv`` to a whole row.
FLOAT_FORMAT = "%.17g"


def format_float(x: float) -> str:
    """17 significant digits: enough to round-trip any double exactly."""
    return FLOAT_FORMAT % float(x)


def read_matrix_csv(path, expected_cols: int, what: str = "matrix") -> np.ndarray:
    """The rows of a numeric CSV; ValueError on an empty, ragged or non-numeric file.

    Blank rows are skipped and a header is checked for its width and skipped; the
    other rows are parsed in one ``np.loadtxt`` call.  Only when that call fails,
    or gives the wrong width, are the rows checked one by one to name the bad one.
    """
    path = Path(path)
    rows = _non_blank_rows(path)
    if not rows:
        raise ValueError(f"{path}: empty {what} file")
    first_data_row = 1  # among the non-blank rows; 2 after a header
    header = _csv_cells(rows[0])
    try:
        float(header[0])
    except ValueError:
        if len(header) != expected_cols:
            raise ValueError(f"{path}: header row has {len(header)} cells, expected {expected_cols} ({what})") from None
        del rows[0]
        first_data_row = 2
    if not rows:
        raise ValueError(f"{path}: no data rows in {what} file")
    try:
        matrix = np.loadtxt(rows, delimiter=",", quotechar='"', comments=None, ndmin=2)
    except ValueError as exc:
        _raise_bad_row(path, rows, first_data_row, expected_cols, what)
        # Every cell reads as a Python float but not as a numpy one (e.g. "1_000").
        raise ValueError(f"{path}: {exc}") from None
    if matrix.shape[1] != expected_cols:
        _raise_bad_row(path, rows, first_data_row, expected_cols, what)
    return matrix


# Matches a line of whitespace and commas only, stopping at the first other character.
_BLANK = re.compile(r"[\s,]*\Z").match


def _non_blank_rows(path: Path) -> list[str]:
    with path.open(newline="", encoding="utf-8-sig") as fh:
        return [line for line in fh if not _is_blank(line)]


def _is_blank(line: str) -> bool:
    """Whether every csv cell of ``line`` is blank; only a quote makes those cells differ from a split on commas."""
    return _BLANK(line) is not None or ('"' in line and not "".join(_csv_cells(line)).strip())


def _csv_cells(line: str) -> list[str]:
    return next(csv.reader([line]), [])


def _raise_bad_row(path, rows: list[str], first_row_no: int, expected_cols: int, what: str) -> None:
    """Name the first of ``rows`` (numbered from ``first_row_no``) of the wrong width or with a cell ``float`` rejects."""
    for row_no, line in enumerate(rows, start=first_row_no):
        cells = _csv_cells(line)
        if len(cells) != expected_cols:
            raise ValueError(f"{path}: row {row_no} has {len(cells)} columns, expected {expected_cols} ({what})")
        try:
            [float(cell) for cell in cells]
        except ValueError as exc:
            raise ValueError(f"{path}: row {row_no} has a non-numeric cell: {exc}") from None


def load_time_series(graph: OrientedGraph, node_csv_path, edge_csv_path) -> np.ndarray:
    """The (V+E) x T spinor matrix of matching node/edge CSVs (one row per time step), node block on top."""
    node_series = read_matrix_csv(node_csv_path, graph.num_nodes, "node series")
    if graph.num_edges == 0 and not _non_blank_rows(Path(edge_csv_path)):  # the T blank rows of a T x 0 matrix
        edge_series = np.empty((node_series.shape[0], 0))
    else:
        edge_series = read_matrix_csv(edge_csv_path, graph.num_edges, "edge series")
    if node_series.shape[0] != edge_series.shape[0]:
        raise ValueError(f"node series has {node_series.shape[0]} steps but edge series has {edge_series.shape[0]}")
    return np.vstack([node_series.T, edge_series.T])


def save_dataset(path, graph: OrientedGraph, S: np.ndarray) -> Path:
    """Write a dataset directory: the graph and the node and edge blocks of the (V+E) x T matrix ``S``."""
    out = Path(path)
    out.mkdir(parents=True, exist_ok=True)
    save_edge_list(out / "graph.txt", graph)
    write_matrix_csv(out / "node_series.csv", S[: graph.num_nodes].T)
    write_matrix_csv(out / "edge_series.csv", S[graph.num_nodes :].T)
    return out


def load_dataset(path) -> tuple[OrientedGraph, np.ndarray]:
    """The graph and (V+E) x T spinor matrix of a dataset directory."""
    base = Path(path)
    graph = load_edge_list(base / "graph.txt")
    return graph, load_time_series(graph, base / "node_series.csv", base / "edge_series.csv")


def write_matrix_csv(path, matrix: np.ndarray) -> None:
    """One CSV row per matrix row, every value with ``FLOAT_FORMAT``, and no header row.

    With two or more rows, the first ``mid = ceil(rows / 2)`` are formatted here while one
    forked child (see ``_fork``) formats the rest into an unnamed temporary file, which is
    then appended; with no fork to be had, every row is formatted here.  The child leaves by
    ``os._exit``, so it flushes no buffer it shares with this process (``sys.stdout``, the
    output file), and this process always waits for it.
    """
    matrix = np.asarray(matrix, dtype=float)
    if matrix.ndim != 2:
        raise ValueError(f"write_matrix_csv needs a 2-D matrix, got shape {matrix.shape}")
    row_format = ",".join([FLOAT_FORMAT] * matrix.shape[1]) + "\r\n"

    def format_rows(rows, fh) -> None:
        for row in rows:
            fh.write(row_format % tuple(row.tolist()))

    path = Path(path)
    mid = (len(matrix) + 1) // 2
    with path.open("w", newline="") as out, tempfile.TemporaryFile() as tail:
        pid = _fork() if mid < len(matrix) else None
        if pid is None:
            format_rows(matrix, out)
            return
        if pid == 0:
            code = 1
            try:
                with open(tail.fileno(), "w", newline="", closefd=False) as text:
                    format_rows(matrix[mid:], text)
                code = 0
            finally:
                os._exit(code)
        try:
            format_rows(matrix[:mid], out)
        finally:
            _, status = os.waitpid(pid, 0)
        if os.waitstatus_to_exitcode(status) != 0:
            raise OSError(f"{path}: the child process formatting rows {mid + 1} to {len(matrix)} failed")
        out.flush()
        tail.seek(0)
        shutil.copyfileobj(tail, out.buffer)  # in chunks of shutil.COPY_BUFSIZE (64 KiB on POSIX)


def _fork() -> int | None:
    """``os.fork()``, or None where there is none (not POSIX), it fails (no process ids left, say) or another
    Python thread runs: one inside a multithreaded OpenBLAS call when the fork stops the BLAS threads never returns.
    A BLAS's OS threads do not count: after ``import numpy`` at the default thread count, ``/proc/self/task`` holds
    2 threads against a ``threading.active_count()`` of 1, so such a process forks (Python 3.12+ warns of it), and
    counting them would stop every fork there.  CI and perfbench pin one BLAS thread."""
    if threading.active_count() > 1:
        return None
    try:
        return os.fork()
    except (AttributeError, OSError):
        return None


@dataclass(frozen=True)
class ResultTable:
    """One sweep table: fixed column names plus rows of scalars/strings."""

    name: str
    columns: tuple[str, ...]
    rows: tuple[tuple, ...] = field(default=())

    def __post_init__(self):
        for row in self.rows:
            if len(row) != len(self.columns):
                raise ValueError(f"row {row!r} does not match columns {self.columns}")


def _format_cell(value) -> str:
    if isinstance(value, (float, np.floating)):
        return format_float(float(value))
    if isinstance(value, (int, np.integer)):
        return str(int(value))
    return "" if value is None else str(value)


def _parse_cell(cell: str):
    try:
        return float(cell) if cell else None
    except ValueError:
        return cell


NON_FINITE_SPELLINGS = tuple(format_float(x) for x in (np.inf, -np.inf, np.nan))  # "inf", "-inf", "nan"


def _spell_non_finite(value):
    """``value`` with every non-finite float, at any depth, replaced by its ``format_float`` string, and every numpy
    array or scalar made the Python value ``json.dumps`` takes."""
    if isinstance(value, (np.ndarray, np.generic)):
        value = value.tolist()
    if isinstance(value, dict):
        return {key: _spell_non_finite(v) for key, v in value.items()}
    if isinstance(value, (list, tuple)):
        return [_spell_non_finite(v) for v in value]
    return format_float(value) if isinstance(value, float) and not np.isfinite(value) else value


def read_non_finite(value):
    """Undo ``save_results``' spelling in loaded JSON, at any depth: in a list whose items are all numbers or
    ``NON_FINITE_SPELLINGS``, those strings are floats again.  A string anywhere else stays a string, since a
    path or a name may read ``inf``."""
    if isinstance(value, dict):
        return {key: read_non_finite(v) for key, v in value.items()}
    if not isinstance(value, list):
        return value
    items = [read_non_finite(v) for v in value]
    numbers = all(type(v) in (int, float) or v in NON_FINITE_SPELLINGS for v in items)  # a bool is no number
    return [float(v) if numbers and isinstance(v, str) else v for v in items]


def save_results(path, tables: ResultTable | list[ResultTable], metadata: dict) -> Path:
    """Write a run directory: run.json metadata plus one CSV per table.

    run.json is strict JSON: a non-finite float is written as the string
    ``"inf"``, ``"-inf"`` or ``"nan"``, as the CSVs spell it.
    """
    out = Path(path)
    out.mkdir(parents=True, exist_ok=True)
    if isinstance(tables, ResultTable):
        tables = [tables]
    meta = dict(metadata)
    meta["tables"] = [t.name for t in tables]
    (out / "run.json").write_text(json.dumps(_spell_non_finite(meta), indent=2, sort_keys=True, allow_nan=False) + "\n")
    for table in tables:
        with (out / f"{table.name}.csv").open("w", newline="") as fh:
            writer = csv.writer(fh)
            writer.writerow(table.columns)
            for row in table.rows:
                writer.writerow([_format_cell(v) for v in row])
    return out


def load_results(path) -> tuple[dict, dict[str, ResultTable]]:
    """Read back a run directory written by save_results.

    Numeric cells are parsed to float when possible; everything else stays a
    string (empty cells become None).  In run.json, a list of numbers gets its
    non-finite floats back (``read_non_finite``).
    """
    out = Path(path)
    metadata = read_non_finite(json.loads((out / "run.json").read_text()))
    tables: dict[str, ResultTable] = {}
    for name in metadata.get("tables", []):
        with (out / f"{name}.csv").open(newline="") as fh:
            header, *rows = csv.reader(fh)
        tables[name] = ResultTable(name, tuple(header), tuple(tuple(map(_parse_cell, row)) for row in rows))
    return metadata, tables
