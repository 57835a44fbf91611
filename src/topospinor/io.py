r"""File formats: edge lists, dataset directories, matrix CSVs, and result tables.

Edge list format
    line 1:            V (node count)
    lines 2..E+1:      "tail head", whitespace separated, 0-indexed;
                       the line order defines the edge indexing.

Dataset directory (``save_dataset`` / ``load_dataset``)
    ``graph.txt`` (an edge list), ``node_series.csv`` and ``edge_series.csv``:
    one row per time step, the same count in both, and V or E numeric columns
    in index order.  An optional header row, detected by a non-numeric first
    cell, is checked for its width and skipped; no file is written with one.

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
    Both functions work on two cores: a matrix of two or more rows has its
    first half formatted or parsed in the calling process and its second half
    in one child made with ``os.fork`` (POSIX), which hands its part back
    through an unnamed temporary file.  The bytes written, the values read and
    every error message are the ones a single process gives, and there is
    nothing to configure.

Results
    ``save_results`` writes a run directory containing ``run.json`` (metadata:
    config, seeds, graph summary) and one CSV per table with one row per
    (method, sweep point, realization).  Floats are printed with 17
    significant digits so a load/save round trip is lossless.

Joint signals everywhere use the fixed stacking order: node block first, edge
block second.
"""

from __future__ import annotations

import csv
import json
import os
import shutil
import tempfile
from contextlib import contextmanager
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
    lines = path.read_text().splitlines()
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

    Each row is checked (blank rows skipped, a header checked for its width and
    skipped, column count), then each half of the checked body is parsed in one
    ``np.loadtxt`` call, the second in a forked child (``_split_rows``).
    """
    path = Path(path)
    first_data_row = 1  # among the non-blank rows; 2 after a header
    body: list[str] = []
    row_no = 0  # 1-based among the non-blank rows, header included
    with path.open(newline="") as fh:
        for line in fh:
            # Only a quote makes the csv cells differ from a split on commas.
            cells = _csv_cells(line) if '"' in line else line.split(",")
            if not "".join(cells).strip():
                continue
            row_no += 1
            if row_no == 1:
                try:
                    float(cells[0])
                except ValueError:
                    if len(cells) != expected_cols:
                        raise ValueError(
                            f"{path}: header row has {len(cells)} cells, expected {expected_cols} ({what})"
                        ) from None
                    first_data_row = 2
                    continue
            if len(cells) != expected_cols:
                _raise_non_numeric(path, body, first_data_row)
                raise ValueError(f"{path}: row {row_no} has {len(cells)} columns, expected {expected_cols} ({what})")
            body.append(line)
    if row_no == 0:
        raise ValueError(f"{path}: empty {what} file")
    if not body:
        raise ValueError(f"{path}: no data rows in {what} file")

    def parse(start: int, stop: int) -> np.ndarray:
        return np.loadtxt(body[start:stop], delimiter=",", quotechar='"', comments=None, ndmin=2)

    def send(start: int, stop: int, fh) -> None:
        fh.write(parse(start, stop).data)

    try:
        with _split_rows(len(body), parse, send) as (mid, head, tail):
            if mid == len(body):
                return head
            # Grow this process's half in place (a realloc), so no second copy of it is made;
            # ``_split_rows`` still refers to it, hence refcheck=False.
            head.resize((len(body), expected_cols), refcheck=False)
            if tail is None or tail.readinto(head[mid:]) != head[mid:].nbytes:
                # The child failed, most likely on a bad cell: parse every row here, so that an
                # error names its row among all of them, as one parse does.
                return parse(0, len(body))
            return head
    except ValueError as exc:
        _raise_non_numeric(path, body, first_data_row)
        # Every cell reads as a Python float but not as a numpy one (e.g. "1_000").
        raise ValueError(f"{path}: {exc}") from None


def _csv_cells(line: str) -> list[str]:
    return next(csv.reader([line]), [])


def _raise_non_numeric(path, lines: list[str], first_row_no: int) -> None:
    """Name the first of ``lines`` (numbered from ``first_row_no``) with a cell ``float`` rejects."""
    for row_no, line in enumerate(lines, start=first_row_no):
        try:
            [float(cell) for cell in _csv_cells(line)]
        except ValueError as exc:
            raise ValueError(f"{path}: row {row_no} has a non-numeric cell: {exc}") from None


def load_time_series(graph: OrientedGraph, node_csv_path, edge_csv_path) -> np.ndarray:
    """The (V+E) x T spinor matrix of matching node/edge CSVs (one row per time step), node block on top."""
    node_series = read_matrix_csv(node_csv_path, graph.num_nodes, "node series")
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
    """One CSV row per matrix row, every value with ``FLOAT_FORMAT``, and no header row."""
    matrix = np.asarray(matrix, dtype=float)
    if matrix.ndim != 2:
        raise ValueError(f"write_matrix_csv needs a 2-D matrix, got shape {matrix.shape}")
    row_format = ",".join([FLOAT_FORMAT] * matrix.shape[1]) + "\r\n"

    def format_rows(start: int, stop: int, fh) -> None:
        for row in matrix[start:stop]:
            fh.write(row_format % tuple(row.tolist()))

    def send(start: int, stop: int, fh) -> None:
        with open(fh.fileno(), "w", newline="", closefd=False) as text:
            format_rows(start, stop, text)

    path = Path(path)
    with path.open("w", newline="") as out:
        with _split_rows(len(matrix), lambda start, stop: format_rows(start, stop, out), send) as (mid, _, tail):
            if mid == len(matrix):
                return
            if tail is None:
                raise OSError(f"{path}: the child process formatting rows {mid + 1} to {len(matrix)} failed")
            out.flush()
            shutil.copyfileobj(tail, out.buffer)  # in chunks of shutil.COPY_BUFSIZE (64 KiB on POSIX)


@contextmanager
def _split_rows(num_rows: int, here, there):
    """Run a row-wise job on the first half of ``num_rows`` rows here and on the second half in one forked child.

    ``here(0, mid)`` runs in this process, with ``mid = ceil(num_rows / 2)``, while
    ``there(mid, num_rows, fh)`` runs in the child and writes its result to ``fh``, an
    unnamed temporary file.  Yields ``mid``, the result of ``here`` and ``fh`` rewound,
    or None in place of ``fh`` if the child failed.  With fewer than two rows, or no
    fork to be had, there is no child: ``here`` takes every row and ``mid == num_rows``.
    The child leaves by ``os._exit``, so it flushes no buffer it shares with this
    process (``sys.stdout``, an open output file), and this process always waits for it.
    """
    mid = (num_rows + 1) // 2
    with tempfile.TemporaryFile() as fh:
        pid = _fork() if mid < num_rows else None
        if pid is None:
            yield num_rows, here(0, num_rows), None
            return
        if pid == 0:
            code = 1
            try:
                there(mid, num_rows, fh)
                fh.flush()
                code = 0
            finally:
                os._exit(code)
        try:
            result = here(0, mid)
        finally:
            _, status = os.waitpid(pid, 0)
        fh.seek(0)
        yield mid, result, fh if os.waitstatus_to_exitcode(status) == 0 else None


def _fork() -> int | None:
    """``os.fork()``, or None where there is none (not POSIX) or it fails (no process ids left, say)."""
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


def save_results(path, tables: ResultTable | list[ResultTable], metadata: dict) -> Path:
    """Write a run directory: run.json metadata plus one CSV per table."""
    out = Path(path)
    out.mkdir(parents=True, exist_ok=True)
    if isinstance(tables, ResultTable):
        tables = [tables]
    meta = dict(metadata)
    meta["tables"] = [t.name for t in tables]
    (out / "run.json").write_text(json.dumps(meta, indent=2, sort_keys=True) + "\n")
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
    string (empty cells become None).
    """
    out = Path(path)
    metadata = json.loads((out / "run.json").read_text())
    tables: dict[str, ResultTable] = {}
    for name in metadata.get("tables", []):
        with (out / f"{name}.csv").open(newline="") as fh:
            rows = list(csv.reader(fh))
        columns = tuple(rows[0])
        parsed = []
        for row in rows[1:]:
            cells = []
            for cell in row:
                if cell == "":
                    cells.append(None)
                    continue
                try:
                    cells.append(float(cell))
                except ValueError:
                    cells.append(cell)
            parsed.append(tuple(cells))
        tables[name] = ResultTable(name=name, columns=columns, rows=tuple(parsed))
    return metadata, tables
