r"""File formats: edge lists, node/edge time-series CSVs, and result tables.

Edge list format
    line 1:            V (node count)
    lines 2..E+1:      "tail head", whitespace separated, 0-indexed;
                       the line order defines the edge indexing.

Time series
    One CSV per domain.  Each row is a time step; the node file has V numeric
    columns and the edge file E, in node/edge index order.  An optional header
    row, detected by a non-numeric first cell, is checked for its width and
    skipped; no file is written with one.

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
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from .topology import GraphError, OrientedGraph

__all__ = [
    "EdgeListParseError",
    "TimeSeriesDataset",
    "ResultTable",
    "load_edge_list",
    "save_edge_list",
    "load_time_series",
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


@dataclass(frozen=True)
class TimeSeriesDataset:
    """Node and edge measurements over T time steps on a fixed graph."""

    graph: OrientedGraph
    node_series: np.ndarray  # (T, V)
    edge_series: np.ndarray  # (T, E)

    def __post_init__(self):
        ns = np.asarray(self.node_series, dtype=float)
        es = np.asarray(self.edge_series, dtype=float)
        if ns.shape[1] != self.graph.num_nodes:
            raise ValueError(f"node series has {ns.shape[1]} columns, graph has {self.graph.num_nodes} nodes")
        if es.shape[1] != self.graph.num_edges:
            raise ValueError(f"edge series has {es.shape[1]} columns, graph has {self.graph.num_edges} edges")
        if ns.shape[0] != es.shape[0]:
            raise ValueError(f"node series has {ns.shape[0]} steps but edge series has {es.shape[0]}")
        object.__setattr__(self, "node_series", ns)
        object.__setattr__(self, "edge_series", es)

    @property
    def num_steps(self) -> int:
        return self.node_series.shape[0]

    def spinor_matrix(self) -> np.ndarray:
        """(V+E) x T matrix with the node block on top."""
        return np.vstack([self.node_series.T, self.edge_series.T])


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
    skipped, column count), then the checked body is parsed in one ``np.loadtxt`` call.
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
    try:
        data = np.loadtxt(body, delimiter=",", quotechar='"', comments=None, ndmin=2)
    except ValueError as exc:
        _raise_non_numeric(path, body, first_data_row)
        # Every cell reads as a Python float but not as a numpy one (e.g. "1_000").
        raise ValueError(f"{path}: {exc}") from None
    return data


def _csv_cells(line: str) -> list[str]:
    return next(csv.reader([line]), [])


def _raise_non_numeric(path, lines: list[str], first_row_no: int) -> None:
    """Name the first of ``lines`` (numbered from ``first_row_no``) with a cell ``float`` rejects."""
    for row_no, line in enumerate(lines, start=first_row_no):
        try:
            [float(cell) for cell in _csv_cells(line)]
        except ValueError as exc:
            raise ValueError(f"{path}: row {row_no} has a non-numeric cell: {exc}") from None


def load_time_series(graph: OrientedGraph, node_csv_path, edge_csv_path) -> TimeSeriesDataset:
    """Load matching node/edge CSVs (one row per time step) for a graph."""
    node_series = read_matrix_csv(node_csv_path, graph.num_nodes, "node series")
    edge_series = read_matrix_csv(edge_csv_path, graph.num_edges, "edge series")
    return TimeSeriesDataset(graph, node_series, edge_series)


def write_matrix_csv(path, matrix: np.ndarray) -> None:
    """One CSV row per matrix row, every value with ``FLOAT_FORMAT``, and no header row."""
    matrix = np.asarray(matrix, dtype=float)
    if matrix.ndim != 2:
        raise ValueError(f"write_matrix_csv needs a 2-D matrix, got shape {matrix.shape}")
    row_format = ",".join([FLOAT_FORMAT] * matrix.shape[1]) + "\r\n"
    with Path(path).open("w", newline="") as fh:
        for row in matrix:
            fh.write(row_format % tuple(row.tolist()))


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
