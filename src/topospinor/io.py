"""File formats: edge lists, node/edge time-series CSVs, and result tables.

Edge list format
    line 1:            V (node count)
    lines 2..E+1:      "tail head", whitespace separated, 0-indexed;
                       the line order defines the edge indexing.

Time series
    One CSV per domain.  Each row is a time step; the node file has V numeric
    columns and the edge file E, in node/edge index order.  An optional header
    row is detected by a non-numeric first cell and skipped.

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
    "save_time_series",
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
    node_labels: tuple[str, ...] | None = None
    edge_labels: tuple[str, ...] | None = None

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
    are reported against the line that introduced them.
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
    for line_no, line in meaningful[1:]:
        parts = line.split()
        if len(parts) != 2:
            raise EdgeListParseError(path, line_no, f"expected 'tail head', got {line!r}")
        try:
            tail, head = int(parts[0]), int(parts[1])
        except ValueError:
            raise EdgeListParseError(path, line_no, f"non-integer node index in {line!r}") from None
        try:
            OrientedGraph(num_nodes, tuple(edges) + ((tail, head),))
        except GraphError as exc:
            raise EdgeListParseError(path, line_no, str(exc)) from None
        edges.append((tail, head))
    return OrientedGraph(num_nodes, tuple(edges))


def save_edge_list(path, graph: OrientedGraph) -> None:
    lines = [str(graph.num_nodes)]
    lines.extend(f"{tail} {head}" for tail, head in graph.edges)
    Path(path).write_text("\n".join(lines) + "\n")


def format_float(x: float) -> str:
    """17 significant digits: enough to round-trip any double exactly."""
    return f"{float(x):.17g}"


def read_matrix_csv(path, expected_cols: int, what: str = "matrix") -> tuple[np.ndarray, tuple[str, ...] | None]:
    """``(rows, header labels or None)`` of a numeric CSV; ValueError on an empty, ragged or non-numeric file."""
    path = Path(path)
    with path.open(newline="") as fh:
        rows = list(csv.reader(fh))
    rows = [row for row in rows if any(cell.strip() for cell in row)]
    if not rows:
        raise ValueError(f"{path}: empty {what} file")
    labels: tuple[str, ...] | None = None
    start = 0
    try:
        float(rows[0][0])
    except ValueError:
        labels = tuple(cell.strip() for cell in rows[0])
        start = 1
    data = []
    for idx, row in enumerate(rows[start:], start=start + 1):
        if len(row) != expected_cols:
            raise ValueError(
                f"{path}: row {idx} has {len(row)} columns, expected {expected_cols} ({what})"
            )
        try:
            data.append([float(cell) for cell in row])
        except ValueError as exc:
            raise ValueError(f"{path}: row {idx} has a non-numeric cell: {exc}") from None
    if not data:
        raise ValueError(f"{path}: no data rows in {what} file")
    return np.asarray(data), labels


def load_time_series(graph: OrientedGraph, node_csv_path, edge_csv_path) -> TimeSeriesDataset:
    """Load matching node/edge CSVs (one row per time step) for a graph."""
    node_series, node_labels = read_matrix_csv(node_csv_path, graph.num_nodes, "node series")
    edge_series, edge_labels = read_matrix_csv(edge_csv_path, graph.num_edges, "edge series")
    return TimeSeriesDataset(graph, node_series, edge_series, node_labels, edge_labels)


def save_time_series(dataset: TimeSeriesDataset, node_csv_path, edge_csv_path) -> None:
    write_matrix_csv(node_csv_path, dataset.node_series, dataset.node_labels)
    write_matrix_csv(edge_csv_path, dataset.edge_series, dataset.edge_labels)


def write_matrix_csv(path, matrix: np.ndarray, header: tuple[str, ...] | None = None) -> None:
    matrix = np.asarray(matrix, dtype=float)
    with Path(path).open("w", newline="") as fh:
        writer = csv.writer(fh)
        if header is not None:
            writer.writerow(header)
        for row in matrix:
            writer.writerow([format_float(x) for x in row])


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
