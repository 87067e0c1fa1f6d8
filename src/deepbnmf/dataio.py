"""Matrix and artifact persistence: CSV, a small binary format, PGM mosaics.

Formats
-------
* CSV matrices: one row per line, comma separated, ``#`` comment lines
  allowed; written with 17 significant digits so doubles round-trip exactly.
* Binary matrices: magic ``DBNMF1``, then rows and cols as little-endian
  uint64, then the row-major float64 payload (little-endian).
* Mosaics: binary PGM (P5, maxval 255), one tile per feature row, each tile
  min-max normalized independently, 1-pixel white separators.
* Traces: CSV with one row per sweep.
"""

from __future__ import annotations

import struct
import warnings
from pathlib import Path
from typing import List

import numpy as np

from .errors import DimensionError, ParseError
from .model import ConvergenceTrace, SweepRecord

MAGIC = b"DBNMF1"


def read_matrix(path, format: str = "csv") -> np.ndarray:
    """Read a matrix from ``path`` in ``csv`` or ``binary`` format."""
    path = Path(path)
    if format == "csv":
        return _read_csv(path)
    if format == "binary":
        return _read_binary(path)
    raise ParseError(f"unknown matrix format {format!r}")


def write_matrix(M: np.ndarray, path, format: str = "csv"):
    """Write a matrix to ``path``; the exact inverse of :func:`read_matrix`."""
    M = np.ascontiguousarray(M, dtype=float)
    if M.ndim != 2:
        raise DimensionError("only 2-D matrices are supported")
    path = Path(path)
    if format == "csv":
        with open(path, "w") as fh:
            for row in M:
                fh.write(",".join(f"{v:.17g}" for v in row) + "\n")
    elif format == "binary":
        with open(path, "wb") as fh:
            fh.write(MAGIC)
            fh.write(struct.pack("<QQ", M.shape[0], M.shape[1]))
            fh.write(M.astype("<f8").tobytes())
    else:
        raise ParseError(f"unknown matrix format {format!r}")


def _read_csv(path: Path) -> np.ndarray:
    rows: List[List[float]] = []
    width = None
    with open(path) as fh:
        for lineno, line in enumerate(fh, start=1):
            text = line.strip()
            if not text or text.startswith("#"):
                continue
            try:
                values = [float(tok) for tok in text.split(",")]
            except ValueError as exc:
                raise ParseError(f"{path}:{lineno}: {exc}") from None
            if width is None:
                width = len(values)
            elif len(values) != width:
                raise ParseError(
                    f"{path}:{lineno}: ragged row has {len(values)} values, expected {width}"
                )
            rows.append(values)
    if not rows:
        raise ParseError(f"{path}: no data rows")
    M = np.array(rows, dtype=float)
    if np.any(M < 0):
        warnings.warn(
            f"{path} contains negative entries; solvers require nonnegative data",
            RuntimeWarning,
            stacklevel=2,
        )
    return M


def _read_binary(path: Path) -> np.ndarray:
    blob = Path(path).read_bytes()
    if len(blob) < len(MAGIC) + 16 or blob[: len(MAGIC)] != MAGIC:
        raise ParseError(f"{path}: not a {MAGIC.decode()} matrix file")
    rows, cols = struct.unpack_from("<QQ", blob, len(MAGIC))
    payload = blob[len(MAGIC) + 16 :]
    expected = rows * cols * 8
    if len(payload) != expected:
        raise ParseError(
            f"{path}: payload holds {len(payload)} bytes, header implies {expected}"
        )
    return np.frombuffer(payload, dtype="<f8").reshape(rows, cols).astype(float)


def write_mosaic_pgm(
    rows_of_features: np.ndarray,
    tile_h: int,
    tile_w: int,
    grid_cols: int,
    path,
):
    """Tile feature rows into a PGM image grid with 1-pixel separators.

    Each row of ``rows_of_features`` must hold ``tile_h * tile_w`` values; it
    is min-max scaled to [0, 255] on its own (constant tiles map to 0) and
    placed row-major into a grid ``grid_cols`` tiles wide.
    """
    F = np.asarray(rows_of_features, dtype=float)
    if tile_h < 1 or tile_w < 1:
        raise DimensionError(f"tile size must be at least 1x1, got {tile_h}x{tile_w}")
    if F.ndim != 2 or F.shape[1] != tile_h * tile_w:
        raise DimensionError(
            f"each feature row must have tile_h*tile_w={tile_h * tile_w} entries, "
            f"got shape {F.shape}"
        )
    if grid_cols < 1:
        raise DimensionError("grid_cols must be >= 1")
    n = F.shape[0]
    grid_rows = (n + grid_cols - 1) // grid_cols
    height = grid_rows * tile_h + (grid_rows - 1)
    width = grid_cols * tile_w + (grid_cols - 1)
    image = np.full((height, width), 255, dtype=np.uint8)
    for k in range(grid_rows * grid_cols):
        pixels = 0  # constant tiles, and the unused cells of a partial last row
        if k < n:
            tile = F[k].reshape(tile_h, tile_w)
            lo, hi = tile.min(), tile.max()
            if hi > lo:
                pixels = np.rint(255.0 * (tile - lo) / (hi - lo)).astype(np.uint8)
        gr, gc = divmod(k, grid_cols)
        top = gr * (tile_h + 1)
        left = gc * (tile_w + 1)
        image[top : top + tile_h, left : left + tile_w] = pixels
    with open(path, "wb") as fh:
        fh.write(f"P5\n{width} {height}\n255\n".encode("ascii"))
        fh.write(image.tobytes())


def trace_header(num_layers: int) -> str:
    cols = ["sweep", "total_objective"]
    cols += [f"layer_err_{i + 1}" for i in range(num_layers)]
    cols += [f"logdet_{i + 1}" for i in range(num_layers)]
    cols += ["max_residual", "seconds"]
    return ",".join(cols)


def write_trace(trace: ConvergenceTrace, path, timing: bool = True):
    """Write one CSV row per sweep; ``timing=False`` zeroes the seconds column.

    Dropping wall time keeps repeated runs of the same seed byte-identical.
    """
    with open(path, "w") as fh:
        fh.write(trace_header(trace.num_layers) + "\n")
        for rec in trace.records:
            values = [float(rec.total_objective)]
            values += [float(v) for v in rec.layer_errors]
            values += [float(v) for v in rec.logdet_terms]
            values += [float(rec.max_residual), rec.seconds if timing else 0.0]
            fh.write(f"{rec.sweep}," + ",".join(f"{v:.17g}" for v in values) + "\n")


def read_trace(path) -> ConvergenceTrace:
    """Parse a trace CSV back into a ConvergenceTrace."""
    with open(path) as fh:
        lines = [line.rstrip("\n") for line in fh]
    if not lines:
        raise ParseError(f"{path}: empty trace file")
    header = lines[0].split(",")
    layer_cols = [c for c in header if c.startswith("layer_err_")]
    num_layers = len(layer_cols)
    expected = 4 + 2 * num_layers
    if len(header) != expected or header[0] != "sweep":
        raise ParseError(f"{path}: unrecognized trace header")
    trace = ConvergenceTrace(num_layers)
    for lineno, line in enumerate(lines[1:], start=2):
        if not line:
            continue
        parts = line.split(",")
        if len(parts) != expected:
            raise ParseError(f"{path}:{lineno}: expected {expected} fields")
        try:
            sweep = int(parts[0])
            vals = [float(p) for p in parts[1:]]
        except ValueError as exc:
            raise ParseError(f"{path}:{lineno}: {exc}") from None
        trace.append(
            SweepRecord(
                sweep=sweep,
                total_objective=vals[0],
                layer_errors=tuple(vals[1 : 1 + num_layers]),
                logdet_terms=tuple(vals[1 + num_layers : 1 + 2 * num_layers]),
                max_residual=vals[1 + 2 * num_layers],
                seconds=vals[2 + 2 * num_layers],
            )
        )
    return trace
