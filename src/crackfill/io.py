"""Artifact readers and writers: binary PGM images, CSV tables, JSON.

This is the only module that opens an artifact file. All writers are
deterministic: fixed float formatting, sorted JSON keys, no timestamps.
JSON is strict: a NaN or infinite float is written as null. PGM headers
carry the metadata needed to invert the integer quantization (origin,
cell size, z range).
"""

from __future__ import annotations

import json
import math
from pathlib import Path
from typing import Iterable, Sequence

import numpy as np

from .specimen import row_tiles

FLOAT_FMT = "{:.6f}"


def fmt(value: float) -> str:
    return FLOAT_FMT.format(float(value))


def fmt_cell(value: float | None) -> str:
    """A CSV cell: empty when the value does not exist (None, NaN or infinite)."""
    return fmt(value) if value is not None and math.isfinite(value) else ""


def pgm_dtype(maxval: int) -> np.dtype:
    """The sample type of a binary PGM with this maxval: 16-bit samples are big-endian."""
    return np.dtype(">u2" if maxval > 255 else "u1")


def write_pgm(path, data: np.ndarray, maxval: int, comments: list[str] | None = None) -> None:
    """Write a binary (P5) PGM; 16-bit data is stored big-endian.

    Data already in pgm_dtype(maxval) and C order is written as it is,
    without a copy.
    """
    data = np.asarray(data)
    if data.ndim != 2:
        raise ValueError("PGM data must be 2-D")
    _write_pgm_rows(path, data.shape, maxval, comments, [data])


def _write_pgm_rows(path, shape: tuple[int, int], maxval: int, comments: list[str] | None, blocks: Iterable[np.ndarray]) -> None:
    """Write a binary PGM of shape (rows, columns) from consecutive blocks of its rows."""
    header = ["P5", *(f"# {c}" for c in comments or []), f"{shape[1]} {shape[0]}", str(maxval)]
    with open(path, "wb") as f:
        f.write(("\n".join(header) + "\n").encode("ascii"))
        for block in blocks:
            f.write(np.ascontiguousarray(block, dtype=pgm_dtype(maxval)))


def read_pgm(path) -> tuple[np.ndarray, list[str]]:
    """Read a binary (P5) PGM, returning the image and header comments.

    Raises ValueError when the header is malformed or the payload holds
    fewer bytes than the header's size and depth require.
    """
    with open(path, "rb") as f:
        blob = f.read()
    if not (blob.startswith(b"P5") and blob[2:3].isspace()):
        raise ValueError(f"{path}: not a binary PGM (P5) file")
    comments: list[str] = []
    tokens: list[bytes] = []
    pos = 2
    while len(tokens) < 3:
        while pos < len(blob) and blob[pos : pos + 1].isspace():
            pos += 1
        if pos == len(blob):
            raise ValueError(f"{path}: PGM header ends before width, height and maxval")
        if blob[pos : pos + 1] == b"#":
            end = blob.find(b"\n", pos)
            if end < 0:
                raise ValueError(f"{path}: PGM header ends inside a comment")
            comments.append(blob[pos + 1 : end].decode("ascii", errors="replace").strip())
            pos = end + 1
            continue
        end = pos
        while end < len(blob) and not blob[end : end + 1].isspace():
            end += 1
        tokens.append(blob[pos:end])
        pos = end
    pos += 1  # single whitespace byte after maxval
    if not all(t.isdigit() for t in tokens):
        raise ValueError(f"{path}: PGM width, height and maxval must be decimal integers")
    width, height, maxval = (int(t) for t in tokens)
    if width < 1 or height < 1 or not 1 <= maxval <= 65535:
        raise ValueError(f"{path}: PGM header gives width {width}, height {height}, maxval {maxval}")
    dtype = pgm_dtype(maxval)
    count = width * height
    if len(blob) - pos < count * dtype.itemsize:
        raise ValueError(
            f"{path}: PGM payload holds {max(len(blob) - pos, 0)} bytes, "
            f"the {width}x{height} header needs {count * dtype.itemsize}"
        )
    img = np.frombuffer(blob, dtype=dtype, count=count, offset=pos).reshape(height, width)
    return img.astype(np.uint16 if maxval > 255 else np.uint8), comments


def _quantize(values: np.ndarray, lo: float, hi: float, maxval: int) -> np.ndarray:
    span = hi - lo
    if span <= 0:
        return np.zeros(values.shape, dtype=np.uint32)
    q = np.rint((values - lo) / span * maxval)
    return np.clip(q, 0, maxval).astype(np.uint32)


def _one_per_stride_0(a: np.ndarray) -> np.ndarray:
    """a with each axis of stride 0, which holds one value, cut to that value."""
    return a[tuple(slice(0, 1) if stride == 0 else slice(None) for stride in a.strides)]


def write_heightfield_pgm(path, hf) -> None:
    """Quantize the heights of a Heightfield, a base plus one patch, to 16
    bits over the z range of the cells it shows: the patch, and the base
    (hf.heights) outside the patch's box. Each row tile of the base (see
    row_tiles) is quantized over the values it holds, one per axis of
    stride 0, so a flat base costs one cell per tile; the patch's
    quantized cells are laid over it, and the tile is written straight to
    the file."""
    base, cells, (box_rows, box_cols) = hf.heights, hf.cells, hf.box
    outside = (base[: box_rows.start], base[box_rows.stop :], base[box_rows, : box_cols.start], base[box_rows, box_cols.stop :])
    shown = [_one_per_stride_0(part) for part in (cells, *outside) if part.size]
    lo, hi = min(float(part.min()) for part in shown), max(float(part.max()) for part in shown)
    comments = [
        f"origin_mm {fmt(hf.origin[0])} {fmt(hf.origin[1])}",
        f"cell_size_mm {fmt(hf.cell_size)}",
        f"nominal_surface_mm {fmt(hf.nominal_surface)}",
        f"z_range_mm {fmt(lo)} {fmt(hi)}",
    ]

    def blocks():
        for rows in row_tiles(hf.ny, hf.nx):
            block = np.empty((rows.stop - rows.start, hf.nx), dtype=pgm_dtype(65535))
            block[...] = _quantize(_one_per_stride_0(base[rows]), lo, hi, 65535)
            first, last = max(rows.start, box_rows.start), min(rows.stop, box_rows.stop)
            if first < last:
                block[first - rows.start : last - rows.start, box_cols] = _quantize(
                    cells[first - box_rows.start : last - box_rows.start], lo, hi, 65535
                )
            yield block

    _write_pgm_rows(path, (hf.ny, hf.nx), 65535, comments, blocks())


def write_depth_pgm(path, depth_image) -> None:
    d = depth_image.depth_mm
    valid = depth_image.valid
    lo = float(d[valid].min()) if valid.any() else 0.0
    hi = float(d[valid].max()) if valid.any() else 0.0
    comments = [f"depth_range_mm {fmt(lo)} {fmt(hi)}", "invalid_value 0"]
    q = np.zeros(d.shape, dtype=np.uint32)
    if valid.any():
        # reserve 0 for invalid pixels, map valid depths to 1..65535
        q[valid] = _quantize(d[valid], lo, hi, 65534) + 1
    write_pgm(path, q, 65535, comments)


def write_mask_pgm(path, flags: np.ndarray) -> None:
    write_pgm(path, np.where(flags, 255, 0).astype(np.uint8), 255)


def _finite_or_null(value):
    if isinstance(value, float):
        return value if math.isfinite(value) else None
    if isinstance(value, dict):
        return {k: _finite_or_null(v) for k, v in value.items()}
    if isinstance(value, (list, tuple)):
        return [_finite_or_null(v) for v in value]
    return value


def write_json(path, obj: dict) -> None:
    with open(path, "w", newline="\n") as f:
        json.dump(_finite_or_null(obj), f, indent=2, sort_keys=True, allow_nan=False)
        f.write("\n")


def write_csv(path, header: str, rows: Iterable[Sequence[str]]) -> None:
    """Write the header line, then one line per row of already formatted cells."""
    with open(path, "w", newline="\n") as f:
        f.write(header + "\n")
        for row in rows:
            f.write(",".join(row) + "\n")


def read_json(path) -> dict:
    with open(path) as f:
        return json.load(f)


def ensure_dir(path) -> Path:
    p = Path(path)
    p.mkdir(parents=True, exist_ok=True)
    return p
