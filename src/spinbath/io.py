"""CSV readers/writers for measurement tables and decay traces.

All loaders address schema violations by file and 1-based row number so
a bad line in a 500-row table is findable: ``data.csv:17: t1_cupc_us
must be > 0``.  Times in the files are microseconds; records come back
in seconds.
"""

from __future__ import annotations

import csv
import hashlib
import json
import math
from pathlib import Path

import numpy as np

from .errors import DataFormatError
from .relaxometry import DecayCurve, T1Record

MEASUREMENT_COLUMNS = (
    "nv_id",
    "b_gauss",
    "t1_cupc_us",
    "t1_cupc_sigma_us",
    "t1_free_us",
    "t1_free_sigma_us",
)

DECAY_COLUMNS = ("t_us", "signal", "sigma")

_US = 1e-6


def _open_rows(path: Path, columns: tuple[str, ...]):
    try:
        # utf-8-sig drops the byte-order mark that spreadsheets put first
        text = path.read_text(encoding="utf-8-sig")
    except (OSError, UnicodeDecodeError) as exc:
        raise DataFormatError(f"{path}: cannot read ({exc})") from exc
    if not text.strip():
        return []
    reader = csv.DictReader(text.splitlines())
    header = tuple(reader.fieldnames or ())
    missing = [c for c in columns if c not in header]
    if missing:
        raise DataFormatError(f"{path}:1: missing column(s) {', '.join(missing)}")
    return list(reader)


def _field(row: dict, key: str, path: Path, lineno: int) -> str:
    val = row.get(key)
    if val is None or val.strip() == "":
        raise DataFormatError(f"{path}:{lineno}: empty value for {key}")
    return val.strip()


def _positive(row: dict, key: str, path: Path, lineno: int) -> float:
    raw = _field(row, key, path, lineno)
    try:
        val = float(raw)
    except ValueError:
        raise DataFormatError(f"{path}:{lineno}: {key} is not a number: {raw!r}") from None
    if not math.isfinite(val) or val <= 0:
        raise DataFormatError(f"{path}:{lineno}: {key} must be > 0, got {raw}")
    return val


def load_measurements(path: str | Path) -> tuple[T1Record, ...]:
    """Read a T1 measurement table.  An empty file yields an empty tuple."""
    p = Path(path)
    records = []
    for i, row in enumerate(_open_rows(p, MEASUREMENT_COLUMNS)):
        lineno = i + 2  # header is line 1
        records.append(
            T1Record(
                nv_id=_field(row, "nv_id", p, lineno),
                b_gauss=_positive(row, "b_gauss", p, lineno),
                t1_cupc=_positive(row, "t1_cupc_us", p, lineno) * _US,
                t1_cupc_sigma=_positive(row, "t1_cupc_sigma_us", p, lineno) * _US,
                t1_free=_positive(row, "t1_free_us", p, lineno) * _US,
                t1_free_sigma=_positive(row, "t1_free_sigma_us", p, lineno) * _US,
            )
        )
    return tuple(records)


def load_decay_curve(path: str | Path) -> DecayCurve:
    p = Path(path)
    rows = _open_rows(p, DECAY_COLUMNS)
    if not rows:
        raise DataFormatError(f"{p}:1: decay file has no data rows")
    t, y, s = [], [], []
    prev = -math.inf
    for i, row in enumerate(rows):
        lineno = i + 2
        raw_t = _field(row, "t_us", p, lineno)
        raw_y = _field(row, "signal", p, lineno)
        try:
            ti, yi = float(raw_t), float(raw_y)
        except ValueError:
            raise DataFormatError(f"{p}:{lineno}: non-numeric t_us/signal") from None
        if not math.isfinite(ti) or ti < 0:
            raise DataFormatError(f"{p}:{lineno}: t_us must be >= 0, got {raw_t}")
        if not math.isfinite(yi):
            raise DataFormatError(f"{p}:{lineno}: signal must be finite, got {raw_y}")
        if ti <= prev:
            raise DataFormatError(f"{p}:{lineno}: t_us must be strictly increasing")
        prev = ti
        t.append(ti * _US)
        y.append(yi)
        s.append(_positive(row, "sigma", p, lineno))
    return DecayCurve(t=np.array(t), y=np.array(y), sigma=np.array(s))


def load_reference_depths(path: str | Path) -> dict[str, float]:
    """Optional NV-by-NV reference depths (nv_id, d_ref_nm) in meters."""
    p = Path(path)
    out: dict[str, float] = {}
    for i, row in enumerate(_open_rows(p, ("nv_id", "d_ref_nm"))):
        lineno = i + 2
        nv = _field(row, "nv_id", p, lineno)
        if nv in out:
            raise DataFormatError(f"{p}:{lineno}: duplicate nv_id {nv!r}")
        out[nv] = _positive(row, "d_ref_nm", p, lineno) * 1e-9
    return out


# ---------------------------------------------------------------------------
# deterministic writers
# ---------------------------------------------------------------------------


def write_csv(path: str | Path, header: tuple[str, ...], rows) -> None:
    """Write a header and rows; a cell holding a comma or quote is quoted."""
    with Path(path).open("w", newline="") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(header)
        writer.writerows([_cell(v) for v in row] for row in rows)


def _cell(v) -> str:
    if isinstance(v, (float, np.floating)):
        return repr(float(v))
    if isinstance(v, (np.integer,)):
        return str(int(v))
    return str(v)


def write_json(path: str | Path, obj) -> None:
    Path(path).write_text(json.dumps(_plain(obj), indent=2, sort_keys=True) + "\n")


def _plain(obj):
    if isinstance(obj, dict):
        return {str(k): _plain(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [_plain(v) for v in obj]
    if isinstance(obj, (np.floating,)):
        return float(obj)
    if isinstance(obj, (np.integer,)):
        return int(obj)
    if isinstance(obj, (np.bool_,)):
        return bool(obj)
    if isinstance(obj, np.ndarray):
        return [_plain(v) for v in obj.tolist()]
    return obj


def sha256_of(path: str | Path) -> str:
    return hashlib.sha256(Path(path).read_bytes()).hexdigest()
