"""Deterministic CSV and summary emission.

All numbers render via %.17g: 17 significant digits, which read back as
the same double but are not its shortest form (0.1 is written
0.10000000000000001).  Newlines are always "\n" and row order follows input
order, so identical inputs give byte-identical files.  A table is written
chunk by chunk, each chunk one ``%`` over a template of its rows that holds
``%s`` fields; within a chunk each distinct double, told apart by its bits,
is formatted once.  Text fields are quoted as ``csv.writer`` quotes them.
"""

from __future__ import annotations

import csv
import io
from typing import Iterable, Sequence

import numpy as np

from .dynamics import Orbit
from .geometry import SiegelBatch


def format_float(x: float) -> str:
    return "%.17g" % float(x)


CHUNK_ROWS = 4096


def _write_chunk(handle, template: str, fields: np.ndarray) -> None:
    """``template % (the %.17g text of each value of fields, in order)``.

    Values are keyed by their bits, not by ``==``: -0.0 and 0.0 print apart,
    and every NaN prints ``nan``.
    """
    bits = np.ascontiguousarray(fields, dtype=np.float64).reshape(-1).view(np.uint64)
    distinct, inverse = np.unique(bits, return_inverse=True)
    text = ("%.17g\n" * distinct.size) % tuple(distinct.view(np.float64).tolist())
    handle.write(template % tuple(np.array(text.split("\n"), dtype=object)[inverse].tolist()))


def _write_rows(handle, row: str, fields: np.ndarray, index: bool = False) -> None:
    """One ``row`` template per row of ``fields``, one ``%`` per chunk of rows.

    With ``index``, each row starts with its row number, before ``row``.
    """
    for start in range(0, len(fields), CHUNK_ROWS):
        stop = min(start + CHUNK_ROWS, len(fields))
        rows = row.join(map(str, range(start, stop))) + row if index else row * (stop - start)
        _write_chunk(handle, rows, fields[start:stop])


def write_orbit_csv(path, orbit: Orbit) -> None:
    n = len(orbit)
    fields = np.column_stack((orbit.x, orbit.y, orbit.w_norm_sq, orbit.x - orbit.w_norm_sq))
    with open(path, "w", newline="") as handle:
        handle.write("n,x_n,y_n,w_norm_sq,height\n")
        _write_rows(handle, ",%s,%s,%s,%s\n", fields[:n], index=True)


def write_valiron_csv(path, batch: SiegelBatch, sigma: np.ndarray, residuals: np.ndarray) -> None:
    header = ["re_z", "im_z"]
    for j in range(1, batch.w.shape[1] + 1):
        header += [f"re_w{j}", f"im_w{j}"]
    header += ["re_sigma", "im_sigma", "residual"]
    sigma = np.asarray(sigma)
    fields = np.column_stack((
        batch.z.real, batch.z.imag, np.ascontiguousarray(batch.w).view(np.float64),
        sigma.real, sigma.imag, residuals,
    ))
    with open(path, "w", newline="") as handle:
        handle.write(",".join(header) + "\n")
        _write_rows(handle, ",".join(["%s"] * fields.shape[1]) + "\n", fields)


def _limits_chunks(traces: Iterable[tuple]):
    """(template, complex values) of the limit rows, chunk by chunk of whole families.

    A chunk closes once it holds ``CHUNK_ROWS`` rows.  The rows of a sequence
    are one join of the tails ``k,%s,%s`` on the family's quoted label and the
    sequence's row in the block.
    """
    pieces, columns, rows = [], [], 0
    for family, block in traces:
        line = io.StringIO()
        csv.writer(line, lineterminator="\n").writerow([family, ""])
        head = line.getvalue()[:-1].replace("%", "%%")
        tails = [""] + [f"{k},%s,%s\n" for k in range(1, block.shape[1] + 1)]
        pieces += [f"{head}{i},".join(tails) for i in range(len(block))]
        columns.append(block)
        rows += block.size
        if rows >= CHUNK_ROWS:
            yield "".join(pieces), np.concatenate(columns, axis=None, dtype=np.complex128)
            pieces, columns, rows = [], [], 0
    if rows:
        yield "".join(pieces), np.concatenate(columns, axis=None, dtype=np.complex128)


def write_limits_csv(path, traces: Iterable[tuple]) -> None:
    """Traces are (family_label, block), a sequence per block row: one row per value, k from 1."""
    with open(path, "w", newline="") as handle:
        handle.write("family,seq_id,k,re_h,im_h\n")
        for template, values in _limits_chunks(traces):
            _write_chunk(handle, template, values.view(np.float64))


def write_summary(path, lines: Sequence[str]) -> None:
    with open(path, "w", newline="") as handle:
        handle.write("".join(line + "\n" for line in lines))


def read_points_csv(path) -> SiegelBatch:
    """Read a point-list CSV (header re_z, im_z, re_w1, im_w1, ...) into a batch.

    Every line is parsed before any point is checked.
    """
    with open(path, newline="") as handle:
        reader = csv.reader(handle)
        header = next(reader, None)
        if header is None or header[:2] != ["re_z", "im_z"]:
            raise ValueError(f"{path}: expected a header starting re_z, im_z")
        if (len(header) - 2) % 2 != 0:
            raise ValueError(f"{path}: w columns must come in re/im pairs")
        rows = []
        for lineno, row in enumerate(reader, start=2):
            if not row:
                continue
            if len(row) != len(header):
                raise ValueError(f"{path}: line {lineno}: expected {len(header)} fields")
            try:
                rows.append([float(v) for v in row])
            except ValueError as exc:
                raise ValueError(f"{path}: line {lineno}: {exc}") from None
    # (re, im) column pairs read as complex columns
    coords = np.array(rows, dtype=np.float64).reshape(len(rows), len(header)).view(np.complex128)
    return SiegelBatch(coords[:, 0], coords[:, 1:])
