"""Deterministic CSV and summary emission.

All numbers render via %.17g: 17 significant digits, which read back as
the same double but are not its shortest form (0.1 is written
0.10000000000000001).  Newlines are always "\n" and row order follows input
order, so identical inputs give byte-identical files.  A table is written
chunk by chunk, each chunk one ``%`` over a template of its rows, across
trace boundaries in the limit traces; text fields are quoted as
``csv.writer`` quotes them.
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


def _write_rows(handle, templates: Sequence[str], fields: np.ndarray) -> None:
    """``templates[i] % tuple(fields[i])`` for every row i, one ``%`` per chunk of rows."""
    for start in range(0, len(templates), CHUNK_ROWS):
        stop = start + CHUNK_ROWS
        handle.write("".join(templates[start:stop]) % tuple(fields[start:stop].ravel().tolist()))


def write_orbit_csv(path, orbit: Orbit) -> None:
    n = len(orbit)
    fields = np.column_stack((orbit.x, orbit.y, orbit.w_norm_sq, orbit.x - orbit.w_norm_sq))
    with open(path, "w", newline="") as handle:
        handle.write("n,x_n,y_n,w_norm_sq,height\n")
        _write_rows(handle, [f"{i},%.17g,%.17g,%.17g,%.17g\n" for i in range(n)], fields[:n])


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
    row = ",".join(["%.17g"] * fields.shape[1]) + "\n"
    with open(path, "w", newline="") as handle:
        handle.write(",".join(header) + "\n")
        _write_rows(handle, [row] * len(batch), fields)


def write_limits_csv(path, traces: Iterable[tuple]) -> None:
    """Traces are (family_label, seq_id, values); one row per value, k from 1.

    The values of all traces are formatted together, one ``%`` per chunk of
    rows; each row's template starts with its quoted label and sequence fields.
    """
    line = io.StringIO()
    quoted = csv.writer(line, lineterminator="\n")
    heads: dict = {}  # a label or sequence field -> its field as csv.writer quotes it, % escaped
    tails: list = []  # the row template after the heads, for k = 1, 2, ...
    templates, columns = [], [np.empty(0, dtype=np.complex128)]
    for family, seq_id, values in traces:
        seq_id = str(seq_id)
        for text in (family, seq_id):
            if text not in heads:
                line.seek(0)
                line.truncate()
                quoted.writerow([text, ""])
                heads[text] = line.getvalue()[:-1].replace("%", "%%")
        values = np.asarray(values, dtype=np.complex128).ravel()
        if values.size > len(tails):
            tails += [f"{k},%.17g,%.17g\n" for k in range(len(tails) + 1, values.size + 1)]
        prefix = heads[family] + heads[seq_id]
        templates += [prefix + tail for tail in tails[:values.size]]
        columns.append(values)
    with open(path, "w", newline="") as handle:
        handle.write("family,seq_id,k,re_h,im_h\n")
        _write_rows(handle, templates, np.concatenate(columns).view(np.float64).reshape(-1, 2))


def write_summary(path, lines: Sequence[str]) -> None:
    with open(path, "w", newline="") as handle:
        for line in lines:
            handle.write(line + "\n")


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
