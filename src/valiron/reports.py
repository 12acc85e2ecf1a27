"""Deterministic CSV and summary emission.

All numbers render via %.17g (shortest double round-trip), newlines are
always "\n", and row order follows input order, so identical inputs give
byte-identical files.
"""

from __future__ import annotations

import csv
from typing import Iterable, Sequence

import numpy as np

from .dynamics import Orbit
from .geometry import SiegelPoint


def format_float(x: float) -> str:
    return "%.17g" % float(x)


def _point_fields(q: SiegelPoint) -> list:
    row = [format_float(q.z.real), format_float(q.z.imag)]
    for c in q.w:
        row.append(format_float(c.real))
        row.append(format_float(c.imag))
    return row


def _open_writer(path):
    handle = open(path, "w", newline="")
    return handle, csv.writer(handle, lineterminator="\n")


def write_orbit_csv(path, orbit: Orbit) -> None:
    handle, writer = _open_writer(path)
    with handle:
        writer.writerow(["n", "x_n", "y_n", "w_norm_sq", "height"])
        heights = orbit.x - orbit.w_norm_sq
        for n in range(len(orbit)):
            writer.writerow([
                str(n),
                format_float(orbit.x[n]),
                format_float(orbit.y[n]),
                format_float(orbit.w_norm_sq[n]),
                format_float(heights[n]),
            ])


def write_valiron_csv(path, points: Sequence[SiegelPoint], sigma: np.ndarray,
                      residuals: np.ndarray) -> None:
    n_dim = points[0].dim
    header = ["re_z", "im_z"]
    for j in range(1, n_dim):
        header += [f"re_w{j}", f"im_w{j}"]
    header += ["re_sigma", "im_sigma", "residual"]
    handle, writer = _open_writer(path)
    with handle:
        writer.writerow(header)
        for q, s, r in zip(points, sigma, residuals):
            writer.writerow(
                _point_fields(q)
                + [format_float(s.real), format_float(s.imag), format_float(r)]
            )


def write_limits_csv(path, traces: Iterable[tuple]) -> None:
    """Traces are (family_label, seq_id, values); one row per value, k from 1."""
    handle, writer = _open_writer(path)
    with handle:
        writer.writerow(["family", "seq_id", "k", "re_h", "im_h"])
        for family, seq_id, values in traces:
            seq = str(seq_id)
            writer.writerows(
                [family, seq, str(k), format_float(re), format_float(im)]
                for k, (re, im) in enumerate(
                    zip(values.real.tolist(), values.imag.tolist()), start=1
                )
            )


def write_summary(path, lines: Sequence[str]) -> None:
    with open(path, "w", newline="") as handle:
        for line in lines:
            handle.write(line + "\n")


def read_points_csv(path) -> list:
    """Read a point-list CSV (header re_z, im_z, re_w1, im_w1, ...)."""
    with open(path, newline="") as handle:
        reader = csv.reader(handle)
        header = next(reader, None)
        if header is None or header[:2] != ["re_z", "im_z"]:
            raise ValueError(f"{path}: expected a header starting re_z, im_z")
        if (len(header) - 2) % 2 != 0:
            raise ValueError(f"{path}: w columns must come in re/im pairs")
        points = []
        for lineno, row in enumerate(reader, start=2):
            if not row:
                continue
            if len(row) != len(header):
                raise ValueError(f"{path}: line {lineno}: expected {len(header)} fields")
            vals = [float(v) for v in row]
            z = complex(vals[0], vals[1])
            w = [complex(vals[i], vals[i + 1]) for i in range(2, len(vals), 2)]
            points.append(SiegelPoint(z, np.asarray(w, dtype=np.complex128)))
    return points
