"""The CSV writers emit the bytes of the row-by-row csv.writer code they replace."""

import csv
import io
import math

import numpy as np
import pytest

from valiron import reports
from valiron.dynamics import compute_orbit
from valiron.geometry import SiegelBatch, SiegelPoint
from valiron.maps import make_siegel_linear
from valiron.reports import format_float, write_orbit_csv, write_valiron_csv

ODD = [-0.0, 0.0, 1e-310, 5e-324, -1e308, 1.7976931348623157e308, math.inf, -math.inf,
       math.nan, 0.1, 1.0 / 3.0, 2.0 + 1e-15, 123456789.0]


# -- the row-by-row writers, kept as the reference --------------------------------


def _reference_orbit_csv(orbit) -> str:
    out = io.StringIO()
    writer = csv.writer(out, lineterminator="\n")
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
    return out.getvalue()


def _reference_valiron_csv(points, sigma, residuals) -> str:
    n_dim = points[0].dim
    header = ["re_z", "im_z"]
    for j in range(1, n_dim):
        header += [f"re_w{j}", f"im_w{j}"]
    header += ["re_sigma", "im_sigma", "residual"]
    out = io.StringIO()
    writer = csv.writer(out, lineterminator="\n")
    writer.writerow(header)
    for q, s, r in zip(points, sigma, residuals):
        row = [format_float(q.z.real), format_float(q.z.imag)]
        for c in q.w:
            row += [format_float(c.real), format_float(c.imag)]
        writer.writerow(row + [format_float(s.real), format_float(s.imag), format_float(r)])
    return out.getvalue()


def _read(path) -> str:
    with open(path, newline="") as handle:
        return handle.read()


@pytest.fixture(params=[3, reports.CHUNK_ROWS], ids=["chunks of 3", "default chunks"])
def chunk_rows(request, monkeypatch):
    monkeypatch.setattr(reports, "CHUNK_ROWS", request.param)
    return request.param


class _Columns:
    """The columns that write_orbit_csv reads from an Orbit, holding any values."""

    def __init__(self, x, y, w_norm_sq):
        self.x, self.y, self.w_norm_sq = x, y, w_norm_sq

    def __len__(self) -> int:
        return len(self.x)


def test_orbit_csv_is_written_as_before(tmp_path, chunk_rows):
    rng = np.random.default_rng(11)
    orbits = [compute_orbit(make_siegel_linear(3.0, 2), SiegelPoint(1.0 + 0.5j, [0.3j]), 40)]
    x = np.array(ODD + list(rng.normal(size=7) * 10.0 ** rng.integers(-20, 20, 7)))
    # odd values, beyond what the points of an orbit hold
    orbits.append(_Columns(x, x[::-1].copy(), np.roll(x, 3)))
    for i, orbit in enumerate(orbits):
        path = tmp_path / f"orbit{i}.csv"
        with np.errstate(invalid="ignore"):
            write_orbit_csv(path, orbit)
            assert _read(path) == _reference_orbit_csv(orbit), i


@pytest.mark.parametrize("n_dim", [1, 2, 3])
def test_valiron_csv_is_written_as_before(tmp_path, chunk_rows, n_dim):
    rng = np.random.default_rng(n_dim)
    points = []
    for k in range(8):
        w = (rng.normal(size=n_dim - 1) + 1j * rng.normal(size=n_dim - 1)) * 0.5
        x = float(np.vdot(w, w).real) + 10.0 ** rng.uniform(-3, 3)
        points.append(SiegelPoint(complex(x, rng.normal() * 10.0 ** k), w))
    sigma = np.array([complex(a, b) for a, b in zip(ODD[:8], ODD[5:])])
    residuals = np.array(ODD[-8:])
    path = tmp_path / "valiron.csv"
    write_valiron_csv(path, SiegelBatch.from_points(points), sigma, residuals)
    assert _read(path) == _reference_valiron_csv(points, sigma, residuals)
