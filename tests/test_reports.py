"""The CSV writers emit the bytes of the row-by-row csv.writer code they replace."""

import csv
import io
import math
import os

import numpy as np
import pytest

import oracle as O
from valiron import cli, reports
from valiron.config import parse_config
from valiron.dynamics import compute_orbit
from valiron.geometry import SiegelBatch, SiegelPoint
from valiron.maps import make_siegel_linear
from valiron.reports import format_float, write_limits_csv, write_orbit_csv, write_valiron_csv

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


def _per_trace_limits_csv(handle, traces) -> None:
    """The limits writer that formats one sequence at a time."""
    line = io.StringIO()
    quoted = csv.writer(line, lineterminator="\n")
    handle.write("family,seq_id,k,re_h,im_h\n")
    for family, seq_id, values in O.per_sequence(traces):
        line.seek(0)
        line.truncate()
        quoted.writerow([family, str(seq_id), ""])
        prefix = line.getvalue()[:-1].replace("%", "%%")
        values = np.ascontiguousarray(values, dtype=np.complex128)
        fields = values.view(np.float64).reshape(-1, 2)
        handle.write("".join(f"{prefix}{k},%.17g,%.17g\n" for k in range(1, values.size + 1))
                     % tuple(fields.ravel().tolist()))


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


@pytest.mark.parametrize("rows", [1, 2, 5, 7, reports.CHUNK_ROWS])
def test_limits_csv_is_written_as_by_the_per_trace_writer(tmp_path, monkeypatch, rows):
    """Chunks of ``rows`` rows: boundaries fall inside families and between them."""
    monkeypatch.setattr(reports, "CHUNK_ROWS", rows)
    rng = np.random.default_rng(rows)
    odd = np.array([complex(a, b) for a, b in zip(ODD, ODD[::-1])])
    cases = {
        "no traces": [],
        "empty traces": [("koranyi(M=2)", odd[:0].reshape(0, 7)), ("radial", np.zeros((1, 0)))],
        "one trace": [("zero-special(C=0;T=0)", odd[None, :])],
        "labels": [
            ("c-special(C=0,5;T=1)", odd[None, :3]), ('say "limit"', odd[None, 3:4]),
            ('%s, %%d and "%.17g"', odd[:0].reshape(1, 0)), ("%", odd[None, 4:11]),
            ("", odd[:2, None]), ("part1:koranyi(M=1.5)", np.array([[1.5, -0.0, 1e300]])),
        ],
        "many": [(f"koranyi(M={m:g})", rng.normal(size=tuple(rng.integers(0, 9, 2)))
                  * 10.0 ** rng.integers(-30, 30) + 1j * rng.normal())
                 for m in (1.5, 2.0, 4.0) for _ in range(3)],
    }
    for name, traces in cases.items():
        path = tmp_path / "limits.csv"
        write_limits_csv(path, iter(traces))
        want = io.StringIO()
        _per_trace_limits_csv(want, traces)
        assert _read(path) == want.getvalue(), name


# -- each distinct double formatted once per chunk, told apart by its bits ------------

_BITS = np.array([0x7FF8000000000000, 0xFFF8000000000000, 0x7FF8000000000123], dtype=np.uint64)
# -0.0 next to 0.0; NaNs of both signs and one with a payload; +-inf and the least subnormal
REPEATED = np.concatenate(([-0.0, 0.0], _BITS.view(np.float64),
                           [math.inf, -math.inf, 5e-324, -5e-324, 0.0, -0.0, 0.1, 2.0]))


def _repeating(rng, n: int) -> np.ndarray:
    """``n`` values drawn from REPEATED, after one pass over it in order."""
    return np.concatenate((REPEATED, rng.choice(REPEATED, n)))[:n]


def _complex(re: np.ndarray, im: np.ndarray) -> np.ndarray:
    """re + i im with the bits of both parts kept, where re + 1j * im would not keep them."""
    return np.column_stack((re, im)).view(np.complex128).ravel()


@pytest.mark.parametrize("rows", [1, 3, reports.CHUNK_ROWS])
def test_repeated_values_print_by_their_bits(tmp_path, monkeypatch, rows):
    """Every writer against its reference, on columns that repeat each odd value many
    times, across chunk boundaries and, in the limit traces, across sequence and family
    boundaries."""
    monkeypatch.setattr(reports, "CHUNK_ROWS", rows)
    rng = np.random.default_rng(rows)

    x = _repeating(rng, 40)
    orbit = _Columns(x, _repeating(rng, 40), _repeating(rng, 40))
    with np.errstate(invalid="ignore"):
        write_orbit_csv(tmp_path / "orbit.csv", orbit)
        assert _read(tmp_path / "orbit.csv") == _reference_orbit_csv(orbit)

    # the points repeat too: a point and its copy with -0.0 for 0.0
    points = [SiegelPoint(complex(2.0, y), [complex(0.5, y)]) for y in (0.0, -0.0) * 8]
    sigma = _complex(_repeating(rng, 16), _repeating(rng, 16))
    residuals = _repeating(rng, 16)
    write_valiron_csv(tmp_path / "valiron.csv", SiegelBatch.from_points(points), sigma, residuals)
    assert _read(tmp_path / "valiron.csv") == _reference_valiron_csv(points, sigma, residuals)

    traces = []
    for i in range(6):
        n, rungs = (int(k) for k in rng.integers(0, 6, 2))
        values = _complex(_repeating(rng, n * rungs), _repeating(rng, n * rungs)[::-1])
        traces.append(("koranyi(M=2)" if i % 2 else "radial", values.reshape(n, rungs)))
    write_limits_csv(tmp_path / "limits.csv", traces)
    want = io.StringIO()
    _per_trace_limits_csv(want, traces)
    assert _read(tmp_path / "limits.csv") == want.getvalue()


@pytest.mark.parametrize("body", [
    "map = valiron_example\nA = 2\npsi = oscillating\n",
    "map = halfplane_affine\nlambda = 2\nb = 1\nN = 2\nconjugate = scale(4); translate(1)\n",
], ids=["valiron_example oscillating", "conjugated affine"])
def test_report_all_traces_and_orbit_are_written_as_by_the_reference(tmp_path, monkeypatch,
                                                                     body):
    """The limit traces and the orbit of a real report-all run, fed to the writers and to
    their references alike."""
    written: dict = {}

    def limits(path, traces):
        traces = list(traces)
        want = io.StringIO()
        _per_trace_limits_csv(want, traces)
        written[path] = want.getvalue()
        write_limits_csv(path, traces)

    def orbit(path, orb):
        written[path] = _reference_orbit_csv(orb)
        write_orbit_csv(path, orb)

    monkeypatch.setattr(cli, "write_limits_csv", limits)
    monkeypatch.setattr(cli, "write_orbit_csv", orbit)
    cfg = parse_config(f"command = report-all\n{body}seed = 11\n")
    cli.run_command(cfg, out_dir=str(tmp_path))
    assert sorted(os.path.basename(p) for p in written) == ["jwc.csv", "limits.csv", "orbit.csv"]
    for path, want in written.items():
        assert _read(path) == want, path
