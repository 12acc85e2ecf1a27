"""Config parsing, CSV round-trips, and the command line end to end."""

import contextlib
import csv
import io
import math
import os
import tempfile
import warnings
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import oracle as O
from valiron import cli, dynamics
from valiron.cli import build_grid, build_map, main, run_command
from valiron.config import (
    ConfigError,
    ExperimentConfig,
    _parse_vector,
    _parse_vectors,
    parse_config,
)
from valiron.dynamics import compute_orbit
from valiron.geometry import (
    DomainError,
    LinearProjectionAtInfinity,
    SiegelAutomorphism,
    SiegelPoint,
)
from valiron.limits import e0_limit, e_limit, first_coordinate_ratio_fn, jwc_check, k_limit
from valiron.maps import (
    PsiChoice,
    make_ball_map_from_siegel,
    make_halfplane_affine,
    make_siegel_linear,
    make_siegel_map_from_ball,
    make_valiron_example,
)
from valiron.renorm import DegenerateGridError, EvaluationGrid
from valiron.reports import format_float, read_points_csv, write_orbit_csv

VALIRON_CONFIG = """\
command = valiron
map = valiron_example
A = 2
psi = constant(0.5)
grid_z = 2, 4+1j
grid_w = 0.5; 0.25+0.25j
"""


class TestConfig:
    def test_parse_minimal(self):
        cfg = parse_config(VALIRON_CONFIG)
        assert cfg.command == "valiron"
        assert cfg.map_name == "valiron_example"
        assert cfg.a_mult == 2.0
        assert cfg.psi == PsiChoice("constant", 0.5)
        assert cfg.grid_z == (2, 4 + 1j) and cfg.grid_w == ((0.5,), (0.25 + 0.25j,))

    def test_comments_and_blanks_are_skipped(self):
        cfg = parse_config(
            "# header\n\ncommand = catalog_is_not_a_command\n".replace(
                "catalog_is_not_a_command", "orbit"
            )
            + "map = siegel_linear  # inline comment\nlambda = 2\nN = 2\n"
        )
        assert cfg.command == "orbit" and cfg.lam == 2.0

    def test_multiplier_below_one_rejected_with_line_number(self):
        bad = "command = valiron\nmap = valiron_example\nA = 0.5\npsi = constant(0.5)\n"
        with pytest.raises(ConfigError) as err:
            parse_config(bad)
        msg = str(err.value)
        assert "line 3" in msg and "hyperbolicity requires a multiplier > 1" in msg

    def test_negative_seed_rejected_with_line_number(self):
        with pytest.raises(ConfigError) as err:
            parse_config("command = limits\nmap = siegel_linear\nlambda = 2\nN = 2\nseed = -1\n")
        assert str(err.value) == "line 5: seed must be >= 0"

    def test_lambda_equal_one_rejected(self):
        bad = "command = orbit\nmap = siegel_linear\nlambda = 1.0\nN = 2\n"
        with pytest.raises(ConfigError, match="hyperbolicity"):
            parse_config(bad)

    def test_duplicate_key_reports_both_lines(self):
        bad = "command = orbit\nmap = siegel_linear\nlambda = 2\nlambda = 3\nN = 2\n"
        with pytest.raises(ConfigError) as err:
            parse_config(bad)
        msg = str(err.value)
        assert "line 4" in msg and "line 3" in msg and "duplicate" in msg

    def test_unknown_key_reports_its_line(self):
        with pytest.raises(ConfigError, match="line 2: unknown key 'lamda'"):
            parse_config("command = orbit\nlamda = 2\n")
        with pytest.raises(ConfigError, match="line 2: unknown key 'format'"):
            parse_config("command = orbit\nformat = csv\n")

    def test_missing_command(self):
        with pytest.raises(ConfigError, match="command"):
            parse_config("map = siegel_linear\nlambda = 2\nN = 2\n")

    def test_map_specific_requirements(self):
        with pytest.raises(ConfigError, match="siegel_linear needs"):
            parse_config("command = orbit\nmap = siegel_linear\nlambda = 2\n")
        with pytest.raises(ConfigError, match="halfplane_affine needs"):
            parse_config("command = orbit\nmap = halfplane_affine\nlambda = 2\nN = 1\n")

    def test_non_classify_commands_need_a_map(self):
        with pytest.raises(ConfigError, match="needs a map"):
            parse_config("command = valiron\n")

    def test_build_map_with_conjugation(self):
        cfg = parse_config(
            "command = orbit\nmap = siegel_linear\nlambda = 2\nN = 2\n"
            "conjugate = scale(4); translate(1)\n"
        )
        m = build_map(cfg)
        assert m.multiplier == 2.0
        q = m(SiegelPoint(3.0, np.array([1.0 + 0j])))
        direct = make_siegel_linear(2.0, 2)
        assert q.z != direct(SiegelPoint(3.0, np.array([1.0 + 0j]))).z


AFFINE = "command = report-all\nmap = halfplane_affine\nlambda = 2\nb = 1\nN = 2\n"
EXAMPLE = "command = valiron\nmap = valiron_example\nA = 2\n"


@pytest.mark.parametrize("text, message", [
    # malformed values of each parsed key
    (EXAMPLE + "psi = bogus\n",
     "line 4: psi must be constant(<value>), cayley or oscillating, got 'bogus'"),
    (EXAMPLE + "psi = constant(1+)\n", "line 4: cannot parse complex number from '1+'"),
    (EXAMPLE + "psi = constant(2)\n", "line 4: constant psi needs |param| < 1"),
    (AFFINE + "conjugate = scale(x)\n", "line 6: scale takes one or two real arguments"),
    (AFFINE + "conjugate = scale(1, 2, 3)\n", "line 6: scale takes one or two real arguments"),
    (AFFINE + "conjugate = shear(1)\n",
     "line 6: conjugate items must be scale(x[,y]) or translate(a1,...), got 'shear(1)'"),
    (AFFINE + "conjugate = ;\n", "line 6: empty conjugate chain"),
    (AFFINE + "conjugate = scale(0)\n", "line 6: scale-translate requires x > 0"),
    (AFFINE + "conjugate = translate(1); translate(1, 2)\n",
     "line 6: translation vector dimension mismatch"),
    (AFFINE + "start = 1+, 0\n", "line 6: cannot parse complex number from '1+'"),
    (AFFINE + "start = , 0\n", "line 6: cannot parse complex number from ''"),
    (AFFINE + "start = 0.5, 1\n",
     "line 6: not strictly inside the Siegel domain: Re z - ||w||^2 = -0.5"),
    (AFFINE + "start = nan, 0\n", "line 6: non-finite coordinates"),
    (AFFINE + "grid_z = 2, x\n", "line 6: cannot parse complex number from ' x'"),
    (AFFINE + "grid_w = 0.1; 0.2j+\n", "line 6: cannot parse complex number from '0.2j+'"),
    (AFFINE + "a = 1j, \n", "line 6: cannot parse complex number from ''"),
    (AFFINE + "a = nan\n", "line 6: non-finite projection direction a"),
    (AFFINE + "a = 1e999j\n", "line 6: non-finite projection direction a"),
    # values of another dimension than the map's
    (AFFINE + "start = 2, 0.1, 0.1\n", "line 6: start must have 2 entries for an N = 2 map, got 3"),
    ("command = orbit\nstart = 2\nmap = siegel_linear\nlambda = 2\nN = 3\n",
     "line 2: start must have 3 entries for an N = 3 map, got 1"),
    (AFFINE + "grid_z = 2\ngrid_w = 0.1; 0.1, 0.2\n",
     "line 7: grid_w vectors must have 1 entries for an N = 2 map, got 2"),
    (AFFINE + "a = 1, 2\n", "line 6: a must have 1 entries for an N = 2 map, got 2"),
    (AFFINE + "conjugate = scale(4); translate(1, 2)\n",
     "line 6: conjugate translations must have 1 entries for an N = 2 map, got 2"),
    (EXAMPLE + "psi = cayley\na = 1, 2\n", "line 5: a must have 1 entries for an N = 2 map, got 2"),
    (EXAMPLE + "psi = cayley\nN = 3\n", "line 5: valiron_example has dimension 2, got N = 3"),
])
def test_a_bad_value_is_a_config_error_on_its_line(text, message):
    with pytest.raises(ConfigError) as err:
        parse_config(text)
    assert str(err.value) == message


def test_values_are_typed_once():
    """Signed zeros survive; an empty start, chain, points or out leaves the key unset."""
    cfg = parse_config(AFFINE + "start = 1-0j, -0\nconjugate = scale(4); translate(1)\n"
                                "a = 0.5\ngrid_z = 2, -0\n")
    assert cfg.start == SiegelPoint(1.0, [0.0])
    assert np.signbit([cfg.start.z.imag, cfg.start.w[0].real]).all()
    assert cfg.conjugate == SiegelAutomorphism.composite(
        [SiegelAutomorphism.scale(4.0), SiegelAutomorphism.translate([1.0])])
    assert cfg.a == (0.5,) and np.signbit(cfg.grid_z[1].real)
    empty = parse_config(AFFINE + "start =\nconjugate =\npoints =\nout =\n")
    assert (empty.start, empty.conjugate, empty.points, empty.out) == (None,) * 4
    with pytest.raises(ConfigError, match="classify needs either a map"):
        parse_config("command = classify\npoints =\n")


def _outcome(fn, *args):
    """The value of fn(*args), or the type and message of what it raised."""
    try:
        return fn(*args)
    except (DomainError, DegenerateGridError) as exc:
        return type(exc), str(exc)


@pytest.mark.parametrize("n_dim, grid_z, grid_w", [
    (2, "1, 2+1j, 3-0.5j, 5", "0.1; 0.2j; -0.3"),
    (2, "1, 2+1j, 3-0.5j, 5", None),
    (1, "1, 2, 3+1j", None),
    (3, "1, 2, 3+1j", "0.1, 0.2; 0, 0.3j"),
    (2, ", ".join(f"{1 + k * 0.37}+{k * 0.11}j" for k in range(15)), "0.1; 0.2j; -0.3"),
    # outside the domain, low, duplicate, empty and non-finite grids
    (2, "1, 0.3, 2, 0.2", "0.1; 0.9"),
    (2, ", ".join(["3"] * 9 + ["-1", "0.5"]), "0.1; 0.2j"),
    (3, "1, 2, 3+1j", "0.1, 0.2; 0, 0.99"),
    (2, "2, 2+0j, 2-0j", None),
    (2, "", None),
    (2, "1, nan, -1", None),
    (2, "1, 2", "inf; 0.1"),
])
def test_grid_rows_and_errors_are_the_point_by_point_ones(n_dim, grid_z, grid_w):
    """build_grid checks one batch; its rows, and its errors, are those of the
    grid of points z x w, made and checked one at a time."""
    cfg = ExperimentConfig(command="valiron", grid_z=_parse_vector(grid_z),
                           grid_w=None if grid_w is None else _parse_vectors(grid_w))
    ws = [np.zeros(n_dim - 1)] if grid_w is None else cfg.grid_w

    def by_points():
        return EvaluationGrid([SiegelPoint(z, w) for z in cfg.grid_z for w in ws])

    want, got = _outcome(by_points), _outcome(build_grid, cfg, n_dim)
    if isinstance(want, tuple):
        assert got == want
    else:
        assert got.points.z.tobytes() == want.points.z.tobytes()
        assert got.points.w.tobytes() == want.points.w.tobytes()


class TestPointsCsv:
    def test_round_trip(self, tmp_path):
        pts = [
            SiegelPoint(2.0 + 1.0j, np.array([0.5 + 0.25j])),
            SiegelPoint(5.0, np.array([-0.5j])),
        ]
        path = tmp_path / "pts.csv"
        with open(path, "w", newline="") as handle:
            writer = csv.writer(handle, lineterminator="\n")
            writer.writerow(["re_z", "im_z", "re_w1", "im_w1"])
            for q in pts:
                writer.writerow([
                    format_float(q.z.real), format_float(q.z.imag),
                    format_float(q.w[0].real), format_float(q.w[0].imag),
                ])
        back = read_points_csv(str(path))
        for a, b in zip(pts, back):
            assert a.z == b.z and np.all(a.w == b.w)

    def test_bad_header_rejected(self, tmp_path):
        path = tmp_path / "pts.csv"
        path.write_text("x,y\n1,2\n")
        with pytest.raises(ValueError, match="re_z"):
            read_points_csv(str(path))


def _run(tmp_path, text, *extra):
    cfg_path = tmp_path / "exp.cfg"
    cfg_path.write_text(text)
    return main(["run", str(cfg_path), "--out", str(tmp_path), *extra])


def _csv_rows(path):
    with open(path, newline="") as handle:
        return list(csv.reader(handle))[1:]


def _trace_rows(traces, prefix=""):
    return [
        [prefix + label, str(si), str(k), format_float(v.real), format_float(v.imag)]
        for label, si, values in O.per_sequence(traces)
        for k, v in enumerate(values, start=1)
    ]


class TestCli:
    def test_catalog_lists_builtin_maps(self, capsys):
        assert main(["catalog"]) == 0
        out = capsys.readouterr().out
        assert out.count("\n") == 8
        assert "valiron_example(2,constant(0.5)): domain=siegel N=2 multiplier=2" in out
        assert "siegel_linear(1.5,1)" in out

    def test_valiron_run_exits_clean(self, tmp_path, capsys):
        assert _run(tmp_path, VALIRON_CONFIG) == 0
        out = capsys.readouterr().out
        assert f"wrote {tmp_path / 'valiron.csv'}" in out
        summary = (tmp_path / "summary.txt").read_text()
        assert "lambda = 2 " in summary
        assert "converged = true" in summary
        assert "outside_hypotheses = false" in summary
        with open(tmp_path / "valiron.csv", newline="") as handle:
            rows = list(csv.reader(handle))
        assert rows[0] == [
            "re_z", "im_z", "re_w1", "im_w1", "re_sigma", "im_sigma", "residual",
        ]
        assert len(rows) == 1 + 4  # 2 z values x 2 w vectors

    def test_outside_hypotheses_exits_two(self, tmp_path, capsys):
        code = _run(
            tmp_path,
            VALIRON_CONFIG.replace(
                "grid_z = 2, 4+1j\n", "conjugate = translate(1)\ngrid_z = 2, 4+1j\n"
            ),
        )
        assert code == 2
        captured = capsys.readouterr()
        assert "outside hypotheses" in captured.err
        summary = (tmp_path / "summary.txt").read_text()
        assert "outside_hypotheses = true" in summary
        assert "warning:" in summary

    def test_config_error_exits_one(self, tmp_path, capsys):
        code = _run(tmp_path, VALIRON_CONFIG.replace("A = 2", "A = 0.5"))
        assert code == 1
        err = capsys.readouterr().err
        assert "error:" in err and "hyperbolicity" in err

    @pytest.mark.parametrize("chain, message", [
        ("scale(1, nan)", "non-finite automorphism parameters"),
        ("scale(inf)", "non-finite automorphism parameters"),
        ("scale(1e200); scale(1e200)", "non-finite automorphism parameters"),
        ("scale(0)", "scale-translate requires x > 0"),
    ])
    def test_a_bad_conjugation_is_rejected_when_built(self, tmp_path, capsys, chain, message):
        code = _run(tmp_path, VALIRON_CONFIG + f"conjugate = {chain}\n")
        assert code == 1
        assert capsys.readouterr().err == f"error: line 7: {message}\n"
        assert not (tmp_path / "valiron.csv").exists()

    def test_missing_config_file_exits_one(self, tmp_path, capsys):
        assert main(["run", str(tmp_path / "absent.cfg")]) == 1
        assert "cannot read config" in capsys.readouterr().err

    def test_unwritable_output_directory_exits_one(self, tmp_path, capsys):
        """An output path under a regular file is an error line, not a traceback."""
        blocker = tmp_path / "a_file"
        blocker.write_text("")
        cfg_path = tmp_path / "exp.cfg"
        cfg_path.write_text(VALIRON_CONFIG)
        assert main(["run", str(cfg_path), "--out", str(blocker / "out")]) == 1
        captured = capsys.readouterr()
        assert captured.err.startswith("error: cannot write output: ")
        assert str(blocker / "out") in captured.err
        assert captured.out == ""

    def test_missing_points_file_exits_one(self, tmp_path, capsys):
        code = _run(tmp_path, f"command = classify\npoints = {tmp_path / 'absent.csv'}\n")
        assert code == 1
        assert capsys.readouterr().err.startswith("error: cannot read points: ")

    def test_a_points_field_that_is_no_number_names_its_file_and_line(self, tmp_path, capsys):
        path = tmp_path / "pts.csv"
        path.write_text("re_z,im_z,re_w1,im_w1\n2,0,0.1,0\n3,x,0.1,0\n")
        code = _run(tmp_path, f"command = classify\npoints = {path}\n")
        assert code == 1
        assert capsys.readouterr().err == (
            f"error: {path}: line 3: could not convert string to float: 'x'\n")
        assert not (tmp_path / "orbit.csv").exists()

    @pytest.mark.parametrize("body", ["", "2,0,0.1,0\n"], ids=["empty body", "one row"])
    def test_too_few_points_to_classify_write_no_file(self, tmp_path, capsys, body):
        path = tmp_path / "pts.csv"
        path.write_text("re_z,im_z,re_w1,im_w1\n" + body)
        code = _run(tmp_path, f"command = classify\npoints = {path}\n")
        assert code == 1
        assert capsys.readouterr().err == "error: need at least 2 points to classify\n"
        assert not (tmp_path / "orbit.csv").exists()
        assert not (tmp_path / "summary.txt").exists()

    def test_orbit_command_writes_estimates(self, tmp_path):
        code = _run(
            tmp_path,
            "command = orbit\nmap = halfplane_affine\nlambda = 2\nb = 1\nN = 1\n"
            "start = 1\nn_max = 80\n",
        )
        assert code == 0
        summary = (tmp_path / "summary.txt").read_text()
        assert "lambda = 2 " in summary
        assert "L = 1 " in summary or "L = 0.99999" in summary
        with open(tmp_path / "orbit.csv", newline="") as handle:
            rows = list(csv.reader(handle))
        assert rows[0] == ["n", "x_n", "y_n", "w_norm_sq", "height"]
        assert len(rows) == 82  # header + orbit including the start

    @pytest.mark.parametrize("command", ["classify", "orbit"])
    def test_orbit_past_the_squared_distance_overflow(self, tmp_path, command):
        # lambda = 10 takes the orbit past Re z ~ 6.7e153, where the squared
        # modulus in the Kobayashi distance overflows
        code = _run(tmp_path, f"command = {command}\nmap = siegel_linear\nlambda = 10\nN = 2\n")
        assert code == 0
        assert "classification.special = true" in (tmp_path / "summary.txt").read_text()

    @pytest.mark.parametrize("command, map_lines, lines", [
        ("orbit", "map = halfplane_affine\nlambda = 1e200\nb = 1\n",
         ["points = 2", "cutoff = scale overflow at step 1"]),
        ("classify", "map = siegel_linear\nlambda = 1e10\n",
         ["points = 31", "classification.special = true"]),
    ])
    def test_an_orbit_past_the_double_range_stops_at_a_cutoff(self, tmp_path, command, map_lines,
                                                               lines):
        code = _run(tmp_path, f"command = {command}\n{map_lines}N = 2\n")
        assert code == 0
        summary = (tmp_path / "summary.txt").read_text().splitlines()
        assert all(line in summary for line in lines)

    def test_classify_from_points_file(self, tmp_path):
        orbit = compute_orbit(
            make_siegel_linear(2.0, 2), SiegelPoint(1.0 + 0.5j, np.array([0.3 + 0j])), 60
        )
        pts_path = tmp_path / "orbit_points.csv"
        with open(pts_path, "w", newline="") as handle:
            writer = csv.writer(handle, lineterminator="\n")
            writer.writerow(["re_z", "im_z", "re_w1", "im_w1"])
            for q in orbit.points:
                writer.writerow([
                    format_float(q.z.real), format_float(q.z.imag),
                    format_float(q.w[0].real), format_float(q.w[0].imag),
                ])
        code = _run(tmp_path, f"command = classify\npoints = {pts_path}\n")
        assert code == 0
        summary = (tmp_path / "summary.txt").read_text()
        assert "classification.c_special = 0.309" in summary
        assert "classification.restricted = true (T = 0.5)" in summary
        assert "source = points file" in summary

    def test_limits_command_verdicts(self, tmp_path):
        code = _run(
            tmp_path,
            "command = limits\nmap = siegel_linear\nlambda = 3\nN = 2\nladder_max = 5\n",
        )
        assert code == 0
        summary = (tmp_path / "summary.txt").read_text()
        assert "K-limit: limit-exists value = 3 " in summary
        assert "E0-limit: limit-exists" in summary
        with open(tmp_path / "limits.csv", newline="") as handle:
            rows = list(csv.reader(handle))
        assert rows[0] == ["family", "seq_id", "k", "re_h", "im_h"]
        families = {row[0] for row in rows[1:]}
        assert any(f.startswith("koranyi(") for f in families)
        assert any(f.startswith("c-special(") for f in families)

    def test_limits_csv_holds_the_verdict_traces(self, tmp_path):
        code = _run(
            tmp_path,
            "command = limits\nmap = valiron_example\nA = 2\npsi = oscillating\n"
            "ladder_max = 5\nseed = 4\n",
        )
        assert code == 0
        h = first_coordinate_ratio_fn(make_valiron_example(2.0, PsiChoice("oscillating")))
        ladder = tuple(10.0 ** k for k in range(1, 6))
        expect = []
        for sweep, extra in ((k_limit, 2), (e_limit, 1), (e0_limit, 1)):
            expect += _trace_rows(sweep(h, 2, ladder=ladder, extra=extra, seed=4).traces)
        assert _csv_rows(tmp_path / "limits.csv") == expect

    def test_jwc_csv_holds_the_check_traces(self, tmp_path):
        code = _run(
            tmp_path,
            "command = jwc\nmap = halfplane_affine\nlambda = 2\nb = 1\nN = 2\n"
            "a = 0.5\nladder_max = 6\nseed = 3\n",
        )
        assert code == 0
        rho = LinearProjectionAtInfinity(np.array([0.5 + 0j]))
        ladder = tuple(10.0 ** k for k in range(1, 7))
        report = jwc_check(make_halfplane_affine(2.0, 1.0, 2), rho, ladder=ladder)
        expect = _trace_rows(report.part1.traces, "part1:")
        expect += _trace_rows(report.part2.traces, "part2:")
        assert _csv_rows(tmp_path / "jwc.csv") == expect

    def test_jwc_command(self, tmp_path):
        code = _run(
            tmp_path,
            "command = jwc\nmap = halfplane_affine\nlambda = 2\nb = 1\nN = 2\n"
            "a = 0.5\nladder_max = 6\n",
        )
        assert code == 0
        summary = (tmp_path / "summary.txt").read_text()
        assert "jwc_passed = true" in summary

    def test_report_all_writes_everything(self, tmp_path):
        code = _run(
            tmp_path,
            "command = report-all\nmap = siegel_linear\nlambda = 2\nN = 2\n"
            "ladder_max = 4\nn_max = 60\n",
        )
        assert code == 0
        for name in ("valiron.csv", "limits.csv", "jwc.csv", "orbit.csv", "summary.txt"):
            assert (tmp_path / name).exists(), name

    def test_an_unavailable_diagnostic_does_not_fail_the_run(self, tmp_path, monkeypatch, capsys):
        """The twin-less Cayley transport converges, but sigma_at's replay of the
        real ray reaches the Cayley pole: the diagnostic says so in one line."""
        ball = replace(make_ball_map_from_siegel(make_halfplane_affine(2.0, 1.0, 2)), twin=None)
        monkeypatch.setattr(cli, "build_map", lambda cfg: make_siegel_map_from_ball(ball))
        code = _run(tmp_path, "command = report-all\nmap = halfplane_affine\nlambda = 2\nb = 1\n"
                              "N = 2\nn_max = 34\n")
        assert code == 0 and capsys.readouterr().err == ""
        for name in ("valiron.csv", "limits.csv", "jwc.csv", "orbit.csv", "summary.txt"):
            assert (tmp_path / name).exists(), name
        summary = (tmp_path / "summary.txt").read_text().splitlines()
        assert "arg sigma unavailable: Cayley transform undefined at zeta_1 = 1" in summary
        assert not any(line.startswith("arg sigma along") for line in summary)

    def test_env_var_sets_default_output_dir(self, tmp_path, monkeypatch, capsys):
        env_dir = tmp_path / "from_env"
        monkeypatch.setenv("VALIRON_OUT", str(env_dir))
        cfg_path = tmp_path / "exp.cfg"
        cfg_path.write_text(VALIRON_CONFIG)
        assert main(["run", str(cfg_path)]) == 0
        capsys.readouterr()
        assert (env_dir / "valiron.csv").exists()

    def test_out_flag_beats_env_var(self, tmp_path, monkeypatch, capsys):
        monkeypatch.setenv("VALIRON_OUT", str(tmp_path / "ignored"))
        assert _run(tmp_path, VALIRON_CONFIG) == 0
        capsys.readouterr()
        assert (tmp_path / "valiron.csv").exists()
        assert not (tmp_path / "ignored").exists()

    def test_config_out_key_is_used(self, tmp_path, capsys):
        target = tmp_path / "cfg_out"
        cfg = parse_config(VALIRON_CONFIG)
        code = run_command(
            ExperimentConfig(**{**cfg.__dict__, "out": str(target)})
        )
        assert code == 0
        capsys.readouterr()
        assert (target / "valiron.csv").exists()

    def test_same_seed_same_bytes(self, tmp_path, capsys):
        """Repeated runs of a seeded experiment emit identical files."""
        text = (
            "command = limits\nmap = siegel_linear\nlambda = 2\nN = 2\n"
            "ladder_max = 4\nseed = 7\n"
        )
        out_a = tmp_path / "a"
        out_b = tmp_path / "b"
        cfg_path = tmp_path / "exp.cfg"
        cfg_path.write_text(text)
        assert main(["run", str(cfg_path), "--out", str(out_a)]) == 0
        assert main(["run", str(cfg_path), "--out", str(out_b)]) == 0
        capsys.readouterr()
        assert (out_a / "limits.csv").read_bytes() == (out_b / "limits.csv").read_bytes()
        assert (out_a / "summary.txt").read_bytes() == (out_b / "summary.txt").read_bytes()

    def test_seed_changes_drawn_sequences(self, tmp_path, capsys):
        text = (
            "command = limits\nmap = siegel_linear\nlambda = 2\nN = 2\nladder_max = 4\n"
        )
        out_a = tmp_path / "a"
        out_b = tmp_path / "b"
        cfg_path = tmp_path / "exp.cfg"
        cfg_path.write_text(text)
        assert main(["run", str(cfg_path), "--out", str(out_a), "--seed", "1"]) == 0
        assert main(["run", str(cfg_path), "--out", str(out_b), "--seed", "2"]) == 0
        capsys.readouterr()
        assert (out_a / "limits.csv").read_bytes() != (out_b / "limits.csv").read_bytes()

    def test_a_negative_seed_exits_one_before_any_output(self, tmp_path, capsys):
        """In the config, the error names its line; as ``--seed``, it comes before any sweep."""
        text = "command = report-all\nmap = halfplane_affine\nlambda = 2\nb = 1\nN = 2\n"
        assert _run(tmp_path, text + "seed = -1\n") == 1
        assert capsys.readouterr() == ("", "error: line 6: seed must be >= 0\n")
        assert main(["run", str(tmp_path / "exp.cfg"), "--out", str(tmp_path / "out"),
                     "--seed", "-1"]) == 1
        assert capsys.readouterr() == ("", "error: line 6: seed must be >= 0\n")
        assert _run(tmp_path, text, "--seed", "-1") == 1
        assert capsys.readouterr() == ("", "error: --seed must be >= 0, got -1\n")
        assert sorted(p.name for p in tmp_path.iterdir()) == ["exp.cfg"]

    @pytest.mark.parametrize("line, message", [
        ("start = 1+, 0", "cannot parse complex number from '1+'"),
        ("start = 0.5, 1", "not strictly inside the Siegel domain: Re z - ||w||^2 = -0.5"),
        ("a = 1, 2", "a must have 1 entries for an N = 2 map, got 2"),
    ])
    def test_a_bad_value_exits_one_before_any_output(self, tmp_path, capsys, line, message):
        """A value that report-all reads late still fails before any file is written."""
        cfg_path = tmp_path / "exp.cfg"
        cfg_path.write_text(AFFINE + f"n_max = 60\n{line}\n")
        assert main(["run", str(cfg_path), "--out", str(tmp_path / "out")]) == 1
        assert capsys.readouterr() == ("", f"error: line 7: {message}\n")
        assert sorted(p.name for p in tmp_path.iterdir()) == ["exp.cfg"]

    def test_a_start_of_another_dimension_exits_one(self, tmp_path, capsys):
        text = ("command = orbit\nmap = halfplane_affine\nlambda = 2\nb = 1\nN = 2\n"
                "start = 2, 0.1, 0.1\n")
        assert _run(tmp_path, text) == 1
        assert capsys.readouterr() == (
            "", "error: line 6: start must have 2 entries for an N = 2 map, got 3\n")
        assert not (tmp_path / "orbit.csv").exists()

    def test_a_runtime_error_in_report_all_writes_no_file(self, tmp_path, capsys):
        """All or nothing: valiron and limits succeed, then the jwc sweeps project
        by a = 1e200 out of the domain.  The run exits 1 with one error line, no
        warning, and no file in its output directory."""
        cfg_path = tmp_path / "exp.cfg"
        cfg_path.write_text("command = report-all\nmap = halfplane_affine\nlambda = 2\nb = 1\n"
                            "N = 3\na = 1e200, 0\nseed = 1\n")
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            code = main(["run", str(cfg_path), "--out", str(tmp_path / "out")])
        assert code == 1
        assert capsys.readouterr() == (
            "", "error: projected image left the Siegel domain: non-finite coordinates\n")
        assert [str(w.message) for w in caught] == []
        assert list((tmp_path / "out").iterdir()) == []

    def test_an_image_within_the_slack_of_the_boundary_names_the_slack(self, tmp_path, capsys):
        """At b = 1e300 the base's first image 2 + 1e300i sits at height 2, far
        below the slack 1e-12 |z|: the message says so, and no file is written."""
        code = _run(tmp_path, "command = report-all\nmap = halfplane_affine\nlambda = 2\n"
                              "b = 1e300\nN = 2\n")
        assert code == 1
        assert capsys.readouterr() == (
            "", "error: not strictly inside the Siegel domain: Re z - ||w||^2 = 2.0"
                " <= 1e-12 * max(1, |z|, ||w||^2) = 1e+288\n")
        assert sorted(p.name for p in tmp_path.iterdir()) == ["exp.cfg"]

    def test_a_run_that_stops_before_the_gate_continues_its_probe(self, tmp_path, capsys):
        """siegel_linear at lambda = 1.05 converges at step 3, before its base
        orbit holds the 64 steps the probe reads: row 0 goes on alone to 64
        steps, capped there by n_max = 60, and ends below |z| = 100."""
        code = _run(tmp_path, "command = report-all\nmap = siegel_linear\nlambda = 1.05\nN = 2\n"
                              "n_max = 60\nseed = 1\n")
        assert code == 1
        assert capsys.readouterr() == (
            "", "error: tail moduli must increase beyond 100; got final |z| = 22.704667199218342\n")
        assert sorted(p.name for p in tmp_path.iterdir()) == ["exp.cfg"]

    def test_a_base_orbit_cut_by_the_scale_ceiling_names_its_cutoff(self, tmp_path, capsys):
        """At lambda = 1e200 the probe overflows after one step: too short to
        estimate from, and the message says why."""
        code = _run(tmp_path, "command = report-all\nmap = siegel_linear\nlambda = 1e200\nN = 2\n")
        assert code == 1
        assert capsys.readouterr() == ("", "error: multiplier estimation needs >= 16 points, got 2"
                                           " (base orbit stopped: scale overflow at step 1)\n")
        assert sorted(p.name for p in tmp_path.iterdir()) == ["exp.cfg"]


CONJUGATED = (
    "map = halfplane_affine\nlambda = 2\nb = 1\nN = 2\nconjugate = scale(4); translate(1)\n"
    "ladder_max = 3\n"
)


class TestOrbitContinuesTheProbe:
    """report-all's orbit command continues the valiron command's probe orbit.

    Each case runs ``valiron run`` and compares orbit.csv, byte for byte,
    with the orbit that ``compute_orbit`` computes afresh; ``steps`` counts
    the one-row orbit steps of the whole run.  The probe has 33 rows here.
    It is row 0 of the renormalized stack, which converges at step 54: only
    a run stopped before step 32 steps the rest of the probe alone.
    """

    def _run_and_fresh(self, tmp_path, monkeypatch, text, make_map=None):
        steps = []
        images = dynamics._images

        def counting(m, z, w):
            steps.append(len(z))
            return images(m, z, w)

        monkeypatch.setattr(dynamics, "_images", counting)
        if make_map is not None:
            build = cli.build_map
            monkeypatch.setattr(cli, "build_map", lambda cfg: make_map(cfg, build))
        out = tmp_path / "run"
        out.mkdir()
        cfg_path = out / "exp.cfg"
        cfg_path.write_text(text)
        code = main(["run", str(cfg_path), "--out", str(out)])
        counted = len(steps)
        cfg = parse_config(text)
        m = cli.build_map(cfg)
        start = cli._start(cfg, m)
        fresh = tmp_path / "fresh.csv"
        write_orbit_csv(str(fresh), compute_orbit(m, start, cfg.n_max))
        assert (out / "orbit.csv").read_bytes() == fresh.read_bytes()
        return code, counted

    @pytest.mark.parametrize("extra, steps", [
        ("n_max = 60\n", 60 - 32),
        # the run stops at step 20, and the probe goes on alone to 32 steps; it
        # is longer than the orbit, which is cut, not continued
        ("n_max = 20\n", 32 - 20),
        ("start = 2+1j, 0.3\nn_max = 60\n", 60),
        # == takes these starts for the base (1, 0), but they print otherwise
        ("start = 1, -0\nn_max = 60\n", 60),
        ("start = 1-0j, 0\nn_max = 60\n", 60),
        ("start = 1, 0\nn_max = 60\n", 60 - 32),
    ], ids=["continued", "cut", "other start", "w = -0", "y = -0", "start = base"])
    def test_report_all(self, tmp_path, monkeypatch, capsys, extra, steps):
        code, counted = self._run_and_fresh(
            tmp_path, monkeypatch, "command = report-all\n" + CONJUGATED + extra)
        assert code == 2
        assert counted == steps

    def test_orbit_command_alone(self, tmp_path, monkeypatch, capsys):
        code, counted = self._run_and_fresh(
            tmp_path, monkeypatch, "command = orbit\n" + CONJUGATED + "n_max = 60\n")
        assert code == 0 and counted == 60
        summary = (tmp_path / "run" / "summary.txt").read_text()
        report_all = tmp_path / "all"
        report_all.mkdir()
        assert _run(report_all, "command = report-all\n" + CONJUGATED + "n_max = 60\n") == 2
        alone = tmp_path / "run" / "orbit.csv"
        assert (report_all / "orbit.csv").read_bytes() == alone.read_bytes()
        orbit_part = (report_all / "summary.txt").read_text().split("\n\n")[-1]
        assert orbit_part == summary

    # the run converges at step 9, and the probe goes on alone to 32 steps
    @pytest.mark.parametrize("n_max, steps", [(40, 40 - 9), (20, 32 - 9)])
    def test_black_box(self, tmp_path, monkeypatch, capsys, n_max, steps):
        def twin_less_cayley(cfg, build):
            ball = replace(make_ball_map_from_siegel(build(cfg)), twin=None)
            black_box = make_siegel_map_from_ball(ball)
            assert black_box.batch is None
            return black_box

        # far from the base point ball coordinates round onto the sphere, so
        # the run converges early (tol) and the limit ladder stays short
        code, counted = self._run_and_fresh(
            tmp_path, monkeypatch,
            f"command = report-all\nmap = halfplane_affine\nlambda = 2\nb = 1\nN = 2\n"
            f"ladder_max = 3\ntol = 0.01\nn_max = {n_max}\n",
            make_map=twin_less_cayley)
        assert code == 0
        assert counted == steps


# -- the config grammar, drawn ---------------------------------------------------

REPORT_FILES = ["jwc.csv", "limits.csv", "orbit.csv", "summary.txt", "valiron.csv"]
_EXTREME = st.sampled_from([0.0, -0.0, 1e-300, -1e-300, 1e-7, -1.0, 1e200, -1e200, 1e300, -1e300])
_REALS = st.one_of(_EXTREME, st.floats(-1e3, 1e3))
_SMALL = st.one_of(_EXTREME, st.floats(-0.3, 0.3))


def _number(x: complex) -> str:
    """``x`` as the config grammar reads it, with no parentheses."""
    x = complex(x)
    return f"{x.real!r}{x.imag:+}j"


def _numbers(draw, n: int, reals=_REALS) -> str:
    return ", ".join(_number(complex(draw(reals), draw(reals))) for _ in range(n))


def _point(draw, n: int) -> str:
    """N coordinates: extreme ones, or small w and a z above them, at most by far."""
    if draw(st.booleans()):
        return _numbers(draw, n)
    w = [complex(draw(_SMALL), draw(_SMALL)) for _ in range(n - 1)]
    x = sum(c.real * c.real + c.imag * c.imag for c in w) + 10.0 ** draw(st.floats(-2.0, 300.0))
    return ", ".join(_number(c) for c in [complex(x, draw(_REALS)), *w])


@st.composite
def _configs(draw) -> str:
    """A report-all config of any map kind, with extreme and small values."""
    kind = draw(st.sampled_from(["siegel_linear", "halfplane_affine", "valiron_example"]))
    lines = ["command = report-all", f"map = {kind}"]
    lam = 1.0 + 10.0 ** draw(st.floats(-7.0, math.log10(1e200 - 1.0)))
    if kind == "valiron_example":
        n = 2
        psi = draw(st.sampled_from(["cayley", "oscillating", "constant(0.5)", "constant(-0.9j)"]))
        lines += [f"A = {lam!r}", f"psi = {psi}"]
    else:
        n = draw(st.integers(1, 10))
        lines += [f"lambda = {lam!r}", f"N = {n}"]
        if kind == "halfplane_affine":
            lines.append(f"b = {draw(_REALS)!r}")
    if draw(st.booleans()):
        lines.append(f"start = {_point(draw, n)}")
    if draw(st.booleans()):
        grid = [_point(draw, 1) for _ in range(draw(st.integers(1, 3)))]
        lines.append(f"grid_z = {', '.join(grid)}")
    if n > 1 and draw(st.booleans()):
        lines.append(f"a = {_numbers(draw, n - 1, _SMALL)}")
    if draw(st.booleans()):
        chain = []
        for _ in range(draw(st.integers(1, 2))):
            if draw(st.booleans()) or n == 1:
                scales = [repr(draw(st.one_of(_EXTREME, st.floats(0.1, 10.0))))
                          for _ in range(draw(st.integers(1, 2)))]
                chain.append(f"scale({', '.join(scales)})")
            else:
                chain.append(f"translate({_numbers(draw, n - 1, _SMALL)})")
        lines.append(f"conjugate = {'; '.join(chain)}")
    lines += [
        f"n_max = {draw(st.integers(1, 80))}",
        f"ladder_max = {draw(st.integers(1, 4))}",
        f"tol = {draw(st.sampled_from([1e-300, 1e-12, 1e-8, 1e-3, 0.5]))!r}",
        f"limit_tol = {draw(st.sampled_from([1e-300, 1e-9, 1e-3, 0.5]))!r}",
        f"seed = {draw(st.integers(0, 3))}",
    ]
    return "\n".join(lines) + "\n"


def _run_quietly(config: str, out: str) -> tuple:
    """``(exit code, stdout, stderr, warnings, {file: bytes})`` of ``valiron run``."""
    stdout, stderr = io.StringIO(), io.StringIO()
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        with contextlib.redirect_stdout(stdout), contextlib.redirect_stderr(stderr):
            code = main(["run", config, "--out", out])
    files = {}
    if os.path.isdir(out):
        for name in sorted(os.listdir(out)):
            with open(os.path.join(out, name), "rb") as handle:
                files[name] = handle.read()
    return code, stdout.getvalue(), stderr.getvalue(), [str(w.message) for w in caught], files


class TestConfigGrammar:
    """``valiron run`` on drawn configs ends in exit 0, 1 or 2, never in a
    traceback or a warning.  Exit 1 prints one error line and writes no
    file; exit 0 or 2 writes the five report files, and a second run of the
    same config writes the same bytes."""

    @given(text=_configs())
    @settings(max_examples=40, deadline=None, derandomize=True)
    def test_every_config_exits_cleanly(self, text):
        with tempfile.TemporaryDirectory() as work:
            config = os.path.join(work, "exp.cfg")
            with open(config, "w", encoding="utf-8") as handle:
                handle.write(text)
            code, _, err, caught, files = _run_quietly(config, os.path.join(work, "out"))
            assert caught == []
            assert code in (0, 1, 2)
            if code == 1:
                assert err.count("\n") == 1 and err.startswith("error: ")
                assert files == {}
                return
            assert sorted(files) == REPORT_FILES
            again = _run_quietly(config, os.path.join(work, "again"))
            assert again[0] == code and again[4] == files

    def test_a_base_orbit_at_the_double_ceiling_exits_with_one_error_line(self, tmp_path):
        """A drawn config the derandomized draws miss: the base orbit of
        siegel_linear at lambda = 1.03e44 ends at Re z = 1.19e308, where 2 Re z
        overflows.  Its axis distance is finite there, so the gate classifies
        the orbit and rejects its 8 points."""
        config = tmp_path / "exp.cfg"
        config.write_text("command = report-all\nmap = siegel_linear\n"
                          "lambda = 1.0251885770626082e+44\nN = 3\nn_max = 1\n")
        code, _, err, caught, files = _run_quietly(str(config), str(tmp_path / "out"))
        assert (code, caught, files) == (1, [], {})
        assert err == ("error: multiplier estimation needs >= 16 points, got 8"
                       " (base orbit stopped: scale overflow at step 7)\n")

    @pytest.mark.parametrize("value", ["nan", "inf", "-inf"])
    @pytest.mark.parametrize("key, body", [
        ("lambda", "map = halfplane_affine\nlambda = {}\nb = 1\nN = 2\n"),
        ("b", "map = halfplane_affine\nlambda = 2\nb = {}\nN = 2\n"),
        ("A", "map = valiron_example\nA = {}\npsi = cayley\n"),
        ("psi", "map = valiron_example\nA = 2\npsi = constant({})\n"),
    ])
    def test_a_non_finite_map_parameter_names_its_line(self, tmp_path, key, body, value):
        """Fixed cases the derandomized draws rarely hit: a NaN or infinite
        lambda, b, A or constant psi is rejected when the config is parsed, with
        one error line naming the key's line (3 or 4), not by a base orbit cut
        at step 0."""
        config = tmp_path / "exp.cfg"
        config.write_text(f"command = report-all\n{body.format(value)}seed = 1\n")
        code, out, err, caught, files = _run_quietly(str(config), str(tmp_path / "out"))
        assert (code, out, caught, files) == (1, "", [], {})
        line = 1 + next(i for i, text in enumerate(body.splitlines(), 1)
                        if text.startswith(f"{key} ="))
        assert err.count("\n") == 1 and err.startswith(f"error: line {line}: "), err
        assert "need at least 2 points" not in err

    @pytest.mark.parametrize("value", ["inf", "nan", "-inf"])
    @pytest.mark.parametrize("key", ["tol", "limit_tol"])
    def test_a_non_finite_tolerance_names_its_line(self, tmp_path, key, value):
        """Fixed cases the derandomized draws never hit: an infinite tol would
        pass every Cauchy test, and an infinite limit_tol every limit verdict,
        so either is rejected when the config is parsed, with one error line
        naming its line, and no file."""
        config = tmp_path / "exp.cfg"
        config.write_text("command = report-all\nmap = halfplane_affine\nlambda = 2\nb = 1\n"
                          f"N = 2\n{key} = {value}\nseed = 1\n")
        code, out, err, caught, files = _run_quietly(str(config), str(tmp_path / "out"))
        assert (code, out, caught, files) == (1, "", [], {})
        assert err == f"error: line 6: {key} = {float(value)!r} is not finite\n"
