"""Renormalization pipeline: states, convergence, transport, ball side."""

import math
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from valiron.geometry import (
    FEW_ROWS,
    INFINITY,
    DomainError,
    SiegelAutomorphism,
    SiegelBatch,
    SiegelPoint,
    cayley_to_siegel,
    norm_sq,
)
from valiron.maps import (
    HoloMap,
    PsiChoice,
    catalog,
    conjugate_map,
    evaluate_batch,
    make_ball_map_from_siegel,
    make_halfplane_affine,
    make_siegel_linear,
    make_valiron_example,
)
from valiron import renorm
from valiron.dynamics import compute_orbit
from valiron.renorm import (
    DegenerateGridError,
    EvaluationGrid,
    NonHyperbolicError,
    PROBE_MAX_STEPS,
    advance,
    ball_side_theta,
    conjugation_transport,
    default_grid,
    initial_state,
    intertwining_identity_check,
    run_valiron,
    schroder_residual,
)

from conftest import sample_siegel


class TestGrid:
    def test_default_grid_is_wellformed(self):
        for n_dim in (1, 2, 3):
            grid = default_grid(n_dim)
            assert len(grid) >= 2
            for p in grid.points:
                assert p.dim == n_dim
                assert p.x - sum(abs(c) ** 2 for c in p.w) >= 0.1

    @pytest.mark.parametrize("n_dim", [1, 2, 3])
    def test_default_grid_rows_are_the_tensor_points(self, n_dim):
        """One checked batch, z-major, with the rows of the points made one by one."""
        z_values = [zb + d for zb in (1.0, 2.0, 4.0) for d in (0.0, 0.5j, -0.5j)]
        w_values = [np.zeros(0, dtype=np.complex128)]
        if n_dim > 1:
            e1 = np.zeros(n_dim - 1, dtype=np.complex128)
            e1[0] = 1.0
            diag = np.ones(n_dim - 1, dtype=np.complex128) / math.sqrt(n_dim - 1)
            w_values = [0.0 * e1, 0.5 * e1, 0.5j * e1, 0.25 * diag]
        want = SiegelBatch.from_points([SiegelPoint(z, w) for z in z_values for w in w_values])
        got = default_grid(n_dim).points
        assert got.z.tobytes() == want.z.tobytes() and got.w.tobytes() == want.w.tobytes()

    def test_rejects_degenerate_grids(self):
        with pytest.raises(DegenerateGridError):
            EvaluationGrid([SiegelPoint(1.0)])
        with pytest.raises(DegenerateGridError):
            EvaluationGrid([SiegelPoint(1.0), SiegelPoint(1.0)])
        with pytest.raises(DegenerateGridError):
            EvaluationGrid([SiegelPoint(0.01), SiegelPoint(1.0)])

    def test_a_batch_is_kept_as_it_is(self):
        batch = SiegelBatch.from_points(default_grid(2).points)
        assert EvaluationGrid(batch).points is batch
        assert list(EvaluationGrid(iter(batch)).points) == list(batch)

    @pytest.mark.parametrize("n_dim", [1, 3])
    def test_array_checks_give_the_point_by_point_errors(self, n_dim):
        """Each check raises what the point-by-point checks raised, on generators
        and on grids past FEW_ROWS whose offending row sits in the middle."""
        w = np.array([0.3 + 0.1j, 0.123456789 - 0.2j])[: n_dim - 1]
        pts = [SiegelPoint(1.0 + k + 0.5j * k, w) for k in range(2 * FEW_ROWS)]
        low = [SiegelPoint(norm_sq(w) + h / 7.0, w) for h in (0.5, 0.2)]
        pts[FEW_ROWS - 1], pts[FEW_ROWS + 2] = low
        # rows that differ only in the signs of zeros are one point
        same = [SiegelPoint(complex(2.0, s), np.full(n_dim - 1, complex(0.5, s))) for s in (0.0, -0.0)]

        def message(points):
            with pytest.raises((DegenerateGridError, DomainError)) as err:
                EvaluationGrid(p for p in points)
            return type(err.value), str(err.value)

        h = low[0].z.real - norm_sq(low[0].w)
        assert message(pts) == (DegenerateGridError, f"grid point at height {h!r} < 0.1")
        assert message(same * FEW_ROWS) == (
            DegenerateGridError, "grid must contain at least 2 distinct points")
        assert message([]) == (DegenerateGridError, "empty evaluation grid")
        # a repeated row among distinct ones is a grid
        assert len(EvaluationGrid(pts[:5] + pts[3:4] + pts[5:7])) == 8

    def test_mixed_dimensions_fail_when_the_grid_is_built(self):
        with pytest.raises(DomainError, match="different dimensions"):
            EvaluationGrid([SiegelPoint(1.0), SiegelPoint(2.0, [0.1])])


class TestStateAdvance:
    def test_linear_map_stabilizes_immediately(self):
        m = make_siegel_linear(2.0, 2)
        state = initial_state(m, default_grid(2), SiegelPoint(1.0, np.zeros(1)))
        zs = np.array([p.z for p in default_grid(2).points])
        nxt = advance(state, m)
        assert np.max(np.abs(nxt.sigma - zs)) < 1e-14
        assert nxt.x == pytest.approx(2.0)

    def test_intertwining_identity(self):
        m = make_valiron_example(2.0, PsiChoice("cayley"))
        state = initial_state(m, default_grid(2), SiegelPoint(1.0, np.zeros(1)))
        for _ in range(5):
            state = advance(state, m)
        assert intertwining_identity_check(state, m) < 1e-12

    def test_log_scale_stays_linear(self):
        m = make_siegel_linear(2.0, 1)
        state = initial_state(m, default_grid(1), SiegelPoint(1.0))
        for _ in range(150):
            state = advance(state, m)
        assert state.log_x == pytest.approx(150 * math.log(2.0), rel=1e-12)
        assert math.isfinite(state.magnitude())


    @pytest.mark.parametrize("name", sorted(catalog()))
    def test_a_step_is_one_array_evaluation(self, name, monkeypatch):
        """Base, grid and grid images go through one evaluate_batch call."""
        m = catalog()[name]
        scalar_calls, batch_rows = [], []
        counted = replace(m, evaluator=lambda q: scalar_calls.append(q) or m.evaluator(q))
        grid = default_grid(m.dim)
        state = initial_state(counted, grid, SiegelPoint(1.0, np.zeros(m.dim - 1)))

        def counting_batch(mm, z, w):
            batch_rows.append(len(z))
            return evaluate_batch(mm, z, w)

        monkeypatch.setattr(renorm, "evaluate_batch", counting_batch)
        for _ in range(3):
            state = advance(state, counted)
        assert batch_rows == [1 + 2 * len(grid)] * 3
        assert scalar_calls == []


class TestRunValiron:
    def test_linear_oracle(self):
        result = run_valiron(make_siegel_linear(2.0, 2))
        errs = np.abs(result.sigma - np.array([p.z for p in result.grid.points]))
        assert result.converged and result.n_stop <= 3
        assert np.max(errs) < 1e-10
        assert np.max(result.schroder_residuals) < 1e-10
        assert result.drift == pytest.approx(0.0, abs=1e-12)

    def test_affine_drift_in_normalization(self):
        result = run_valiron(make_halfplane_affine(2.0, 1.0, 2))
        assert result.converged
        assert result.multiplier == pytest.approx(2.0, abs=1e-10)
        assert result.drift == pytest.approx(1.0, abs=1e-6)
        # sigma(z, w) = z + i b/(lam-1) = z + i for this model
        oracle = np.array([p.z + 1j for p in result.grid.points])
        assert np.max(np.abs(result.sigma - oracle)) < 1e-6

    def test_sigma_at_agrees_with_grid_samples(self):
        """sigma_at replays the run: bit-equal on the grid and on its images."""
        maps = (
            make_valiron_example(2.0, PsiChoice("cayley")),
            make_valiron_example(2.0, PsiChoice("oscillating")),
            make_halfplane_affine(2.0, 1.0, 1),
            conjugate_map(make_siegel_linear(2.0, 2), SiegelAutomorphism.scale(4.0)),
        )
        for m in maps:
            result = run_valiron(m)
            images = [result.map.evaluator(p) for p in result.grid.points]
            assert np.array_equal(result.sigma_at(result.grid.points), result.sigma)
            assert np.array_equal(result.sigma_at(images), result.sigma_image)

    def test_sigma_at_evaluates_only_the_probes(self):
        """One batch call of len(pts) rows per stored step, no scalar call."""
        result = run_valiron(make_valiron_example(2.0, PsiChoice("oscillating")))
        m = result.map
        scalar_calls, batch_rows = [], []

        def counting_scalar(q):
            scalar_calls.append(q)
            return m.evaluator(q)

        def counting_batch(z, w):
            batch_rows.append(len(z))
            return m.batch(z, w)

        counted = replace(result, map=replace(m, evaluator=counting_scalar, batch=counting_batch))
        pts = [sample_siegel(2, s, 62) for s in range(5)]
        assert np.array_equal(counted.sigma_at(pts), result.sigma_at(pts))
        assert batch_rows == [len(pts)] * result.n_stop
        assert scalar_calls == []

    def test_scalar_cost_does_not_grow_with_the_grid(self, monkeypatch):
        """A batch map steps the grid on arrays: grid size adds no scalar work."""
        m = make_halfplane_affine(1.05, 1.0, 2)
        rng = np.random.default_rng(8)

        def grid(n):
            w = rng.uniform(0.0, 0.7, n) * np.exp(2j * math.pi * rng.uniform(0.0, 1.0, n))
            z = np.abs(w) ** 2 + rng.uniform(0.5, 4.0, n) + 1j * rng.uniform(-2.0, 2.0, n)
            return EvaluationGrid([SiegelPoint(zi, [wi]) for zi, wi in zip(z, w)])

        def costs(g):
            evals, points = [], []
            init = SiegelPoint.__init__

            def counting_init(self, *args):
                points.append(1)
                init(self, *args)

            counted = replace(m, evaluator=lambda q: evals.append(q) or m.evaluator(q))
            monkeypatch.setattr(SiegelPoint, "__init__", counting_init)
            result = run_valiron(counted, g)
            monkeypatch.undo()
            return result.n_stop, len(evals), len(points)

        small, large = costs(grid(10)), costs(grid(1000))
        assert small == large
        assert small[0] == 200

    @pytest.mark.parametrize("name", sorted(catalog()))
    def test_array_steps_match_the_point_by_point_steps(self, name):
        """On a 100-point grid the stacked array step gives the bits of the
        black-box path, which evaluates the map point by point."""
        m = catalog()[name]
        rng = np.random.default_rng(9)
        w = rng.uniform(-0.3, 0.3, (100, m.dim - 1)) + 1j * rng.uniform(-0.3, 0.3, (100, m.dim - 1))
        z = (np.abs(w) ** 2).sum(axis=1) + rng.uniform(0.5, 4.0, 100) + 1j * rng.uniform(-2.0, 2.0, 100)
        grid = EvaluationGrid([SiegelPoint(zi, wi) for zi, wi in zip(z, w)])
        fast = run_valiron(m, grid)
        slow = run_valiron(replace(m, batch=None), grid)
        assert fast.n_stop == slow.n_stop
        for attr in ("sigma", "sigma_image"):
            assert np.array_equal(getattr(fast, attr), getattr(slow, attr)), attr
        assert np.array_equal([fast.normalization], [slow.normalization])
        assert np.array_equal(fast.scale_pairs, slow.scale_pairs)
        probes = [sample_siegel(m.dim, s, 63) for s in range(8)]
        assert np.array_equal(fast.sigma_at(probes), slow.sigma_at(probes))

    def test_slow_probe_orbit_is_continued_not_recomputed(self):
        m = make_halfplane_affine(1.2, 1.0, 2)  # x_32 ~ 342: the probe goes on to 64 steps
        rows = []
        result = run_valiron(replace(m, batch=lambda z, w: rows.append(len(z)) or m.batch(z, w)))
        want = compute_orbit(m, SiegelPoint(1.0, np.zeros(1)), PROBE_MAX_STEPS)
        # the probe steps one row at a time; the grid steps take 1 + 2 * 36 rows
        assert rows.count(1) == PROBE_MAX_STEPS
        assert result.base_orbit.points == want.points
        assert np.array_equal(result.base_orbit.x, want.x)

    def test_off_grid_evaluation_matches_oracle(self):
        psi = PsiChoice("cayley")
        result = run_valiron(make_valiron_example(3.0, psi))
        pts = [sample_siegel(2, s, 60) for s in range(12)]
        got = result.sigma_at(pts)
        want = np.array([p.z + p.w[0] ** 2 * psi(p.z) for p in pts])
        assert np.max(np.abs(got - want)) < 1e-9

    def test_residual_at_off_grid(self):
        result = run_valiron(make_valiron_example(2.0, PsiChoice("oscillating")))
        pts = [sample_siegel(2, s, 61) for s in range(8)]
        assert np.max(result.residual_at(pts)) < 1e-9
        q = pts[0]
        r = schroder_residual(result.map, lambda p: result.sigma_at([p])[0], q)
        assert r < 1e-9

    @pytest.mark.parametrize("transported", [False, True])
    def test_residual_at_is_one_image_evaluation_and_one_replay(self, transported, monkeypatch):
        result = run_valiron(make_valiron_example(2.0, PsiChoice("oscillating")))
        if transported:
            result = conjugation_transport(result, SiegelAutomorphism.translate([0.5j]))
        pts = [sample_siegel(2, s, 61) for s in range(8)]
        s = result.sigma_at(pts)
        s_img = result.sigma_at([result.map.evaluator(p) for p in pts])
        want = np.abs(s_img - result.multiplier * s) / (1.0 + np.abs(s))
        rows = []

        def counting_batch(m, z, w):
            rows.append(len(z))
            return evaluate_batch(m, z, w)

        monkeypatch.setattr(renorm, "evaluate_batch", counting_batch)
        assert np.array_equal(result.residual_at(pts), want)
        assert rows == [8] + [16] * result.n_stop
        assert result.residual_at([]).shape == (0,)

    def test_ball_side_map_is_transported_in(self):
        ball = make_ball_map_from_siegel(make_siegel_linear(2.0, 2))
        result = run_valiron(ball)
        assert result.converged
        assert result.map.domain == "siegel"
        assert np.max(result.schroder_residuals) < 1e-8

    def test_nonhyperbolic_detected_from_the_orbit(self):
        # declared metadata lies; the probe orbit exposes multiplier 1
        parabolic = HoloMap(
            domain="siegel",
            dim=1,
            evaluator=lambda q: SiegelPoint(q.z + 2.0),
            dw=INFINITY,
            multiplier=2.0,
            name="parabolic",
        )
        with pytest.raises(NonHyperbolicError):
            run_valiron(parabolic)

    def test_outside_hypotheses_flag(self):
        t = SiegelAutomorphism.translate(np.array([1.0 + 0j]))
        mc = conjugate_map(make_siegel_linear(2.0, 2), t)
        result = run_valiron(mc)
        assert result.converged
        assert result.outside_hypotheses
        assert any("C-special" in w for w in result.warnings)

    def test_truncation_at_n_max(self):
        result = run_valiron(make_siegel_linear(2.0, 1), tol=0.0, n_max=50)
        assert not result.converged
        assert result.n_stop == 50


class TestTransport:
    @pytest.mark.parametrize(
        "t",
        [
            SiegelAutomorphism.scale(2.0),
            SiegelAutomorphism.scale(4.0, -1.5),
            SiegelAutomorphism.translate(np.array([1.0 + 0j])),
            SiegelAutomorphism.composite([
                SiegelAutomorphism.scale(3.0, 1.0),
                SiegelAutomorphism.translate(np.array([0.5 - 0.25j])),
            ]),
        ],
    )
    def test_transport_solves_the_conjugated_equation(self, t):
        result = run_valiron(make_siegel_linear(2.0, 2))
        moved = conjugation_transport(result, t)
        pts = moved.grid.points
        assert float(np.max(moved.residual_at(pts))) < 1e-12
        assert np.max(moved.schroder_residuals) < 1e-12
        # normalization Re sigma~(1, 0) = 1 survives the transport
        base_val = moved.sigma_at([SiegelPoint(1.0, np.zeros(1))])[0]
        assert base_val.real == pytest.approx(1.0, rel=1e-12)

    def test_transport_agrees_with_direct_pipeline(self):
        m = make_siegel_linear(2.0, 2)
        t = SiegelAutomorphism.translate(np.array([1.0 + 0j]))
        moved = conjugation_transport(run_valiron(m), t)
        direct = run_valiron(conjugate_map(m, t))
        pts = moved.grid.points
        diff = np.max(np.abs(moved.sigma_at(pts) - direct.sigma_at(pts)))
        assert diff < 1e-6

    def test_scale_conjugation_of_linear_map_is_identity_on_sigma(self):
        """T = dilation conjugates z -> lam z to itself, so sigma~ = z."""
        result = run_valiron(make_siegel_linear(2.0, 2))
        moved = conjugation_transport(result, SiegelAutomorphism.scale(2.0))
        pts = moved.grid.points
        assert np.max(np.abs(moved.sigma_at(pts) - np.array([p.z for p in pts]))) < 1e-12


class TestBallSide:
    def test_theta_solves_ball_schroder(self):
        m = make_siegel_linear(2.0, 2)
        result = run_valiron(m)
        theta = ball_side_theta(result)
        ball_map = make_ball_map_from_siegel(m)
        for p in theta.ball_points[:4]:
            lhs = theta.theta_at([ball_map(p)])[0]
            rhs = result.multiplier * theta.theta_at([p])[0]
            assert abs(lhs - rhs) < 1e-9 * max(1.0, abs(rhs))

    def test_theta_matches_sigma_through_cayley(self):
        result = run_valiron(make_valiron_example(2.0, PsiChoice("constant", 0.5)))
        theta = ball_side_theta(result)
        for p in theta.ball_points[:4]:
            q = cayley_to_siegel(p)
            assert abs(theta.theta_at([p])[0] - result.sigma_at([q])[0]) < 1e-12
