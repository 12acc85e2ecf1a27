"""Renormalization pipeline: states, convergence, transport, ball side."""

import functools
import math
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from valiron.geometry import (
    BOUNDARY_SLACK,
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
    ScaleOverflowError,
    catalog,
    conjugate_map,
    make_ball_map_from_siegel,
    make_halfplane_affine,
    make_siegel_linear,
    make_valiron_example,
)
from valiron import geometry, maps, renorm
from valiron.dynamics import compute_orbit
from valiron.renorm import (
    LOG_SCALE_CEILING,
    DegenerateGridError,
    EvaluationGrid,
    NonHyperbolicError,
    PROBE_MAX_STEPS,
    advance,
    ball_side_theta,
    conjugation_transport,
    default_grid,
    initial_state,
    run_valiron,
    schroder_residual,
)

from conftest import CHAIN_FACTORS, CHAINS, sample_siegel
import oracle as O


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
        state = initial_state(m, default_grid(2))
        zs = np.array([p.z for p in default_grid(2).points])
        nxt = advance(state, m)
        assert np.max(np.abs(nxt.sigma - zs)) < 1e-14
        assert nxt.x == pytest.approx(2.0)

    def test_intertwining_identity(self):
        m = make_valiron_example(2.0, PsiChoice("cayley"))
        state = initial_state(m, default_grid(2))
        for _ in range(5):
            state = advance(state, m)
        # sigma_n(phi(Z)) = (x_{n+1} / x_n) sigma_{n+1}(Z) holds but for rounding;
        # a mis-cached scale breaks it at once
        nxt = advance(state, m)
        x_n, x_next = nxt.scales
        rhs = (x_next / x_n) * nxt.sigma
        deviation = np.max(np.abs(state.sigma_img - rhs) / np.maximum(1.0, np.abs(rhs)))
        assert deviation < 1e-12

    def test_log_scale_stays_linear(self):
        m = make_siegel_linear(2.0, 1)
        state = initial_state(m, default_grid(1))
        for _ in range(150):
            state = advance(state, m)
        assert state.log_x == pytest.approx(150 * math.log(2.0), rel=1e-12)
        assert math.isfinite(state.magnitude())


    @pytest.mark.parametrize("name", sorted(catalog()))
    def test_a_step_is_one_array_evaluation(self, name):
        """Base, grid and grid images go through one call of the map's batch."""
        m = catalog()[name]
        scalar_calls, batch_rows = [], []
        counted = replace(m, evaluator=lambda q: scalar_calls.append(q) or m.evaluator(q),
                          batch=lambda z, w: batch_rows.append(len(z)) or m.batch(z, w))
        grid = default_grid(m.dim)
        state = initial_state(counted, grid)
        batch_rows.clear()
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
            *(conjugate_map(make_halfplane_affine(2.0, 1.0, 2), t) for t in CHAINS.values()),
        )
        for m in maps:
            result = run_valiron(m)
            images = [result.map.evaluator(p) for p in result.grid.points]
            assert np.array_equal(result.sigma_at(result.grid.points), result.sigma)
            assert np.array_equal(result.sigma_at(images), result.sigma_image)

    def test_the_base_point_pins_the_normalization(self):
        """Re sigma(1, 0) = 1 within 2^-52, and sigma_at((1, 0)) is the
        normalization bit for bit, on every catalog map and on the CI chains."""
        cat = catalog()
        maps = [*cat.values(), *(conjugate_map(m, t) for m in cat.values() if m.dim == 2
                                 for t in CHAINS.values())]
        for m in maps:
            result = run_valiron(m)
            assert abs(result.normalization.real - 1.0) <= 2.0 ** -52, m.name
            at_base = result.sigma_at([SiegelPoint(1.0, np.zeros(m.dim - 1))])
            assert at_base.tobytes() == np.array([result.normalization]).tobytes(), m.name

    def test_points_of_another_dimension_are_rejected(self):
        """sigma_at and residual_at raise on rows that a batch would broadcast over."""
        m = make_halfplane_affine(2.0, 1.0, 2)
        result = run_valiron(m)
        results = (result, run_valiron(conjugate_map(m, CHAINS["scale(4); translate(1)"])),
                   conjugation_transport(result, SiegelAutomorphism.scale(4.0)))
        for res in results:
            for dim in (1, 3):
                q = SiegelPoint(3.0, np.full(dim - 1, 0.25))
                for evaluate in (res.sigma_at, res.residual_at):
                    # T^-1 of a conjugated map may reject the width first, by its translation
                    with pytest.raises(DomainError, match="dimension"):
                        evaluate([q])

    def test_a_run_with_no_stored_step_checks_the_dimension(self):
        """sigma_at of an n_max = 0 run evaluates no map, yet rejects rows of
        another width, as residual_at does; rows of the right width are z / 1."""
        m = make_halfplane_affine(2.0, 1.0, 2)
        result = run_valiron(m, n_max=0)
        results = (result, run_valiron(conjugate_map(m, CHAINS["scale(4); translate(1)"]), n_max=0),
                   conjugation_transport(result, SiegelAutomorphism.scale(4.0)))
        for res in results:
            assert res.scale_pairs == ()
            q = SiegelPoint(3.0, [0.5, 0.5])
            with pytest.raises(DomainError, match="points of dimension 3 for a map of dimension 2"):
                res.sigma_at([q])
        assert result.sigma_at([SiegelPoint(3.0, [0.5])]).tolist() == [3.0]

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

    @pytest.mark.parametrize("chain", sorted(CHAINS))
    def test_a_conjugated_sigma_is_near_the_exact_sigma(self, chain):
        """sigma_n at n_stop against pi_1 psi^n(q) / Re pi_1 psi^n(base) in mpmath,
        psi the exact conjugate of halfplane_affine(2, 1, 2) by the chain.

        The reference takes the chain's triple composed exactly; an image row
        is the run's own double image of its grid point.  Measured, worst
        relative error on the grid, on the images and of the normalization:
        5.6e-16, 6.3e-16, 1.3e-16 for scale(4); translate(1) and 7.7e-16,
        8.8e-16, 3.2e-16 for scale(3, 1); translate(0.5-0.25j).  Stepping
        T o phi o T^-1 itself read 1.5e-15, 1.5e-15, 2.4e-17 and 1.5e-15,
        1.4e-15, 2.2e-17.
        """
        lam, b = 2.0, 1.0
        result = run_valiron(conjugate_map(make_halfplane_affine(lam, b, 2), CHAINS[chain]))
        assert result.converged and result.n_stop == 54
        triple = functools.reduce(O.then, [O.triple(f) for f in CHAIN_FACTORS[chain]])
        forward, back, phi = O.fused(triple), O.fused(O.inverse(triple)), O.affine(lam, b)

        def first(q):
            z, w = back(O.exact(complex(q.z)), O.row(q.w))
            for _ in range(result.n_stop):
                z, w = phi(z, w)
            return forward(z, w)[0].v

        def worst(points, got):
            return max(float(abs(s - first(q) / x_n) / abs(first(q) / x_n)) for q, s in zip(points, got))

        base = first(SiegelPoint(1.0, np.zeros(1)))
        x_n = base.real
        points = result.grid.points
        images = [result.map.evaluator(q) for q in points]
        assert worst(points, result.sigma) <= 1.2e-15
        assert worst(images, result.sigma_image) <= 1.2e-15
        assert float(abs(result.normalization - base / x_n) / abs(base / x_n)) <= 5e-16

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
    def test_residual_at_is_one_image_evaluation_and_one_replay(self, transported):
        """One batch call of the map for the images, then one of the points and
        images stacked per stored step."""
        result = run_valiron(make_valiron_example(2.0, PsiChoice("oscillating")))
        m, rows = result.map, []
        result = replace(result, map=replace(m, batch=lambda z, w: rows.append(len(z)) or m.batch(z, w)))
        if transported:
            result = conjugation_transport(result, SiegelAutomorphism.translate([0.5j]))
        pts = [sample_siegel(2, s, 61) for s in range(8)]
        s = result.sigma_at(pts)
        s_img = result.sigma_at([result.map.evaluator(p) for p in pts])
        want = np.abs(s_img - result.multiplier * s) / (1.0 + np.abs(s))
        rows.clear()
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

    @pytest.mark.parametrize("m, n_stop", [
        (make_siegel_linear(2.0, 2), 994),
        (make_halfplane_affine(2.0, 1.0, 2), 994),
        (make_siegel_linear(1.5, 3), 1700),
        # the inner rows are de-normalized: T^-1 puts them a factor 3 or 4 above the rows of the map
        *((conjugate_map(make_halfplane_affine(2.0, 1.0, 2), t), 992) for t in CHAINS.values()),
    ])
    def test_the_scale_ceiling_stops_the_run(self, m, n_stop):
        result = run_valiron(m, tol=0.0, n_max=3000)
        assert not result.converged
        assert result.n_stop == n_stop
        assert result.warnings[-1] == f"scale ceiling reached at step {n_stop}; stopping before n_max"

    def test_the_magnitude_bound_does_not_move_the_ceiling(self):
        """The bound from a step's image check is at least the state's magnitude,
        the screened ceiling test gives the exact test's verdict, and states
        whose ``_top`` is inf stop at the same state as states that screen."""
        m = make_halfplane_affine(2.0, 1.0, 2)

        def last_state(screen):
            state = initial_state(m, default_grid(2))
            while True:
                exact = state.log_x + math.log(max(1.0, state.magnitude())) > LOG_SCALE_CEILING
                if screen and state.n:
                    t = state._top / state.scales[1]
                    assert state.magnitude() <= max(t, math.sqrt(t)) * (1.0 + 1e-9) < math.inf
                else:
                    object.__setattr__(state, "_top", math.inf)
                assert renorm._over_ceiling(state) == exact
                try:
                    state = advance(state, m)
                except ScaleOverflowError:
                    assert exact
                    return state

        screened, exact = last_state(True), last_state(False)
        assert screened.n == exact.n == 994
        assert screened.log_x == exact.log_x
        assert np.array_equal(screened.z, exact.z) and np.array_equal(screened.w, exact.w)


class TestInputChecks:
    """A step checks its de-normalized inputs only where the previous image
    check cannot prove that they pass; every other check, and every error, stays."""

    @staticmethod
    def _counted(monkeypatch):
        calls = []
        check = maps.check_siegel_arrays

        def counting_check(z, w, **kwargs):
            calls.append(len(z))
            return check(z, w, **kwargs)

        monkeypatch.setattr(maps, "check_siegel_arrays", counting_check)
        monkeypatch.setattr(renorm, "check_siegel_arrays", counting_check)
        return calls

    @pytest.mark.parametrize("name", sorted(catalog()))
    def test_a_clear_step_is_one_check(self, name, monkeypatch):
        m = catalog()[name]
        result = run_valiron(m, n_max=12)
        grid = default_grid(m.dim)
        state = initial_state(m, grid)
        calls = self._counted(monkeypatch)
        per_step = []
        for _ in range(result.n_stop):
            state = advance(state, m)
            per_step.append(calls.copy())
            calls.clear()
        rows = 1 + 2 * len(grid)
        # the first step checks the inputs and the images, then each step its images
        assert per_step == [[rows, rows]] + [[rows]] * (result.n_stop - 1)
        pts = [sample_siegel(m.dim, s, 64) for s in range(8)]
        result.sigma_at(pts)
        assert calls == [8] * (result.n_stop + 1)

    @pytest.mark.parametrize("chain", sorted(CHAINS))
    def test_a_conjugated_step_evaluates_the_inner_map_on_checked_rows(self, chain, monkeypatch):
        """A conjugated ``advance`` and ``sigma_at`` call the inner map's batch
        alone, never an evaluation of the conjugated map.  The first step
        checks every row that the inner map then gets; each step checks each
        inner image once."""
        inner_rows, outer_rows = [], []
        base = make_halfplane_affine(2.0, 1.0, 2)

        def inner_batch(z, w):
            inner_rows.append((z.copy(), w.copy()))
            return base.batch(z, w)

        m = conjugate_map(replace(base, batch=inner_batch), CHAINS[chain])
        # an evaluation of the conjugate maps T^-1 of its rows by the inner map
        # through the module's own ``_images``; renorm steps on its imported one
        images = maps._images
        monkeypatch.setattr(maps, "_images",
                            lambda phi, z, w, **kw: outer_rows.append(len(z)) or images(phi, z, w, **kw))
        grid = default_grid(2)
        rows = 1 + 2 * len(grid)
        state = initial_state(m, grid)
        assert outer_rows == [len(grid)]
        outer_rows.clear()
        inner_rows.clear()
        checks = []
        check = maps.check_siegel_arrays

        def counting_check(z, w, **kwargs):
            checks.append((z.copy(), w.copy()))
            return check(z, w, **kwargs)

        monkeypatch.setattr(maps, "check_siegel_arrays", counting_check)
        monkeypatch.setattr(renorm, "check_siegel_arrays", counting_check)
        for k in range(4):
            state = advance(state, m)
            assert [len(z) for z, _ in inner_rows] == [rows]
            # the first step checks its inputs, T^-1 of the rows, before the map
            # runs; then each step checks its images
            assert [len(z) for z, _ in checks] == [rows] * (2 if k == 0 else 1)
            if k == 0:
                assert checks[0][0].tobytes() == inner_rows[0][0].tobytes()
                assert checks[0][1].tobytes() == inner_rows[0][1].tobytes()
            inner_rows.clear()
            checks.clear()
        assert outer_rows == []
        result = run_valiron(m, n_max=12)
        for calls in (inner_rows, outer_rows, checks):
            calls.clear()
        pts = [sample_siegel(2, s, 64) for s in range(8)]
        result.sigma_at(pts)
        assert [len(z) for z, _ in inner_rows] == [8] * result.n_stop
        assert [len(z) for z, _ in checks] == [8] * (result.n_stop + 1)
        assert outer_rows == []

    def test_grid_and_residual_rows_are_checked_once(self, monkeypatch):
        """``initial_state`` checks only the grid's images: the grid was checked
        when it was built.  ``residual_at`` checks its points and their images
        once each, with clearance, so the replay's first step checks neither
        again, unless a row lies within twice the slack of the boundary."""
        m = make_valiron_example(2.0, PsiChoice("oscillating"))
        result = run_valiron(m, n_max=12)
        grid = default_grid(2)
        pts = [sample_siegel(2, s, 61) for s in range(8)]
        want = result.residual_at(pts)
        calls = self._counted(monkeypatch)
        initial_state(m, grid)
        assert calls == [len(grid)]
        calls.clear()
        assert np.array_equal(result.residual_at(pts), want)
        assert calls == [8, 8] + [16] * result.n_stop
        # a point between one and two slack edges from the boundary passes its
        # check but does not clear it: the first replay step checks every row
        calls.clear()
        band = SiegelPoint(1.0 + 1.5 * BOUNDARY_SLACK, [1.0])
        result.residual_at(pts + [band])
        assert calls == [9, 9, 18] + [18] * result.n_stop

    def test_a_transported_result_checks_each_row_once(self, monkeypatch):
        """``sigma_at`` of a transported result checks T^-1 of its points once,
        with clearance, and the replay's first step does not check them again.
        ``residual_at`` checks the points, then the transported map's image
        step checks T^-1 of them, their inner images and the images, and the
        replay T^-1 of the points and the images stacked."""
        result = run_valiron(make_valiron_example(2.0, PsiChoice("oscillating")), n_max=12)
        moved = conjugation_transport(result, CHAINS["scale(3, 1); translate(0.5-0.25j)"])
        pts = [sample_siegel(2, s, 61) for s in range(8)]
        want_sigma, want_residual = moved.sigma_at(pts), moved.residual_at(pts)
        calls = self._counted(monkeypatch)
        # a checked SiegelBatch would check its rows in geometry
        monkeypatch.setattr(geometry, "check_siegel_arrays", renorm.check_siegel_arrays)
        assert np.array_equal(moved.sigma_at(pts), want_sigma)
        assert calls == [8] * (result.n_stop + 1)
        calls.clear()
        assert np.array_equal(moved.residual_at(pts), want_residual)
        assert calls == [8, 8, 8, 8] + [16] * (result.n_stop + 1)

    def test_a_bad_grid_or_residual_point_gives_the_error_of_its_check(self):
        """Each row keeps the check, and the error, of ``SiegelPoint``: a grid row
        outside H^N when the grid is built, an image outside H^N in
        ``initial_state`` and in ``residual_at``."""

        def error(make):
            with pytest.raises(DomainError) as err:
                make()
            return type(err.value), str(err.value)

        assert error(lambda: EvaluationGrid(SiegelBatch([2.0, 1.0], [[0.0], [1.0]]))) == \
            error(lambda: SiegelPoint(1.0, [1.0]))
        base = make_siegel_linear(2.0, 2)

        def batch(z, w):
            z, w = base.batch(z, w)
            w[z == 6.0] = 10.0  # (3, 0) goes to (6, 10), outside H^2
            return z, w

        m = replace(base, batch=batch)
        outside = error(lambda: SiegelPoint(6.0, [10.0]))
        grid = EvaluationGrid([SiegelPoint(3.0, [0.0]), SiegelPoint(5.0, [0.0])])
        assert error(lambda: initial_state(m, grid)) == outside
        result = run_valiron(m, n_max=12)
        assert error(lambda: result.residual_at([SiegelPoint(3.0, [0.0])])) == outside

    def test_an_image_in_the_band_makes_the_next_step_check_its_inputs(self, monkeypatch):
        """An image row between one and two slack edges from the boundary passes
        its check but does not clear it, so the next step checks its inputs."""
        base = make_siegel_linear(2.0, 2)

        def batch(z, w):
            z, w = base.batch(z, w)
            if len(z) > 1 and z[0].real == 8.0:  # the images of the third step
                x = z[0].real
                z[-1], w[-1] = x * (1.0 + 1.5 * BOUNDARY_SLACK), math.sqrt(x)
            return z, w

        m = replace(base, batch=batch)
        state = initial_state(m, default_grid(2))
        calls = self._counted(monkeypatch)
        per_step = []
        for _ in range(6):
            state = advance(state, m)
            per_step.append(len(calls))
            calls.clear()
        # the linear map keeps the row in the band, so every later step checks its inputs
        assert per_step == [2, 1, 1, 2, 2, 2]
        height = float(state.z[-1].real - norm_sq(state.w[-1]))
        assert BOUNDARY_SLACK < height / abs(state.z[-1]) < 2.0 * BOUNDARY_SLACK

    @pytest.mark.parametrize("value", [complex(0.5, 1.0), complex(math.nan, 0.0)])
    def test_an_image_outside_the_domain_gives_the_error_of_its_check(self, value):
        """An image that leaves H^N after steps that skipped their input checks
        raises the error of SiegelPoint on the first bad row."""
        base = make_siegel_linear(2.0, 2)

        def batch(z, w):
            z, w = base.batch(z, w)
            if len(z) > 1 and z[0].real > 100.0:
                z[-2], z[-1] = value, -1.0
            return z, w

        m = replace(base, batch=batch)
        state = initial_state(m, default_grid(2))
        for _ in range(6):
            state = advance(state, m)
        assert state._top < math.inf  # the next step skips its input check
        w_bad = base.batch(state.z, math.sqrt(state.x) * state.w)[1][-2]
        with pytest.raises(DomainError) as want:
            SiegelPoint(value, w_bad)
        with pytest.raises(type(want.value)) as got:
            advance(state, m)
        assert str(got.value) == str(want.value)


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
