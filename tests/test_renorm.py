"""Renormalization pipeline: states, convergence, transport, ball side."""

import functools
import math
import warnings
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
    NonFiniteError,
    SiegelAutomorphism,
    SiegelBatch,
    SiegelPoint,
    apply_automorphism_arrays,
    cayley_to_ball,
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
from valiron.dynamics import NotTendingToInfinityError, OrbitTooShortError, compute_orbit
from valiron.limits import SweepPlan, first_coordinate_ratio_fn, k_families
from valiron.renorm import (
    LOG_SCALE_CEILING,
    DegenerateGridError,
    EvaluationGrid,
    NonHyperbolicError,
    PROBE_MAX_STEPS,
    advance,
    default_grid,
    initial_state,
    run_valiron,
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

    def test_the_magnitude_rounds_as_the_row_check(self):
        """``_magnitude`` takes |z| as the row check does, by np.hypot: where |z|
        is the largest component, it equals the bound the check returns."""
        m = make_halfplane_affine(2.0, 1.0, 2)
        state = initial_state(m, default_grid(2))
        for _ in range(34):
            state = advance(state, m)
        z, w, _, top = state._raw[0]
        assert renorm._magnitude(z, w) == top == geometry.check_siegel_arrays(z, w)
        # np.abs of a complex array may round |z| apart from np.hypot
        rng = np.random.default_rng(5)
        x = np.exp(rng.uniform(0.0, 60.0, (64, 16)))
        w = np.zeros((16, 1), dtype=np.complex128)
        for z in x + 1j * x * rng.uniform(-1.0, 1.0, x.shape):
            assert renorm._magnitude(z, w) == geometry.check_siegel_arrays(z, w)

    @pytest.mark.parametrize("name", sorted(catalog()))
    def test_a_step_is_one_array_evaluation(self, name):
        """The base and the grid images go through one call of the map's batch;
        the grid rows are the images of the step before, not evaluated again."""
        m = catalog()[name]
        scalar_calls, batch_rows = [], []
        counted = replace(m, evaluator=lambda q: scalar_calls.append(q) or m.evaluator(q),
                          batch=lambda z, w: batch_rows.append(len(z)) or m.batch(z, w))
        grid = default_grid(m.dim)
        state = initial_state(counted, grid)
        batch_rows.clear()
        for _ in range(3):
            state = advance(state, counted)
        assert batch_rows == [1 + len(grid)] * 3
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
        """sigma_at replays the run: bit-equal on the grid, and residual_at of the
        grid is the run's residuals bit for bit.  A conjugate's run takes the
        grid's images by its inner map, while its evaluator maps them out by T:
        sigma_at of the evaluator's images is sigma_image bit for bit on a map
        that is not a conjugate, and within 2e-15 of it on a conjugate
        (measured: at most 4.9e-16 here)."""
        extra = SiegelAutomorphism.composite(
            [SiegelAutomorphism.scale(3.0, 0.5), SiegelAutomorphism.translate([0.3 + 0.4j])])
        maps = (
            make_valiron_example(2.0, PsiChoice("cayley")),
            make_valiron_example(2.0, PsiChoice("oscillating")),
            make_halfplane_affine(2.0, 1.0, 1),
            make_halfplane_affine(2.0, 1.0, 2),
            conjugate_map(make_siegel_linear(2.0, 2), SiegelAutomorphism.scale(4.0)),
            *(conjugate_map(make_halfplane_affine(2.0, 1.0, 2), t) for t in (*CHAINS.values(), extra)),
        )
        for m in maps:
            result = run_valiron(m)
            images = [result.map.evaluator(p) for p in result.grid.points]
            assert np.array_equal(result.sigma_at(result.grid.points), result.sigma)
            assert result.residual_at(result.grid.points).tobytes() == \
                result.schroder_residuals.tobytes()
            at_images = result.sigma_at(images)
            if m.conjugation is None:
                assert np.array_equal(at_images, result.sigma_image)
            else:
                rel = np.abs(at_images - result.sigma_image) / np.abs(result.sigma_image)
                assert rel.max() <= 2e-15, m.name

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
        for res in (result, run_valiron(conjugate_map(m, CHAINS["scale(4); translate(1)"]))):
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
        for res in (result, run_valiron(conjugate_map(m, CHAINS["scale(4); translate(1)"]), n_max=0)):
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
        is the map's own double image of its grid point, while the run steps
        the inner image.  Measured (numpy 2.4), worst relative error on the
        grid, on the images and of the normalization: 3.4e-17, 1.4e-16,
        3.4e-18 for scale(4); translate(1) and 1.3e-16, 2.2e-16, 2.2e-17 for
        scale(3, 1); translate(0.5-0.25j); the images read 3.5e-16 on the
        latter when the run stepped T^-1 of the map's images.  Stepping
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
        """The run outlasts the probe: its 64 steps are row 0 of the stack, and
        no row is stepped alone."""
        m = make_halfplane_affine(1.2, 1.0, 2)  # x_32 ~ 342: the probe goes on to 64 steps
        rows = []
        result = run_valiron(replace(m, batch=lambda z, w: rows.append(len(z)) or m.batch(z, w)))
        want = compute_orbit(m, SiegelPoint(1.0, np.zeros(1)), PROBE_MAX_STEPS)
        # the grid's images, then the steps of the base and the 36 images: each
        # grid orbit point is evaluated once, G + (1 + G) n_stop rows for G = 36
        assert rows.count(1) == 0
        assert rows == [36] + [37] * result.n_stop and result.n_stop > PROBE_MAX_STEPS
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
        # the scalar defect, against the map's own multiplier
        q = pts[0]
        sq, s_img = result.sigma_at([q])[0], result.sigma_at([result.map.evaluator(q)])[0]
        assert abs(s_img - result.map.multiplier * sq) / (1.0 + abs(sq)) < 1e-9

    def test_residual_at_is_one_image_evaluation_and_one_replay(self):
        """One batch call of the points per stored step, and one more for their
        images, which are the points one step on."""
        result = run_valiron(make_valiron_example(2.0, PsiChoice("oscillating")))
        m, rows = result.map, []
        result = replace(result, map=replace(m, batch=lambda z, w: rows.append(len(z)) or m.batch(z, w)))
        pts = [sample_siegel(2, s, 61) for s in range(8)]
        s = result.sigma_at(pts)
        s_img = result.sigma_at([result.map.evaluator(p) for p in pts])
        want = np.abs(s_img - result.multiplier * s) / (1.0 + np.abs(s))
        rows.clear()
        assert np.array_equal(result.residual_at(pts), want)
        assert rows == [8] * (result.n_stop + 1)
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

    def test_a_slow_parabolic_map_does_not_escape_the_probe(self):
        """z + 0.1 looks parabolic on its 64-step probe, which is not continued:
        the escape test rejects it, with the final |z| = 7.4."""
        parabolic = HoloMap(
            domain="siegel",
            dim=1,
            evaluator=lambda q: SiegelPoint(q.z + 0.1),
            dw=INFINITY,
            multiplier=2.0,
            name="slow parabolic",
        )
        with pytest.raises(NotTendingToInfinityError, match=r"final \|z\| = 7\.39"):
            run_valiron(parabolic)

    @pytest.mark.parametrize("lam, n_max", [(1.07, 200), (1.05, 200), (1.02, 2000)])
    def test_slow_hyperbolic_maps_converge(self, lam, n_max):
        """Below lam = 100^(1/64) the 64-step probe ends short of |z| = 100 and is
        continued until the escape test can decide; the run then converges to
        the closed form.  The affine map's sigma_n approach sigma geometrically,
        by 1/lam a step, so the Cauchy stop leaves up to tol lam / (lam - 1)."""
        tol = 1e-8
        linear = run_valiron(make_siegel_linear(lam, 2), tol=tol, n_max=n_max)
        assert linear.converged and len(linear.base_orbit) > PROBE_MAX_STEPS + 1
        z = linear.grid.points.z
        assert np.max(np.abs(linear.sigma - z)) <= tol
        affine = run_valiron(make_halfplane_affine(lam, 0.01, 2), tol=tol, n_max=2000)
        assert affine.converged
        drift = 0.01 / (lam - 1.0)
        assert np.max(np.abs(affine.sigma - (z + 1j * drift))) <= tol * lam / (lam - 1.0)
        # the default n_max caps the probe: at lam = 1.02 it ends short of 100
        if n_max > 200:
            with pytest.raises(NotTendingToInfinityError):
                run_valiron(make_siegel_linear(lam, 2), tol=tol)

    def test_states_and_results_compare_by_identity(self):
        m = make_halfplane_affine(2.0, 1.0, 2)
        grid = default_grid(2)
        for make in (lambda: initial_state(m, grid), lambda: run_valiron(m, n_max=5)):
            a, b = make(), make()
            assert a == a and a != b
            assert hash(a) == hash(a) and len({a, b}) == 2
        state = initial_state(m, grid)
        moved = replace(state, n=7)
        assert moved.n == 7 and moved != state and moved.z is state.z

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

    @pytest.mark.parametrize("tol", [math.nan, -1e-8, math.inf, -math.inf])
    def test_a_tol_that_no_cauchy_stop_backs_is_rejected(self, tol):
        """Every step passes a Cauchy test against an infinite tol, none against
        a NaN or negative one; tol = 0 is legal and runs to n_max (above)."""
        with pytest.raises(ValueError, match=r"need a finite tol >= 0"):
            run_valiron(make_siegel_linear(2.0, 1), tol=tol)

    @pytest.mark.parametrize("m, n_stop", [
        (make_siegel_linear(2.0, 2), 994),
        (make_halfplane_affine(2.0, 1.0, 2), 994),
        (make_siegel_linear(1.5, 3), 1700),
        # T^-1 puts the inner rows a factor 3 or 4 above the rows of the map
        *((conjugate_map(make_halfplane_affine(2.0, 1.0, 2), t), 992) for t in CHAINS.values()),
    ])
    def test_the_scale_ceiling_stops_the_run(self, m, n_stop):
        result = run_valiron(m, tol=0.0, n_max=3000)
        assert not result.converged
        assert result.n_stop == n_stop
        assert result.warnings[-1] == f"scale ceiling reached at step {n_stop}; stopping before n_max"

    def test_the_image_bound_does_not_move_the_ceiling(self):
        """The bound that a step's image check returns is at least the largest
        component of the raw rows, and a state made by ``replace``, which has
        no raw rows and is de-normalized and checked in full, stops at the
        same step as the states that ``advance`` made."""
        m = make_halfplane_affine(2.0, 1.0, 2)

        def last_state(keep_raw):
            state = initial_state(m, default_grid(2))
            while True:
                (z, w, _, top), (g_z, g_w, _, g_top), _ = state._raw
                parts = z.tolist() + w.ravel().tolist() + g_z.tolist() + g_w.ravel().tolist()
                assert max(map(abs, parts)) <= max(top, g_top) or state.n == 0
                if not keep_raw:
                    state = replace(state)
                    assert state._raw is None
                try:
                    state = advance(state, m)
                except ScaleOverflowError:
                    return state

        kept, replaced = last_state(True), last_state(False)
        assert kept.n == replaced.n == 994
        assert kept.log_x == pytest.approx(replaced.log_x, rel=1e-12)

    @pytest.mark.parametrize("lam, b", [(1.2, 1.0), (1.05, 0.5)])
    def test_a_long_run_stays_on_the_closed_form(self, lam, b):
        """Each step evaluates the checked images themselves, not rescaled
        copies of them, so 3000 steps leave sigma within 1e-14 of z + i b / (lam - 1)."""
        result = run_valiron(make_halfplane_affine(lam, b, 2), tol=0.0, n_max=3000)
        assert result.n_stop == 3000
        want = result.grid.points.z + 1j * b / (lam - 1.0)
        assert np.max(np.abs(result.sigma - want) / np.abs(want)) < 1e-14


def _bits(a) -> bytes:
    return np.asarray(a).tobytes()


def _shift_map(batch) -> HoloMap:
    """A map of H^1 given by ``batch`` alone, declaring a multiplier it may not have."""
    return HoloMap(domain="siegel", dim=1, dw=INFINITY, multiplier=2.0, batch=batch, name="shift")


class TestBaseOrbit:
    """The base orbit is row 0 of the stack.  It is the probe of the base
    (1, 0), bit for bit: 32 steps, 64 if x_32 < 1e8, more where a slow
    hyperbolic map has not yet escaped |z| = 100; row 0 is stepped alone only
    past where the stack stops."""

    CASES = {
        **{name: (m, {}) for name, m in catalog().items()},
        **{f"conjugated by {name}": (conjugate_map(make_halfplane_affine(2.0, 1.0, 2), t), {})
           for name, t in CHAINS.items()},
        "black box": (replace(make_halfplane_affine(2.0, 1.0, 2), batch=None), {}),
        "ball side": (make_ball_map_from_siegel(make_siegel_linear(2.0, 2)), {}),
        "escape extension": (make_siegel_linear(1.05, 2), {}),
        "converged before the gate": (make_siegel_linear(2.0, 2), {"n_max": 3}),
        "ceiling before the gate": (make_siegel_linear(1e10, 2), {"tol": 0.0}),
        "conjugated, ceiling before the gate": (
            conjugate_map(make_siegel_linear(1e10, 2), CHAINS["scale(4); translate(1)"]),
            {"tol": 0.0}),
    }

    @pytest.mark.parametrize("name", sorted(CASES))
    def test_the_base_orbit_is_the_probe(self, name):
        m, kw = self.CASES[name]
        got = run_valiron(m, **kw).base_orbit
        want = O.probe_orbit(m, kw.get("n_max", 200))
        assert got.points.z.tobytes() == want.points.z.tobytes()
        assert got.points.w.tobytes() == want.points.w.tobytes()
        assert got.x.tobytes() == want.x.tobytes()
        assert got.cutoff == want.cutoff
        assert (got.inner is None) == (want.inner is None)
        if want.inner is not None:
            assert got.inner.points.z.tobytes() == want.inner.points.z.tobytes()
            assert got.inner.points.w.tobytes() == want.inner.points.w.tobytes()

    @pytest.mark.parametrize("lam, n_max, stack, probe", [
        (2.0, 3, 3, 32),       # converged before the gate: 29 steps alone
        (1.05, 200, 3, 103),   # and continued to escape |z| = 100: 100 alone
        (1.2, 40, 40, 64),     # stopped at n_max before the 64 steps
        (1.2, 200, 104, 64),   # the run outlasts the probe: none alone
    ])
    def test_row_0_goes_on_alone_only_past_the_stack(self, lam, n_max, stack, probe):
        """One-row calls of the batch are the base orbit's steps past the
        stack's last; the grid's images come first, in one call, then each
        step maps the base and the 36 images."""
        m = make_halfplane_affine(lam, 1.0, 2) if lam == 1.2 else make_siegel_linear(lam, 2)
        rows = []
        result = run_valiron(replace(m, batch=lambda z, w: rows.append(len(z)) or m.batch(z, w)),
                             n_max=n_max)
        assert result.n_stop == stack and len(result.base_orbit) == probe + 1
        assert rows == [36] + [37] * stack + [1] * max(0, probe - stack)

    @pytest.mark.parametrize("shift, error", [(2.0, NonHyperbolicError),
                                              (0.1, NotTendingToInfinityError)])
    def test_a_map_that_fails_the_gate_stops_the_stack_there(self, shift, error):
        """z + 2 and z + 0.1 are rejected by the gate at step 64, so the stack,
        of the base and the images of the 9 grid points, steps 64 times."""
        rows = []
        m = _shift_map(lambda z, w: rows.append(len(z)) or (z + shift, w))
        with pytest.raises(error):
            run_valiron(m)
        assert rows == [9] + [10] * PROBE_MAX_STEPS

    def test_the_gate_comes_before_the_errors_of_the_grid_images(self):
        """``initial_state`` runs first, but its error waits for the gate: a
        parabolic map whose grid images leave the domain gets the gate's
        error, and a hyperbolic one the error of the first such image."""
        parabolic = _shift_map(lambda z, w: (np.where(z.imag == 0.0, z + 2.0, -z), w))
        with pytest.raises(NonHyperbolicError):
            run_valiron(parabolic)
        hyperbolic = _shift_map(lambda z, w: (np.where(z.imag == 0.0, 2.0 * z, -z), w))
        with pytest.raises(DomainError, match=r"Re z - \|\|w\|\|\^2 = -1\.0$"):
            run_valiron(hyperbolic)

    def test_a_step_error_before_the_gate_is_raised_after_it(self):
        """A stack step that fails before the gate has decided leaves row 0 to
        go on alone; the gate's error comes first, and the step's own error
        follows a gate that passes.  Neither warns of the overflow."""
        # rows off the real axis overflow on the second step, the base never
        m = _shift_map(lambda z, w: (np.where(z.imag == 0.0, z + 2.0, 1e200 * z), w))
        grid = EvaluationGrid([SiegelPoint(1e290, [0.0]), SiegelPoint(2.0, [0.0])])
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(NonHyperbolicError):
                run_valiron(m)
            with pytest.raises(NonFiniteError):
                run_valiron(make_siegel_linear(1e10, 2), grid)
            with pytest.raises(OrbitTooShortError, match=r"got 2 \(base orbit stopped: "
                               r"scale overflow at step 1\)$"):
                run_valiron(make_siegel_linear(1e200, 2))

    def test_a_ceiling_before_the_gate_keeps_the_warnings_in_order(self):
        """The stack meets the scale ceiling at step 29, before the gate at 32:
        the run stops there, and the warnings list the hypotheses first."""
        m = conjugate_map(make_siegel_linear(1e10, 2), CHAINS["scale(4); translate(1)"])
        result = run_valiron(m, tol=0.0)
        assert result.n_stop == 29 and result.base_orbit.cutoff is not None
        assert [w.split(":")[0] for w in result.warnings] == [
            "outside-hypotheses", "scale ceiling reached at step 29; stopping before n_max"]


class TestRunAndAdvance:
    """``run_valiron`` steps the rows on arrays, and ``advance`` steps a state,
    through one step kernel: the run is ``advance`` repeated, bit for bit,
    and ``sigma_at`` of the grid replays it."""

    CHAIN = CHAINS["scale(3, 1); translate(0.5-0.25j)"]

    @pytest.mark.parametrize("m, kwargs, n_stop", [
        (make_halfplane_affine(1.2, 1.0, 2), {}, 104),
        (conjugate_map(make_halfplane_affine(2.0, 1.0, 2), CHAIN), {}, 54),
        (replace(make_halfplane_affine(1.2, 1.0, 2), batch=None), {}, 104),
        (make_siegel_linear(2.0, 2), {"tol": 0.0, "n_max": 3000}, 994),
        (conjugate_map(make_halfplane_affine(2.0, 1.0, 2), CHAIN), {"tol": 0.0, "n_max": 3000}, 992),
    ], ids=["affine", "conjugated", "black box", "ceiling", "conjugated ceiling"])
    def test_the_run_is_advance_repeated(self, m, kwargs, n_stop, monkeypatch):
        made = []

        class Spy(renorm.RenormalizedState):
            def __post_init__(self):
                made.append(self)
                super().__post_init__()

        monkeypatch.setattr(renorm, "RenormalizedState", Spy)
        result = run_valiron(m, **kwargs)
        monkeypatch.undo()
        assert result.n_stop == n_stop
        run = made[-1]  # the state the run made at its end
        state = initial_state(m, result.grid)
        cauchy, pairs = [], []
        for _ in range(n_stop):
            nxt = advance(state, m)
            cauchy.append(float(np.max(np.abs(nxt.sigma - state.sigma))))
            pairs.append(nxt.scales)
            state = nxt
        if n_stop in (992, 994):  # the run stopped at the ceiling, as advance does
            with pytest.raises(ScaleOverflowError):
                advance(state, m)
        assert (state.n, state.log_x) == (run.n, run.log_x)
        assert _bits(state.z) == _bits(run.z) and _bits(state.w) == _bits(run.w)
        assert _bits(state.sigma) == _bits(result.sigma)
        assert _bits(state.sigma_img) == _bits(result.sigma_image)
        residuals = renorm._schroder_defect(state.sigma_img, state.sigma, result.multiplier)
        assert _bits(residuals) == _bits(result.schroder_residuals)
        assert _bits(cauchy) == _bits(result.cauchy_history)
        assert _bits(pairs) == _bits(result.scale_pairs)
        assert _bits(result.sigma_at(result.grid.points)) == _bits(result.sigma)
        assert _bits(result.residual_at(result.grid.points)) == _bits(result.schroder_residuals)


class TestOneStackPerStep:
    """A step evaluates and checks the base and the grid images alone: the
    images of one step are the grid of the next.  The run equals, bit for
    bit, the run that stepped the whole stack [base, grid, images] on every
    step (``oracle.full_stack_run``), ceiling included."""

    CONJUGATED = {f"conjugated by {name}": conjugate_map(make_halfplane_affine(2.0, 1.0, 2), t)
                  for name, t in CHAINS.items()}
    # name -> (map, run_valiron keywords, pinned n_stop or None)
    CASES = {
        **{name: (m, {}, None) for name, m in catalog().items()},
        **{f"{name}, black box": (replace(m, batch=None), {}, None) for name, m in catalog().items()},
        **{name: (m, {}, 54) for name, m in CONJUGATED.items()},
        "halfplane_affine(1.02,1,3)": (make_halfplane_affine(1.02, 1.0, 3), {"n_max": 2000}, 933),
        **{f"{name} to the ceiling": (m, {"tol": 0.0, "n_max": 3000}, n_stop) for name, (m, n_stop) in {
            "siegel_linear(2,2)": (make_siegel_linear(2.0, 2), 994),
            "halfplane_affine(2,1,2)": (make_halfplane_affine(2.0, 1.0, 2), 994),
            "siegel_linear(1.5,3)": (make_siegel_linear(1.5, 3), 1700),
            **{name: (m, 992) for name, m in CONJUGATED.items()}}.items()},
    }

    @pytest.mark.parametrize("name", sorted(CASES))
    def test_the_run_equals_the_full_stack_run(self, name):
        m, kw, n_stop = self.CASES[name]
        got, want = run_valiron(m, **kw), O.full_stack_run(m, **kw)
        assert n_stop in (None, got.n_stop)
        for attr in ("sigma", "sigma_image", "schroder_residuals", "cauchy_history", "scale_pairs"):
            assert _bits(getattr(got, attr)) == _bits(want[attr]), attr
        assert (got.n_stop, got.converged, got.warnings) == \
            (want["n_stop"], want["converged"], want["warnings"])
        assert _bits([got.normalization]) == _bits([want["normalization"]])
        # row 0 of the stack is the base orbit (a conjugate's inner orbit) where both reach
        base = got.base_orbit.points if m.conjugation is None else got.base_orbit.inner.points
        k = min(len(base), got.n_stop + 1)
        assert _bits(base.z[:k]) == _bits(want["base_rows"][0][:k])
        assert _bits(base.w[:k]) == _bits(want["base_rows"][1][:k])

    def test_the_first_step_reads_the_bound_of_the_grid(self):
        """The first step does not evaluate the grid, yet its bound, or its
        largest component where no bound is known, enters the ceiling test, as
        when every row was checked again: here the grid is the largest row."""
        m = _shift_map(lambda z, w: (z / 1e10, w))
        grid = EvaluationGrid([SiegelPoint(1e305), SiegelPoint(2.0)])
        for phi in (m, conjugate_map(m, SiegelAutomorphism.scale(2.0))):
            state = initial_state(phi, grid)
            assert state._raw[0][3] < 1e300  # the images' bound alone
            with pytest.raises(ScaleOverflowError):
                advance(state, phi)


class TestInputChecks:
    """A step evaluates the previous step's checked images and checks its own
    images once: each row is checked once, and every error stays.  The
    counters sit on the private check that ``maps._images`` and
    ``maps._entered`` run, and on the public one of a state made by ``replace``."""

    @staticmethod
    def _counted(monkeypatch):
        calls = []

        def counting(check):
            def counting_check(z, w):
                calls.append(len(z))
                return check(z, w)
            return counting_check

        monkeypatch.setattr(maps, "_check_rows", counting(geometry._check_rows))
        monkeypatch.setattr(renorm, "check_siegel_arrays", counting(geometry.check_siegel_arrays))
        return calls

    @pytest.mark.parametrize("name", sorted(catalog()))
    def test_each_step_is_one_check(self, name, monkeypatch):
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
        rows = 1 + len(grid)
        assert per_step == [[rows]] * result.n_stop
        pts = [sample_siegel(m.dim, s, 64) for s in range(8)]
        result.sigma_at(pts)
        assert calls == [8] * result.n_stop

    @pytest.mark.parametrize("chain", sorted(CHAINS))
    def test_a_conjugated_step_evaluates_the_inner_map_on_checked_rows(self, chain, monkeypatch):
        """A conjugated ``initial_state``, ``advance``, ``sigma_at`` and
        ``residual_at`` call the inner map's batch alone, never an evaluation
        of the conjugated map.  ``initial_state`` checks T^-1 of the base and
        the grid once and the grid's inner images once, and the first step's
        inner map gets the base and the images of those rows; each step checks
        each inner image once, and no row is mapped by T and back."""
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
        g = len(grid)
        checks = []
        check = geometry._check_rows

        def counting_check(z, w):
            checks.append((z.copy(), w.copy()))
            return check(z, w)

        monkeypatch.setattr(maps, "_check_rows", counting_check)
        state = initial_state(m, grid)
        assert outer_rows == []
        assert [len(z) for z, _ in inner_rows] == [g]
        # T^-1 of the base and the grid, then the grid's inner images
        assert [len(z) for z, _ in checks] == [1 + g, g]
        first = [np.concatenate((checks[0][k][:1], checks[1][k])) for k in (0, 1)]
        inner_rows.clear()
        checks.clear()
        for k in range(4):
            state = advance(state, m)
            assert [len(z) for z, _ in inner_rows] == [1 + g]
            assert [len(z) for z, _ in checks] == [1 + g]
            if k == 0:
                assert first[0].tobytes() == inner_rows[0][0].tobytes()
                assert first[1].tobytes() == inner_rows[0][1].tobytes()
            inner_rows.clear()
            checks.clear()
        assert outer_rows == []
        result = run_valiron(m, n_max=12)
        for calls in (inner_rows, outer_rows, checks):
            calls.clear()
        n = 8
        pts = [sample_siegel(2, s, 64) for s in range(n)]
        result.sigma_at(pts)
        assert [len(z) for z, _ in inner_rows] == [n] * result.n_stop
        assert [len(z) for z, _ in checks] == [n] + [n] * result.n_stop
        for calls in (inner_rows, checks):
            calls.clear()
        result.residual_at(pts)
        assert [len(z) for z, _ in inner_rows] == [n] * (result.n_stop + 1)
        assert [len(z) for z, _ in checks] == [n] + [n] * (result.n_stop + 1)
        assert outer_rows == []

    def test_grid_and_residual_rows_are_checked_once(self, monkeypatch):
        """``initial_state`` checks only the grid's images: the grid was checked
        when it was built.  ``residual_at`` checks the images of each replay
        step of its points, which were checked when they were made, and of one
        step more for their images, a row in the slack band included."""
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
        assert calls == [8] * (result.n_stop + 1)
        # a point between one and two slack edges from the boundary is stepped as any other
        calls.clear()
        band = SiegelPoint(1.0 + 1.5 * BOUNDARY_SLACK, [1.0])
        result.residual_at(pts + [band])
        assert calls == [9] * (result.n_stop + 1)

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

    def test_a_run_through_a_band_row_checks_each_image_once(self, monkeypatch):
        """An image row between one and two slack edges from the boundary passes
        its check, and the next steps map it as it is: each step checks its
        images once.  The images of a step are the grid of the next, so the
        run carries the band row as its last grid row, with the linear map's
        sigma of that row, and every other row on the closed form."""
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
        assert per_step == [1] * 6
        # the linear map keeps the row in the band
        z, w = state._raw[0][:2]
        height = float(z[-1].real - norm_sq(w[-1]))
        assert BOUNDARY_SLACK < height / abs(z[-1]) < 2.0 * BOUNDARY_SLACK
        result = run_valiron(m, tol=0.0, n_max=12)
        assert result.n_stop == 12
        assert np.array_equal(result.sigma[:-1], result.grid.points.z[:-1])
        # phi^4 of the last grid point is the band row at x_3 = 8, and x_n = 2^n
        assert result.sigma[-1] == 8.0 * (1.0 + 1.5 * BOUNDARY_SLACK) / 16.0

    def test_a_state_made_by_replace_is_checked_in_full(self, monkeypatch):
        """A state with no raw rows, as ``replace`` makes it, is de-normalized by
        x_n and checked in full before its step, which lands within rounding of
        the step of the state it copies."""
        m = make_halfplane_affine(1.2, 1.0, 2)
        grid = default_grid(2)
        state = initial_state(m, grid)
        for _ in range(5):
            state = advance(state, m)
        kept = advance(state, m)
        calls = self._counted(monkeypatch)
        copied = advance(replace(state), m)
        assert calls == [1 + 2 * len(grid), 1 + len(grid)]
        assert copied.n == kept.n and copied._raw is not None
        assert np.max(np.abs(copied.sigma - kept.sigma)) < 1e-14

    @pytest.mark.parametrize("value", [complex(0.5, 1.0), complex(math.nan, 0.0)])
    def test_an_image_outside_the_domain_gives_the_error_of_its_check(self, value):
        """An image that leaves H^N, mapped from rows that were checked only as
        images, raises the error of SiegelPoint on the first bad row."""
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
        w_bad = base.batch(*state._raw[0][:2])[1][-2]
        with pytest.raises(DomainError) as want:
            SiegelPoint(value, w_bad)
        with pytest.raises(type(want.value)) as got:
            advance(state, m)
        assert str(got.value) == str(want.value)


class TestWarningHygiene:
    """The image check runs under its caller's ``np.errstate``: every public
    entry that maps rows holds one, so images that overflow, on more rows
    than ``FEW_ROWS`` (the array lane of the check), give the entry's usual
    outcome and no RuntimeWarning."""

    M = make_siegel_linear(1e10, 2)  # 5e289 -> 5e299 -> inf

    def _rows(self, z):
        n = FEW_ROWS + 4
        return np.array([z] + [2.0 + k for k in range(n - 1)], dtype=np.complex128), \
            np.zeros((n, 1), dtype=np.complex128)

    def _quietly(self, call, error):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            if error is None:
                return call()
            with pytest.raises(error, match="non-finite coordinates"):
                call()

    def test_evaluate_batch(self):
        self._quietly(lambda: maps.evaluate_batch(self.M, *self._rows(5e299)), NonFiniteError)

    def test_compute_orbit(self):
        """An orbit is cut where its image overflows; a conjugated one maps its
        inner rows by T in one call, checked as one batch past FEW_ROWS."""
        start = SiegelPoint(5e200, [0.0])
        orbit = self._quietly(lambda: compute_orbit(self.M, start, 20), None)
        assert orbit.cutoff == "scale overflow at step 10"
        conj = conjugate_map(self.M, CHAINS["scale(4); translate(1)"])
        orbit = self._quietly(lambda: compute_orbit(conj, start, 20), None)
        assert orbit.cutoff is not None and len(orbit) > FEW_ROWS

    def test_run_valiron_and_advance(self):
        z, w = self._rows(5e289)
        grid = EvaluationGrid(SiegelBatch(z, w))
        self._quietly(lambda: run_valiron(self.M, grid), NonFiniteError)
        state = initial_state(self.M, grid)
        self._quietly(lambda: advance(advance(state, self.M), self.M), NonFiniteError)

    def test_sigma_at_and_residual_at(self):
        result = run_valiron(self.M, tol=0.0)
        assert result.n_stop > 2
        points = SiegelBatch(*self._rows(5e289))
        self._quietly(lambda: result.sigma_at(points), NonFiniteError)
        self._quietly(lambda: result.residual_at(points), NonFiniteError)

    def test_a_sweep_plan_probe(self):
        m = _shift_map(lambda z, w: (1e308 * z, w))
        plan = SweepPlan(0)
        sweep = plan.sweep(k_families(1, (10.0, 100.0)))
        assert len(plan._stack()) > FEW_ROWS
        self._quietly(lambda: plan.verdict(first_coordinate_ratio_fn(m), sweep), NonFiniteError)


class TestTransport:
    """sigma of T o phi o T^-1 is sigma of phi at T^-1, up to a positive factor."""

    @staticmethod
    def _moved_grid(result, t) -> SiegelBatch:
        grid = result.grid.points
        return SiegelBatch(*apply_automorphism_arrays(t, grid.z, grid.w))

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
        factor, sigma = O.transported_sigma(result, t)
        lam = result.multiplier
        pts = self._moved_grid(result, t)
        assert float(np.max(O.schroder_defect(sigma, conjugate_map(result.map, t), lam, pts))) < 1e-12
        # phi_c(T Z) = T(phi Z), so the grid samples transport by the same factor
        s, s_img = factor * result.sigma, factor * result.sigma_image
        assert np.max(np.abs(s_img - lam * s) / (1.0 + np.abs(s))) < 1e-12
        # normalization Re sigma~(1, 0) = 1 survives the transport
        base_val = sigma(SiegelBatch([1.0], [[0.0]]))[0]
        assert base_val.real == pytest.approx(1.0, rel=1e-12)

    def test_transport_agrees_with_direct_pipeline(self):
        m = make_siegel_linear(2.0, 2)
        t = SiegelAutomorphism.translate(np.array([1.0 + 0j]))
        result = run_valiron(m)
        _, sigma = O.transported_sigma(result, t)
        direct = run_valiron(conjugate_map(m, t))
        pts = self._moved_grid(result, t)
        diff = np.max(np.abs(sigma(pts) - direct.sigma_at(pts)))
        assert diff < 1e-6

    def test_scale_conjugation_of_linear_map_is_identity_on_sigma(self):
        """T = dilation conjugates z -> lam z to itself, so sigma~ = z."""
        result = run_valiron(make_siegel_linear(2.0, 2))
        t = SiegelAutomorphism.scale(2.0)
        _, sigma = O.transported_sigma(result, t)
        pts = self._moved_grid(result, t)
        assert np.max(np.abs(sigma(pts) - pts.z)) < 1e-12


class TestBallSide:
    def test_theta_solves_ball_schroder(self):
        """Theta = sigma o C solves Theta o psi = lam Theta for the ball map psi."""
        m = make_siegel_linear(2.0, 2)
        result = run_valiron(m)
        assert result.converged
        ball_map = make_ball_map_from_siegel(m)

        def theta(p):
            return result.sigma_at([cayley_to_siegel(p)])[0]

        for q in list(result.grid.points)[:4]:
            p = cayley_to_ball(q)
            lhs = theta(ball_map(p))
            rhs = result.multiplier * theta(p)
            assert abs(lhs - rhs) < 1e-9 * max(1.0, abs(rhs))
