"""End-to-end acceptance checks, one test per shipped guarantee.

Each test wraps its assertions in the `acceptance` recorder fixture, so the
terminal summary prints one pass/fail line per criterion.
"""

import math
import time

import numpy as np
import pytest

from valiron.cli import main
from valiron.dynamics import (
    classify_sequence,
    compute_orbit,
    estimate_drift,
    estimate_multiplier,
    julia_margin,
)
from valiron.geometry import (
    BallPoint,
    LinearProjectionAtInfinity,
    SiegelAutomorphism,
    SiegelPoint,
    apply_automorphism,
    cayley_to_ball,
    cayley_to_siegel,
    e1_direction,
    first_coordinate_projection,
    horoball_value,
    kobayashi_distance,
    koranyi_contains,
    koranyi_region_at_infinity,
)
from valiron.limits import (
    c_special_family,
    e0_limit,
    generate_sequences,
    jwc_check,
    k_limit,
    koranyi_family,
    left_inverse_ratio_check,
    projection_invariance_check,
    radial_family,
    zero_special_family,
)
from valiron.maps import (
    PsiChoice,
    ScaleOverflowError,
    catalog,
    iterate,
    make_ball_map_from_siegel,
    make_halfplane_affine,
    make_siegel_linear,
    make_valiron_example,
)
from valiron.renorm import advance, default_grid, initial_state, run_valiron

from conftest import sample_ball, sample_siegel


def test_criterion_1_shear_oracle(acceptance):
    """Renormalization on the shear example recovers sigma = z + 0.5 w^2."""
    with acceptance(1, "shear oracle: sigma = z + 0.5 w^2 within 1e-9, n_stop <= 4"):
        t0 = time.perf_counter()
        m = make_valiron_example(2.0, PsiChoice("constant", 0.5))
        result = run_valiron(m)
        assert result.converged
        assert result.n_stop <= 4
        expected = np.array([q.z + 0.5 * q.w[0] ** 2 for q in result.grid.points])
        assert np.max(np.abs(result.sigma - expected)) < 1e-9
        assert np.max(result.schroder_residuals) < 1e-9
        assert time.perf_counter() - t0 < 1.0


def test_criterion_2_automorphism_oracle(acceptance):
    """A linear dilation already solves its own functional equation."""
    with acceptance(2, "linear oracle: sigma = z within 1e-10"):
        t0 = time.perf_counter()
        result = run_valiron(make_siegel_linear(2.0, 2))
        assert result.converged
        expected = np.array([q.z for q in result.grid.points])
        assert np.max(np.abs(result.sigma - expected)) < 1e-10
        assert np.max(result.schroder_residuals) < 1e-10
        assert time.perf_counter() - t0 < 1.0


def test_criterion_3_multiplier_and_drift_oracle(acceptance):
    """Half-plane affine map: multiplier, drift, and the q_n diagnostics."""
    with acceptance(3, "affine oracle: lambda = 2, L = 1, q_n -> 2 + i"):
        m = make_halfplane_affine(2.0, 1.0, 1)
        orbit = compute_orbit(m, SiegelPoint(1.0, np.zeros(0)), 60)
        lam = estimate_multiplier(orbit)
        assert abs(lam.value - 2.0) <= 1e-8
        drift = estimate_drift(orbit)
        assert abs(drift.value - 1.0) <= 1e-7
        assert abs(drift.q[-1] - (2.0 + 1.0j)) <= 1e-6
        diffs = np.diff(drift.k_to_one)
        assert np.all(diffs <= 1e-9)


def _conversion_holds(cls, seq) -> None:
    # witness conversion: amplitudes above sqrt(1 + T^2)/(1 - a) contain the
    # tail; (1 + 1/x) covers the finite-scale gap between |z + 1| and x
    tail = seq[cls.tail_start:]
    x_min = min(q.z.real for q in tail)
    region = koranyi_region_at_infinity(cls.m_predicted * (1.0 + 1.0 / x_min) * 1.00001)
    for q in tail:
        assert koranyi_contains(region, q)


def test_criterion_4_classification_equivalence(acceptance):
    """10^3 synthetic sequences per kind classify consistently."""
    with acceptance(4, "4 x 10^3 sequences: three-route classification agrees"):
        t0 = time.perf_counter()
        per_kind = 1000
        rng = np.random.default_rng(2024)

        for i in range(per_kind):
            n_dim = 2 + (i % 2)
            m_amp = float(np.exp(rng.uniform(math.log(1.2), math.log(64.0))))
            fam = koranyi_family(m_amp, n_dim)
            seqs = generate_sequences(fam, count=len(fam.seeds) + 1, seed=i)
            seq = seqs[i % len(seqs)]
            cls = classify_sequence(seq)
            assert cls.koranyi_m is not None
            _conversion_holds(cls, seq)

        for i in range(per_kind):
            n_dim = 2 + (i % 2)
            c_param = float(rng.uniform(0.05, 1.5))
            t_param = float(rng.uniform(0.0, 2.0))
            fam = c_special_family(c_param, t_param, n_dim)
            seqs = generate_sequences(fam, count=len(fam.seeds) + 1, seed=i)
            seq = seqs[i % len(seqs)]
            cls = classify_sequence(seq)
            assert cls.c_special is not None
            assert cls.c_special <= c_param + 1e-9
            assert cls.restricted and cls.restricted_t <= t_param + 1e-9
            assert cls.a_witness <= math.tanh(c_param) ** 2 + 1e-9
            _conversion_holds(cls, seq)

        for i in range(per_kind):
            n_dim = 2 + (i % 2)
            s = float(rng.uniform(1e-5, 8e-4))
            t_param = float(rng.uniform(0.0, 2.0))
            fam = zero_special_family(s, t_param, n_dim)
            seqs = generate_sequences(fam, count=len(fam.seeds) + 1, seed=i)
            seq = seqs[i % len(seqs)]
            cls = classify_sequence(seq)
            assert cls.special
            assert cls.restricted_t <= t_param + 1e-9
            _conversion_holds(cls, seq)

        for i in range(per_kind):
            n_dim = 1 + (i % 3)
            scale = float(rng.uniform(0.5, 50.0))
            ladder = tuple(scale * 10.0 ** k for k in range(1, 8))
            seq = generate_sequences(radial_family(n_dim, ladder))[0]
            cls = classify_sequence(seq)
            assert cls.special and cls.a_witness == 0.0
            assert cls.restricted and cls.restricted_t == 0.0
            assert cls.koranyi_m is not None
            _conversion_holds(cls, seq)

        assert time.perf_counter() - t0 < 10.0


def test_criterion_5_negative_control(acceptance):
    """Oscillating psi: no K-limit, E0-limit exists, renormalization works."""
    with acceptance(5, "oscillating psi: K-limit fails, E0-limit = 2, sigma exact"):
        psi = PsiChoice("oscillating")
        m = make_valiron_example(2.0, psi)

        def h(q):
            return m(q).z / q.z

        vk = k_limit(h, 2, tol=1e-2)
        assert vk.status == "no-limit"
        assert vk.witness[4] > 0.1

        ladder6 = tuple(10.0 ** k for k in range(1, 7))
        v0 = e0_limit(h, 2, tol=1e-2, ladder=ladder6)
        assert v0.exists
        assert abs(v0.value - 2.0) <= 1e-2

        result = run_valiron(m)
        assert result.converged
        expected = np.array(
            [q.z + q.w[0] ** 2 * psi(q.z) for q in result.grid.points]
        )
        assert np.max(np.abs(result.sigma - expected)) < 1e-8
        probes = [
            SiegelPoint(3.0 + 1.0j, np.array([0.5 + 0.25j])),
            SiegelPoint(10.0 - 2.0j, np.array([-1.0 + 0.5j])),
        ]
        got = result.sigma_at(probes)
        want = np.array([q.z + q.w[0] ** 2 * psi(q.z) for q in probes])
        assert np.max(np.abs(got - want)) < 1e-8


def _projection_vectors(n_dim: int) -> list:
    if n_dim == 1:
        return [np.zeros(0, dtype=np.complex128)]
    if n_dim == 2:
        return [np.array([0.5 + 0j]), np.array([0.3 + 0.4j])]
    return [np.array([0.5, 0j]), np.array([0.2 + 0.1j, -0.3 + 0j])]


def test_criterion_6_projection_suite(acceptance):
    """Projection distance decay, the two-part limit check, and the ratio."""
    with acceptance(6, "projections: invariance decay, jwc parts, ratio = lambda"):
        t0 = time.perf_counter()

        rho1 = LinearProjectionAtInfinity(np.array([1.0 + 0j]))
        pts = [SiegelPoint(200.0 * 4.0 ** j, np.zeros(1)) for j in range(12)]
        rep = projection_invariance_check(pts, rho1, tol=1e-2)
        assert rep.passed and rep.monotone
        assert rep.max_tail < 1e-2
        # the squared-tanh magnitude is already below 1e-2 at k = 200
        assert math.tanh(rep.distances[0]) ** 2 < 1e-2
        assert rep.distances[-1] < rep.distances[0]

        for name, m in catalog().items():
            jwc = jwc_check(m, first_coordinate_projection(m.dim), tol=1e-3)
            assert jwc.passed, name
            if m.dim >= 2:
                tilted = LinearProjectionAtInfinity(_projection_vectors(m.dim)[1])
                assert jwc_check(m, tilted, tol=1e-3).passed, name

        ladder9 = tuple(10.0 ** k for k in range(1, 10))
        for name, m in catalog().items():
            if name.startswith("valiron_example"):
                # w^2 psi(z) does not vanish along C-special approaches, so
                # the prerequisite fails and the check honestly declines
                rep = left_inverse_ratio_check(
                    m, first_coordinate_projection(m.dim), tol=1e-3
                )
                assert rep.status == "inconclusive"
                continue
            for a in _projection_vectors(m.dim):
                rep = left_inverse_ratio_check(
                    m, LinearProjectionAtInfinity(a), tol=1e-3, ladder=ladder9
                )
                assert rep.status == "confirmed", name
                assert abs(rep.ratio_verdict.value - m.multiplier) <= 1e-3, name

        assert time.perf_counter() - t0 < 10.0


def test_criterion_7_geometry_invariants(acceptance):
    """Cayley round-trips, isometries, triangle, contraction, Julia bounds."""
    with acceptance(7, "geometry: roundtrips, invariance, contraction, Julia"):
        t0 = time.perf_counter()

        for i in range(1000):
            n_dim = 1 + (i % 3)
            p = sample_ball(n_dim, seed=70, index=i)
            back = cayley_to_ball(cayley_to_siegel(p))
            assert np.max(np.abs(back.coords - p.coords)) < 1e-12
            q = sample_siegel(n_dim, seed=71, index=i)
            round_q = cayley_to_siegel(cayley_to_ball(q))
            assert abs(round_q.z - q.z) < 1e-12 * max(1.0, abs(q.z))
            if n_dim > 1:
                assert np.max(np.abs(round_q.w - q.w)) < 1e-12

        autos = [
            SiegelAutomorphism.scale(2.0),
            SiegelAutomorphism.scale(0.5, 0.7),
            SiegelAutomorphism.translate(np.array([0.3 + 0.4j])),
            SiegelAutomorphism.composite(
                [SiegelAutomorphism.scale(3.0), SiegelAutomorphism.translate(np.array([1.0 + 0j]))]
            ),
        ]
        for i in range(250):
            p = sample_siegel(2, seed=72, index=2 * i)
            q = sample_siegel(2, seed=72, index=2 * i + 1)
            d = kobayashi_distance(p, q)
            for t in autos:
                dt = kobayashi_distance(apply_automorphism(t, p), apply_automorphism(t, q))
                assert abs(dt - d) < 1e-10

        for i in range(1000):
            n_dim = 1 + (i % 3)
            a = sample_siegel(n_dim, seed=73, index=3 * i)
            b = sample_siegel(n_dim, seed=73, index=3 * i + 1)
            c = sample_siegel(n_dim, seed=73, index=3 * i + 2)
            assert kobayashi_distance(a, c) <= (
                kobayashi_distance(a, b) + kobayashi_distance(b, c) + 1e-9
            )

        maps = catalog()
        for name, m in maps.items():
            for i in range(125):
                p = sample_siegel(m.dim, seed=74, index=2 * i)
                q = sample_siegel(m.dim, seed=74, index=2 * i + 1)
                assert kobayashi_distance(m(p), m(q)) <= kobayashi_distance(p, q) + 1e-9, name

        for i in range(1000):
            name, m = sorted(maps.items())[i % len(maps)]
            q = sample_siegel(m.dim, seed=75, index=i)
            assert julia_margin(m, q) >= -1e-9, name

        tau = e1_direction(2)
        mb = make_ball_map_from_siegel(make_valiron_example(2.0, PsiChoice("constant", 0.5)))
        for i in range(1000):
            p = sample_ball(2, seed=76, index=i)
            assert horoball_value(mb(p), tau) <= horoball_value(p, tau) / 2.0 + 1e-9

        assert time.perf_counter() - t0 < 10.0


def test_criterion_8_overflow_stability(acceptance):
    """Naive iteration overflows where the renormalized pipeline is stable."""
    with acceptance(8, "log-space pipeline bounded where naive iterate overflows"):
        m = make_siegel_linear(2.0, 2)
        start = SiegelPoint(1.0, np.zeros(1))
        # 2^990 is representable, 2^1100 is not
        assert iterate(m, start, 990).z.real > 0
        with pytest.raises(ScaleOverflowError):
            iterate(m, start, 1100)

        result = run_valiron(m, tol=0.0, n_max=200)
        assert result.n_stop == 200
        assert not any("scale ceiling" in w for w in result.warnings)
        # the run's 201 states, stepped again: each step takes the run's scale
        # pair, and the last state holds the run's sigma bit for bit
        state = initial_state(m, default_grid(2))
        magnitudes = [state.magnitude()]
        for pair in result.scale_pairs:
            state = advance(state, m)
            assert state.scales == pair
            magnitudes.append(state.magnitude())
        assert state.sigma.tobytes() == result.sigma.tobytes()
        assert all(math.isfinite(v) for v in magnitudes)
        assert max(magnitudes) < 100.0
        assert np.all(np.isfinite(result.sigma))


def test_criterion_9_deterministic_csv(acceptance, tmp_path):
    """The same seeded experiment writes byte-identical files twice."""
    with acceptance(9, "same seed, same bytes for every emitted file"):
        cfg = tmp_path / "exp.cfg"
        cfg.write_text(
            "command = report-all\nmap = valiron_example\nA = 2\n"
            "psi = constant(0.5)\nladder_max = 4\nn_max = 60\nseed = 11\n"
        )
        out_a = tmp_path / "a"
        out_b = tmp_path / "b"
        assert main(["run", str(cfg), "--out", str(out_a)]) == 0
        assert main(["run", str(cfg), "--out", str(out_b)]) == 0
        names = sorted(p.name for p in out_a.iterdir())
        assert names == sorted(p.name for p in out_b.iterdir())
        assert "limits.csv" in names and "valiron.csv" in names
        for name in names:
            assert (out_a / name).read_bytes() == (out_b / name).read_bytes(), name
