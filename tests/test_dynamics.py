"""Orbits, three-route sequence classification, and the orbit estimators."""

import functools
import math
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from valiron.dynamics import (
    AmbiguousClassificationError,
    NotTendingToInfinityError,
    OrbitTooShortError,
    classify_sequence,
    compute_orbit,
    estimate_drift,
    estimate_multiplier,
    julia_margin,
    summarize_orbit,
    tail_start,
)
from valiron import dynamics, geometry, maps
from valiron.geometry import INFINITY, DomainError, SiegelAutomorphism, SiegelPoint, halfplane_distance
from valiron.limits import (
    c_special_family,
    generate_sequences,
    koranyi_family,
    radial_family,
    zero_special_family,
)
from valiron.maps import (
    HoloMap,
    PsiChoice,
    conjugate_map,
    make_ball_map_from_siegel,
    make_halfplane_affine,
    make_siegel_linear,
    make_siegel_map_from_ball,
    make_valiron_example,
)

from conftest import CHAIN_FACTORS, CHAINS, sample_siegel
import oracle as O


def test_tail_start():
    assert tail_start(7) == 0
    assert tail_start(8) == 0
    assert tail_start(16) == 8
    assert tail_start(100) == 50


class TestOrbit:
    def test_points_and_arrays(self):
        m = make_siegel_linear(2.0, 2)
        start = SiegelPoint(1 + 1j, np.array([0.5 + 0j]))
        orbit = compute_orbit(m, start, 5)
        assert len(orbit) == 6
        assert orbit.x[3] == pytest.approx(8.0)
        assert orbit.y[3] == pytest.approx(8.0)
        assert orbit.w_norm_sq[2] == pytest.approx(0.25 * 4)
        assert orbit.cutoff is None
        # each row is the map's image of the one before, as one batch evaluates it
        z, w = maps.evaluate_batch(m, orbit.points.z[:-1], orbit.points.w[:-1])
        assert np.array_equal(z, orbit.points.z[1:]) and np.array_equal(w, orbit.points.w[1:])

    def test_truncates_on_overflow_instead_of_raising(self):
        m = make_siegel_linear(2.0, 1)
        orbit = compute_orbit(m, SiegelPoint(1.0), 1200)
        assert orbit.cutoff is not None
        assert "overflow" in orbit.cutoff
        assert len(orbit) < 1200
        assert np.all(np.isfinite(orbit.x))

    @pytest.mark.parametrize("m, steps", [
        (make_halfplane_affine(1e200, 1.0, 2), 1),
        # Re z = 1e300 passes the scale check, and its image overflows
        (make_siegel_linear(1e10, 2), 30),
        (make_valiron_example(1e200, PsiChoice("oscillating")), 1),
        (conjugate_map(make_halfplane_affine(1e200, 1.0, 2), SiegelAutomorphism.composite(
            [SiegelAutomorphism.scale(4.0), SiegelAutomorphism.translate([1.0])])), 1),
    ], ids=["affine", "linear", "shear", "conjugated affine"])
    def test_an_image_past_the_double_range_is_a_cutoff(self, m, steps):
        start = SiegelPoint(1.0, np.zeros(m.dim - 1))
        orbit = compute_orbit(m, start, 60)
        assert orbit.cutoff == f"scale overflow at step {steps}"
        assert len(orbit) == steps + 1
        assert np.all(np.isfinite(orbit.x)) and np.all(np.isfinite(orbit.y))

    def test_a_continued_orbit_is_the_orbit_of_its_start(self):
        affine = make_halfplane_affine(2.0, 1.0, 2)
        start = SiegelPoint(1.0 + 0.5j, np.array([0.3 - 0.2j]))
        # each orbit passes 1e300 near step 1000 and is truncated there; the
        # inner orbit of a conjugate passes it first, and its end ends the orbit
        for m, ceiling in ((affine, 997),
                           (conjugate_map(affine, CHAINS["scale(4); translate(1)"]), 995),
                           (conjugate_map(affine, CHAINS["scale(3, 1); translate(0.5-0.25j)"]), 996)):
            # continued from a shorter orbit, or cut from a longer one
            for short, full in ((32, 64), (10, 1200), (1200, 1300), (64, 32), (1300, 10)):
                want = compute_orbit(m, start, full)
                assert want.cutoff == (None if full < ceiling else f"scale overflow at step {ceiling}")
                got = compute_orbit(m, compute_orbit(m, start, short), full)
                assert got.points == want.points and got.cutoff == want.cutoff
                assert got.points.z.tobytes() == want.points.z.tobytes()
                assert got.points.w.tobytes() == want.points.w.tobytes()
                for attr in ("x", "y", "w_norm_sq"):
                    assert np.array_equal(getattr(got, attr), getattr(want, attr)), attr

    @pytest.mark.parametrize("chain", sorted(CHAINS))
    def test_a_conjugated_orbit_is_near_the_exact_orbit(self, chain):
        """T of the inner orbit, against the orbit of the exact conjugate in mpmath.

        The reference takes the chain's triple composed exactly and sqrt(lam)
        exactly.  The rounded sqrt(lam) alone puts 2 n u' = 2.24e-14 into
        ||w||^2 at n = 200 (u' = 5.6e-17 its relative rounding), on any path.
        Measured, worst column ||w||^2: 2.41e-14 and 2.09e-14 for the two
        chains; stepping T o phi o T^-1 one row at a time read 2.13e-14 and
        1.01e-13.
        """
        lam, b, n = 2.002029967152467, 1.0, 200
        t = CHAINS[chain]
        orbit = compute_orbit(conjugate_map(make_halfplane_affine(lam, b, 2), t),
                              SiegelPoint(1.0, np.zeros(1)), n)
        assert orbit.cutoff is None and len(orbit) == n + 1
        triple = functools.reduce(O.then, [O.triple(f) for f in CHAIN_FACTORS[chain]])
        forward, back, phi = O.fused(triple), O.fused(O.inverse(triple)), O.affine(lam, b)
        z, w = back(O.exact(1.0 + 0j), [O.exact(0j)])
        worst = np.zeros(3)
        for k in range(1, n + 1):
            z, w = phi(z, w)
            tz, tw = forward(z, w)
            want = (tz.v.real, tz.v.imag, sum(abs(c.v) ** 2 for c in tw))
            got = (orbit.x[k], orbit.y[k], orbit.w_norm_sq[k])
            worst = np.maximum(worst, [float(abs(g - e) / abs(e)) for g, e in zip(got, want)])
        assert worst.max() <= 2.5e-14, worst

    def test_each_row_is_checked_once(self, monkeypatch):
        """A step checks its image alone: its input is the checked start or the last image."""
        m = make_halfplane_affine(2.0, 1.0, 2)
        rows = []
        check_rows, check_arrays = geometry._check_rows, geometry.check_siegel_arrays

        def counting(check):
            def counting_check(z, w):
                rows.append(len(z))
                return check(z, w)
            return counting_check

        # maps checks its images by the private check, under the orbit's errstate
        monkeypatch.setattr(maps, "_check_rows", counting(check_rows))
        monkeypatch.setattr(geometry, "check_siegel_arrays", counting(check_arrays))
        monkeypatch.setattr(dynamics, "check_siegel_arrays", counting(check_arrays))
        orbit = compute_orbit(m, SiegelPoint(1.0, np.zeros(1)), 7)
        assert rows == [1] * 7
        rows.clear()
        assert len(compute_orbit(m, orbit, 10)) == 11
        assert rows == [1] * 3
        # a conjugated orbit checks T^-1 of its start, then each inner image,
        # then the rows of T, as one batch; continued, the new rows alone
        conj = conjugate_map(m, CHAINS["scale(3, 1); translate(0.5-0.25j)"])
        rows.clear()
        orbit = compute_orbit(conj, SiegelPoint(1.0, np.zeros(1)), 7)
        assert rows == [1] + [1] * 7 + [7]
        rows.clear()
        assert len(compute_orbit(conj, orbit, 10)) == 11
        assert rows == [1] * 3 + [3]
        rows.clear()
        assert len(compute_orbit(conj, orbit, 4)) == 5
        assert rows == []
        # a black box is handed each row as a point that is not checked again: a
        # step of the twin-less Cayley transport makes only the two points of its
        # own Cayley transforms, and the inner map checks only its one-row output
        ball = make_ball_map_from_siegel(make_valiron_example(3.0, PsiChoice("cayley")))
        black_box = make_siegel_map_from_ball(replace(ball, twin=None))
        start = SiegelPoint(2.0, [0.5])
        made = []
        init = SiegelPoint.__init__

        def counting_init(self, *args):
            made.append(1)
            init(self, *args)

        monkeypatch.setattr(SiegelPoint, "__init__", counting_init)
        rows.clear()
        assert len(compute_orbit(black_box, start, 7)) == 8
        assert len(made) == 2 * 7
        assert rows == [1] * 7

    def test_an_image_that_leaves_the_domain_raises_at_its_step(self):
        # (z, w) -> (2 z, 2 w): the height 2^k - 0.09 * 4^k turns negative at step 4
        steps = []

        def batch(z, w):
            steps.append(z[0])
            return 2.0 * z, 2.0 * w

        m = HoloMap(domain="siegel", dim=2, dw=INFINITY, multiplier=2.0, batch=batch)
        with pytest.raises(DomainError) as err:
            compute_orbit(m, SiegelPoint(1.0, [0.3]), 10)
        with pytest.raises(DomainError) as point_err:
            SiegelPoint(16.0, [0.3 * 16.0])
        assert str(err.value) == str(point_err.value)
        assert str(err.value).startswith("not strictly inside the Siegel domain")
        assert steps == [1.0, 2.0, 4.0, 8.0]

    def test_an_overflowing_image_ends_the_orbit_at_its_step(self):
        m = conjugate_map(make_halfplane_affine(1e120, 1.0, 2), SiegelAutomorphism.composite(
            [SiegelAutomorphism.scale(4.0), SiegelAutomorphism.translate([1.0])]))
        orbit = compute_orbit(m, SiegelPoint(1.0, np.zeros(1)), 60)
        # step 2 reaches Re z ~ 1e240; its image is past the double range
        assert orbit.cutoff == "scale overflow at step 2"
        assert len(orbit) == 3 and orbit.x[-1] > 1e239
        assert np.all(np.isfinite(orbit.x)) and np.all(np.isfinite(orbit.y))
        # continuing the cut orbit steps into the same overflow
        again = compute_orbit(m, orbit, 60)
        assert again.points == orbit.points and again.cutoff == orbit.cutoff

    def test_a_longer_orbit_is_cut_to_the_asked_length(self):
        m = conjugate_map(make_halfplane_affine(2.0, 1.0, 2), SiegelAutomorphism.composite(
            [SiegelAutomorphism.scale(4.0), SiegelAutomorphism.translate([1.0])]))
        start = SiegelPoint(1.0, np.zeros(1))
        probe = compute_orbit(m, start, 32)
        for n in (0, 1, 20, 32):
            want = compute_orbit(m, start, n)
            got = compute_orbit(m, probe, n)
            assert got.points == want.points and got.cutoff == want.cutoff is None
            assert got.points.z.tobytes() == want.points.z.tobytes()
            assert got.points.w.tobytes() == want.points.w.tobytes()


class TestClassification:
    def test_linear_axis_orbit_is_special(self):
        m = make_siegel_linear(2.0, 2)
        orbit = compute_orbit(m, SiegelPoint(1.0, np.zeros(1)), 40)
        cls = classify_sequence(orbit.points)
        assert cls.special
        assert cls.c_special == 0.0
        assert cls.restricted and cls.restricted_t == 0.0
        assert cls.koranyi_m is not None

    def test_tilted_linear_orbit_keeps_its_slope(self):
        # z_n = 2^n (1 + 5i): restricted with T = 5, still special
        m = make_siegel_linear(2.0, 1)
        orbit = compute_orbit(m, SiegelPoint(1 + 5j), 40)
        cls = classify_sequence(orbit.points)
        assert cls.special
        assert cls.restricted
        assert cls.restricted_t == pytest.approx(5.0)
        assert cls.koranyi_m is not None and cls.koranyi_m >= math.sqrt(26)

    def test_constant_w_fraction_is_c_special_not_special(self):
        # ||w_n||^2 = a x_n with a fixed: C-special at C = atanh(sqrt(a))
        seq = []
        for k in range(24):
            x = 2.0 ** k * 100
            seq.append(SiegelPoint(x, np.array([math.sqrt(0.25 * x) + 0j])))
        cls = classify_sequence(seq)
        assert not cls.special
        assert cls.c_special == pytest.approx(math.atanh(0.5), rel=1e-9)
        assert cls.a_witness == pytest.approx(0.25, rel=1e-12)

    def test_rejects_bounded_sequences(self):
        seq = [SiegelPoint(1.0 + 0.01 * k) for k in range(20)]
        with pytest.raises(NotTendingToInfinityError):
            classify_sequence(seq)

    def test_rejects_short_sequences(self):
        with pytest.raises(ValueError):
            classify_sequence([SiegelPoint(1.0)])

    def test_near_boundary_growth_is_ambiguous(self):
        # a_witness -> 1 pushes the predicted amplitude past every grid value
        seq = []
        for k in range(24):
            x = 2.0 ** k * 100
            seq.append(SiegelPoint(x, np.array([math.sqrt(0.9999 * x) + 0j])))
        with pytest.raises(AmbiguousClassificationError):
            classify_sequence(seq)

    @given(
        kind=st.sampled_from(["koranyi", "c-special", "zero-special", "radial"]),
        seed=st.integers(0, 2_000),
    )
    @settings(max_examples=60, deadline=None)
    def test_generated_families_classify_as_declared(self, kind, seed):
        """Round trip: limits-module sequences land in their declared class."""
        if kind == "koranyi":
            fam = koranyi_family(2.0, 2)
        elif kind == "c-special":
            fam = c_special_family(0.5, 1.0, 2)
        elif kind == "zero-special":
            fam = zero_special_family(2.5e-4, 0.5, 2)
        else:
            fam = radial_family(2)
        seqs = generate_sequences(fam, count=len(fam.seeds) + 2, seed=seed)
        for seq in seqs:
            cls = classify_sequence(seq)
            if kind in ("zero-special", "radial"):
                assert cls.special
            if kind in ("c-special", "zero-special", "radial"):
                assert cls.restricted
                assert cls.c_special is not None
            assert cls.koranyi_m is not None


class TestEstimators:
    def test_affine_oracle(self):
        """lambda = 2, b = 1 from (1, 0): q_n = 2 + i exactly, L -> 1."""
        m = make_halfplane_affine(2.0, 1.0, 2)
        orbit = compute_orbit(m, SiegelPoint(1.0, np.zeros(1)), 60)
        lam = estimate_multiplier(orbit)
        assert lam.value == pytest.approx(2.0, abs=1e-12)
        assert lam.uncertainty < 1e-12
        drift = estimate_drift(orbit)
        assert drift.value == pytest.approx(1.0, abs=1e-7)
        assert np.max(np.abs(drift.q - (2 + 1j))) < 1e-12
        # half-plane distances k(1, q_n) never increase along the orbit
        assert np.all(np.diff(drift.k_to_one) <= 1e-9)
        assert drift.k_to_one.tolist() == [halfplane_distance(1.0, v) for v in drift.q.tolist()]

    def test_short_orbit_rejected(self):
        m = make_siegel_linear(2.0, 1)
        orbit = compute_orbit(m, SiegelPoint(1.0), 8)
        with pytest.raises(OrbitTooShortError):
            estimate_multiplier(orbit)
        with pytest.raises(OrbitTooShortError):
            estimate_drift(orbit)

    def test_summarize_orbit(self):
        m = make_halfplane_affine(3.0, 5.0, 2)
        orbit = compute_orbit(m, SiegelPoint(1.0, np.zeros(1)), 50)
        summary = summarize_orbit(orbit)
        assert summary.multiplier.value == pytest.approx(3.0, abs=1e-10)
        # L = b / (lam - 1) = 2.5 for the affine model
        assert summary.drift.value == pytest.approx(2.5, abs=1e-6)
        assert summary.classification.special

    @given(seed=st.integers(0, 10_000))
    @settings(max_examples=50, deadline=None)
    def test_julia_margin_nonnegative(self, seed):
        m = make_siegel_linear(2.0, 2)
        q = sample_siegel(2, seed, 50)
        assert julia_margin(m, q) >= -1e-12
