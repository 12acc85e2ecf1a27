"""Orbits, three-route sequence classification, and the orbit estimators."""

import math

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
from valiron.geometry import SiegelAutomorphism, SiegelPoint
from valiron.limits import (
    c_special_family,
    generate_sequences,
    koranyi_family,
    radial_family,
    zero_special_family,
)
from valiron.maps import (
    PsiChoice,
    conjugate_map,
    make_halfplane_affine,
    make_siegel_linear,
    make_valiron_example,
)

from conftest import sample_siegel


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
        assert orbit.spot_check() < 1e-12

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
        m = make_halfplane_affine(2.0, 1.0, 2)
        start = SiegelPoint(1.0 + 0.5j, np.array([0.3 - 0.2j]))
        # the orbit passes 1e300 at step ~996: the last two are truncated
        for short, full in ((32, 64), (10, 1200), (1200, 1300)):
            want = compute_orbit(m, start, full)
            assert (want.cutoff is None) == (full < 996)
            got = compute_orbit(m, compute_orbit(m, start, short), full)
            assert got.points == want.points and got.cutoff == want.cutoff
            for attr in ("x", "y", "w_norm_sq"):
                assert np.array_equal(getattr(got, attr), getattr(want, attr)), attr


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
