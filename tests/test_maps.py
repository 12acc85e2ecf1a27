"""Map constructors, catalog, iteration, and the package's exports."""

import cmath
import math
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import valiron
from valiron.geometry import (
    INFINITY,
    BoundaryDirection,
    DomainError,
    NonFiniteError,
    SiegelAutomorphism,
    SiegelPoint,
    apply_automorphism,
)
from valiron.dynamics import compute_orbit
from valiron.maps import (
    PsiChoice,
    ScaleOverflowError,
    catalog,
    conjugate_map,
    evaluate_batch,
    iterate,
    make_ball_map_from_siegel,
    make_halfplane_affine,
    make_siegel_linear,
    make_siegel_map_from_ball,
    make_valiron_example,
)

from conftest import sample_siegel


class TestPsi:
    def test_constant(self):
        psi = PsiChoice("constant", 0.5)
        assert psi(3 + 1j) == 0.5

    def test_cayley_is_a_disk_map(self):
        psi = PsiChoice("cayley")
        for z in (1 + 0j, 0.2 + 5j, 100 - 3j):
            assert abs(psi(z)) < 1.0
        assert psi(1 + 0j) == 0

    def test_oscillating_modulus_and_values(self):
        """|psi(z)| = exp(-arg z - pi/2) < 1 on the half-plane; z^i twists."""
        psi = PsiChoice("oscillating")
        for z in (10 + 0j, 1 + 1j, 5 - 2j):
            expected_mod = math.exp(-cmath.phase(z) - math.pi / 2)
            assert abs(psi(z)) == pytest.approx(expected_mod, rel=1e-12)
        # on the positive ray the phase is log r
        r = 1000.0
        assert cmath.phase(psi(r)) == pytest.approx(
            (math.log(r) + math.pi) % (2 * math.pi) - math.pi, abs=1e-12
        )

    def test_unknown_kind_rejected(self):
        with pytest.raises(DomainError):
            PsiChoice("quadratic", 1.0)

    def test_a_non_finite_constant_is_rejected(self):
        for c in (math.nan, complex(0.0, math.nan), math.inf, -math.inf):
            with pytest.raises(DomainError, match=r"\|param\| < 1"):
                PsiChoice("constant", c)


class TestConstructors:
    def test_linear_needs_hyperbolicity(self):
        with pytest.raises(DomainError):
            make_siegel_linear(1.0, 2)
        with pytest.raises(DomainError):
            make_valiron_example(0.5, PsiChoice("constant", 0.0))

    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
    def test_non_finite_parameters_are_rejected(self, bad):
        """A NaN or infinite lambda, b or A raises where the map is made, naming
        the parameter, before a run can cut its base orbit at step 0."""
        makers = {
            "lambda": lambda: make_siegel_linear(bad, 2),
            "b": lambda: make_halfplane_affine(2.0, bad, 2),
            "A": lambda: make_valiron_example(bad, PsiChoice("cayley")),
        }
        for name, make in makers.items():
            with pytest.raises(NonFiniteError, match=f"non-finite map parameter {name} = "):
                make()
        with pytest.raises(NonFiniteError, match="lambda"):
            make_halfplane_affine(bad, 1.0, 2)

    def test_linear_action(self):
        m = make_siegel_linear(4.0, 2)
        q = SiegelPoint(2 + 1j, np.array([0.5 + 0j]))
        image = m(q)
        assert image.z == pytest.approx(8 + 4j)
        assert image.w[0] == pytest.approx(1.0)

    def test_affine_action_and_metadata(self):
        m = make_halfplane_affine(2.0, 3.0, 2)
        q = SiegelPoint(1.0, np.zeros(1))
        assert m(q).z == pytest.approx(2 + 3j)
        assert m.multiplier == 2.0
        assert m.dw is INFINITY

    def test_valiron_example_lands_on_the_axis(self):
        m = make_valiron_example(2.0, PsiChoice("constant", 0.5))
        q = SiegelPoint(3.0, np.array([1.0 + 0j]))
        image = m(q)
        assert image.w[0] == 0
        assert image.z == pytest.approx(2 * 3 + 2 * 1 * 0.5)

    @given(seed=st.integers(0, 10_000))
    @settings(max_examples=50, deadline=None)
    def test_intertwiner_metadata_satisfies_schroder(self, seed):
        for name, m in catalog().items():
            if m.intertwiner is None:
                continue
            q = sample_siegel(m.dim, seed, 40)
            lhs = m.intertwiner(m(q))
            rhs = m.multiplier * m.intertwiner(q)
            assert abs(lhs - rhs) <= 1e-10 * max(1.0, abs(rhs)), name

    def test_catalog_shape(self):
        cat = catalog()
        assert len(cat) == 8
        for name, m in cat.items():
            assert m.domain == "siegel"
            assert m.multiplier > 1
            assert m.dw is INFINITY

    @pytest.mark.parametrize("name", sorted(catalog()))
    def test_points_of_another_dimension_are_rejected(self, name):
        """A batch would broadcast over rows of any width: each evaluation
        path raises instead, one dimension up and one down."""
        m = catalog()[name]
        for dim in (m.dim + 1, m.dim - 1):
            if dim < 1:
                continue
            q = SiegelPoint(3.0, np.full(dim - 1, 0.25))
            message = f"points of dimension {dim} for a map of dimension {m.dim}"
            for evaluate in (
                lambda: m(q),
                lambda: evaluate_batch(m, np.array([q.z]), q.w[None, :]),
                lambda: compute_orbit(m, q, 3),
            ):
                with pytest.raises(DomainError, match=message):
                    evaluate()


class TestBallTransport:
    def test_multiplier_consistency(self):
        """The ball multiplier of a transported map is c = 1 / lam."""
        for name, m in catalog().items():
            ball = make_ball_map_from_siegel(m)
            assert abs(m.multiplier * ball.multiplier - 1.0) <= 1e-15, name

    def test_roundtrip_through_the_ball(self):
        m = make_siegel_linear(2.0, 2)
        ball = make_ball_map_from_siegel(m)
        assert ball.domain == "ball"
        assert m.multiplier * ball.multiplier == 1.0
        back = make_siegel_map_from_ball(ball)
        q = sample_siegel(2, 3, 41)
        direct = m(q)
        via = back(q)
        assert abs(via.z - direct.z) < 1e-10 * max(1, abs(direct.z))
        assert np.max(np.abs(via.w - direct.w)) < 1e-10

    @pytest.mark.parametrize("twin", [True, False])
    def test_a_denjoy_wolff_point_other_than_e1_is_rejected(self, twin):
        """The Cayley transform sends only e_1 to infinity, with or without a twin."""
        ball = make_ball_map_from_siegel(make_halfplane_affine(2.0, 1.0, 2))
        ball = replace(ball, dw=BoundaryDirection([-1.0, 0.0]), twin=ball.twin if twin else None)
        with pytest.raises(DomainError, match="Denjoy-Wolff point e_1"):
            make_siegel_map_from_ball(ball)


class TestIterate:
    def test_matches_composition(self):
        m = make_halfplane_affine(2.0, 1.0, 1)
        q = SiegelPoint(1.0 + 0.5j)
        assert iterate(m, q, 3).z == pytest.approx(m(m(m(q))).z)
        assert iterate(m, q, 0).z == q.z

    def test_overflow_guard(self):
        m = make_siegel_linear(2.0, 1)
        with pytest.raises(ScaleOverflowError):
            iterate(m, SiegelPoint(1.0), 1100)
        # but a short run is fine
        assert iterate(m, SiegelPoint(1.0), 10).z == pytest.approx(2.0 ** 10)


class TestConjugation:
    def test_matches_manual_composition(self):
        m = make_siegel_linear(2.0, 2)
        t = SiegelAutomorphism.composite([
            SiegelAutomorphism.scale(2.0, 1.0),
            SiegelAutomorphism.translate(np.array([0.5 + 0j])),
        ])
        mc = conjugate_map(m, t)
        q = sample_siegel(2, 17, 42)
        expected = apply_automorphism(t, m(apply_automorphism(t.inverse(), q)))
        got = mc(q)
        assert abs(got.z - expected.z) < 1e-12 * max(1, abs(expected.z))
        assert np.max(np.abs(got.w - expected.w)) < 1e-12
        assert mc.multiplier == m.multiplier


def test_the_package_exports_each_public_name_once():
    names = valiron.__all__
    assert len(set(names)) == len(names)
    assert all(hasattr(valiron, name) for name in names)
    star = {}
    exec("from valiron import *", star)
    del star["__builtins__"]
    assert set(star) == set(names)
    assert not {"validate_self_map", "estimate_limit"} & set(names)
