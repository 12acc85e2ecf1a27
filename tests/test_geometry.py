"""Geometry layer: models, Cayley transform, invariant distance, regions."""

import math

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from valiron.geometry import (
    _halfplane_distances,
    INFINITY,
    BallPoint,
    BoundaryDirection,
    DomainError,
    KoranyiRegion,
    LinearProjectionAtInfinity,
    NonFiniteError,
    SiegelAutomorphism,
    SiegelBatch,
    SiegelPoint,
    apply_automorphism,
    cayley_to_ball,
    cayley_to_siegel,
    check_siegel_arrays,
    e1_direction,
    first_coordinate_projection,
    halfplane_distance,
    herm,
    horoball_value,
    kobayashi_distance,
    koranyi_classify,
    koranyi_contains,
    koranyi_margin,
    koranyi_region_at_infinity,
    left_inverse_value,
    mobius_involution,
    norm_sq,
    project,
    siegel_height,
)

from conftest import sample_ball, sample_siegel


class TestModels:
    def test_ball_point_rejects_boundary_and_outside(self):
        with pytest.raises(DomainError):
            BallPoint([1.0, 0.0])
        with pytest.raises(DomainError):
            BallPoint([0.8, 0.7])

    def test_siegel_point_rejects_shadow_boundary(self):
        # Re z == ||w||^2 sits on the boundary, which is rejected, not clamped
        with pytest.raises(DomainError):
            SiegelPoint(0.25, np.array([0.5 + 0j]))
        with pytest.raises(DomainError):
            SiegelPoint(0.1, np.array([0.5 + 0j]))
        q = SiegelPoint(0.26, np.array([0.5 + 0j]))
        assert q.x == 0.26 and q.dim == 2

    def test_a_point_within_the_slack_names_it(self):
        """A positive height that fails the relative slack gives the slack and its
        scale; a height at or below 0 gives the height alone.  Both paths of the
        array check raise the point's error."""
        z = complex(2.0, 1e300)
        message = ("not strictly inside the Siegel domain: Re z - ||w||^2 = 2.0"
                   " <= 1e-12 * max(1, |z|, ||w||^2) = 1e+288")
        for check in (lambda: SiegelPoint(z, [0.0]),
                      lambda: check_siegel_arrays(np.array([z]), np.zeros((1, 1))),
                      lambda: check_siegel_arrays(np.full(64, z), np.zeros((64, 1)))):
            with pytest.raises(DomainError) as err:
                check()
            assert str(err.value) == message
        with pytest.raises(DomainError) as err:
            SiegelPoint(0.25, [0.5])
        assert str(err.value) == "not strictly inside the Siegel domain: Re z - ||w||^2 = 0.0"

    def test_points_reject_non_finite_coordinates(self):
        nan, inf = math.nan, math.inf
        for z, w in ((nan, [0]), (complex(1, nan), [0]), (2, [nan]), (complex(1, inf), [0])):
            with pytest.raises(DomainError, match="non-finite coordinates"):
                SiegelPoint(z, w)
        with pytest.raises(DomainError, match="non-finite coordinates"):
            BallPoint([nan, 0])

    @pytest.mark.filterwarnings("ignore::RuntimeWarning")
    def test_infinite_w_is_non_finite_but_an_overflowing_norm_is_outside(self):
        inf = math.inf
        for w in ([inf], [-inf], [complex(0, inf)], [1.0, inf], [1e200, inf]):
            with pytest.raises(DomainError, match="non-finite coordinates"):
                SiegelPoint(2, w)
            with pytest.raises(DomainError, match="non-finite coordinates"):
                check_siegel_arrays(np.array([2 + 0j]), np.array([w], dtype=np.complex128))
        for w in ([1e200], [1e160, 1e160]):
            with pytest.raises(DomainError, match="not strictly inside"):
                SiegelPoint(2, w)
            with pytest.raises(DomainError, match="not strictly inside"):
                check_siegel_arrays(np.array([2 + 0j]), np.array([w], dtype=np.complex128))

    @pytest.mark.filterwarnings("error")
    def test_huge_and_infinite_coordinates_are_rejected_without_a_warning(self):
        inf = math.inf
        for w in ([inf], [math.nan, inf], [0.5, complex(inf, math.nan)]):
            with pytest.raises(DomainError, match="^non-finite coordinates$"):
                SiegelPoint(2, w)
        huge = complex(1.5e308, 1.5e308)  # its modulus overflows
        for w in ([1e200], [huge]):
            with pytest.raises(DomainError, match=r"Siegel domain: Re z - \|\|w\|\|\^2 = -inf$"):
                SiegelPoint(2, w)
        for coords in ([inf], [complex(0, inf)], [0.5, inf]):
            with pytest.raises(NonFiniteError, match="^non-finite coordinates$"):
                BallPoint(coords)
        for coords in ([1e200], [0.5, 1e200], [huge]):
            with pytest.raises(DomainError, match=r"unit ball: \|\|p\|\|\^2 = inf$"):
                BallPoint(coords)

    def test_point_coordinates_are_a_read_only_copy_of_any_vector(self):
        for w in (np.array([1]), np.array([-0.0, 0.5]), np.array([0.5 - 0.0j, 1e-310j]),
                  [0.5, -0.0j]):
            want = np.asarray(tuple(w), dtype=np.complex128)
            q = SiegelPoint(3.0, w)
            w[0] = 0.75  # the source changes, the point does not
            assert q.w.tobytes() == want.tobytes() and not q.w.flags.writeable

    def test_boundary_direction_needs_unit_norm(self):
        BoundaryDirection([1.0, 0.0])
        with pytest.raises(DomainError):
            BoundaryDirection([0.5, 0.5])

    def test_infinity_is_a_singleton(self):
        assert INFINITY is type(INFINITY)()
        assert repr(INFINITY) == "INFINITY"

    def test_herm_conjugates_second_argument(self):
        u = np.array([1j], dtype=complex)
        v = np.array([1.0 + 0j])
        assert herm(u, v) == 1j
        assert herm(v, u) == -1j

    def test_vectors_of_different_lengths_do_not_broadcast(self):
        # a one-coordinate vector must not pair with every coordinate of a longer one
        one, three = np.ones(1, dtype=complex), np.ones(3, dtype=complex)
        for u, v in ((three, one), (one, three)):
            with pytest.raises(DomainError, match="dimension mismatch"):
                herm(u, v)
        with pytest.raises(DomainError, match="dimension mismatch"):
            koranyi_margin(KoranyiRegion("ball", e1_direction(1), 1.0), BallPoint([0.1, 0.2, 0.3]))

    def test_siegel_height(self):
        q = SiegelPoint(2 + 3j, np.array([1.0 + 0j]))
        assert siegel_height(q) == pytest.approx(1.0)


class TestCayley:
    def test_origin_maps_to_base_point(self):
        q = cayley_to_siegel(BallPoint([0.0, 0.0]))
        assert q.z == pytest.approx(1.0)
        assert np.allclose(q.w, 0.0)

    @given(seed=st.integers(0, 10_000), n_dim=st.integers(1, 4))
    @settings(max_examples=60, deadline=None)
    def test_roundtrip_from_ball(self, seed, n_dim):
        p = sample_ball(n_dim, seed, 0)
        back = cayley_to_ball(cayley_to_siegel(p))
        assert np.max(np.abs(back.coords - p.coords)) < 1e-12

    @given(seed=st.integers(0, 10_000), n_dim=st.integers(1, 4))
    @settings(max_examples=60, deadline=None)
    def test_roundtrip_from_siegel(self, seed, n_dim):
        q = sample_siegel(n_dim, seed, 1)
        back = cayley_to_siegel(cayley_to_ball(q))
        scale = max(1.0, abs(q.z))
        assert abs(back.z - q.z) / scale < 1e-12
        if q.w.size:
            assert np.max(np.abs(back.w - q.w)) < 1e-10

    def test_height_transport(self):
        # 1 - ||p||^2 = 4 height / |z+1|^2 under the Cayley transform
        q = sample_siegel(3, 7, 2)
        p = cayley_to_ball(q)
        lhs = 1.0 - norm_sq(p.coords)
        rhs = 4.0 * siegel_height(q) / abs(q.z + 1.0) ** 2
        assert lhs == pytest.approx(rhs, rel=1e-12)


class TestHoroball:
    def test_value_at_origin_is_one(self):
        tau = e1_direction(2)
        assert horoball_value(BallPoint([0.0, 0.0]), tau) == pytest.approx(1.0)

    def test_vanishes_approaching_the_vertex(self):
        tau = e1_direction(1)
        values = [horoball_value(BallPoint([r]), tau) for r in (0.9, 0.99, 0.999)]
        assert values[0] > values[1] > values[2]

    @given(seed=st.integers(0, 10_000))
    @settings(max_examples=60, deadline=None)
    def test_cayley_transport_is_reciprocal_height(self, seed):
        """horoball_value(C^-1(q), e1) = 1 / siegel_height(q), exactly."""
        q = sample_siegel(2, seed, 5)
        v = horoball_value(cayley_to_ball(q), e1_direction(2))
        assert v == pytest.approx(1.0 / siegel_height(q), rel=1e-10)


class TestKoranyi:
    def test_amplitude_validation(self):
        with pytest.raises(DomainError):
            koranyi_region_at_infinity(1.0)
        with pytest.raises(DomainError):
            KoranyiRegion("ball", e1_direction(2), 0.5)

    @given(seed=st.integers(0, 10_000), m_amp=st.sampled_from([1.5, 2.0, 4.0, 8.0]))
    @settings(max_examples=60, deadline=None)
    def test_ball_and_siegel_membership_agree(self, seed, m_amp):
        """K(infinity, M) corresponds exactly to the ball region with R = M/2."""
        q = sample_siegel(2, seed, 6)
        region_s = koranyi_region_at_infinity(m_amp)
        region_b = KoranyiRegion("ball", e1_direction(2), m_amp / 2.0)
        cls_s = koranyi_classify(region_s, q)
        cls_b = koranyi_classify(region_b, cayley_to_ball(q))
        if "band" not in (cls_s, cls_b):
            assert cls_s == cls_b

    def test_band_classification(self):
        # put the point exactly on the region boundary: margin 0 within band
        m_amp = 2.0
        z = 4.0 + 0j
        wsq = 4.0 - abs(z + 1) / m_amp
        q = SiegelPoint(z, np.array([math.sqrt(wsq) + 0j]))
        region = koranyi_region_at_infinity(m_amp)
        assert koranyi_classify(region, q) == "band"
        assert not koranyi_contains(region, q)

    def test_margin_sign(self):
        region = koranyi_region_at_infinity(2.0)
        inside = SiegelPoint(10.0, np.array([0.0j]))
        outside = SiegelPoint(10.0, np.array([2.2 + 0j]))
        assert koranyi_margin(region, inside) > 0
        assert koranyi_margin(region, outside) < 0


class TestKobayashi:
    def test_one_point_formula(self):
        p = BallPoint([0.0])
        for r in (0.1, 0.5, 0.9):
            assert kobayashi_distance(p, BallPoint([r])) == pytest.approx(math.atanh(r))

    @given(seed=st.integers(0, 10_000), n_dim=st.integers(1, 3))
    @settings(max_examples=60, deadline=None)
    def test_mobius_involution_identity(self, seed, n_dim):
        """1 - ||phi_a(z)||^2 = (1-||a||^2)(1-||z||^2)/|1-<z,a>|^2."""
        a = sample_ball(n_dim, seed, 10)
        z = sample_ball(n_dim, seed, 11)
        image = mobius_involution(a).apply(z)
        lhs = 1.0 - norm_sq(image.coords)
        rhs = (
            (1.0 - norm_sq(a.coords))
            * (1.0 - norm_sq(z.coords))
            / abs(1.0 - herm(z.coords, a.coords)) ** 2
        )
        assert lhs == pytest.approx(rhs, rel=1e-10)
        # involution: swaps a and 0
        assert np.max(np.abs(mobius_involution(a).apply(a).coords)) < 1e-12

    @given(seed=st.integers(0, 10_000))
    @settings(max_examples=60, deadline=None)
    def test_ball_and_siegel_routes_agree(self, seed):
        """At moderate heights the Cayley transport matches the ball formula."""
        p = sample_siegel(2, seed, 12)
        q = sample_siegel(2, seed, 13)
        d_siegel = kobayashi_distance(p, q)
        d_ball = kobayashi_distance(cayley_to_ball(p), cayley_to_ball(q))
        assert d_siegel == pytest.approx(d_ball, rel=1e-9, abs=1e-11)

    @given(seed=st.integers(0, 10_000))
    @example(seed=7126)  # mod ** 2 and mod * mod once rounded apart here
    @settings(max_examples=60, deadline=None)
    def test_symmetry_and_identity(self, seed):
        p = sample_siegel(3, seed, 14)
        q = sample_siegel(3, seed, 15)
        assert kobayashi_distance(p, q) == pytest.approx(kobayashi_distance(q, p), rel=1e-12)
        assert kobayashi_distance(p, p) == 0.0

    @given(seed=st.integers(0, 10_000))
    @settings(max_examples=40, deadline=None)
    def test_triangle_inequality(self, seed):
        p = sample_siegel(2, seed, 16)
        q = sample_siegel(2, seed, 17)
        r = sample_siegel(2, seed, 18)
        assert kobayashi_distance(p, q) <= (
            kobayashi_distance(p, r) + kobayashi_distance(r, q) + 1e-9
        )

    def test_axis_pair_formula(self):
        # k((z,0),(z,w)) = atanh(||w|| / sqrt(Re z))
        z = 4.0 + 1.0j
        w = np.array([0.8 + 0.3j])
        p = SiegelPoint(z, np.zeros(1))
        q = SiegelPoint(z, w)
        expected = math.atanh(math.sqrt(norm_sq(w) / z.real))
        assert kobayashi_distance(p, q) == pytest.approx(expected, rel=1e-12)

    def test_halfplane_distance_matches_dimension_one(self):
        z1, z2 = 2.0 + 1j, 5.0 - 0.5j
        d = kobayashi_distance(SiegelPoint(z1), SiegelPoint(z2))
        assert halfplane_distance(z1, z2) == pytest.approx(d, rel=1e-12)

    def test_halfplane_distance_is_one_pair_of_the_array_form(self):
        rng = np.random.default_rng(5)
        z1, z2 = (rng.uniform(0.01, 10.0, 50) + 1j * rng.normal(size=50) for _ in range(2))
        pairs = [halfplane_distance(a, b) for a, b in zip(z1.tolist(), z2.tolist())]
        assert _halfplane_distances(z1, z2).tolist() == pairs
        assert _halfplane_distances(1.0, z2).tolist() == [halfplane_distance(1.0, b) for b in z2.tolist()]
        assert halfplane_distance(3.0, 3.0) == 0.0
        with pytest.raises(DomainError, match="Re z > 0"):
            _halfplane_distances(1.0, np.append(z2, -1.0))

    def test_halfplane_distance_rejects_non_finite_points(self):
        """NaN passes a test for Re z <= 0, and inf one for Re z > 0: both are
        rejected, in either argument and in any row of the array form."""
        z2 = np.array([2.0, 3.0 + 1j])
        for bad in (math.nan, math.inf, complex(1.0, math.nan), complex(1.0, -math.inf)):
            with pytest.raises(NonFiniteError):
                halfplane_distance(bad, 1.0)
            with pytest.raises(NonFiniteError):
                halfplane_distance(1.0, bad)
            with pytest.raises(NonFiniteError):
                _halfplane_distances(1.0, np.append(z2, bad))

    def test_stable_at_extreme_heights(self):
        # ball coordinates would round onto the sphere here
        p = SiegelPoint(2.0 ** 64, np.zeros(1))
        q = SiegelPoint(2.0 ** 64, np.array([2.0 ** 31.5 + 0j]))
        d = kobayashi_distance(p, q)
        assert math.isfinite(d) and d == pytest.approx(math.atanh(math.sqrt(0.5)), rel=1e-6)


class TestAutomorphisms:
    @given(seed=st.integers(0, 10_000))
    @settings(max_examples=60, deadline=None)
    def test_inverse_roundtrip(self, seed):
        q = sample_siegel(3, seed, 20)
        rng_t = sample_siegel(3, seed, 21)
        t = SiegelAutomorphism.composite([
            SiegelAutomorphism.scale(abs(rng_t.z) + 0.5, rng_t.y),
            SiegelAutomorphism.translate(rng_t.w),
        ])
        back = apply_automorphism(t.inverse(), apply_automorphism(t, q))
        assert abs(back.z - q.z) < 1e-9 * max(1, abs(q.z))
        assert np.max(np.abs(back.w - q.w)) < 1e-10

    def test_composite_applies_first_to_last(self):
        t = SiegelAutomorphism.composite([
            SiegelAutomorphism.scale(4.0),
            SiegelAutomorphism.translate(np.array([1.0 + 0j])),
        ])
        q = SiegelPoint(8.0, np.zeros(1))
        image = apply_automorphism(t, q)
        # scale first: (2, 0); then translate by a=1: (2 + 1 + 0, 1)
        assert image.z == pytest.approx(3.0)
        assert image.w[0] == pytest.approx(1.0)

    def test_scale_translate_preserve_height_law(self):
        # dilation divides height by x; Heisenberg translation preserves it
        q = sample_siegel(2, 5, 22)
        t_scale = SiegelAutomorphism.scale(4.0, 1.0)
        t_trans = SiegelAutomorphism.translate(np.array([0.7 - 0.2j]))
        assert siegel_height(apply_automorphism(t_scale, q)) == pytest.approx(
            siegel_height(q) / 4.0, rel=1e-12
        )
        assert siegel_height(apply_automorphism(t_trans, q)) == pytest.approx(
            siegel_height(q), rel=1e-12
        )

    def test_equal_triples_are_equal_and_hash_alike(self):
        scale, translate = SiegelAutomorphism.scale, SiegelAutomorphism.translate
        pairs = [
            (scale(2), scale(2.0)),
            (scale(2, 1), scale(2.0, 1.0)),
            (translate([1, 2]), translate(np.array([1.0 + 0j, 2.0]))),
            (SiegelAutomorphism.composite([scale(4), translate([1])]), SiegelAutomorphism(4.0, 0.0, [2.0])),
            (scale(2).inverse(), scale(0.5)),
        ]
        for s, t in pairs:
            assert s == t and hash(s) == hash(t)
        assert scale(2) != scale(3) and scale(2, 1) != scale(2)
        assert translate([1, 2]) != translate([1, 3]) and translate([1]) != translate([1, 0])
        assert scale(1) != translate([0]) and scale(2) != "scale(2)"
        assert len({scale(2), scale(2), scale(3), translate([1, 2]), translate([1, 2])}) == 3

    @given(seed=st.integers(0, 10_000))
    @settings(max_examples=60, deadline=None)
    def test_kobayashi_invariance(self, seed):
        p = sample_siegel(2, seed, 23)
        q = sample_siegel(2, seed, 24)
        t = SiegelAutomorphism.composite([
            SiegelAutomorphism.scale(3.0, -1.0),
            SiegelAutomorphism.translate(np.array([0.4 + 0.1j])),
        ])
        d0 = kobayashi_distance(p, q)
        d1 = kobayashi_distance(apply_automorphism(t, p), apply_automorphism(t, q))
        assert d1 == pytest.approx(d0, rel=1e-10, abs=1e-12)


class TestProjections:
    def test_idempotent(self):
        rho = LinearProjectionAtInfinity(np.array([0.5 + 0.2j]))
        q = sample_siegel(2, 9, 30)
        once = project(rho, q)
        twice = project(rho, once)
        assert abs(twice.z - once.z) < 1e-12
        assert np.max(np.abs(twice.w - once.w)) < 1e-12

    def test_left_inverse_absorbs_projection(self):
        rho = LinearProjectionAtInfinity(np.array([0.5 + 0.2j]))
        q = sample_siegel(2, 11, 31)
        assert left_inverse_value(rho, project(rho, q)) == pytest.approx(
            left_inverse_value(rho, q), rel=1e-12
        )

    def test_first_coordinate_projection_hits_the_axis(self):
        rho = first_coordinate_projection(3)
        q = sample_siegel(3, 13, 32)
        image = project(rho, q)
        assert np.max(np.abs(image.w)) == 0.0
        assert image.z == q.z
        assert left_inverse_value(rho, q) == q.z

    def test_equal_vectors_are_equal_and_hash_alike(self):
        rho = LinearProjectionAtInfinity
        assert rho([1, 2]) == rho(np.array([1.0 + 0j, 2.0])) and hash(rho([1, 2])) == hash(rho([1.0, 2.0]))
        assert first_coordinate_projection(3) == rho([0, 0])
        assert rho([1, 2]) != rho([1, 3]) and rho([1]) != rho([1, 0])
        assert rho([0]) != SiegelAutomorphism.translate([0])
        assert len({rho([1, 2]), rho([1, 2]), rho([2, 1])}) == 2

    @pytest.mark.filterwarnings("error")
    @pytest.mark.parametrize("a", [[math.nan], [math.inf], [0.5, complex(0.0, -math.inf)],
                                   np.array([complex(math.nan, 1.0)])])
    def test_a_non_finite_projection_vector_is_rejected_without_warning(self, a):
        with pytest.raises(NonFiniteError, match="^non-finite projection direction$"):
            LinearProjectionAtInfinity(a)

    @pytest.mark.filterwarnings("error")
    def test_a_huge_projection_vector_gives_no_warning(self):
        batch = SiegelBatch.from_points([sample_siegel(2, seed, 34) for seed in range(3)])
        rho = LinearProjectionAtInfinity([1e200])
        with pytest.raises(DomainError, match="^projected image left the Siegel domain: non-finite"):
            batch.project(rho)
        assert np.all(np.isposinf(batch.left_inverse(rho).real))

    @given(seed=st.integers(0, 10_000))
    @settings(max_examples=60, deadline=None)
    def test_projection_height_gain(self, seed):
        # height(rho(q)) = height(q) + ||w + a||^2, so images never leave
        a = np.array([0.5 + 0.2j, -0.3 + 0j])
        rho = LinearProjectionAtInfinity(a)
        q = sample_siegel(3, seed, 33)
        gain = siegel_height(project(rho, q)) - siegel_height(q)
        assert gain == pytest.approx(norm_sq(q.w + a), rel=1e-9, abs=1e-12)
