"""Array evaluation: batch maps and row checks against their scalar references."""

import math
from dataclasses import replace

import numpy as np
import pytest

from valiron.geometry import (
    BOUNDARY_SLACK,
    DomainError,
    SiegelAutomorphism,
    SiegelPoint,
    apply_automorphism,
    apply_automorphism_arrays,
    check_siegel_arrays,
    divide_by_real,
)
from valiron.maps import (
    HoloMap,
    PsiChoice,
    catalog,
    conjugate_map,
    evaluate_batch,
    make_ball_map_from_siegel,
    make_halfplane_affine,
    make_siegel_map_from_ball,
    make_valiron_example,
)

from conftest import sample_siegel

SCALES = (1e-3, 1.0, 1e6, 1e40, 1e120)


def _automorphism(n_dim: int) -> SiegelAutomorphism:
    return SiegelAutomorphism.composite([
        SiegelAutomorphism.scale(3.0, 1.0),
        SiegelAutomorphism.translate(np.full(n_dim - 1, 0.5 - 0.25j)),
    ])


def _maps() -> dict:
    maps = dict(catalog())
    for n_dim in (1, 2, 3):
        affine = make_halfplane_affine(1.7, -0.4, n_dim)
        maps[f"conjugated affine N={n_dim}"] = conjugate_map(affine, _automorphism(n_dim))
    osc = make_valiron_example(2.0, PsiChoice("oscillating"))
    maps["conjugated oscillating"] = conjugate_map(osc, SiegelAutomorphism.scale(4.0, -2.0))
    cayley = make_valiron_example(3.0, PsiChoice("cayley"))
    maps["cayley round trip"] = make_siegel_map_from_ball(make_ball_map_from_siegel(cayley))
    # without a twin the transport is a black box: evaluate_batch goes point by point
    black_box = replace(make_ball_map_from_siegel(cayley), twin=None)
    maps["twin-less cayley transport"] = make_siegel_map_from_ball(black_box)
    return maps


def _draws(n_dim: int, scales=SCALES):
    """sample_siegel draws, each also rescaled by (s, sqrt(s)) as renorm does."""
    pts = [sample_siegel(n_dim, seed, 63) for seed in range(24)]
    z = np.array([s * p.z for s in scales for p in pts])
    w = np.array([math.sqrt(s) * p.w for s in scales for p in pts]).reshape(len(z), n_dim - 1)
    return z, w


def _same_bits(a: np.ndarray, b: np.ndarray) -> bool:
    return a.shape == b.shape and a.dtype == b.dtype and a.tobytes() == b.tobytes()


def _scalar_images(m: HoloMap, z: np.ndarray, w: np.ndarray):
    images = [m.evaluator(SiegelPoint(zi, wi)) for zi, wi in zip(z, w)]
    return (np.array([q.z for q in images]),
            np.array([q.w for q in images], dtype=np.complex128).reshape(w.shape))


class TestEvaluateBatch:
    @pytest.mark.parametrize("name", sorted(_maps()))
    def test_equals_the_scalar_evaluator_row_by_row(self, name):
        m = _maps()[name]
        # far from the base point, ball coordinates round onto the sphere
        z, w = _draws(m.dim, (1e-3, 1.0) if name.startswith("twin-less") else SCALES)
        z_b, w_b = evaluate_batch(m, z, w)
        z_s, w_s = _scalar_images(m, z, w)
        assert np.array_equal(z_b, z_s) and _same_bits(z_b, z_s)
        assert np.array_equal(w_b, w_s) and _same_bits(w_b, w_s)

    def test_catalog_and_transports_have_batches(self):
        maps = _maps()
        assert all(maps[name].batch is not None for name in catalog())
        assert maps["cayley round trip"].batch is not None
        assert maps["conjugated affine N=3"].batch is not None
        assert maps["twin-less cayley transport"].batch is None

    def test_checks_input_and_output_rows(self):
        m = make_halfplane_affine(2.0, 1.0, 2)
        z = np.array([2.0 + 0j, 0.1 + 0j])
        w = np.array([[0.5 + 0j], [0.5 + 0j]])
        with pytest.raises(DomainError) as batch_err:
            evaluate_batch(m, z, w)
        with pytest.raises(DomainError) as scalar_err:
            SiegelPoint(z[1], w[1])
        assert str(batch_err.value) == str(scalar_err.value)
        # a "map" that leaves the domain is caught on its output rows
        flip = replace(m, evaluator=lambda q: SiegelPoint(-q.z, q.w),
                       batch=lambda z, w: (-z, w))
        with pytest.raises(DomainError) as batch_err:
            evaluate_batch(flip, z[:1], w[:1])
        with pytest.raises(DomainError) as scalar_err:
            flip.evaluator(SiegelPoint(z[0], w[0]))
        assert str(batch_err.value) == str(scalar_err.value)

    def test_rejects_ball_side_maps(self):
        ball = make_ball_map_from_siegel(make_halfplane_affine(2.0, 1.0, 2))
        with pytest.raises(DomainError, match="Siegel-side"):
            evaluate_batch(ball, np.array([2.0 + 0j]), np.zeros((1, 1), dtype=np.complex128))


class TestRowHelpers:
    @pytest.mark.parametrize("n_dim", [1, 2, 3])
    def test_apply_automorphism_arrays_matches_the_scalar(self, n_dim):
        t = _automorphism(n_dim)
        z, w = _draws(n_dim)
        for u in (t, t.inverse()):
            z_a, w_a = apply_automorphism_arrays(u, z, w)
            images = [apply_automorphism(u, SiegelPoint(zi, wi)) for zi, wi in zip(z, w)]
            assert _same_bits(z_a, np.array([q.z for q in images]))
            assert _same_bits(w_a, np.array([q.w for q in images]).reshape(w.shape))

    def test_divide_by_real_matches_python_division(self):
        z, _ = _draws(2)
        z = np.concatenate([z, -z, [0j, -0.0 + 0j, complex(0.0, -0.0), complex(-0.0, -0.0)]])
        for x in (3.0, 0.7, 1e-100, 1e250):
            want = np.array([complex(c) / x for c in z])
            assert _same_bits(divide_by_real(z, x), want)


def _scalar_verdict(z, w):
    try:
        SiegelPoint(z, w)
    except DomainError as exc:
        return str(exc)
    return None


def _array_verdict(z, w):
    try:
        check_siegel_arrays(np.array([z], dtype=np.complex128),
                            np.array([w], dtype=np.complex128).reshape(1, len(w)))
    except DomainError as exc:
        return str(exc)
    return None


class TestCheckSiegelArrays:
    def _rows(self):
        nan, inf = math.nan, math.inf
        rows = [
            (nan, [0.1]), (complex(1, nan), [0.1]), (2.0, [nan]), (2.0, [complex(0, nan)]),
            (inf, [0.1]), (-inf, [0.1]), (complex(1, inf), [0.1]), (complex(1, -inf), [0.1]),
            (2.0, [inf]), (2.0, [-inf]), (2.0, [complex(0, -inf)]), (2.0, [1e200]),
            (0.25, [0.5]), (0.1, [0.5]), (-3.0, [0.0]), (0.0, [0.0]), (1e-300, [0.0]),
            (0.26, [0.5]), (3.0 + 4.0j, [1.0]),
        ]
        # straddle the slack band: Re z = ||w||^2 + BOUNDARY_SLACK * scale, nudged
        for wsq, y in ((0.25, 0.0), (4.0, 3.0), (1e6, -2e6), (1e-4, 0.0)):
            scale = max(1.0, abs(complex(wsq, y)), wsq)
            edge = wsq + BOUNDARY_SLACK * scale
            for k in range(-6, 7):
                x = edge + k * math.ulp(edge)
                rows.append((complex(x, y), [math.sqrt(wsq)]))
                rows.append((complex(x, y), [math.sqrt(wsq / 2.0) * (1 + 1j) / math.sqrt(2.0)]))
        return rows

    @pytest.mark.filterwarnings("ignore::RuntimeWarning")
    def test_rejects_exactly_what_siegel_point_rejects(self):
        verdicts = []
        for z, w in self._rows():
            scalar = _scalar_verdict(z, w)
            assert _array_verdict(z, w) == scalar, (z, w)
            verdicts.append(scalar)
        # the rows exercise both outcomes, including on the band edge
        assert None in verdicts and any(v and "strictly inside" in v for v in verdicts)
        assert any(v == "non-finite coordinates" for v in verdicts)

    @pytest.mark.filterwarnings("ignore::RuntimeWarning")
    def test_reports_the_first_bad_row(self):
        z = np.array([2.0, 3.0, 0.1, math.nan], dtype=np.complex128)
        w = np.array([[0.5], [0.5], [0.5], [0.5]], dtype=np.complex128)
        with pytest.raises(DomainError, match="strictly inside"):
            check_siegel_arrays(z, w)
        with pytest.raises(DomainError, match="non-finite"):
            check_siegel_arrays(z[[0, 3, 2]], w[[0, 3, 2]])
        check_siegel_arrays(z[:2], w[:2])

    def test_one_dimensional_rows(self):
        check_siegel_arrays(np.array([1.0 + 5j, 2.0]), np.zeros((2, 0), dtype=np.complex128))
        with pytest.raises(DomainError, match="strictly inside"):
            check_siegel_arrays(np.array([1.0, -1.0 + 0j]), np.zeros((2, 0), dtype=np.complex128))
