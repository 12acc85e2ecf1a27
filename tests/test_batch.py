"""Array evaluation against Python-complex point references, and the row checks.

Every catalog map is defined by its ``batch`` alone, and a point evaluation
is a one-row call of it.  So the references here are the point formulas,
written out in Python complex arithmetic as a point evaluator computes them:
``evaluate_batch`` and ``apply_automorphism_arrays`` must give their bits.
"""

import math
from dataclasses import replace

import numpy as np
import pytest

from valiron.geometry import (
    BOUNDARY_SLACK,
    FEW_ROWS,
    INFINITY,
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


# -- references: one point, Python complex z, numpy w ------------------------------


def _herm(u: np.ndarray, v: np.ndarray) -> complex:
    return complex(np.dot(u, np.conjugate(v)))


def ref_linear(lam: float):
    root = math.sqrt(lam)
    return lambda z, w: (lam * z, root * w)


def ref_affine(lam: float, b: float):
    root = math.sqrt(lam)
    return lambda z, w: (lam * z + 1j * b, root * w)


def ref_valiron(a_mult: float, psi: PsiChoice):
    def image(z, w):
        w1 = complex(w[0])
        return a_mult * z + a_mult * w1 * w1 * psi(z), np.zeros(1, dtype=np.complex128)

    return image


def ref_automorphism(t: SiegelAutomorphism, z: complex, w: np.ndarray):
    if t.kind == "scale-translate":
        return (z - 1j * t.y) / t.x, w / math.sqrt(t.x)
    if t.kind == "heisenberg-translate":
        return z + _herm(t.a, t.a).real + 2.0 * _herm(w, t.a), w + t.a
    for f in t.factors:
        z, w = ref_automorphism(f, z, w)
    return z, w


def ref_conjugate(ref, t: SiegelAutomorphism):
    t_inv = t.inverse()
    return lambda z, w: ref_automorphism(t, *ref(*ref_automorphism(t_inv, z, w)))


CATALOG_REFS = {
    "siegel_linear(2,2)": ref_linear(2.0),
    "siegel_linear(1.5,1)": ref_linear(1.5),
    "siegel_linear(3,3)": ref_linear(3.0),
    "halfplane_affine(2,1,2)": ref_affine(2.0, 1.0),
    "halfplane_affine(3,5,2)": ref_affine(3.0, 5.0),
    "valiron_example(2,constant(0.5))": ref_valiron(2.0, PsiChoice("constant", 0.5)),
    "valiron_example(2,oscillating)": ref_valiron(2.0, PsiChoice("oscillating")),
    "valiron_example(3,cayley)": ref_valiron(3.0, PsiChoice("cayley")),
}


def _automorphism(n_dim: int) -> SiegelAutomorphism:
    return SiegelAutomorphism.composite([
        SiegelAutomorphism.scale(3.0, 1.0),
        SiegelAutomorphism.translate(np.full(n_dim - 1, 0.5 - 0.25j)),
    ])


def _black_box():
    """The Cayley transport of a map without a twin, and its point evaluation."""
    ball = make_ball_map_from_siegel(make_valiron_example(3.0, PsiChoice("cayley")))
    m = make_siegel_map_from_ball(replace(ball, twin=None))

    def ref(z, w):
        q = m(SiegelPoint(z, w))
        return q.z, q.w

    return m, ref


def _cases() -> dict:
    """name -> (map, reference of its point evaluation)."""
    cases = {name: (m, CATALOG_REFS[name]) for name, m in catalog().items()}
    for n_dim in (1, 2, 3):
        t = _automorphism(n_dim)
        cases[f"conjugated affine N={n_dim}"] = (
            conjugate_map(make_halfplane_affine(1.7, -0.4, n_dim), t),
            ref_conjugate(ref_affine(1.7, -0.4), t))
    t = SiegelAutomorphism.scale(4.0, -2.0)
    osc = PsiChoice("oscillating")
    cases["conjugated oscillating"] = (
        conjugate_map(make_valiron_example(2.0, osc), t), ref_conjugate(ref_valiron(2.0, osc), t))
    cayley = make_valiron_example(3.0, PsiChoice("cayley"))
    cases["cayley round trip"] = (
        make_siegel_map_from_ball(make_ball_map_from_siegel(cayley)),
        ref_valiron(3.0, PsiChoice("cayley")))
    # black boxes: evaluate_batch steps them point by point, in conjugate_map's batch too
    black_box, ref = _black_box()
    cases["twin-less cayley transport"] = black_box, ref
    t = _automorphism(2)
    cases["conjugated twin-less cayley transport"] = conjugate_map(black_box, t), ref_conjugate(ref, t)
    return cases


def _draws(n_dim: int, scales=SCALES):
    """sample_siegel draws, each also rescaled by (s, sqrt(s)) as renorm does."""
    pts = [sample_siegel(n_dim, seed, 63) for seed in range(24)]
    z = np.array([s * p.z for s in scales for p in pts])
    w = np.array([math.sqrt(s) * p.w for s in scales for p in pts]).reshape(len(z), n_dim - 1)
    return z, w


def _same_bits(a: np.ndarray, b: np.ndarray) -> bool:
    return a.shape == b.shape and a.dtype == b.dtype and a.tobytes() == b.tobytes()


def _rows(images, w_shape):
    images = list(images)
    return (np.array([z for z, _ in images], dtype=np.complex128),
            np.array([w for _, w in images], dtype=np.complex128).reshape(w_shape))


def _reference_images(ref, z, w):
    return _rows((ref(complex(zi), wi) for zi, wi in zip(z, w)), w.shape)


def _point_images(m, z, w):
    return _rows(((q.z, q.w) for q in (m(SiegelPoint(zi, wi)) for zi, wi in zip(z, w))), w.shape)


class TestEvaluateBatch:
    @pytest.mark.parametrize("name", sorted(_cases()))
    def test_equals_the_scalar_evaluator_row_by_row(self, name):
        m, ref = _cases()[name]
        # far from the base point, ball coordinates round onto the sphere
        z, w = _draws(m.dim, (1e-3, 1.0) if "twin-less" in name else SCALES)
        assert len(z) > FEW_ROWS
        want_z, want_w = _reference_images(ref, z, w)
        # whole arrays, and one row at a time through the point evaluator
        for got_z, got_w in (evaluate_batch(m, z, w), _point_images(m, z, w)):
            assert _same_bits(got_z, want_z)
            assert _same_bits(got_w, want_w)

    def test_catalog_and_transports_have_batches(self):
        cases = _cases()
        assert set(CATALOG_REFS) == set(catalog())
        assert all(cases[name][0].batch is not None for name in catalog())
        assert cases["cayley round trip"][0].batch is not None
        assert cases["conjugated affine N=3"][0].batch is not None
        assert cases["twin-less cayley transport"][0].batch is None
        assert cases["conjugated twin-less cayley transport"][0].batch is not None

    def test_a_map_needs_an_evaluator_or_a_siegel_batch(self):
        with pytest.raises(DomainError, match="needs an evaluator"):
            HoloMap(domain="siegel", dim=2, dw=INFINITY, multiplier=2.0)
        ball = make_ball_map_from_siegel(make_halfplane_affine(2.0, 1.0, 2))
        with pytest.raises(DomainError, match="needs an evaluator"):
            HoloMap(domain="ball", dim=2, dw=ball.dw, multiplier=0.5, batch=lambda z, w: (z, w))

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
        flip = HoloMap(domain="siegel", dim=2, dw=INFINITY, multiplier=2.0,
                       batch=lambda z, w: (-z, w))
        with pytest.raises(DomainError) as batch_err:
            evaluate_batch(flip, z[:1], w[:1])
        with pytest.raises(DomainError) as point_err:
            flip(SiegelPoint(z[0], w[0]))
        with pytest.raises(DomainError) as scalar_err:
            SiegelPoint(-z[0], w[0])
        assert str(batch_err.value) == str(point_err.value) == str(scalar_err.value)
        # a point whose image leaves the double range: the row check's error, no numpy warning
        with pytest.raises(DomainError, match="^non-finite coordinates$"):
            make_halfplane_affine(1e200, 1.0, 2)(SiegelPoint(1e200, [0.5]))

    def test_rejects_ball_side_maps(self):
        ball = make_ball_map_from_siegel(make_halfplane_affine(2.0, 1.0, 2))
        with pytest.raises(DomainError, match="Siegel-side"):
            evaluate_batch(ball, np.array([2.0 + 0j]), np.zeros((1, 1), dtype=np.complex128))


class TestRowHelpers:
    @pytest.mark.parametrize("n_dim", [1, 2, 3])
    def test_apply_automorphism_arrays_matches_the_scalar(self, n_dim):
        t = _automorphism(n_dim)
        z, w = _draws(n_dim)
        for u in (t, t.inverse(), *t.factors):
            want_z, want_w = _reference_images(lambda zi, wi: ref_automorphism(u, zi, wi), z, w)
            z_a, w_a = apply_automorphism_arrays(u, z, w)
            assert _same_bits(z_a, want_z) and _same_bits(w_a, want_w)
            images = [apply_automorphism(u, SiegelPoint(zi, wi)) for zi, wi in zip(z, w)]
            z_p, w_p = _rows(((q.z, q.w) for q in images), w.shape)
            assert _same_bits(z_p, want_z) and _same_bits(w_p, want_w)

    def test_divide_by_real_matches_python_division(self):
        z, _ = _draws(2)
        z = np.concatenate([z, -z, [0j, -0.0 + 0j, complex(0.0, -0.0), complex(-0.0, -0.0)]])
        for x in (3.0, 0.7, 1e-100, 1e250):
            want = np.array([complex(c) / x for c in z])
            assert _same_bits(divide_by_real(z, x), want)


def _verdict(check, *args):
    try:
        check(*args)
    except (DomainError, OverflowError) as exc:  # abs(z) may overflow from finite parts
        return type(exc), str(exc)
    return None


def _array_verdicts(z, w):
    """The verdicts of check_siegel_arrays on the row alone, then stacked past FEW_ROWS."""
    return [
        _verdict(check_siegel_arrays, np.full(copies, z, dtype=np.complex128),
                 np.array([w] * copies, dtype=np.complex128).reshape(copies, len(w)))
        for copies in (1, FEW_ROWS + 1)
    ]


def _paddings(z: np.ndarray, w: np.ndarray):
    """The rows alone, then behind FEW_ROWS clear rows: the few-row and the whole-array path."""
    yield z, w
    yield (np.concatenate([np.full(FEW_ROWS, 2.0 + 0j), z]),
           np.concatenate([np.full((FEW_ROWS, w.shape[1]), 0.5 + 0j), w]))


class TestCheckSiegelArrays:
    def _rows(self):
        nan, inf = math.nan, math.inf
        rows = [
            (nan, [0.1]), (complex(1, nan), [0.1]), (2.0, [nan]), (2.0, [complex(0, nan)]),
            (inf, [0.1]), (-inf, [0.1]), (complex(1, inf), [0.1]), (complex(1, -inf), [0.1]),
            (2.0, [inf]), (2.0, [-inf]), (2.0, [complex(0, -inf)]), (2.0, [1e200]),
            (complex(nan, 1), [0.1]), (complex(inf, nan), [0.1]), (complex(1.7e308, 1.7e308), [0.1]),
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

    def test_rejects_exactly_what_siegel_point_rejects(self):
        verdicts = []
        for z, w in self._rows():
            scalar = _verdict(SiegelPoint, z, w)
            assert _array_verdicts(z, w) == [scalar, scalar], (z, w)
            verdicts.append(scalar and scalar[1])
        # the rows exercise both outcomes, including on the band edge
        assert None in verdicts and any(v and "strictly inside" in v for v in verdicts)
        assert any(v == "non-finite coordinates" for v in verdicts)

    def test_reports_the_first_bad_row(self):
        z = np.array([2.0, 3.0, 0.1, math.nan], dtype=np.complex128)
        w = np.array([[0.5], [0.5], [0.5], [0.5]], dtype=np.complex128)
        for rows in _paddings(z, w):
            with pytest.raises(DomainError, match="strictly inside"):
                check_siegel_arrays(*rows)
        for rows in _paddings(z[[0, 3, 2]], w[[0, 3, 2]]):
            with pytest.raises(DomainError, match="non-finite"):
                check_siegel_arrays(*rows)
        for rows in _paddings(z[:2], w[:2]):
            check_siegel_arrays(*rows)

    def test_one_dimensional_rows(self):
        w = np.zeros((2, 0), dtype=np.complex128)
        for rows in _paddings(np.array([1.0 + 5j, 2.0]), w):
            check_siegel_arrays(*rows)
        for rows in _paddings(np.array([1.0, -1.0 + 0j]), w):
            with pytest.raises(DomainError, match="strictly inside"):
                check_siegel_arrays(*rows)
