"""Array evaluation against the mpmath oracle, the automorphism group law, rows
independent of their batch, and the row checks.

Every catalog map is defined by its ``batch`` alone, and a point evaluation
is a one-row call of it.  ``evaluate_batch`` and ``apply_automorphism_arrays``
are compared with the same formulas evaluated in mpmath at 50 digits
(``oracle``): every value must lie within the error bound that the oracle
derives from the formula's own operations.  An automorphism is one triple
``(x, y, a)``; the triple of a nested chain, or of its inverse, is checked
against its factors applied one at a time, within the bound of its composed
constants' roundings.  A one-row call must give the bits of its row in any
batch.
"""

import functools
import math
from dataclasses import replace
from functools import lru_cache

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import oracle as O
from valiron.geometry import (
    BOUNDARY_SLACK,
    FEW_ROWS,
    INFINITY,
    DomainError,
    LinearProjectionAtInfinity,
    NonFiniteError,
    SiegelAutomorphism,
    SiegelBatch,
    SiegelPoint,
    _norm_sq_rows,
    apply_automorphism,
    apply_automorphism_arrays,
    check_siegel_arrays,
    norm_sq,
)
from valiron.limits import (
    _first_coordinate_ratio,
    _w_growth,
    projection_gap_fn,
    projection_ratio_fn,
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
    make_siegel_map_from_ball,
    make_valiron_example,
)

from conftest import sample_siegel

SCALES = (1e-3, 1.0, 1e6, 1e40, 1e120)

# the oracle of each catalog map: its formula in mpmath, with the error bound of its operations
CATALOG_ORACLES = {
    "siegel_linear(2,2)": O.linear(2.0),
    "siegel_linear(1.5,1)": O.linear(1.5),
    "siegel_linear(3,3)": O.linear(3.0),
    "halfplane_affine(2,1,2)": O.affine(2.0, 1.0),
    "halfplane_affine(3,5,2)": O.affine(3.0, 5.0),
    "valiron_example(2,constant(0.5))": O.valiron(2.0, "constant", 0.5),
    "valiron_example(2,oscillating)": O.valiron(2.0, "oscillating"),
    "valiron_example(3,cayley)": O.valiron(3.0, "cayley"),
}


def _factors(n_dim: int) -> list:
    return [SiegelAutomorphism.scale(3.0, 1.0), SiegelAutomorphism.translate(np.full(n_dim - 1, 0.5 - 0.25j))]


def _automorphism(n_dim: int) -> SiegelAutomorphism:
    return SiegelAutomorphism.composite(_factors(n_dim))


def _black_box() -> HoloMap:
    """The Cayley transport of a map without a twin: evaluated point by point."""
    ball = make_ball_map_from_siegel(make_valiron_example(3.0, PsiChoice("cayley")))
    return make_siegel_map_from_ball(replace(ball, twin=None))


def _cases() -> dict:
    """name -> (map, oracle of its evaluation)."""
    cases = {name: (m, CATALOG_ORACLES[name]) for name, m in catalog().items()}
    for n_dim in (1, 2, 3):
        t = _automorphism(n_dim)
        cases[f"conjugated affine N={n_dim}"] = (
            conjugate_map(make_halfplane_affine(1.7, -0.4, n_dim), t),
            O.conjugate(O.affine(1.7, -0.4), t))
    t = SiegelAutomorphism.scale(4.0, -2.0)
    cases["conjugated oscillating"] = (
        conjugate_map(make_valiron_example(2.0, PsiChoice("oscillating")), t),
        O.conjugate(O.valiron(2.0, "oscillating"), t))
    cayley = make_valiron_example(3.0, PsiChoice("cayley"))
    cases["cayley round trip"] = (
        make_siegel_map_from_ball(make_ball_map_from_siegel(cayley)), O.valiron(3.0, "cayley"))
    # black boxes: evaluate_batch steps them point by point, inside a conjugate too;
    # the oracle takes both Cayley transforms of each of the two transports
    black_box = _black_box()
    through = O.through_the_ball(O.valiron(3.0, "cayley"))
    cases["twin-less cayley transport"] = black_box, through
    t = _automorphism(2)
    cases["conjugated twin-less cayley transport"] = conjugate_map(black_box, t), O.conjugate(through, t)
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


def _point_images(m, z, w):
    return _rows(((q.z, q.w) for q in (m(SiegelPoint(zi, wi)) for zi, wi in zip(z, w))), w.shape)


class TestEvaluateBatch:
    @pytest.mark.parametrize("name", sorted(_cases()))
    def test_equals_the_scalar_evaluator_row_by_row(self, name):
        m, image = _cases()[name]
        # far from the base point, ball coordinates round onto the sphere
        z, w = _draws(m.dim, (1e-3, 1.0) if "twin-less" in name else SCALES)
        assert len(z) > FEW_ROWS
        got_z, got_w = evaluate_batch(m, z, w)
        # every part within the bound the oracle derives from the map's operations
        O.assert_images(got_z, got_w, O.images(image, z, w))
        # one row at a time through the point evaluator: the bits of the whole arrays
        point_z, point_w = _point_images(m, z, w)
        assert _same_bits(point_z, got_z) and _same_bits(point_w, got_w)

    def test_catalog_and_transports_have_batches(self):
        cases = _cases()
        assert set(CATALOG_ORACLES) == set(catalog())
        assert all(cases[name][0].batch is not None for name in catalog())
        assert cases["cayley round trip"][0].batch is not None
        assert cases["twin-less cayley transport"][0].batch is None
        # a conjugate is its (inner, T) pair alone, whatever its inner map
        for name, inner in (("conjugated affine N=3", "batch"),
                            ("conjugated twin-less cayley transport", "black box")):
            m = cases[name][0]
            assert m.batch is None and m.conjugation is not None, name
            assert (m.conjugation[0].batch is None) == (inner == "black box"), name
        # evaluating a conjugate calls its inner map's batch once, on every row
        base, t = cases["conjugated affine N=3"][0].conjugation
        rows = []
        m = conjugate_map(replace(base, batch=lambda z, w: rows.append(len(z)) or base.batch(z, w)), t)
        z, w = _draws(3)
        evaluate_batch(m, z, w)
        assert rows == [len(z)]

    def test_a_map_needs_an_evaluator_or_a_siegel_batch(self):
        with pytest.raises(DomainError, match="needs an evaluator"):
            HoloMap(domain="siegel", dim=2, dw=INFINITY, multiplier=2.0)
        ball = make_ball_map_from_siegel(make_halfplane_affine(2.0, 1.0, 2))
        with pytest.raises(DomainError, match="needs an evaluator"):
            HoloMap(domain="ball", dim=2, dw=ball.dw, multiplier=0.5, batch=lambda z, w: (z, w))

    def test_a_map_has_a_batch_or_a_conjugation_not_both(self):
        conj = conjugate_map(make_halfplane_affine(2.0, 1.0, 2), SiegelAutomorphism.scale(4.0))
        base = conj.conjugation[0]
        for both in (lambda: replace(conj, batch=base.batch),
                     lambda: replace(base, conjugation=conj.conjugation)):
            with pytest.raises(DomainError, match="^a map has a batch or a conjugation, not both$"):
                both()

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

    def test_a_black_box_keeps_its_input_points_when_the_caller_reuses_its_arrays(self):
        kept = []

        def keep(q):
            kept.append(q)
            return SiegelPoint(2.0 * q.z, q.w)

        box = HoloMap(domain="siegel", dim=2, dw=INFINITY, multiplier=2.0, evaluator=keep)
        z = np.array([2.0 + 0j, 3.0 + 0j])
        w = np.array([[0.5 + 0j], [0.25j]])
        evaluate_batch(box, z, w)
        before = [(q.z, q.w.tobytes(), hash(q)) for q in kept]
        w[:] = 0.75
        assert [(q.z, q.w.tobytes(), hash(q)) for q in kept] == before
        assert all(not q.w.flags.writeable for q in kept)

    def test_rejects_ball_side_maps(self):
        ball = make_ball_map_from_siegel(make_halfplane_affine(2.0, 1.0, 2))
        with pytest.raises(DomainError, match="Siegel-side"):
            evaluate_batch(ball, np.array([2.0 + 0j]), np.zeros((1, 1), dtype=np.complex128))


class TestRowHelpers:
    @pytest.mark.parametrize("n_dim", [1, 2, 3])
    def test_apply_automorphism_arrays_matches_the_scalar(self, n_dim):
        t = _automorphism(n_dim)
        z, w = _draws(n_dim)
        for u in (t, t.inverse(), *_factors(n_dim)):
            z_a, w_a = apply_automorphism_arrays(u, z, w)
            # within the bound of the normal form's operations: the translation adds its
            # terms within (N + 2) u of their moduli, the scale rounds z three times and w twice
            O.assert_images(z_a, w_a, O.images(O.automorphism(u), z, w))
            # the one-row application gives the bits of the whole arrays
            images = [apply_automorphism(u, SiegelPoint(zi, wi)) for zi, wi in zip(z, w)]
            z_p, w_p = _rows(((q.z, q.w) for q in images), w.shape)
            assert _same_bits(z_p, z_a) and _same_bits(w_p, w_a)


# -- a row gets the same bits alone as inside any batch ------------------------------

SIZES = (1, 7, 8, 9, 1000)


@lru_cache(maxsize=None)
def _pool(n_dim: int):
    """1,000 rows of H^N: sample_siegel draws at two scales."""
    pts = [sample_siegel(n_dim, seed, 29) for seed in range(500)]
    z = np.array([s * p.z for s in (1e-3, 1.0) for p in pts])
    w = np.array([math.sqrt(s) * p.w for s in (1e-3, 1.0) for p in pts]).reshape(len(z), n_dim - 1)
    return z, w


def _probe_forms(m, rho) -> dict:
    def probe(f, *args):
        def run(z, w):
            points = SiegelBatch._checked(z, w)
            return f(points, SiegelBatch._checked(*evaluate_batch(m, z, w)), *args)
        return run

    ratio, gap = projection_ratio_fn(m, rho), projection_gap_fn(m, rho)
    return {"first coordinate ratio": probe(_first_coordinate_ratio),
            "projection ratio": probe(ratio.f, *ratio.args),
            "projection gap": probe(gap.f, *gap.args),
            "w growth": probe(_w_growth)}


def _row_forms() -> dict:
    """name -> (N, f): f maps checked rows (z, w) to arrays, row i from row i alone."""
    forms = {f"evaluate_batch {name}": (m.dim, lambda z, w, m=m: evaluate_batch(m, z, w))
             for name, (m, _) in _cases().items()}
    for n_dim in (1, 2, 3):
        rho = LinearProjectionAtInfinity(np.full(n_dim - 1, 0.3 - 0.7j))
        # constants with full mantissas: their products round
        t = SiegelAutomorphism.composite([SiegelAutomorphism.scale(3.0, 1.1),
                                          SiegelAutomorphism.translate(np.full(n_dim - 1, 0.3 - 0.7j))])

        def batch(z, w):
            return SiegelBatch._checked(z, w)

        geometry = {
            "apply_automorphism_arrays": lambda z, w, t=t: apply_automorphism_arrays(t, z, w),
            "norm_sq": lambda z, w: batch(z, w).norm_sq(),
            # the other point (2 z + 1, i w) is higher than (z, w), so inside H^N
            "kobayashi_tanh": lambda z, w: batch(z, w).kobayashi_tanh(batch(2.0 * z + 1.0, 1j * w)),
            "axis_tanh": lambda z, w: batch(z, w).axis_tanh(),
            "project": lambda z, w, rho=rho: batch(z, w).project(rho).z,
        }
        geometry.update(_probe_forms(make_halfplane_affine(2.0, 1.0, n_dim), rho))
        forms.update({f"{name} N={n_dim}": (n_dim, f) for name, f in geometry.items()})
    return forms


def _outputs(f, z, w) -> tuple:
    out = f(z, w)
    return out if isinstance(out, tuple) else (out,)


@pytest.mark.parametrize("name", sorted(_row_forms()))
def test_a_row_gets_the_same_bits_in_any_batch(name):
    """The plan's shared probes, ``sigma_at``'s replay and criterion 9 rely on it.
    A kernel that rounds by the array's length, or by its shape, fails here."""
    n_dim, f = _row_forms()[name]
    z, w = _pool(n_dim)
    targets = list(range(0, len(z), 167))
    alone = {k: _outputs(f, z[k:k + 1], w[k:k + 1]) for k in targets}
    for size in SIZES:
        offsets = sorted({0, size // 2, size - 1})
        for start in range(0, len(targets), len(offsets)):
            # targets at the offsets, other pool rows around them
            placed = list(zip(offsets, targets[start:start + len(offsets)]))
            rows = (np.arange(size) + 37 * start + 1) % len(z)
            for offset, k in placed:
                rows[offset] = k
            outputs = _outputs(f, z[rows], w[rows])
            for offset, k in placed:
                for got, want in zip(outputs, alone[k]):
                    assert got[offset:offset + 1].tobytes() == want.tobytes(), (size, offset, k)


def _leaf(t: SiegelAutomorphism) -> tuple:
    """(t, its oracle triple, the oracle triples of its factors in the order they apply)."""
    triple = O.triple(t)
    return t, triple, [triple]


def _inverse(chain: tuple) -> tuple:
    t, triple, leaves = chain
    return t.inverse(), O.inverse(triple), [O.inverse(leaf) for leaf in reversed(leaves)]


def _random_chain(rng, n_dim: int, depth: int) -> tuple:
    """A composite of 1 to 3 factors: scales by non-powers of two with y != 0,
    translations, and (while depth lasts) chains or their inverses; as ``_leaf``."""
    parts = []
    for _ in range(int(rng.integers(1, 4))):
        kind = int(rng.integers(0, 3 if depth else 2))
        if kind == 0:
            parts.append(_leaf(SiegelAutomorphism.scale(
                float(rng.choice([0.3, 0.7, 3.0, 5.0, 1.0 / 3.0]) * rng.uniform(0.9, 1.1)),
                float(rng.uniform(-2.0, 2.0)))))
        elif kind == 1:
            parts.append(_leaf(SiegelAutomorphism.translate(
                rng.uniform(-1.0, 1.0, n_dim - 1) + 1j * rng.uniform(-1.0, 1.0, n_dim - 1))))
        else:
            chain = _random_chain(rng, n_dim, depth - 1)
            parts.append(_inverse(chain) if rng.integers(2) else chain)
    t = SiegelAutomorphism.composite([part[0] for part in parts])
    triple = functools.reduce(O.then, [part[1] for part in parts])
    return t, triple, [leaf for part in parts for leaf in part[2]]


def _one_at_a_time(leaves: list):
    """The oracle image of the factors applied one at a time, each exactly."""
    steps = [O.fused(leaf) for leaf in leaves]

    def image(z, w):
        for step in steps:
            z, w = step(z, w)
        return z, w

    return image


def _close(x: O.X, y: O.X) -> bool:
    """Equal up to mpmath's 50 digits: the exact values of one automorphism."""
    return abs(complex(x.v - y.v)) <= 1e-30 * (1.0 + x.m)


class TestFlatChains:
    """A chain of any nesting is one flat triple (x, y, a), by the group law."""

    @pytest.mark.parametrize("n_dim", [1, 2, 3])
    def test_nested_chains_apply_as_their_factors_one_at_a_time(self, n_dim):
        """The composed and inverted triples are exact as the factors applied in
        sequence; computed, they stay within the bound that propagates the
        roundings of their constants through the operations of the normal form."""
        rng = np.random.default_rng((2024, n_dim))
        z, w = _draws(n_dim, (1e-3, 1.0, 1e6))
        for _ in range(12):
            chain = _random_chain(rng, n_dim, 2)
            for t, triple, leaves in (chain, _inverse(chain)):
                want = O.images(O.fused(triple), z, w)
                for (wz, ww), (sz, sw) in zip(want, O.images(_one_at_a_time(leaves), z, w)):
                    assert _close(wz, sz) and all(map(_close, ww, sw))
                O.assert_images(*apply_automorphism_arrays(t, z, w), want)

    @pytest.mark.parametrize("n_dim", [1, 2, 3])
    def test_a_power_of_two_chain_gets_the_bits_of_its_factors(self, n_dim):
        """Scaling by a power of two commutes with rounding: ``scale(4); translate(1)``
        and its inverse give the bits of their factors applied one at a time."""
        factors = [SiegelAutomorphism.scale(4.0), SiegelAutomorphism.translate(np.ones(n_dim - 1))]
        t = SiegelAutomorphism.composite(factors)
        z, w = _draws(n_dim)
        for u, parts in ((t, factors), (t.inverse(), [f.inverse() for f in reversed(factors)])):
            want_z, want_w = z, w
            for f in parts:
                want_z, want_w = apply_automorphism_arrays(f, want_z, want_w)
            got_z, got_w = apply_automorphism_arrays(u, z, w)
            assert _same_bits(got_z, want_z) and _same_bits(got_w, want_w)

    def test_translation_vector_dimension_mismatch(self):
        z = np.array([2.0 + 0j, 3.0 + 1j])
        w = np.zeros((2, 1), dtype=np.complex128)
        deep = SiegelAutomorphism.composite([
            SiegelAutomorphism.scale(3.0, 1.0),
            SiegelAutomorphism.composite([SiegelAutomorphism.translate([1.0, 2.0])]),
        ])
        for t in (SiegelAutomorphism.translate([1.0, 2.0]), deep, deep.inverse()):
            with pytest.raises(DomainError, match="^translation vector dimension mismatch$"):
                apply_automorphism_arrays(t, z, w)
        # translations of different lengths do not compose
        with pytest.raises(DomainError, match="^translation vector dimension mismatch$"):
            SiegelAutomorphism.composite([deep, SiegelAutomorphism.translate([1.0])])

    @pytest.mark.parametrize("x", [0.0, -1.0, math.nan, -math.inf])
    def test_a_scale_needs_x_above_zero(self, x):
        with pytest.raises(DomainError, match=r"^scale-translate requires x > 0$"):
            SiegelAutomorphism.scale(x)
        with pytest.raises(DomainError, match=r"^scale-translate requires x > 0$"):
            SiegelAutomorphism(x)
        # a scale product that underflows to 0
        with pytest.raises(DomainError, match=r"^scale-translate requires x > 0$"):
            SiegelAutomorphism.composite([SiegelAutomorphism.scale(1e-200), SiegelAutomorphism.scale(1e-200)])

    @pytest.mark.filterwarnings("error")
    def test_non_finite_parameters_are_rejected_when_built(self):
        inf, nan = math.inf, math.nan
        built = [
            lambda: SiegelAutomorphism.scale(inf),
            lambda: SiegelAutomorphism.scale(2.0, nan),
            lambda: SiegelAutomorphism.scale(2.0, -inf),
            lambda: SiegelAutomorphism.translate([1.0, complex(0.0, nan)]),
            lambda: SiegelAutomorphism(2.0, 0.0, [inf]),
            # a scale product past the double range, and 1 / x past it
            lambda: SiegelAutomorphism.composite([SiegelAutomorphism.scale(1e200), SiegelAutomorphism.scale(1e200)]),
            lambda: SiegelAutomorphism.scale(1e-310).inverse(),
            # sqrt(x) a past the double range, in a composite and in an inverse
            lambda: SiegelAutomorphism.composite([SiegelAutomorphism.scale(1e300),
                                                  SiegelAutomorphism.translate([1e200])]),
            lambda: SiegelAutomorphism.composite([SiegelAutomorphism.translate([1e300]),
                                                  SiegelAutomorphism.scale(1e-300)]).inverse(),
        ]
        for build in built:
            with pytest.raises(NonFiniteError, match="^non-finite automorphism parameters$"):
                build()


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


# the kinds of row the property test draws, each at a random size and direction:
# clear of twice the slack, between one and two slack edges, a few ulps from
# either edge; and, at most twice in a draw, outside, non-finite or overflowing
GOOD_ROWS = ("clear", "band", "edge")
BAD_ROWS = ("outside", "nan z", "inf z", "nan w", "inf w", "w overflow", "z overflow",
            "z overflow, nan w")


@st.composite
def _drawn_rows(draw):
    """0 to FEW_ROWS + 3 rows, N in (1, 2, 3, 10), of the kinds above; ``w`` may be
    a strided view, not C-contiguous."""
    n_dim = draw(st.sampled_from((1, 2, 3, 10)))
    n = draw(st.integers(0, FEW_ROWS + 3))
    kinds = draw(st.lists(st.sampled_from(GOOD_ROWS), min_size=n, max_size=n))
    for _ in range(draw(st.integers(0, 2)) if n else 0):
        kinds[draw(st.integers(0, n - 1))] = draw(st.sampled_from(BAD_ROWS))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    z, w = np.empty(len(kinds), dtype=np.complex128), np.empty((len(kinds), n_dim - 1), dtype=np.complex128)
    for i, kind in enumerate(kinds):
        size = 10.0 ** rng.uniform(-3.0, 6.0)
        wi = (rng.normal(size=n_dim - 1) + 1j * rng.normal(size=n_dim - 1)) * math.sqrt(size / max(n_dim - 1, 1))
        y = size * rng.uniform(-1.0, 1.0)
        wsq = norm_sq(wi)
        k = {"clear": 10.0 ** rng.uniform(0.4, 12.0), "band": rng.uniform(1.0, 2.0),
             "outside": rng.uniform(-2.0, 1.0)}.get(kind, 3.0)
        zi = complex(wsq + k * BOUNDARY_SLACK * max(1.0, abs(complex(wsq, y)), wsq), y)
        if kind == "edge":  # a few ulps from one or two slack edges
            edge = wsq + rng.integers(1, 3) * BOUNDARY_SLACK * max(1.0, abs(complex(wsq, y)), wsq)
            zi = complex(edge + rng.integers(-2, 3) * math.ulp(edge), y)
        bad = (math.nan if kind.startswith("nan") or kind.endswith("nan w") else
               math.inf * rng.choice((-1.0, 1.0)))
        part = rng.integers(2)
        if kind.endswith(" z"):
            zi = complex(bad, zi.imag) if part else complex(zi.real, bad)
        elif kind.endswith(" w") and n_dim > 1:
            j = rng.integers(n_dim - 1)
            wi[j] = complex(bad, wi[j].imag) if part else complex(wi[j].real, bad)
        elif kind == "w overflow" and n_dim > 1:
            wi[rng.integers(n_dim - 1)] = 1e200
        if kind.startswith("z overflow"):
            zi = complex(1.7e308, 1.7e308)
        z[i], w[i] = zi, wi
    if draw(st.booleans()):
        wide = np.zeros((len(kinds), 2 * (n_dim - 1)), dtype=np.complex128)
        wide[:, ::2] = w
        w = wide[:, ::2]
    return z, w


def _per_row(z, w) -> float:
    """``check_siegel_arrays`` by its definition: each row as ``SiegelPoint`` checks
    it, in order, then the largest scale of the rows, each computed on Python floats."""
    top = 1.0
    for zi, wi in zip(z, w):
        SiegelPoint(zi, wi)
        top = max(top, abs(complex(zi)), norm_sq(wi))
    return top


def _outcome(check, *args, **kwargs):
    """The returned float's bits, or the exception's type and message."""
    try:
        return check(*args, **kwargs).hex()
    except (DomainError, OverflowError) as exc:  # abs(z) may overflow from finite parts
        return type(exc), str(exc)


class TestCheckSiegelArrays:
    @given(rows=_drawn_rows())
    @settings(max_examples=300, deadline=None)
    def test_equals_the_per_row_definition(self, rows):
        assert _outcome(check_siegel_arrays, *rows) == _outcome(_per_row, *rows)

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
        # the same at N = 10, where numpy's own row sum adds the nine terms in
        # blocks, apart from the in-order norm_sq of the row test
        for size, y in ((0.25, 0.0), (1.0, 5.0)):
            w = [size * 0.31 * (k + 1) * complex(math.cos(k), math.sin(k)) for k in range(9)]
            wsq = norm_sq(w)
            scale = max(1.0, abs(complex(wsq, y)), wsq)
            edge = wsq + BOUNDARY_SLACK * scale
            for k in range(-6, 7):
                rows.append((complex(edge + k * math.ulp(edge), y), w))
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
        # the N = 10 rows include some where numpy's own row sum is not norm_sq;
        # the screen's row sums are norm_sq on every row
        long_rows = np.array([w for _, w in self._rows() if len(w) == 9], dtype=np.complex128)
        in_order = [norm_sq(w) for w in long_rows]
        assert any((long_rows.real * long_rows.real + long_rows.imag * long_rows.imag).sum(axis=-1) != in_order)
        assert _norm_sq_rows(long_rows).tolist() == in_order

    def test_row_sums_are_norm_sq(self):
        rng = np.random.default_rng(7)
        for k in range(13):
            for scale in (1e-160, 1e-3, 1.0, 1e3, 1e150):
                w = scale * (rng.normal(size=(40, k)) + 1j * rng.normal(size=(40, k)))
                assert _norm_sq_rows(w).tolist() == [norm_sq(row) for row in w]

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
            assert check_siegel_arrays(*rows) == abs(1.0 + 5j)
        for rows in _paddings(np.array([1.0, -1.0 + 0j]), w):
            with pytest.raises(DomainError, match="strictly inside"):
                check_siegel_arrays(*rows)

    @pytest.mark.parametrize("n_dim", [1, 2])
    def test_rows_in_the_band_pass_and_count_in_the_largest_scale(self, n_dim):
        """A row between one and two slack edges from the boundary passes the
        check, alone and behind other rows, and its scale counts in the
        returned bound like any other row's."""
        w_size = 0.5 if n_dim == 2 else 0.0
        band = w_size ** 2 + 1.5 * BOUNDARY_SLACK  # scale 1: the height is 1.5 slack edges
        z = np.array([2.0, 3.0 + 1j, band, 2.0 + 0j])
        w = np.full((4, n_dim - 1), w_size + 0j)
        assert BOUNDARY_SLACK < band - norm_sq(w[2]) < 2.0 * BOUNDARY_SLACK
        for rows in _paddings(z, w):
            assert check_siegel_arrays(*rows) == abs(3.0 + 1j)
        for rows in _paddings(z[2:3], w[2:3]):
            assert check_siegel_arrays(*rows) == (2.0 if len(rows[0]) > 1 else 1.0)

    def test_the_largest_scale_bounds_every_component(self):
        """Inside H^N, |w_j|^2 <= ||w||^2 < Re z <= |z|: the returned
        ``max(1, |z|, ||w||^2)`` bounds every component of every row."""
        rng = np.random.default_rng(3)
        for n_dim in (1, 2, 3, 10):
            for size in (1e-3, 1.0, 1e6, 1e250):
                w = (rng.normal(size=(40, n_dim - 1)) + 1j * rng.normal(size=(40, n_dim - 1)))
                w *= math.sqrt(size / max(n_dim - 1, 1))
                z = _norm_sq_rows(w) + size * (rng.uniform(0.01, 1.0, 40) + 1j * rng.uniform(-1.0, 1.0, 40))
                for rows in ((z, w), (z[:FEW_ROWS], w[:FEW_ROWS])):
                    top = check_siegel_arrays(*rows)
                    assert max(map(abs, rows[0].tolist() + rows[1].ravel().tolist())) <= top

    def test_a_non_finite_row_behind_clear_rows_gives_the_error_of_the_first_bad_row(self):
        nan, inf = math.nan, math.inf
        bad = [(complex(nan, 0.0), 0.5), (complex(inf, 0.0), 0.5), (2.0, complex(inf, 0.0)),
               (2.0, complex(0.0, nan)), (0.1 + 0j, 0.5)]
        for first in bad:
            for second in bad:
                z = np.array([2.0, 3.0 + 1j, first[0], second[0]], dtype=np.complex128)
                w = np.array([[0.5], [0.5], [first[1]], [second[1]]], dtype=np.complex128)
                want = _verdict(SiegelPoint, first[0], [first[1]])
                assert want is not None
                for rows in _paddings(z, w):
                    assert _verdict(check_siegel_arrays, *rows) == want
