"""Sequences as arrays: ``SiegelBatch``, ``generate_sequences``,
``classify_sequence`` and ``projection_invariance_check``.

Generation is compared, bit for bit, with the point-by-point construction
it replaces: every product there has a real factor, so each part rounds
once however it is evaluated.  The geometry and the classification are
compared with their formulas in mpmath at 50 digits (``oracle``): every
number within the error bound the oracle derives from the formula's
operations, and every boolean, ``None``, amplitude and error type exactly.
"""

import dataclasses
import math
import re

import numpy as np
import pytest

import oracle as O
from valiron.dynamics import (
    AMBIGUITY_BAND,
    INFINITY_THRESHOLD,
    M_GRID,
    SPECIAL_RESIDUAL_TOL,
    AmbiguousClassificationError,
    ClassificationDisagreementError,
    NotTendingToInfinityError,
    OrbitTooShortError,
    SequenceClassification,
    classify_sequence,
    compute_orbit,
    tail_start,
)
from valiron.geometry import (
    DomainError,
    LinearProjectionAtInfinity,
    SiegelAutomorphism,
    SiegelBatch,
    SiegelPoint,
    _herm_rows,
    apply_automorphism_arrays,
    first_coordinate_projection,
    herm,
    kobayashi_distance,
    koranyi_margin,
    koranyi_region_at_infinity,
    left_inverse_value,
    max_kobayashi,
    norm_sq,
    project,
    siegel_height,
)
from valiron import limits
from valiron.limits import (
    ApproachFamily,
    ApproachSeed,
    SweepPlan,
    _generate,
    _rng_for,
    c_special_family,
    e0_families,
    e_families,
    generate_sequences,
    k_families,
    koranyi_family,
    projection_distance,
    projection_invariance_check,
    radial_family,
    zero_special_family,
)
from valiron.maps import catalog

from conftest import sample_siegel

# -- the point-by-point reference ---------------------------------------------


def _unit_direction(n_dim, phase=0.0):
    if n_dim == 1:
        return ()
    u = np.zeros(n_dim - 1, dtype=np.complex128)
    u[0] = np.exp(1j * phase)
    return tuple(u.tolist())


def _reference_point(family, seed, rung):
    r = family.ladder[rung]
    z = r * complex(math.cos(seed.theta), math.sin(seed.theta))
    x = z.real
    u = seed.direction()
    if family.n_dim == 1 or seed.s == 0.0:
        return SiegelPoint(z, np.zeros(family.n_dim - 1, dtype=np.complex128))
    if family.kind == "koranyi":
        margin = x - abs(z + 1.0) / family.amplitude
        wsq = seed.s * seed.s * max(margin, 0.0)
        return SiegelPoint(z, math.sqrt(wsq) * u)
    if family.kind == "zero-special-restricted":
        strength = seed.s / math.sqrt(rung + 1.0)
    else:
        strength = seed.s
    return SiegelPoint(z, strength * math.sqrt(x) * u)


def _reference_sequences(family, count=None, seed=0):
    seeds = list(family.seeds)
    if count is None:
        count = len(seeds)
    if family.kind == "radial":
        count = min(count, 1) or 1
    while len(seeds) < count:
        rng = _rng_for(seed, len(seeds))
        if family.kind == "koranyi":
            t_max = 0.75 * math.sqrt(family.amplitude ** 2 - 1.0)
            s_max = 0.95
        else:
            t_max = family.t_param
            s_max = math.tanh(family.c_param)
        theta = rng.uniform(-math.atan(t_max), math.atan(t_max)) if t_max > 0 else 0.0
        s = rng.uniform(0.0, s_max) if s_max > 0 else 0.0
        phase = rng.uniform(0.0, 2.0 * math.pi)
        seeds.append(ApproachSeed(theta, s, _unit_direction(family.n_dim, phase)))
    seeds = seeds[:count]
    return [
        [_reference_point(family, sd, k) for k in range(len(family.ladder))] for sd in seeds
    ]


class Raised(Exception):
    """A reference error: its type, its message with ``{}`` for each number, and the numbers."""

    def __init__(self, kind, template, *numbers):
        super().__init__(template)
        self.kind, self.template, self.numbers = kind, template, numbers


def _x_max(values) -> O.X:
    """The largest of the exact values, within the largest bound: max is 1-Lipschitz."""
    return O.X(max(x.v for x in values), max(x.e for x in values))


def _ratio_t(z: O.X) -> O.X:
    """|y| / x: abs is exact, the quotient rounds once."""
    return O.X(abs(z.v.imag), z.e) / z.real


def _inside(z: O.X, nsq: O.X, mod, m_amp: float) -> bool:
    """The exact margin x - |z + 1| / M - ||w||^2 clears the band at |z| = ``mod``.

    Decided in doubles where their margin, within 8 u of the moduli of its
    terms, is clear of the band edge; in mpmath where it is not.
    """
    c = complex(z.v)
    edge = AMBIGUITY_BAND * max(1.0, float(mod))
    shift = abs(c + 1.0) / m_amp
    margin = (c.real - shift) - nsq.m
    if abs(margin - edge) > 8.0 * O.U * (abs(c.real) + shift + nsq.m + edge):
        return margin > edge
    return (z.v.real - abs(z.v + 1) / m_amp) - nsq.v > AMBIGUITY_BAND * max(1, mod)


def _reference_classify(points):
    """``classify_sequence`` in mpmath: the numbers as oracle values, the
    decisions taken on the exact values."""
    points = tuple(points)
    if len(points) < 2:
        raise Raised(OrbitTooShortError, "need at least 2 points to classify")
    t0 = tail_start(len(points))
    tail = [(O.exact(p.z), O.row(p.w)) for p in points[t0:]]
    mods = [abs(z.v) for z, _ in tail]
    increasing = all(b > a * (1 - 1e-12) for a, b in zip(mods, mods[1:]))
    if not increasing or mods[-1] < INFINITY_THRESHOLD:
        raise Raised(NotTendingToInfinityError, "tail moduli must increase beyond "
                     f"{INFINITY_THRESHOLD:g}; got final |z| = {{}}", O.absolute(tail[-1][0]))

    nsq = [O.norm_sq(w) for _, w in tail]
    residuals = [n / z.real for n, (z, _) in zip(nsq, tail)]
    a_w = _x_max(residuals)
    t_w = _x_max([_ratio_t(z) for z, _ in tail])
    if abs(a_w.v - 1) <= AMBIGUITY_BAND:
        raise Raised(AmbiguousClassificationError, "||w||^2/x witness inside the band at 1")

    tanh = [O.axis_tanh(z, w, n) for (z, w), n in zip(tail, nsq)]
    # where 2 Re z overflows, the double distance is NaN or infinite: it bounds nothing
    c_w = O.X(O.mpmath.inf) if O.OVERFLOW in tanh else O.atanh(_x_max(tanh))
    c_special_present = a_w.v < 1 and c_w.v < O.mpmath.inf
    if c_special_present:
        expected_c = O.atanh(O.sqrt(a_w))
        if abs(expected_c.v - c_w.v) > 1e-6 * (1 + expected_c.v):
            raise Raised(ClassificationDisagreementError,
                         "axis-distance witness {} vs ratio witness {}", c_w, expected_c)

    koranyi_m = next((m_amp for m_amp in M_GRID if all(
        _inside(z, n, md, m_amp) for (z, _), n, md in zip(tail, nsq, mods))), None)

    m_pred = O.sqrt(1 + t_w * t_w) / (1 - a_w) if a_w.v < 1 else O.X(O.mpmath.inf)
    if koranyi_m is not None:
        if not c_special_present:
            raise Raised(ClassificationDisagreementError, "koranyi tail without axis bound")
        if a_w.v > (1.0 - 1.0 / koranyi_m) + AMBIGUITY_BAND:
            raise Raised(ClassificationDisagreementError,
                         f"residual bound 1 - 1/M violated: a = {{}}, M = {koranyi_m!r}", a_w)
        if t_w.v > koranyi_m * (1.0 + AMBIGUITY_BAND):
            raise Raised(ClassificationDisagreementError,
                         f"|y| <= M x violated: T = {{}}, M = {koranyi_m!r}", t_w)
    else:
        if c_special_present and m_pred.v * 1.05 <= M_GRID[-1]:
            raise Raised(ClassificationDisagreementError,
                         "bounds predict containment at M ~ {} but grid sweep failed", m_pred)
        if c_special_present:
            raise Raised(AmbiguousClassificationError,
                         "koranyi witness ~ {} beyond the amplitude grid", m_pred)

    special = all(r.v < SPECIAL_RESIDUAL_TOL for r in residuals) and residuals[-1].v <= residuals[0].v
    return dict(
        special=special,
        c_special=c_w if c_special_present else None,
        restricted=True,  # a finite tail has a finite T
        restricted_t=t_w,
        koranyi_m=koranyi_m,
        a_witness=a_w,
        tail_start=t0,
        residuals=residuals,
        m_predicted=m_pred,
    )


def _reference_projection_invariance(points, rho, tol=1e-2):
    """The report's fields: the distances by the scalar closed form, one row
    at a time, with the bits of the batch rows; the witnesses as oracle values."""
    points = list(points)
    dists = np.array([projection_distance(q, rho) for q in points])
    t0 = tail_start(len(points))
    tail = dists[t0:]
    max_tail = float(np.max(tail))
    monotone = bool(np.all(np.diff(dists) <= 1e-12))
    a = O.Rho(rho.a)
    shadows = [(O.exact(q.z), O.row(q.w)) for q in points[t0:]]
    c_axis = O.atanh(_x_max([O.axis_tanh(z, w) for z, w in shadows]))
    c_projected = O.atanh(_x_max([O.kobayashi_tanh((z, w), O.project(z, w, a)) for z, w in shadows]))
    lv = [O.left_inverse(z, w, a) for z, w in shadows]
    return (dists, max_tail, monotone, max_tail < tol, c_axis, c_projected,
            _x_max([_ratio_t(z) for z, _ in shadows]), _x_max([_ratio_t(x) for x in lv]))


# -- helpers --------------------------------------------------------------------


def _bits(values) -> bytes:
    return np.asarray(values, dtype=np.complex128).tobytes()


def _same(a, b) -> bool:
    """Equal to the bit, and of the same type, field by field."""
    if isinstance(a, np.ndarray):
        return a.dtype == b.dtype and a.shape == b.shape and a.tobytes() == b.tobytes()
    if isinstance(a, float) and isinstance(b, float):
        return np.float64(a).tobytes() == np.float64(b).tobytes()
    return type(a) is type(b) and a == b


def _agrees(got, want) -> bool:
    """A number within the bound of its oracle value (a list: each one);
    anything else exactly."""
    if isinstance(want, O.X):
        return isinstance(got, float) and O.within(got, want)
    if isinstance(want, list):
        return len(got) == len(want) and all(O.within(g, x) for g, x in zip(got, want))
    return _same(got, want)


def _assert_same_classification(got, want):
    for f in dataclasses.fields(SequenceClassification):
        a, b = getattr(got, f.name), want[f.name]
        assert _agrees(a, b), (f.name, a, b.v if isinstance(b, O.X) else b)


def _outcome(fn, *args):
    """The value of fn(*args), or the type and message of what it raised."""
    try:
        return fn(*args)
    except (ArithmeticError, ValueError, AssertionError) as exc:
        return type(exc), str(exc)


def _reference_outcome(points):
    try:
        return _reference_classify(points)
    except Raised as exc:
        return exc


def _assert_same_outcome(got, want):
    """A classification field by field, or the same error type with each
    number of its message within the bound of the oracle's."""
    if not isinstance(want, Raised):
        _assert_same_classification(got, want)
        return
    assert isinstance(got, tuple) and got[0] is want.kind, (got, want.kind)
    pattern = r"(\S+)".join(map(re.escape, want.template.split("{}")))
    match = re.fullmatch(pattern, got[1])
    assert match, (got[1], want.template)
    for text, x in zip(match.groups(), want.numbers):
        assert O.within(float(text), x), (text, x.v, x.e)


def _families(n_dim, rng):
    """Families of the four kinds, with parameters in the ranges of criterion 4."""
    m_amp, c, t, s, t0, scale = (float(v) for v in rng.uniform(
        [math.log(1.2), 0.05, 0.0, 1e-5, 0.0, 0.5], [math.log(64.0), 1.5, 2.0, 8e-4, 2.0, 50.0]))
    return [
        koranyi_family(math.exp(m_amp), n_dim),
        c_special_family(c, t, n_dim),
        zero_special_family(s, t0, n_dim),
        radial_family(n_dim, tuple(scale * 10.0 ** k for k in range(1, 8))),
    ]


def _real_ray(xs):
    return [SiegelPoint(x) for x in xs]


# -- SiegelBatch -------------------------------------------------------------------


class TestSiegelBatch:
    def _points(self, n_dim, count=9):
        return [sample_siegel(n_dim, 7, k) for k in range(count)]

    @pytest.mark.parametrize("n_dim", [1, 2, 3])
    def test_behaves_as_a_read_only_sequence_of_points(self, n_dim):
        pts = self._points(n_dim)
        batch = SiegelBatch.from_points(pts)
        assert len(batch) == len(pts) and batch.dim == n_dim
        assert list(batch) == pts
        assert batch[0] == pts[0] and batch[-1] == pts[-1]
        assert isinstance(batch[2:5], SiegelBatch) and list(batch[2:5]) == pts[2:5]
        assert batch == SiegelBatch.from_points(pts) and batch != SiegelBatch.from_points(pts[1:])
        assert SiegelBatch.from_points(batch) is batch
        with pytest.raises(ValueError):
            batch.z[0] = 1.0
        for p in batch:
            assert isinstance(p.z, complex) and not p.w.flags.writeable
        assert SiegelBatch(batch.z, batch.w) == batch

    def test_construction_checks_every_row(self):
        z = np.array([2.0, 0.1, 3.0], dtype=np.complex128)
        w = np.array([[0.5], [0.5], [np.nan]], dtype=np.complex128)
        with pytest.raises(DomainError) as batch_err:
            SiegelBatch(z, w)
        with pytest.raises(DomainError) as scalar_err:
            SiegelPoint(z[1], w[1])
        assert str(batch_err.value) == str(scalar_err.value)
        with pytest.raises(DomainError, match="shape"):
            SiegelBatch(z, w[:2])

    def test_checked_rows_are_read_only(self):
        z, w = np.array([2.0 + 1j, 3.0]), np.array([[0.5j], [1.0]])
        batch = SiegelBatch._checked(z, w)
        assert batch.z is z and batch.w is w
        assert not z.flags.writeable and not w.flags.writeable

    def test_from_points_needs_one_dimension(self):
        with pytest.raises(DomainError, match="different dimensions"):
            SiegelBatch.from_points([SiegelPoint(2.0), SiegelPoint(2.0, [0.1])])
        with pytest.raises(DomainError, match="at least one point"):
            SiegelBatch.from_points([])

    @pytest.mark.parametrize("n_dim", [1, 2, 3, 10])
    def test_array_forms_match_the_scalar_functions(self, n_dim):
        """Each array form within the bound the oracle derives from the
        formula's operations, and the scalar function it names, which is one
        row of it, with the bits of that row (at N = 10 numpy sums ||w||^2 in
        blocks, apart from the in-order ``norm_sq``)."""
        pts = [sample_siegel(n_dim, seed, 11) for seed in range(40)]
        # rescaled as renorm rescales, out to where ball coordinates would fail
        pts = [SiegelPoint(s * p.z, math.sqrt(s) * p.w) for s in (1e-2, 1.0, 1e9, 1e60) for p in pts]
        batch = SiegelBatch.from_points(pts)
        rows = [(O.exact(p.z), O.row(p.w)) for p in pts]
        nsq, height = batch.norm_sq(), batch.height()
        margins = batch.koranyi_margins(M_GRID)
        for i, (p, (z, w)) in enumerate(zip(pts, rows)):
            # N - 1 terms re^2 + im^2: within about N u of the sum
            want = O.norm_sq(w)
            assert O.within(nsq[i], want) and O.within(norm_sq(p.w), want)
            want = O.height(z, w)
            assert O.within(height[i], want) and _same(siegel_height(p), float(height[i]))
            shift = O.absolute(z + 1)
            for k, m_amp in enumerate(M_GRID):
                # x - |z + 1| / M - ||w||^2: hypot, a quotient and two differences
                want = (z.real - shift / m_amp) - O.norm_sq(w)
                region = koranyi_region_at_infinity(m_amp)
                assert O.within(margins[k, i], want)
                assert _same(koranyi_margin(region, p), float(margins[k, i]))
        p1 = first_coordinate_projection(n_dim)
        rhos = [p1] if n_dim == 1 else [p1, LinearProjectionAtInfinity(np.full(n_dim - 1, 0.3 - 0.4j))]
        for rho in rhos:
            a = O.Rho(rho.a)
            images, lv = batch.project(rho), batch.left_inverse(rho)
            tanh = batch.kobayashi_tanh(images)
            for i, (p, (z, w)) in enumerate(zip(pts, rows)):
                # z + 2 ||a||^2 + 2 <w, a>: within (N + 2) u of the moduli of its terms
                (want_z, want_w), got = O.project(z, w, a), project(rho, p)
                assert O.within(images.z[i], want_z) and _bits(got.z) == _bits(images.z[i])
                assert _bits(images.w[i]) == _bits(got.w) == _bits(-rho.a)
                want = O.left_inverse(z, w, a)
                assert O.within(lv[i], want) and _bits(left_inverse_value(rho, p)) == _bits(lv[i])
                # the distance to the computed image: the bound of the ratio, through sqrt
                want = O.kobayashi_tanh((z, w), (O.exact(images.z[i]), O.row(images.w[i])))
                assert O.within(tanh[i], want)
                assert O.within(kobayashi_distance(p, got), O.atanh(want))
                assert _same(kobayashi_distance(p, got), max_kobayashi(tanh[i:i + 1]))
        axis = batch.axis_tanh()
        for i, (p, (z, w)) in enumerate(zip(pts, rows)):
            want = O.axis_tanh(z, w)
            assert O.within(axis[i], want)
            assert O.within(kobayashi_distance(p, project(p1, p)), O.atanh(want))
        # the largest distance over the rows, NaN and infinity as np.max has them
        assert _same(max_kobayashi(axis), max(max_kobayashi(axis[i:i + 1]) for i in range(len(pts))))
        assert math.isinf(max_kobayashi(np.array([0.5, 1.0]))) and math.isnan(
            max_kobayashi(np.array([1.0, np.nan])))

    def test_distances_raise_where_the_scalar_distance_raises(self):
        # (2x)^2 overflows from x ~ 6.7e153 on, and is then scaled away;
        # 2x itself overflows from x ~ 9e307 on: the full formula takes half the
        # sum there, and the axis form its reduction h / x, the same bits
        off_axis = [SiegelPoint(1.7e308, [0.0]), SiegelPoint(1.7e308, [1e150]), SiegelPoint(1e160, [1e70])]
        for pts in (*map(_real_ray, ([1e100, 1e160], [1e100, 1.7e308], [1.7e308, 1e160])), off_axis):
            batch = SiegelBatch.from_points(pts)
            p1 = first_coordinate_projection(pts[0].dim)
            want = [_outcome(kobayashi_distance, p, project(p1, p)) for p in pts]
            axis = _outcome(lambda: max_kobayashi(batch.axis_tanh()))
            assert axis == max(want)
            assert _bits(batch.kobayashi_tanh(batch.project(p1))) == _bits(batch.axis_tanh())
        # abs overflowing from finite parts: |z_Q + conj(z_P)| past the double range
        p, q = SiegelPoint(complex(0.7e308, -0.6e308)), SiegelPoint(complex(0.7e308, 0.6e308))
        want = _outcome(kobayashi_distance, p, q)
        batch = SiegelBatch.from_points([SiegelPoint(1.0), p])
        other = SiegelBatch.from_points([SiegelPoint(1.0), q])
        assert want == (OverflowError, "absolute value too large")
        assert _outcome(batch.kobayashi_tanh, other) == want

    def test_an_overflowing_hermitian_product_keeps_its_finite_part(self):
        # <w, a> = 0 + inf j: the row forms must not turn its real part into
        # 0 * inf = NaN, so they give the bits of the scalar functions
        p = SiegelPoint(1e301, [1e150j])
        rho = LinearProjectionAtInfinity([1e160])
        batch = SiegelBatch.from_points([SiegelPoint(2.0, [0.5]), p])
        with np.errstate(over="ignore", invalid="ignore"):
            assert _bits(_herm_rows(batch.w, rho.a)) == _bits([herm(q.w, rho.a) for q in batch])
            assert _bits(_herm_rows(batch.w, rho.a)[1]) == _bits(complex(0.0, math.inf))
            assert _bits(batch.left_inverse(rho)[1]) == _bits(left_inverse_value(rho, p))
            assert _outcome(batch.project, rho) == _outcome(project, rho, p)
            z, w = apply_automorphism_arrays(SiegelAutomorphism.translate(rho.a), batch.z, batch.w)
            assert _bits(z[1]) == _bits(p.z + norm_sq(rho.a) + 2.0 * herm(p.w, rho.a))
            assert _bits(w[1]) == _bits(p.w + rho.a)

    @pytest.mark.parametrize("n_dim", [1, 2, 3])
    def test_scaled_distances_past_the_squared_modulus_overflow(self, n_dim):
        # rescaled as renorm rescales: |s|^2 overflows from scale ~ 1e154 on
        base = [sample_siegel(n_dim, seed, 13) for seed in range(12)]
        p1 = first_coordinate_projection(n_dim)
        for scale in (1e160, 1e250, 1e300):
            pts = [SiegelPoint(scale * p.z, math.sqrt(scale) * p.w) for p in base]
            batch = SiegelBatch.from_points(pts)
            others = SiegelBatch.from_points(pts[1:] + pts[:1])
            tanh, axis = batch.kobayashi_tanh(others), batch.axis_tanh()
            for i, (p, q) in enumerate(zip(pts, others)):
                rp, rq = (O.exact(p.z), O.row(p.w)), (O.exact(q.z), O.row(q.w))
                # the scaled form (2 h_P / |s|) (2 h_Q / |s|), within its bound
                want = O.kobayashi_tanh(rp, rq)
                d = kobayashi_distance(p, q)
                assert O.within(tanh[i], want) and O.within(d, O.atanh(want))
                want = O.axis_tanh(*rp)
                assert O.within(axis[i], want)
                assert O.within(kobayashi_distance(p, project(p1, p)), O.atanh(want))
                # the distance is invariant under the dilation
                assert d == pytest.approx(kobayashi_distance(base[i], base[(i + 1) % len(base)]), rel=1e-9)


# -- generate_sequences ------------------------------------------------------------


class TestGenerateSequences:
    @pytest.mark.parametrize("n_dim", [1, 2, 3])
    def test_points_match_the_point_by_point_reference(self, n_dim):
        rng = np.random.default_rng(31 + n_dim)
        families = []
        for _ in range(12):
            families += _families(n_dim, rng)
        # the parameter edges: no drift, no strength, the exact kinds' defaults
        families += [c_special_family(0.0, 0.0, n_dim), c_special_family(0.5, 0.0, n_dim),
                     zero_special_family(0.0, 1.0, n_dim), koranyi_family(1.01, n_dim)]
        for k, fam in enumerate(families):
            for count, seed in ((None, 0), (len(fam.seeds) + 3, k), (len(fam.seeds) + 2, 10_000 + k)):
                got = generate_sequences(fam, count=count, seed=seed)
                want = _reference_sequences(fam, count=count, seed=seed)
                assert len(got) == len(want)
                for batch, seq in zip(got, want):
                    assert isinstance(batch, SiegelBatch) and len(batch) == len(seq)
                    assert _bits(batch.z) == _bits([p.z for p in seq]), fam
                    assert _bits(batch.w) == _bits([p.w for p in seq]), fam
                    assert list(batch) == seq

    def test_rejects_the_first_point_outside_the_domain(self):
        families = [
            # tanh(40) rounds to 1: ||w||^2 = x, on the boundary
            ApproachFamily(kind="c-special-restricted", n_dim=2, c_param=40.0,
                           seeds=(ApproachSeed(0.0, math.tanh(40.0), (1 + 0j,)),)),
            radial_family(2, (-1.0, 10.0, 100.0)),
            ApproachFamily(kind="zero-special-restricted", n_dim=2, ladder=(0.0, 10.0),
                           seeds=(ApproachSeed(0.3, 0.5, (1j,)),)),
        ]
        for fam in families:
            want = _outcome(_reference_sequences, fam)
            assert want[0] is DomainError
            assert _outcome(generate_sequences, fam) == want


# -- the plan pass ------------------------------------------------------------------


def _plans():
    """(counts, seed) of family sets of all four kinds, with drawn sequences
    at shared indices, in random order and with random counts."""
    rng = np.random.default_rng(404)
    for draw in range(24):
        n_dim = 1 + draw % 3
        families = (_families(n_dim, rng) + _families(n_dim, rng) + list(k_families(n_dim)[:2])
                    + list(e_families(n_dim)[5:9]) + list(e0_families(n_dim)[:4]))
        counts = [(families[k], len(families[k].seeds) + int(rng.integers(0, 4)))
                  for k in rng.permutation(len(families))]
        yield counts, int(rng.integers(0, 2**31))


def _drawn_indices(counts):
    return [i for fam, count in counts if fam.kind != "radial" for i in range(len(fam.seeds), count)]


class TestPlanPass:
    def test_rows_match_the_point_by_point_reference(self):
        shared = 0
        for counts, seed in _plans():
            want = [_reference_sequences(fam, count, seed) for fam, count in counts]
            points = [p for seqs in want for seq in seqs for p in seq]
            z, w, sizes = _generate(counts, seed)
            assert sizes == [len(seqs) for seqs in want]
            assert _bits(z) == _bits([p.z for p in points])
            assert _bits(w) == _bits([p.w for p in points])
            plan = SweepPlan(seed)
            for fam, count in counts:
                plan.sweep([fam], count - len(fam.seeds))
            batch = plan._stack()
            assert _bits(batch.z) == _bits(z) and _bits(batch.w) == _bits(w)
            drawn = _drawn_indices(counts)
            shared += len(drawn) - len(set(drawn))
        # families draw at the same index, from one generator restored between them
        assert shared > 100

    def test_one_generator_per_drawn_index(self, monkeypatch):
        built = []

        def counting(seed, index):
            built.append(index)
            return _rng_for(seed, index)

        monkeypatch.setattr(limits, "_rng_for", counting)
        for counts, seed in _plans():
            built.clear()
            _generate(counts, seed)
            assert sorted(built) == sorted(set(_drawn_indices(counts)))

    def test_the_first_row_outside_the_domain_raises_its_family_error(self):
        good = [koranyi_family(2.0, 2), c_special_family(0.5, 1.0, 2)]
        bad = [
            radial_family(2, (-1.0, 10.0, 100.0)),
            ApproachFamily(kind="zero-special-restricted", n_dim=2, ladder=(0.0, 10.0),
                           seeds=(ApproachSeed(0.3, 0.5, (1j,)),)),
            ApproachFamily(kind="c-special-restricted", n_dim=2, c_param=40.0,
                           seeds=(ApproachSeed(0.0, math.tanh(40.0), (1 + 0j,)),)),
        ]
        for first in bad:
            want = _outcome(_reference_sequences, first, 2, 5)
            assert want[0] is DomainError
            for second in bad:
                counts = [(good[0], 6), (first, 2), (good[1], 7), (second, 3)]
                assert _outcome(_generate, counts, 5) == want
                plan = SweepPlan(5)
                for fam, count in counts:
                    plan.sweep([fam], count - len(fam.seeds))
                assert _outcome(plan._stack) == want


# -- classify_sequence ---------------------------------------------------------------


class TestClassifySequence:
    def test_fields_match_the_reference_on_generated_sequences(self):
        rng = np.random.default_rng(77)
        for draw in range(90):
            n_dim = 1 + draw % 3
            for fam in _families(n_dim, rng):
                for seq in generate_sequences(fam, count=len(fam.seeds) + 1, seed=draw):
                    _assert_same_classification(classify_sequence(seq), _reference_classify(seq))

    def test_fields_match_the_reference_on_orbits(self):
        for name, m in catalog().items():
            if m.domain != "siegel":
                continue
            for start_index in range(3):
                start = sample_siegel(m.dim, 5, start_index)
                for steps in (9, 40):
                    orbit = compute_orbit(m, start, steps)
                    _assert_same_outcome(_outcome(classify_sequence, orbit.points),
                                         _reference_outcome(orbit.points))

    def test_near_axis_zero_special_draw(self):
        """A tail hugging the axis, where route (ii) cancels: 1 - ratio is
        tiny, and the bound on the C-special witness is the square root of
        the ratio's rounding error."""
        fam = zero_special_family(0.00010550903868907897, 0.8676368223574642, 2)
        seq = generate_sequences(fam, count=len(fam.seeds) + 1, seed=873494265)[5]
        got = classify_sequence(seq)
        _assert_same_classification(got, _reference_classify(seq))
        assert got.special and got.c_special is not None

    def test_takes_any_sequence_of_points(self):
        fam = c_special_family(0.5, 1.0, 3)
        for seq in generate_sequences(fam, count=len(fam.seeds) + 1, seed=4):
            want = classify_sequence(seq)
            for form in (list(seq), tuple(seq), iter(list(seq))):
                got = classify_sequence(form)
                for f in dataclasses.fields(SequenceClassification):
                    assert _same(getattr(got, f.name), getattr(want, f.name)), f.name

    def test_errors_match_the_reference(self):
        def fraction(a):
            return [SiegelPoint(2.0 ** k * 100, [math.sqrt(a * 2.0 ** k * 100) + 0j]) for k in range(24)]

        # label -> (points, a piece of the message); every number of a message
        # is within the bound of the oracle's
        cases = {
            "too short": ([SiegelPoint(1.0)], "at least 2 points"),
            "bounded": ([SiegelPoint(1.0 + 0.01 * k) for k in range(20)], "final |z| = 1.19"),
            "falling back": (_real_ray([10.0 ** k for k in range(6)] + [50.0]), "final |z| = 50.0"),
            "ambiguous at 1": (fraction(1.0 - 5e-10), "inside the band at 1"),
            "witness beyond the grid": (fraction(0.9999), "beyond the amplitude grid"),
            "grid sweep failed": (_real_ray([10.0 ** k for k in range(-4, 4)]), "grid sweep failed"),
        }
        seen = set()
        for label, (points, message) in cases.items():
            want = _reference_outcome(points)
            assert isinstance(want, Raised), label
            seen.add(want.kind)
            got = _outcome(classify_sequence, points)
            assert message in got[1], (label, got)
            _assert_same_outcome(got, want)
            assert _outcome(classify_sequence, SiegelBatch.from_points(points)) == got, label
        assert seen == {OrbitTooShortError, NotTendingToInfinityError, AmbiguousClassificationError,
                        ClassificationDisagreementError}

    def test_classifies_past_the_squared_modulus_overflow(self):
        # (2 Re z)^2 overflows from Re z ~ 6.7e153 on; the distance is then
        # taken in scaled form, by the array routes as by the scalar one.  2 Re z
        # itself overflows at 1e308, where the axis distance takes h / Re z
        for points in (_real_ray([1e150 * 10.0 ** k for k in range(8)]),
                       _real_ray([1e100, 1e120, 1e150, 1e308])):
            want = _reference_classify(points)
            assert want["special"] and want["c_special"].v == 0
            _assert_same_classification(classify_sequence(points), want)
            _assert_same_classification(classify_sequence(SiegelBatch.from_points(points)), want)

    def test_makes_no_points_however_long_the_ladder(self, monkeypatch):
        """A criterion-4 draw is generated and classified on arrays: it
        builds no SiegelPoint, on a ladder of 7 rungs as on one of 70."""
        made = []
        init = SiegelPoint.__init__

        def counting_init(self, *args, **kwargs):
            made.append(1)
            init(self, *args, **kwargs)

        def cost(rungs):
            ladder = tuple(10.0 ** k for k in range(1, rungs + 1))
            families = [koranyi_family(3.0, 2, ladder), c_special_family(0.7, 1.0, 2, ladder),
                        zero_special_family(5e-4, 1.0, 2, ladder), radial_family(2, ladder)]
            monkeypatch.setattr(SiegelPoint, "__init__", counting_init)
            made.clear()
            for fam in families:
                for seq in generate_sequences(fam, count=len(fam.seeds) + 1, seed=3):
                    classify_sequence(seq)
            monkeypatch.undo()
            return len(made)

        assert cost(7) == cost(70) == 0


# -- projection_invariance_check -----------------------------------------------------


def test_projection_invariance_report_matches_the_reference():
    cases = [
        ([SiegelPoint(200.0 * 4.0 ** j, np.zeros(1)) for j in range(12)],
         LinearProjectionAtInfinity(np.array([1.0 + 0j]))),
        ([SiegelPoint(complex(50.0 * 3.0 ** j, 7.0 * 2.0 ** j), [0.3 * 1.7 ** j, -0.2j])
          for j in range(14)], LinearProjectionAtInfinity(np.array([0.2 + 0.1j, -0.3 + 0j]))),
        (_real_ray([5.0 * 2.0 ** j for j in range(9)]), first_coordinate_projection(1)),
        # N = 10: numpy sums ||a||^2 and ||w||^2 in blocks
        ([SiegelPoint(complex(50.0 * 3.0 ** j, 7.0), [0.3 * 1.7 ** j] + [0.1j] * 8) for j in range(14)],
         LinearProjectionAtInfinity(np.linspace(0.1, 0.5, 9) * (1.0 - 0.5j))),
    ]
    for seq in generate_sequences(c_special_family(0.5, 1.0, 2), count=7, seed=2):
        cases.append((list(seq), LinearProjectionAtInfinity(np.array([0.3 + 0.4j]))))
    for points, rho in cases:
        rep = projection_invariance_check(points, rho)
        want = _reference_projection_invariance(points, rho)
        got = (rep.distances, rep.max_tail, rep.monotone, rep.passed, rep.c_witness_axis,
               rep.c_witness_projected, rep.restricted_axis_t, rep.restricted_projected_t)
        for a, b in zip(got, want):
            assert _agrees(a, b), (a, b.v if isinstance(b, O.X) else b)
