"""Sequences as arrays: ``SiegelBatch``, ``generate_sequences``,
``classify_sequence`` and ``projection_invariance_check`` against the
point-by-point code they replace, which is kept here as the reference."""

import dataclasses
import math

import numpy as np
import pytest

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
    SiegelBatch,
    SiegelPoint,
    first_coordinate_projection,
    kobayashi_distance,
    koranyi_margin,
    koranyi_region_at_infinity,
    left_inverse_value,
    max_kobayashi,
    norm_sq,
    project,
    siegel_height,
)
from valiron.limits import (
    ApproachFamily,
    ApproachSeed,
    c_special_family,
    generate_sequences,
    koranyi_family,
    projection_distance,
    projection_invariance_check,
    radial_family,
    zero_special_family,
)
from valiron.maps import _rng_for, catalog

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


def _reference_check_tends_to_infinity(points, t0):
    mods = [abs(p.z) for p in points[t0:]]
    increasing = all(b > a * (1.0 - 1e-12) for a, b in zip(mods, mods[1:]))
    if not increasing or mods[-1] < INFINITY_THRESHOLD:
        raise NotTendingToInfinityError(
            "tail moduli must increase beyond "
            f"{INFINITY_THRESHOLD:g}; got final |z| = {mods[-1]!r}"
        )


def _reference_classify(points):
    points = tuple(points)
    if len(points) < 2:
        raise OrbitTooShortError("need at least 2 points to classify")
    t0 = tail_start(len(points))
    _reference_check_tends_to_infinity(points, t0)
    tail = points[t0:]

    x = np.array([p.z.real for p in tail])
    y = np.array([p.z.imag for p in tail])
    wsq = np.array([norm_sq(p.w) for p in tail])

    residuals = wsq / x
    a_w = float(np.max(residuals))
    t_w = float(np.max(np.abs(y) / x))

    if abs(a_w - 1.0) <= AMBIGUITY_BAND:
        raise AmbiguousClassificationError("||w||^2/x witness inside the band at 1")

    rho = first_coordinate_projection(tail[0].dim)
    dists = np.array([kobayashi_distance(p, project(rho, p)) for p in tail])
    c_w = float(np.max(dists)) if np.all(np.isfinite(dists)) else math.inf

    c_special_present = a_w < 1.0 and math.isfinite(c_w)
    if c_special_present:
        expected_c = math.atanh(math.sqrt(a_w))
        if abs(expected_c - c_w) > 1e-6 * (1.0 + expected_c):
            raise ClassificationDisagreementError(
                f"axis-distance witness {c_w!r} vs ratio witness {expected_c!r}"
            )

    koranyi_m = None
    for m_amp in M_GRID:
        region = koranyi_region_at_infinity(m_amp)
        margins = [koranyi_margin(region, p) for p in tail]
        scales = [max(1.0, abs(p.z)) for p in tail]
        if all(mg > AMBIGUITY_BAND * sc for mg, sc in zip(margins, scales)):
            koranyi_m = m_amp
            break

    m_pred = math.sqrt(1.0 + t_w * t_w) / (1.0 - a_w) if a_w < 1.0 else math.inf

    if koranyi_m is not None:
        if not c_special_present:
            raise ClassificationDisagreementError("koranyi tail without axis bound")
        if a_w > (1.0 - 1.0 / koranyi_m) + AMBIGUITY_BAND:
            raise ClassificationDisagreementError(
                f"residual bound 1 - 1/M violated: a = {a_w!r}, M = {koranyi_m!r}"
            )
        if t_w > koranyi_m * (1.0 + AMBIGUITY_BAND):
            raise ClassificationDisagreementError(
                f"|y| <= M x violated: T = {t_w!r}, M = {koranyi_m!r}"
            )
    else:
        if c_special_present and m_pred * 1.05 <= M_GRID[-1]:
            raise ClassificationDisagreementError(
                f"bounds predict containment at M ~ {m_pred!r} but grid sweep failed"
            )
        if c_special_present:
            raise AmbiguousClassificationError(
                f"koranyi witness ~ {m_pred!r} beyond the amplitude grid"
            )

    special = bool(np.all(residuals < SPECIAL_RESIDUAL_TOL)) and residuals[-1] <= residuals[0]

    return SequenceClassification(
        special=special,
        c_special=c_w if c_special_present else None,
        restricted=c_special_present or koranyi_m is not None or t_w < math.inf,
        restricted_t=t_w,
        koranyi_m=koranyi_m,
        a_witness=a_w,
        tail_start=t0,
        residuals=residuals,
        m_predicted=m_pred,
    )


def _reference_projection_invariance(points, rho, tol=1e-2):
    points = list(points)
    dists = np.array([projection_distance(q, rho) for q in points])
    t0 = tail_start(len(points))
    tail = dists[t0:]
    max_tail = float(np.max(tail))
    monotone = bool(np.all(np.diff(dists) <= 1e-12))
    p1 = first_coordinate_projection(points[0].dim)
    axis_d = [kobayashi_distance(q, project(p1, q)) for q in points[t0:]]
    proj_d = [kobayashi_distance(q, project(rho, q)) for q in points[t0:]]
    xs = np.array([q.z.real for q in points[t0:]])
    ys = np.array([q.z.imag for q in points[t0:]])
    lv = np.array([left_inverse_value(rho, q) for q in points[t0:]])
    return (dists, max_tail, monotone, max_tail < tol, float(np.max(axis_d)),
            float(np.max(proj_d)), float(np.max(np.abs(ys) / xs)),
            float(np.max(np.abs(lv.imag) / lv.real)))


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


def _assert_same_classification(got, want):
    for f in dataclasses.fields(SequenceClassification):
        a, b = getattr(got, f.name), getattr(want, f.name)
        assert _same(a, b), (f.name, a, b)


def _outcome(fn, *args):
    """The value of fn(*args), or the type and message of what it raised."""
    try:
        return fn(*args)
    except (ArithmeticError, ValueError, AssertionError) as exc:
        return type(exc), str(exc)


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

    @pytest.mark.parametrize("n_dim", [1, 2, 3])
    def test_array_forms_match_the_scalar_functions(self, n_dim):
        pts = [sample_siegel(n_dim, seed, 11) for seed in range(40)]
        # rescaled as renorm rescales, out to where ball coordinates would fail
        pts = [SiegelPoint(s * p.z, math.sqrt(s) * p.w) for s in (1e-2, 1.0, 1e9, 1e60) for p in pts]
        batch = SiegelBatch.from_points(pts)
        assert _same(batch.norm_sq(), np.array([norm_sq(p.w) for p in pts]))
        assert _same(batch.height(), np.array([siegel_height(p) for p in pts]))
        margins = batch.koranyi_margins(M_GRID)
        for k, m_amp in enumerate(M_GRID):
            region = koranyi_region_at_infinity(m_amp)
            assert _same(margins[k], np.array([koranyi_margin(region, p) for p in pts]))
        p1 = first_coordinate_projection(n_dim)
        rhos = [p1] if n_dim == 1 else [p1, LinearProjectionAtInfinity(np.full(n_dim - 1, 0.3 - 0.4j))]
        for rho in rhos:
            images = batch.project(rho)
            want = [project(rho, p) for p in pts]
            assert _bits(images.z) == _bits([q.z for q in want])
            assert _bits(images.w) == _bits([q.w for q in want])
            assert _bits(batch.left_inverse(rho)) == _bits([left_inverse_value(rho, p) for p in pts])
            tanh = batch.kobayashi_tanh(images)
            for i, (p, q) in enumerate(zip(pts, want)):
                assert _same(max_kobayashi(tanh[i:i + 1]), kobayashi_distance(p, q))
        axis = batch.axis_tanh()
        for i, p in enumerate(pts):
            assert _same(max_kobayashi(axis[i:i + 1]), kobayashi_distance(p, project(p1, p)))
        # the largest distance over the rows, NaN and infinity as np.max has them
        dists = [kobayashi_distance(p, project(p1, p)) for p in pts]
        assert _same(max_kobayashi(axis), float(np.max(dists)))
        assert math.isinf(max_kobayashi(np.array([0.5, 1.0]))) and math.isnan(
            max_kobayashi(np.array([1.0, np.nan])))

    def test_distances_raise_where_the_scalar_distance_raises(self):
        # (2x)^2 overflows from x ~ 6.7e153 on, and is then scaled away;
        # 2x itself overflows from x ~ 9e307 on, and gives NaN
        for xs in ([1e100, 1e160], [1e100, 1.7e308], [1.7e308, 1e160]):
            pts = _real_ray(xs)
            batch = SiegelBatch.from_points(pts)
            p1 = first_coordinate_projection(1)
            want = [_outcome(kobayashi_distance, p, project(p1, p)) for p in pts]
            want = next((o for o in want if isinstance(o, tuple)), None)
            got = _outcome(lambda: max_kobayashi(batch.axis_tanh()))
            assert got == want if want else isinstance(got, float)
            got = _outcome(lambda: max_kobayashi(batch.kobayashi_tanh(batch.project(p1))))
            assert got == want if want else isinstance(got, float)
        # abs overflowing from finite parts: |z_Q + conj(z_P)| past the double range
        p, q = SiegelPoint(complex(0.7e308, -0.6e308)), SiegelPoint(complex(0.7e308, 0.6e308))
        want = _outcome(kobayashi_distance, p, q)
        batch = SiegelBatch.from_points([SiegelPoint(1.0), p])
        other = SiegelBatch.from_points([SiegelPoint(1.0), q])
        assert want == (OverflowError, "absolute value too large")
        assert _outcome(batch.kobayashi_tanh, other) == want

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
                d = kobayashi_distance(p, q)
                assert _same(max_kobayashi(tanh[i:i + 1]), d)
                assert _same(max_kobayashi(axis[i:i + 1]), kobayashi_distance(p, project(p1, p)))
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


# -- classify_sequence ---------------------------------------------------------------


class TestClassifySequence:
    def test_fields_match_the_reference_on_generated_sequences(self):
        rng = np.random.default_rng(77)
        for draw in range(90):
            n_dim = 1 + draw % 3
            for fam in _families(n_dim, rng):
                for seq in generate_sequences(fam, count=len(fam.seeds) + 1, seed=draw):
                    want = _reference_classify(list(seq))
                    _assert_same_classification(classify_sequence(seq), want)

    def test_fields_match_the_reference_on_orbits(self):
        for name, m in catalog().items():
            if m.domain != "siegel":
                continue
            for start_index in range(3):
                start = sample_siegel(m.dim, 5, start_index)
                for steps in (9, 40):
                    orbit = compute_orbit(m, start, steps)
                    want = _outcome(_reference_classify, orbit.points)
                    got = _outcome(classify_sequence, orbit.points)
                    if isinstance(want, tuple):
                        assert got == want, name
                    else:
                        _assert_same_classification(got, want)

    def test_near_axis_zero_special_draw(self):
        """A tail hugging the axis, where route (ii) cancels: a naive array
        form of the distance is one ulp off here in the ratio, and 2e-8 off
        in the C-special witness."""
        fam = zero_special_family(0.00010550903868907897, 0.8676368223574642, 2)
        seq = generate_sequences(fam, count=len(fam.seeds) + 1, seed=873494265)[5]
        got = classify_sequence(seq)
        _assert_same_classification(got, _reference_classify(list(seq)))
        assert got.special and got.c_special is not None

    def test_takes_any_sequence_of_points(self):
        fam = c_special_family(0.5, 1.0, 3)
        for seq in generate_sequences(fam, count=len(fam.seeds) + 1, seed=4):
            want = classify_sequence(seq)
            for form in (list(seq), tuple(seq), iter(list(seq))):
                _assert_same_classification(classify_sequence(form), want)

    def test_errors_match_the_reference(self):
        def fraction(a):
            return [SiegelPoint(2.0 ** k * 100, [math.sqrt(a * 2.0 ** k * 100) + 0j]) for k in range(24)]

        # label -> (points, a piece of the message)
        cases = {
            "too short": ([SiegelPoint(1.0)], "at least 2 points"),
            "bounded": ([SiegelPoint(1.0 + 0.01 * k) for k in range(20)], "final |z| = 1.19"),
            "falling back": (_real_ray([10.0 ** k for k in range(6)] + [50.0]), "final |z| = 50.0"),
            "ambiguous at 1": (fraction(1.0 - 5e-10), "inside the band at 1"),
            "witness beyond the grid": (fraction(0.9999), "beyond the amplitude grid"),
            "grid sweep failed": (_real_ray([10.0 ** k for k in range(-4, 4)]), "grid sweep failed"),
            # 2 Re z overflows at 1e308, so the distance there is NaN
            "no axis bound": (_real_ray([1e100, 1e120, 1e150, 1e308]), "without axis bound"),
        }
        seen = set()
        for label, (points, message) in cases.items():
            want = _outcome(_reference_classify, points)
            assert isinstance(want, tuple) and message in want[1], (label, want)
            seen.add(want[0])
            assert _outcome(classify_sequence, points) == want, label
            assert _outcome(classify_sequence, SiegelBatch.from_points(points)) == want, label
        assert seen == {OrbitTooShortError, NotTendingToInfinityError, AmbiguousClassificationError,
                        ClassificationDisagreementError}

    def test_classifies_past_the_squared_modulus_overflow(self):
        # (2 Re z)^2 overflows from Re z ~ 6.7e153 on; the distance is then
        # taken in scaled form, by the array routes as by the scalar one
        points = _real_ray([1e150 * 10.0 ** k for k in range(8)])
        want = _reference_classify(points)
        assert want.special and want.c_special == 0.0
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
    ]
    for seq in generate_sequences(c_special_family(0.5, 1.0, 2), count=7, seed=2):
        cases.append((list(seq), LinearProjectionAtInfinity(np.array([0.3 + 0.4j]))))
    for points, rho in cases:
        rep = projection_invariance_check(points, rho)
        want = _reference_projection_invariance(points, rho)
        got = (rep.distances, rep.max_tail, rep.monotone, rep.passed, rep.c_witness_axis,
               rep.c_witness_projected, rep.restricted_axis_t, rep.restricted_projected_t)
        for a, b in zip(got, want):
            assert _same(a, b), (a, b)
