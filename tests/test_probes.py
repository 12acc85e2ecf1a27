"""Limit probes on arrays: within the bounds of their mpmath oracle, one map evaluation per sweep.

The reference evaluates each probe's formula in mpmath at 50 digits
(``oracle``), on the point and on its image under the map, which is the
map's one-row evaluation in doubles taken as an exact input.  Every probed
value lies within the oracle's bound; every status, witness pair and
report flag is that of the exact values rounded to doubles.  Two array
paths of the same code, a shared plan against plans of their own, agree
bit for bit.
"""

import csv
import io
import math
from dataclasses import replace

import numpy as np
import pytest

import oracle as O
from valiron import cli, limits, reports
from valiron.geometry import (
    DomainError,
    LinearProjectionAtInfinity,
    SiegelAutomorphism,
    SiegelBatch,
    SiegelPoint,
    first_coordinate_projection,
    project,
)
from valiron.limits import (
    C0_SWEEP,
    C_SWEEP,
    CHECK_SWEEPS,
    DEFAULT_LADDER,
    DEFAULT_TOL,
    M_SWEEP,
    TAIL_VALUES,
    T_SWEEP,
    JWCReport,
    LeftInverseReport,
    MapProbe,
    SweepPlan,
    c_special_family,
    e0_families,
    e0_limit,
    e_families,
    e_limit,
    family_label,
    first_coordinate_ratio_fn,
    generate_sequences,
    jwc_check,
    k_families,
    k_limit,
    koranyi_family,
    left_inverse_ratio_check,
    projection_gap_fn,
    projection_ratio_fn,
    verdict_from_traces,
    w_growth_fn,
    zero_special_family,
)
from valiron.maps import (
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
from valiron.reports import format_float, write_limits_csv

LADDER = tuple(10.0 ** k for k in range(1, 6))


# -- the probes' formulas in mpmath, kept as the reference --------------------------

_POINTS: dict = {}  # (point, projection) -> the point and its left inverse, shared by every map
_IMAGES: dict = {}  # (point, map) -> its image, emptied after each test


@pytest.fixture(autouse=True)
def _forget_images():
    yield
    _IMAGES.clear()


class OracleProbe:
    """h(q) = formula(q, phi(q)) in mpmath, as an oracle value.

    phi(q) is the map's evaluation in doubles, an exact input: the maps
    themselves are compared with their oracle in ``test_batch``, and a row
    gets the same bits alone as in any batch.
    """

    def __init__(self, m, formula, rho=None):
        self.m, self.formula = m, formula
        self.a = np.zeros(m.dim - 1, dtype=np.complex128) if rho is None else rho.a
        self.rho = O.Rho(self.a)

    def __call__(self, q) -> "O.X":
        return self.along(SiegelBatch.from_points([q]))[0]

    def along(self, seq) -> list:
        """The oracle values on the rows of a sequence; the map evaluates them in one call."""
        keys = [(z, w.tobytes()) for z, w in zip(seq.z.tolist(), seq.w)]
        if any((key, id(self.m)) not in _IMAGES for key in keys):
            z, w = evaluate_batch(self.m, seq.z, seq.w)
            for key, zi, wi in zip(keys, z.tolist(), w):
                _IMAGES[key, id(self.m)] = O.exact(zi), O.row(wi)
        values = []
        for key, zi, wi in zip(keys, seq.z.tolist(), seq.w):
            if (key, self.a.tobytes()) not in _POINTS:
                point = O.exact(zi), O.row(wi)
                _POINTS[key, self.a.tobytes()] = point, O.left_inverse(*point, self.rho)
            point, li = _POINTS[key, self.a.tobytes()]
            values.append(self.formula(point, _IMAGES[key, id(self.m)], self.rho, li))
        return values


def phi1_ratio(m):
    return OracleProbe(m, O.first_coordinate_ratio)


def ratio(m, rho):
    return OracleProbe(m, O.projection_ratio, rho)


def gap(m, rho):
    return OracleProbe(m, O.projection_gap, rho)


def wgrowth(m):
    return OracleProbe(m, O.w_growth)


def _families(kind, n_dim, ladder):
    if kind == "K":
        return [koranyi_family(a, n_dim, ladder) for a in M_SWEEP]
    sweep, make = (C_SWEEP, c_special_family) if kind == "E" else (C0_SWEEP, zero_special_family)
    return [make(c, t, n_dim, ladder) for c in sweep for t in T_SWEEP]


def ref_sweep(h, kind, n_dim, tol=DEFAULT_TOL, ladder=DEFAULT_LADDER, extra=0, seed=0):
    """(verdict, traces of oracle values): the verdict is that of the exact
    values rounded to doubles."""
    traces, blocks = [], []
    for fam in _families(kind, n_dim, ladder):
        label = family_label(fam)
        seqs = generate_sequences(fam, count=len(fam.seeds) + extra, seed=seed)
        values = [h.along(seq) for seq in seqs]
        traces += [(label, i, xs) for i, xs in enumerate(values)]
        rounded = [[x.double() for x in xs] for xs in values]
        blocks.append((label, np.array(rounded, np.complex128).reshape(len(seqs), len(fam.ladder))))
    return verdict_from_traces(blocks, tol), traces


def ref_jwc(m, rho, tol, ladder):
    v1 = ref_sweep(ratio(m, rho), "E0", m.dim, tol, ladder)
    v2 = ref_sweep(gap(m, rho), "E0", m.dim, tol, ladder)
    ok = (v1[0].exists and v2[0].exists and abs(v1[0].value - m.multiplier) <= tol
          and abs(v2[0].value) <= tol)
    return JWCReport(part1=v1, part2=v2, multiplier=m.multiplier, passed=ok)


def ref_left_inverse(m, rho, tol, ladder):
    prereq = ref_sweep(phi1_ratio(m), "E", m.dim, tol, ladder)
    if not prereq[0].exists:
        return LeftInverseReport("inconclusive", None, None, prereq, m.multiplier, False)
    rv = ref_sweep(ratio(m, rho), "E", m.dim, tol, ladder)
    dv = ref_sweep(wgrowth(m), "E", m.dim, tol, ladder)
    ok = (rv[0].exists and dv[0].exists and abs(rv[0].value - m.multiplier) <= tol
          and abs(dv[0].value) <= tol)
    return LeftInverseReport("confirmed" if ok else "failed", rv, dv, prereq, m.multiplier, ok)


def assert_verdict(got, want):
    """A verdict against its reference (verdict, oracle traces).

    Labels, statuses and witness pairs exactly; every probed value within
    its oracle bound.  The verdict's numbers come from tail values that are
    each within ``slack`` = max(e + u |v|) of the reference's rounded ones:
    a mean of n of them within slack + 2 n u max |v|, a largest modulus of
    a difference within 2 slack + 6 u of it (a difference, then abs).
    """
    verdict, traces = want
    assert got.status == verdict.status
    got_traces = O.per_sequence(got.traces)
    assert [t[:2] for t in got_traces] == [t[:2] for t in traces]
    slack, top, n = 0.0, 0.0, 0
    for (_, _, values), (_, _, xs) in zip(got_traces, traces):
        assert len(values) == len(xs)
        for g, x in zip(values, xs):
            assert O.within(g, x), (g, x.v, x.e)
        tail = xs[-TAIL_VALUES:]
        slack = max([slack] + [x.e + O.U * x.m for x in tail])
        top, n = max([top] + [x.m for x in tail]), n + len(tail)
    if verdict.value is None:
        assert got.value is None
    else:
        assert abs(got.value - verdict.value) <= slack + 2 * n * O.U * top
    assert abs(got.spread - verdict.spread) <= 2 * slack + 6 * O.U * verdict.spread
    assert (got.witness is None) == (verdict.witness is None)
    if got.witness is not None:
        assert got.witness[:2] == verdict.witness[:2]
        assert abs(got.witness[4] - verdict.witness[4]) <= 2 * slack + 6 * O.U * verdict.witness[4]


def assert_report(got, want):
    if isinstance(want, JWCReport):
        assert (got.multiplier, got.passed) == (want.multiplier, want.passed)
        parts = ((got.part1, want.part1), (got.part2, want.part2))
    else:
        assert (got.status, got.multiplier, got.passed) == (want.status, want.multiplier, want.passed)
        parts = ((got.prerequisite, want.prerequisite), (got.ratio_verdict, want.ratio_verdict),
                 (got.derivative_verdict, want.derivative_verdict))
    for g, w in parts:
        assert (g is None) == (w is None)
        if g is not None:
            assert_verdict(g, w)


# -- comparison as bytes -----------------------------------------------------------


def _bits(x):
    if isinstance(x, (complex, np.complexfloating)):
        return np.complex128(x).tobytes()
    if isinstance(x, (float, np.floating)):
        return np.float64(x).tobytes()
    return x


def verdict_key(v):
    if v is None:
        return None
    return (
        v.status, _bits(v.value), _bits(v.spread), _bits(v.tol),
        None if v.witness is None else tuple(map(_bits, v.witness)),
        tuple((label, block.shape, block.dtype.str, block.tobytes()) for label, block in v.traces),
    )


def report_key(r):
    if isinstance(r, JWCReport):
        return (verdict_key(r.part1), verdict_key(r.part2), _bits(r.multiplier), r.passed)
    return (r.status, verdict_key(r.ratio_verdict), verdict_key(r.derivative_verdict),
            verdict_key(r.prerequisite), _bits(r.multiplier), r.passed)


def outcome(fn, key):
    """The keyed result of fn(), or the type and message of what it raised."""
    try:
        return "ok", key(fn())
    except (ValueError, ArithmeticError) as exc:
        return "raised", type(exc), str(exc)


# -- maps ------------------------------------------------------------------------------


def _maps() -> dict:
    maps = dict(catalog())
    turn = [SiegelAutomorphism.scale(3.0, 1.0)]
    for n_dim in (1, 2, 3):
        t = SiegelAutomorphism.composite(
            turn + [SiegelAutomorphism.translate(np.full(n_dim - 1, 0.5 - 0.25j))])
        maps[f"conjugated affine N={n_dim}"] = conjugate_map(
            make_halfplane_affine(1.7, -0.4, n_dim), t)
    maps["conjugated linear N=3"] = conjugate_map(
        make_siegel_linear(2.5, 3),
        SiegelAutomorphism.translate(np.array([0.2 + 0.1j, -0.3 + 0j])))
    maps["conjugated oscillating"] = conjugate_map(
        make_valiron_example(2.0, PsiChoice("oscillating")), SiegelAutomorphism.scale(4.0, -2.0))
    cayley = make_valiron_example(3.0, PsiChoice("cayley"))
    # without a twin the transport is a black box, evaluated point by point
    black_box = replace(make_ball_map_from_siegel(cayley), twin=None)
    maps["twin-less cayley transport"] = make_siegel_map_from_ball(black_box)
    return maps


MAPS = _maps()


def _projections(n_dim):
    if n_dim == 1:
        return [first_coordinate_projection(1)]
    if n_dim == 2:
        return [first_coordinate_projection(2), LinearProjectionAtInfinity([0.3 + 0.4j])]
    return [first_coordinate_projection(3), LinearProjectionAtInfinity([0.2 + 0.1j, -0.3 + 0j])]


def test_the_catalog_and_transports_are_covered():
    assert MAPS["twin-less cayley transport"].batch is None
    assert {m.dim for name, m in MAPS.items() if "conjugated" in name} == {1, 2, 3}


# -- against the oracle ------------------------------------------------------------------


@pytest.mark.parametrize("name", sorted(MAPS))
def test_limit_sweeps_equal_the_scalar_probe(name):
    m = MAPS[name]
    h = first_coordinate_ratio_fn(m)
    for kind, sweep, extra in (("K", k_limit, 2), ("E", e_limit, 1), ("E0", e0_limit, 1)):
        got = sweep(h, m.dim, ladder=LADDER, extra=extra, seed=4)
        assert_verdict(got, ref_sweep(phi1_ratio(m), kind, m.dim, ladder=LADDER, extra=extra, seed=4))


@pytest.mark.parametrize("name", sorted(MAPS))
def test_checks_equal_the_scalar_probes(name):
    m = MAPS[name]
    for rho in _projections(m.dim):
        for check, ref in ((jwc_check, ref_jwc), (left_inverse_ratio_check, ref_left_inverse)):
            assert_report(check(m, rho, DEFAULT_TOL, DEFAULT_LADDER),
                          ref(m, rho, DEFAULT_TOL, DEFAULT_LADDER))


@pytest.mark.parametrize("name, status", [
    ("siegel_linear(1.5,1)", "confirmed"),
    ("siegel_linear(3,3)", "failed"),
    ("valiron_example(2,oscillating)", "inconclusive"),
])
def test_the_compared_ratio_checks_reach_every_branch(name, status):
    m = MAPS[name]
    rho = _projections(m.dim)[-1]
    assert left_inverse_ratio_check(m, rho, DEFAULT_TOL, DEFAULT_LADDER).status == status


@pytest.mark.parametrize(
    "name", ["halfplane_affine(2,1,2)", "conjugated affine N=3", "twin-less cayley transport",
             "valiron_example(2,oscillating)"])
def test_a_shared_plan_gives_each_sweep_what_it_gives_alone(name):
    """One plan for the limits and check sweeps: each family generated once,
    each verdict and report bit for bit that of a plan of its own."""
    m = MAPS[name]
    rho = _projections(m.dim)[-1]
    plan = SweepPlan(seed=5)
    limit_sweeps = ((k_limit, k_families, 2), (e_limit, e_families, 1), (e0_limit, e0_families, 1))
    sweeps = [plan.sweep(families(m.dim, LADDER), extra) for _, families, extra in limit_sweeps]
    for families, extra in CHECK_SWEEPS:
        plan.sweep(families(m.dim, LADDER), extra)
    h = first_coordinate_ratio_fn(m)
    for (alone, _, extra), sweep in zip(limit_sweeps, sweeps):
        assert verdict_key(plan.verdict(h, sweep)) == verdict_key(
            alone(h, m.dim, ladder=LADDER, extra=extra, seed=5)), alone.__name__
    for check in ("jwc_check", "left_inverse_ratio_check"):
        got = outcome(lambda: getattr(plan, check)(m, rho, ladder=LADDER), report_key)
        want = outcome(lambda: globals()[check](m, rho, ladder=LADDER), report_key)
        assert got == want, check
    with pytest.raises(ValueError, match="declared before"):
        plan.sweep(k_families(m.dim, LADDER), 3)


def _all_sweeps(plan, n_dim):
    """Every sweep of a report-all run, declared on ``plan``."""
    return [plan.sweep(families(n_dim, LADDER), extra)
            for families, extra in cli._SWEEPS["limits"] + CHECK_SWEEPS]


def test_a_map_probe_is_one_call_over_the_whole_plan():
    """A probe's function runs once per plan, on every row, however many
    sweeps read it, and a probe of the same map and function shares it."""
    m, calls = _counting(MAPS["conjugated affine N=3"])
    lengths = []

    def f(points, images):
        lengths.append((len(points), len(images)))
        return images.z / points.z

    plan = SweepPlan(seed=5)
    sweeps = _all_sweeps(plan, m.dim)
    probe = MapProbe(m, f)
    traces = [plan.traces(p, sweep) for sweep in sweeps for p in (probe, MapProbe(m, f))]
    rows = len(plan._stack())
    assert lengths == [(rows, rows)]
    assert calls == {"batch": 1, "evaluator": 0}
    assert sum(block.size for sweep in traces for _, block in sweep) > rows
    # a plain point function is evaluated once on every row too
    seen = []
    plan.traces(lambda q: seen.append(q) or q.z, sweeps[0])
    plan.traces(seen.append, sweeps[-1])
    assert len(seen) == 2 * rows


def test_a_plain_function_in_a_one_sweep_plan_sees_the_rows_it_reads():
    seen = []
    verdict = k_limit(lambda q: seen.append(q) or q.z, 2, ladder=LADDER, extra=1, seed=3)
    assert len(seen) == sum(block.size for _, block in verdict.traces)


def test_every_trace_is_complex_whatever_the_probe_returns():
    """Real probe values are held as complex, so a verdict's mean sums them as
    complex numbers, whatever the dtype the probe returned."""
    m = MAPS["halfplane_affine(2,1,2)"]
    rho = _projections(2)[-1]
    plan = SweepPlan(seed=5)
    sweeps = _all_sweeps(plan, m.dim)
    probes = (projection_gap_fn(m, rho), w_growth_fn(m), first_coordinate_ratio_fn(m),
              MapProbe(m, lambda points, images: np.ones(len(points), np.float32)),
              lambda q: float(q.z.real), lambda q: 1)
    for probe in probes:
        for sweep in sweeps:
            assert {block.dtype for _, block in plan.traces(probe, sweep)} == {
                np.dtype(np.complex128)}


def test_a_probe_called_on_one_point_is_the_scalar_probe():
    m = MAPS["conjugated affine N=3"]
    rho = _projections(3)[1]
    q = SiegelPoint(40.0 - 3.0j, np.array([1.5 + 0.5j, -2.0 + 0j]))
    pairs = (
        (first_coordinate_ratio_fn(m), phi1_ratio(m)),
        (projection_ratio_fn(m, rho), ratio(m, rho)),
        (projection_gap_fn(m, rho), gap(m, rho)),
        (w_growth_fn(m), wgrowth(m)),
    )
    for probe, h in pairs:
        assert O.within(probe(q), h(q))


def test_a_point_function_and_a_map_probe_give_the_same_verdict():
    m = MAPS["valiron_example(2,oscillating)"]
    fam = koranyi_family(4.0, 2)

    def h(q):
        # numpy's quotient on one row, as the probe divides its rows
        return complex(np.divide(m(q).z, q.z))

    def one_family(probe):
        plan = SweepPlan(7)
        return plan.verdict(probe, plan.sweep((fam,), 3), DEFAULT_TOL)

    assert verdict_key(one_family(first_coordinate_ratio_fn(m))) == verdict_key(one_family(h))


# -- errors ----------------------------------------------------------------------------


def _leaky(with_batch: bool):
    """w -> 2 w: leaves the domain once ||w||^2 > Re z / 4."""
    m = make_siegel_linear(2.0, 2)
    return replace(
        m,
        evaluator=lambda q: SiegelPoint(q.z, 2.0 * q.w),
        batch=(lambda z, w: (z, 2.0 * w)) if with_batch else None,
    )


@pytest.mark.parametrize("with_batch", [True, False])
def test_an_image_outside_the_domain_raises_the_scalar_error(with_batch):
    m = _leaky(with_batch)
    got = outcome(lambda: e_limit(first_coordinate_ratio_fn(m), 2), verdict_key)
    want = outcome(lambda: ref_sweep(phi1_ratio(m), "E", 2), verdict_key)
    assert got[0] == "raised" and got[1] is DomainError
    assert got == want
    assert "not strictly inside the Siegel domain" in got[2]


def test_a_projection_leaving_the_domain_raises_the_scalar_error():
    m = MAPS["halfplane_affine(2,1,2)"]
    rho = LinearProjectionAtInfinity([1e200])
    # the first point of the E0 sweep, the first row the projection checks
    q = generate_sequences(e0_families(2)[0])[0][0]
    with np.errstate(over="ignore", invalid="ignore"):
        got = outcome(lambda: jwc_check(m, rho), report_key)
        want = outcome(lambda: project(rho, m(q)), None)
    assert got == want
    assert got[2] == "projected image left the Siegel domain: non-finite coordinates"


# -- cost guard: one evaluation per sweep ---------------------------------------


def _counting(m):
    """``m`` with its evaluator and its batch counted; a conjugate's batch is its inner map's."""
    calls = {"batch": 0, "evaluator": 0}

    def count(key, f):
        def counted(*args):
            calls[key] += 1
            return f(*args)
        return counted

    if m.conjugation is not None:
        inner, t = m.conjugation
        m = conjugate_map(replace(inner, batch=count("batch", inner.batch)), t)
        return replace(m, evaluator=count("evaluator", m.evaluator)), calls
    return replace(m, evaluator=count("evaluator", m.evaluator), batch=count("batch", m.batch)), calls


@pytest.mark.parametrize(
    "name", ["siegel_linear(2,2)", "valiron_example(2,oscillating)", "conjugated affine N=3"])
def test_each_check_evaluates_its_sweep_once(name):
    m, calls = _counting(MAPS[name])
    rho = _projections(m.dim)[-1]
    for run in (
        lambda: jwc_check(m, rho),
        lambda: left_inverse_ratio_check(m, rho),
        lambda: e0_limit(first_coordinate_ratio_fn(m), m.dim, extra=1),
    ):
        calls.update(batch=0, evaluator=0)
        run()
        assert calls == {"batch": 1, "evaluator": 0}


def _counted_run(tmp_path, monkeypatch, command):
    """Map calls made inside the limits and jwc commands of one N = 2 run, and
    the generation passes, sequences and generator builds of the whole run."""
    counts = {"batch": 0, "evaluator": 0, "passes": 0, "sequences": 0, "generators": 0}
    inside = []
    build_map, generate, rng_for = cli.build_map, limits._generate, limits._rng_for

    def counted_map(cfg):
        m = build_map(cfg)

        def evaluator(q):
            counts["evaluator"] += bool(inside)
            return m.evaluator(q)

        def batch(z, w):
            counts["batch"] += bool(inside)
            return m.batch(z, w)

        return replace(m, evaluator=evaluator, batch=batch)

    def counted_generate(*args, **kwargs):
        z, w, sizes = generate(*args, **kwargs)
        counts["passes"] += 1
        counts["sequences"] += sum(sizes)
        return z, w, sizes

    def counted_rng_for(*args):
        counts["generators"] += 1
        return rng_for(*args)

    for name in ("limits", "jwc"):
        def run(*args, _run=cli._COMMANDS[name]):
            inside.append(name)
            try:
                return _run(*args)
            finally:
                inside.pop()

        monkeypatch.setitem(cli._COMMANDS, name, run)
    monkeypatch.setattr(cli, "build_map", counted_map)
    monkeypatch.setattr(limits, "_generate", counted_generate)
    monkeypatch.setattr(limits, "_rng_for", counted_rng_for)
    cfg = tmp_path / "exp.cfg"
    cfg.write_text(f"command = {command}\nmap = halfplane_affine\nlambda = 2\nb = 1\nN = 2\n"
                   "n_max = 60\n")
    assert cli.main(["run", str(cfg), "--out", str(tmp_path / "out")]) == 0
    return counts


def test_report_all_generates_and_evaluates_each_sweep_once(tmp_path, monkeypatch, capsys):
    """limits and jwc share one plan: its 33 families are generated in one
    pass (168 sequences, not 278), with one generator per drawn index (4,
    not one per drawn sequence), and the map evaluated once, not five times."""
    assert _counted_run(tmp_path, monkeypatch, "report-all") == {
        "batch": 1, "evaluator": 0, "passes": 1, "sequences": 168, "generators": 4}
    counts = _counted_run(tmp_path, monkeypatch, "jwc")
    assert (counts["batch"], counts["evaluator"], counts["passes"]) == (1, 0, 1)


def test_report_all_computes_the_left_inverse_ratio_once(tmp_path, monkeypatch, capsys):
    """jwc_check and left_inverse_ratio_check probe the same ratio, of one map
    and one projection: the plan computes it once, on its 1,176 rows, not
    once per check."""
    rows = []
    ratio = limits._projection_ratio

    def counted(points, images, rho):
        rows.append(len(points))
        return ratio(points, images, rho)

    monkeypatch.setattr(limits, "_projection_ratio", counted)
    cfg = tmp_path / "exp.cfg"
    cfg.write_text("command = report-all\nmap = halfplane_affine\nlambda = 2\nb = 1\nN = 2\n"
                   "n_max = 60\nseed = 1\n")
    assert cli.main(["run", str(cfg), "--out", str(tmp_path / "out")]) == 0
    assert rows == [1176]


# -- limits.csv --------------------------------------------------------------------


def _reference_csv(traces) -> str:
    out = io.StringIO()
    writer = csv.writer(out, lineterminator="\n")
    writer.writerow(["family", "seq_id", "k", "re_h", "im_h"])
    for family, seq_id, values in traces:
        for k, value in enumerate(values, start=1):
            writer.writerow([family, str(seq_id), str(k),
                             format_float(value.real), format_float(value.imag)])
    return out.getvalue()


def test_limits_csv_is_written_as_before(tmp_path, monkeypatch):
    odd = np.array([-0.0, complex(0.0, -0.0), 1e-310, -1e308 + 5e-324j,
                    complex(math.inf, math.nan), 2.0 + 1e-17j, 0.1 + 0.2j])
    rng = np.random.default_rng(3)
    traces = [("koranyi(M=2)", np.stack((odd, odd[::-1]))),
              ("part1:zero-special(C=0;T=0)", odd[None, ::-1]),
              ("radial", (rng.normal(size=9) * 10.0 ** rng.integers(-30, 30, 9) + 0j).reshape(3, 3)),
              # labels csv.writer quotes, and % signs the row template must escape
              ("c-special(C=0,5;T=1)", odd[:2, None]), ('say "limit"', odd[None, 2:5]),
              ('%s, %%d and "%.17g"', odd[None, 1:4]), ("%", odd[None, :1]),
              ("no sequences", odd[:0].reshape(0, 7)), ("no values", np.zeros((2, 0))),
              ("real values", np.array([[1.5, -0.0, 1e300]]))]
    path = tmp_path / "limits.csv"
    for chunk_rows in (2, reports.CHUNK_ROWS):
        monkeypatch.setattr(reports, "CHUNK_ROWS", chunk_rows)
        write_limits_csv(path, traces)
        with open(path, newline="") as handle:
            assert handle.read() == _reference_csv(O.per_sequence(traces)), chunk_rows
