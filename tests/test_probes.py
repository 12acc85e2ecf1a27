"""Limit probes on arrays: bit-equal to the scalar probes, one map evaluation per sweep."""

import csv
import io
import math
from dataclasses import replace

import numpy as np
import pytest

from valiron import cli, limits, reports
from valiron.geometry import (
    DomainError,
    LinearProjectionAtInfinity,
    SiegelAutomorphism,
    SiegelPoint,
    first_coordinate_projection,
    left_inverse_value,
    norm_sq,
    project,
)
from valiron.limits import (
    C0_SWEEP,
    C_SWEEP,
    CHECK_SWEEPS,
    DEFAULT_LADDER,
    DEFAULT_TOL,
    M_SWEEP,
    T_SWEEP,
    JWCReport,
    LeftInverseReport,
    SweepPlan,
    c_special_family,
    e0_families,
    e0_limit,
    e_families,
    e_limit,
    estimate_limit,
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
    make_ball_map_from_siegel,
    make_halfplane_affine,
    make_siegel_linear,
    make_siegel_map_from_ball,
    make_valiron_example,
)
from valiron.reports import format_float, write_limits_csv

LADDER = tuple(10.0 ** k for k in range(1, 6))


# -- the scalar probes and sweeps, kept as the reference -------------------------


def phi1_ratio(m):
    return lambda q: m.evaluator(q).z / q.z


def ratio(m, rho):
    return lambda q: left_inverse_value(rho, m.evaluator(q)) / left_inverse_value(rho, q)


def gap(m, rho):
    def h(q):
        image = m.evaluator(q)
        proj = project(rho, image)
        dz = image.z - proj.z
        dw = image.w - proj.w
        return complex(math.sqrt(abs(dz) ** 2 + norm_sq(dw)) / abs(left_inverse_value(rho, q)))

    return h


def wgrowth(m):
    return lambda q: complex(math.sqrt(norm_sq(m.evaluator(q).w)) / abs(q.z))


def _families(kind, n_dim, ladder):
    if kind == "K":
        return [koranyi_family(a, n_dim, ladder) for a in M_SWEEP]
    sweep, make = (C_SWEEP, c_special_family) if kind == "E" else (C0_SWEEP, zero_special_family)
    return [make(c, t, n_dim, ladder) for c in sweep for t in T_SWEEP]


def ref_sweep(h, kind, n_dim, tol=DEFAULT_TOL, ladder=DEFAULT_LADDER, extra=0, seed=0):
    traces = []
    for fam in _families(kind, n_dim, ladder):
        label = family_label(fam)
        for i, seq in enumerate(generate_sequences(fam, count=len(fam.seeds) + extra, seed=seed)):
            traces.append((label, i, np.array([h(p) for p in seq], dtype=np.complex128)))
    return verdict_from_traces(traces, tol)


def ref_jwc(m, rho, tol, ladder, seed):
    v1 = ref_sweep(ratio(m, rho), "E0", m.dim, tol, ladder, 0, seed)
    v2 = ref_sweep(gap(m, rho), "E0", m.dim, tol, ladder, 0, seed)
    ok = (v1.exists and v2.exists and abs(v1.value - m.multiplier) <= tol
          and abs(v2.value) <= tol)
    return JWCReport(part1=v1, part2=v2, multiplier=m.multiplier, passed=ok)


def ref_left_inverse(m, rho, tol, ladder, seed):
    prereq = ref_sweep(phi1_ratio(m), "E", m.dim, tol, ladder, 0, seed)
    if not prereq.exists:
        return LeftInverseReport("inconclusive", None, None, prereq, m.multiplier, False)
    rv = ref_sweep(ratio(m, rho), "E", m.dim, tol, ladder, 0, seed)
    dv = ref_sweep(wgrowth(m), "E", m.dim, tol, ladder, 0, seed)
    ok = (rv.exists and dv.exists and abs(rv.value - m.multiplier) <= tol
          and abs(dv.value) <= tol)
    return LeftInverseReport("confirmed" if ok else "failed", rv, dv, prereq, m.multiplier, ok)


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
        tuple((label, i, values.dtype.str, values.tobytes()) for label, i, values in v.traces),
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


# -- bit equality ----------------------------------------------------------------------


@pytest.mark.parametrize("name", sorted(MAPS))
def test_limit_sweeps_equal_the_scalar_probe(name):
    m = MAPS[name]
    h = first_coordinate_ratio_fn(m)
    for kind, sweep, extra in (("K", k_limit, 2), ("E", e_limit, 1), ("E0", e0_limit, 1)):
        got = outcome(lambda: sweep(h, m.dim, ladder=LADDER, extra=extra, seed=4), verdict_key)
        want = outcome(lambda: ref_sweep(phi1_ratio(m), kind, m.dim, ladder=LADDER,
                                         extra=extra, seed=4), verdict_key)
        assert got == want, kind


@pytest.mark.parametrize("name", sorted(MAPS))
def test_checks_equal_the_scalar_probes(name):
    m = MAPS[name]
    for rho in _projections(m.dim):
        for check, ref in ((jwc_check, ref_jwc), (left_inverse_ratio_check, ref_left_inverse)):
            got = outcome(lambda: check(m, rho, DEFAULT_TOL, DEFAULT_LADDER, 2), report_key)
            want = outcome(lambda: ref(m, rho, DEFAULT_TOL, DEFAULT_LADDER, 2), report_key)
            assert got == want, (check.__name__, rho.a)


@pytest.mark.parametrize("name, status", [
    ("siegel_linear(1.5,1)", "confirmed"),
    ("siegel_linear(3,3)", "failed"),
    ("valiron_example(2,oscillating)", "inconclusive"),
])
def test_the_compared_ratio_checks_reach_every_branch(name, status):
    m = MAPS[name]
    rho = _projections(m.dim)[-1]
    assert left_inverse_ratio_check(m, rho, DEFAULT_TOL, DEFAULT_LADDER, 2).status == status


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
        want = outcome(lambda: globals()[check](m, rho, ladder=LADDER, seed=5), report_key)
        assert got == want, check
    with pytest.raises(ValueError, match="declared before"):
        plan.sweep(k_families(m.dim, LADDER), 3)


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
        assert _bits(probe(q)) == _bits(complex(h(q)))


def test_a_point_function_and_a_map_probe_give_the_same_verdict():
    m = MAPS["valiron_example(2,oscillating)"]
    fam = koranyi_family(4.0, 2)
    got = estimate_limit(first_coordinate_ratio_fn(m), fam, extra=3, seed=7)
    assert verdict_key(got) == verdict_key(estimate_limit(phi1_ratio(m), fam, extra=3, seed=7))


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
    with np.errstate(over="ignore", invalid="ignore"):
        got = outcome(lambda: jwc_check(m, rho), report_key)
        want = outcome(lambda: ref_jwc(m, rho, DEFAULT_TOL, DEFAULT_LADDER, 0), report_key)
    assert got == want
    assert got[2] == "projected image left the Siegel domain: non-finite coordinates"


# -- cost guard: one evaluation per sweep ---------------------------------------


def _counting(m):
    calls = {"batch": 0, "evaluator": 0}

    def evaluator(q):
        calls["evaluator"] += 1
        return m.evaluator(q)

    def batch(z, w):
        calls["batch"] += 1
        return m.batch(z, w)

    return replace(m, evaluator=evaluator, batch=batch), calls


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
    traces = [("koranyi(M=2)", 0, odd), ("part1:zero-special(C=0;T=0)", 11, odd[::-1]),
              ("radial", 2, rng.normal(size=9) * 10.0 ** rng.integers(-30, 30, 9) + 0j),
              # labels csv.writer quotes, and % signs the row template must escape
              ("c-special(C=0,5;T=1)", 3, odd[:2]), ('say "limit"', 4, odd[2:5]),
              ('%s, %%d and "%.17g"', 5, odd[1:4]), ("%", "6,%", odd[:1]),
              ("no values", 7, odd[:0]), ("real values", 8, np.array([1.5, -0.0, 1e300]))]
    path = tmp_path / "limits.csv"
    for chunk_rows in (2, reports.CHUNK_ROWS):
        monkeypatch.setattr(reports, "CHUNK_ROWS", chunk_rows)
        write_limits_csv(path, traces)
        with open(path, newline="") as handle:
            assert handle.read() == _reference_csv(traces), chunk_rows
