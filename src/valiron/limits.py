"""Boundary-limit estimation along structured approach families.

A scalar function on the Siegel domain is probed along finite sequence
families that play the role of the quantifiers in the K-limit, E-limit and
E0-limit definitions:

* ``koranyi``                  tails inside K(INFINITY, M)       -> K-limit
* ``c-special-restricted``     bounded distance to the axis      -> E-limit
* ``zero-special-restricted``  vanishing distance to the axis    -> E0-limit
* ``radial``                   (r, 0) with r real                -> baseline

Every generated sequence re-classifies (dynamics.classify_sequence) as its
declared kind; verdicts are computed from tail values with an explicit
no-limit witness requirement.

A family is generated as one array computation over its seeds and ladder
rungs and checked once; each sequence is a ``SiegelBatch``.  The probed
functions ``h`` stay scalar: a probe evaluates ``h`` point by point.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass
from typing import Callable, Optional, Sequence

import numpy as np

from .dynamics import tail_start
from .geometry import (
    DomainError,
    LinearProjectionAtInfinity,
    SiegelBatch,
    SiegelPoint,
    check_siegel_arrays,
    left_inverse_value,
    max_kobayashi,
    norm_sq,
    project,
)
from .maps import HoloMap, _rng_for

DEFAULT_LADDER = tuple(10.0 ** k for k in range(1, 8))
DEFAULT_TOL = 1e-3
NO_LIMIT_FACTOR = 10.0
TAIL_VALUES = 3

M_SWEEP = (1.5, 2.0, 4.0, 8.0, 16.0)
C_SWEEP = (0.0, 0.25, 0.5, 1.0)
T_SWEEP = (0.0, 0.5, 1.0, 2.0)
# zero-special seeds must stay small enough that the generated sequences
# actually classify as special under the 1e-6 residual tolerance
C0_SWEEP = (0.0, 2.5e-4, 5.0e-4)


@dataclass(frozen=True)
class ApproachSeed:
    """One direction seed: polar angle of z, w strength, w direction."""

    theta: float
    s: float
    u: tuple

    def direction(self) -> np.ndarray:
        return np.asarray(self.u, dtype=np.complex128)


@dataclass(frozen=True)
class ApproachFamily:
    kind: str
    n_dim: int
    amplitude: float = 2.0
    c_param: float = 0.0
    t_param: float = 0.0
    ladder: tuple = DEFAULT_LADDER
    seeds: tuple = ()

    def __post_init__(self):
        if self.kind not in ("koranyi", "c-special-restricted", "zero-special-restricted", "radial"):
            raise DomainError(f"unknown approach kind {self.kind!r}")
        if self.kind == "koranyi" and not self.amplitude > 1.0:
            raise DomainError("koranyi amplitude must satisfy M > 1")
        if any(b <= a for a, b in zip(self.ladder, self.ladder[1:])):
            raise DomainError("scale ladder must increase")


@functools.lru_cache(maxsize=64)
def _unit_direction(n_dim: int, phase: float = 0.0) -> tuple:
    if n_dim == 1:
        return ()
    return (complex(np.exp(1j * phase)),) + (0j,) * (n_dim - 2)


def radial_family(n_dim: int, ladder: tuple = DEFAULT_LADDER) -> ApproachFamily:
    return ApproachFamily(
        kind="radial",
        n_dim=n_dim,
        ladder=ladder,
        seeds=(ApproachSeed(0.0, 0.0, _unit_direction(n_dim)),),
    )


def _angled_seeds(n_dim: int, s: float, t_param: float):
    seeds = [ApproachSeed(0.0, 0.0, _unit_direction(n_dim))]
    thetas = [0.0]
    if t_param > 0.0:
        thetas += [math.atan(t_param), -math.atan(t_param)]
    if s > 0.0 and n_dim > 1:
        for th in thetas:
            seeds.append(ApproachSeed(th, s, _unit_direction(n_dim)))
        seeds.append(ApproachSeed(0.0, s, _unit_direction(n_dim, math.pi / 4.0)))
    elif t_param > 0.0:
        for th in thetas[1:]:
            seeds.append(ApproachSeed(th, 0.0, _unit_direction(n_dim)))
    return tuple(seeds)


def c_special_family(
    c_param: float, t_param: float, n_dim: int, ladder: tuple = DEFAULT_LADDER
) -> ApproachFamily:
    """Sequences at axis distance <= C: ||w_k|| = s sqrt(x_k), s = tanh C."""
    s = math.tanh(c_param)
    return ApproachFamily(
        kind="c-special-restricted",
        n_dim=n_dim,
        c_param=c_param,
        t_param=t_param,
        ladder=ladder,
        seeds=_angled_seeds(n_dim, s, t_param),
    )


def zero_special_family(
    c_param: float, t_param: float, n_dim: int, ladder: tuple = DEFAULT_LADDER
) -> ApproachFamily:
    """Special sequences: strengths decay as s/sqrt(k) along the ladder."""
    s = math.tanh(c_param)
    return ApproachFamily(
        kind="zero-special-restricted",
        n_dim=n_dim,
        c_param=c_param,
        t_param=t_param,
        ladder=ladder,
        seeds=_angled_seeds(n_dim, s, t_param),
    )


def koranyi_family(
    amplitude: float, n_dim: int, ladder: tuple = DEFAULT_LADDER
) -> ApproachFamily:
    """Sequences staying inside K(INFINITY, M); w fills the cross-section."""
    t_max = 0.75 * math.sqrt(amplitude * amplitude - 1.0)
    seeds = [
        ApproachSeed(0.0, 0.0, _unit_direction(n_dim)),
        ApproachSeed(0.0, 0.9, _unit_direction(n_dim)),
    ]
    if t_max > 0.0:
        seeds.append(ApproachSeed(math.atan(t_max), 0.9, _unit_direction(n_dim)))
        seeds.append(ApproachSeed(-math.atan(t_max), 0.5, _unit_direction(n_dim, math.pi / 3.0)))
    return ApproachFamily(
        kind="koranyi",
        n_dim=n_dim,
        amplitude=amplitude,
        ladder=ladder,
        seeds=tuple(seeds),
    )


def _family_arrays(family: ApproachFamily, seeds: Sequence[ApproachSeed]):
    """(z, w) of every (seed, rung) point, shapes (S, R) and (S, R, N-1).

    Each entry has the bits of the point built one at a time: z is
    ``r * complex(cos theta, sin theta)``, and w is the seed direction
    scaled by the strength of the family's kind, zero when s = 0.  Both
    products take the real factor as ``r + 0j``, as Python and numpy do.
    """
    zero = (0j,) * (family.n_dim - 1)
    s = np.array([sd.s for sd in seeds])
    u = np.array([sd.u if sd.s != 0.0 else zero for sd in seeds], dtype=np.complex128)
    turn = np.array([complex(math.cos(sd.theta), math.sin(sd.theta)) for sd in seeds])
    z = turn[:, None] * np.array(family.ladder, dtype=np.complex128)
    x = z.real
    if family.kind == "koranyi":
        margin = x - np.hypot(x + 1.0, z.imag) / family.amplitude
        size = np.sqrt((s * s)[:, None] * np.maximum(margin, 0.0))
    else:
        # a rung <= 0 puts its row outside the domain, and the point check
        # rejects it; the clamp only keeps the square root quiet
        size = np.sqrt(np.maximum(x, 0.0))
        if family.kind == "zero-special-restricted":
            size *= s[:, None] / np.sqrt(np.arange(1.0, x.shape[1] + 1.0))
        else:
            size *= s[:, None]
    w = size.astype(np.complex128)[:, :, None] * u.reshape(len(seeds), 1, family.n_dim - 1)
    return z, w


def generate_sequences(
    family: ApproachFamily, count: Optional[int] = None, seed: int = 0
) -> list:
    """Deterministic list of sequences: canonical seeds first, then drawn.

    Each sequence is a ``SiegelBatch`` over the ladder.  The whole family
    is one array computation, checked once; a point outside the domain
    raises the ``DomainError`` of the first such point, seed by seed and
    rung by rung.  Drawn seeds use per-index counter-based randomness so
    the output is independent of evaluation order.
    """
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
    z, w = _family_arrays(family, seeds)
    rows, rungs = z.shape
    check_siegel_arrays(z.reshape(rows * rungs), w.reshape(rows * rungs, family.n_dim - 1))
    z.setflags(write=False)
    w.setflags(write=False)
    return list(map(SiegelBatch._checked, z, w))


@dataclass(frozen=True)
class LimitVerdict:
    """Outcome of a finite limit probe.

    status 'limit-exists' carries the mean tail value; 'no-limit' carries a
    witness pair taken from two distinct sequences whose tail values are
    separated by more than NO_LIMIT_FACTOR * tol; anything in between is
    'inconclusive'.  ``traces`` holds the probed values as labelled
    ``(family_label, seq_index, values)`` triples in probe order; the
    verdict reads the last TAIL_VALUES of each, and the witness indices
    ``(i, j, v_i, v_j, separation)`` count positions in ``traces``.
    """

    status: str
    value: Optional[complex]
    spread: float
    tol: float
    witness: Optional[tuple]
    traces: tuple

    @property
    def exists(self) -> bool:
        return self.status == "limit-exists"


def family_label(family: ApproachFamily) -> str:
    if family.kind == "koranyi":
        return f"koranyi(M={family.amplitude:g})"
    if family.kind == "radial":
        return "radial"
    short = "c-special" if family.kind == "c-special-restricted" else "zero-special"
    return f"{short}(C={family.c_param:g};T={family.t_param:g})"


def probe_family(
    h: Callable[[SiegelPoint], complex],
    family: ApproachFamily,
    count: Optional[int] = None,
    seed: int = 0,
) -> list:
    """Full value traces of h, one labelled ``(family_label, seq_index, values)`` per sequence."""
    label = family_label(family)
    return [
        (label, i, np.array([h(p) for p in seq], dtype=np.complex128))
        for i, seq in enumerate(generate_sequences(family, count=count, seed=seed))
    ]


def verdict_from_traces(traces: Sequence[tuple], tol: float) -> LimitVerdict:
    """Verdict from the last TAIL_VALUES values of each labelled trace."""
    traces = tuple(traces)
    tails = [values[-min(TAIL_VALUES, values.size):] for _, _, values in traces]
    flat = np.concatenate(tails)
    owner = np.repeat(np.arange(len(tails)), [t.size for t in tails])
    diff = flat[None, :] - flat[:, None]
    spread = float(np.max(np.abs(diff)))
    # np.hypot matches the scalar abs() of each difference bit for bit, which
    # np.abs on complex arrays does not; the witness reports that value
    sep = np.hypot(diff.real, diff.imag)
    sep[owner[:, None] >= owner[None, :]] = 0.0
    separation = float(np.max(sep))
    witness = None
    if separation > 0.0:
        # the first maximal pair in (sequence i, sequence j, value in i, value in j) order
        ps, qs = np.nonzero(sep == separation)
        k = np.lexsort((qs, ps, owner[qs], owner[ps]))[0]
        p, q = ps[k], qs[k]
        witness = (int(owner[p]), int(owner[q]), complex(flat[p]), complex(flat[q]), separation)
    if spread < tol:
        status, value, witness = "limit-exists", complex(np.mean(flat)), None
    elif witness is not None and separation > NO_LIMIT_FACTOR * tol:
        status, value = "no-limit", None
    else:
        status, value = "inconclusive", None
    return LimitVerdict(
        status=status, value=value, spread=spread, tol=tol, witness=witness, traces=traces
    )


def estimate_limit(
    h: Callable[[SiegelPoint], complex],
    family: ApproachFamily,
    tol: float = DEFAULT_TOL,
    count: Optional[int] = None,
    seed: int = 0,
) -> LimitVerdict:
    """Probe h along one family; verdict from the last TAIL_VALUES rungs."""
    return verdict_from_traces(probe_family(h, family, count=count, seed=seed), tol)


def _sweep_verdict(h, families, tol, extra, seed) -> LimitVerdict:
    """One verdict over every family, each probed along its canonical seeds
    plus ``extra`` sequences drawn from ``seed``."""
    traces = []
    for fam in families:
        traces += probe_family(h, fam, count=len(fam.seeds) + extra, seed=seed)
    return verdict_from_traces(traces, tol)


def k_limit(h, n_dim: int, tol: float = DEFAULT_TOL, ladder: tuple = DEFAULT_LADDER,
            extra: int = 0, seed: int = 0) -> LimitVerdict:
    """K-limit surrogate: sweep Koranyi amplitudes M in M_SWEEP."""
    fams = [koranyi_family(m_amp, n_dim, ladder) for m_amp in M_SWEEP]
    return _sweep_verdict(h, fams, tol, extra, seed)


def e_limit(h, n_dim: int, tol: float = DEFAULT_TOL, ladder: tuple = DEFAULT_LADDER,
            extra: int = 0, seed: int = 0) -> LimitVerdict:
    """E-limit surrogate: sweep C-special restricted families over C x T."""
    fams = [
        c_special_family(c, t, n_dim, ladder)
        for c in C_SWEEP
        for t in T_SWEEP
    ]
    return _sweep_verdict(h, fams, tol, extra, seed)


def e0_limit(h, n_dim: int, tol: float = DEFAULT_TOL, ladder: tuple = DEFAULT_LADDER,
             extra: int = 0, seed: int = 0) -> LimitVerdict:
    """E0-limit surrogate: sweep zero-special families (small strengths)."""
    fams = [
        zero_special_family(c, t, n_dim, ladder)
        for c in C0_SWEEP
        for t in T_SWEEP
    ]
    return _sweep_verdict(h, fams, tol, extra, seed)


# -- Boundary behavior checks --------------------------------------------------


@dataclass(frozen=True)
class JWCReport:
    """Both limits of the projection comparison theorem, probed along E0 families."""

    part1: LimitVerdict
    part2: LimitVerdict
    multiplier: float
    passed: bool


def projection_ratio_fn(m: HoloMap, rho: LinearProjectionAtInfinity):
    """h(q) = (rho~ o phi)(q) / rho~(q), the left-inverse comparison ratio."""

    def h(q: SiegelPoint) -> complex:
        return left_inverse_value(rho, m.evaluator(q)) / left_inverse_value(rho, q)

    return h


def projection_gap_fn(m: HoloMap, rho: LinearProjectionAtInfinity):
    """h(q) = ||phi(q) - rho(phi(q))|| / |rho~(q)|, the off-geodesic gap."""

    def h(q: SiegelPoint) -> complex:
        image = m.evaluator(q)
        proj = project(rho, image)
        dz = image.z - proj.z
        dw = image.w - proj.w
        return complex(math.sqrt(abs(dz) ** 2 + norm_sq(dw)) / abs(left_inverse_value(rho, q)))

    return h


def jwc_check(m: HoloMap, rho: LinearProjectionAtInfinity, tol: float = DEFAULT_TOL,
              ladder: tuple = DEFAULT_LADDER, seed: int = 0) -> JWCReport:
    """Check (1) E0-lim rho~ o phi / rho~ = lam and (2) E0-lim ||phi - rho o phi|| / |rho~| = 0."""
    if m.domain != "siegel":
        raise DomainError("jwc_check expects a Siegel-side map")

    v1 = e0_limit(projection_ratio_fn(m, rho), m.dim, tol=tol, ladder=ladder, seed=seed)
    v2 = e0_limit(projection_gap_fn(m, rho), m.dim, tol=tol, ladder=ladder, seed=seed)
    ok = (
        v1.exists
        and v2.exists
        and abs(v1.value - m.multiplier) <= tol
        and abs(v2.value) <= tol
    )
    return JWCReport(part1=v1, part2=v2, multiplier=m.multiplier, passed=ok)


@dataclass(frozen=True)
class ProjectionInvarianceReport:
    distances: np.ndarray
    max_tail: float
    monotone: bool
    passed: bool
    c_witness_axis: float
    c_witness_projected: float
    restricted_axis_t: float
    restricted_projected_t: float


def projection_distance(q: SiegelPoint, rho: LinearProjectionAtInfinity) -> float:
    """Closed-form k(p_1(Z), rho_a(Z)).

    With c = 2||a||^2 + 2<w, a>, the squared tanh of the distance is
    (|c|^2 + 4 x ||a||^2) / |2x + c|^2; this matches the two-point pipeline
    and stays stable at large |z| where ball coordinates cancel.
    """
    a = rho.a
    c = 2.0 * norm_sq(a) + 2.0 * complex(np.dot(q.w, np.conjugate(a)))
    x = q.z.real
    num = abs(c) ** 2 + 4.0 * x * norm_sq(a)
    den = abs(2.0 * x + c) ** 2
    if num >= den:
        return math.inf
    return math.atanh(math.sqrt(num / den))


def projection_invariance_check(
    points: Sequence[SiegelPoint],
    rho: LinearProjectionAtInfinity,
    tol: float = 1e-2,
) -> ProjectionInvarianceReport:
    """Distances between the two projections vanish along the sequence.

    Also compares the C-special witnesses measured against the axis and
    against the projected line, and the restriction witnesses of both
    shadows; the lemma says each pair must agree in the limit.
    """
    points = SiegelBatch.from_points(points)
    dists = np.array([projection_distance(q, rho) for q in points])
    t0 = tail_start(len(points))
    tail = dists[t0:]
    max_tail = float(np.max(tail))
    monotone = bool(np.all(np.diff(dists) <= 1e-12))

    shadows = points[t0:]
    c_axis = max_kobayashi(shadows.axis_tanh())
    c_projected = max_kobayashi(shadows.kobayashi_tanh(shadows.project(rho)))
    lv = shadows.left_inverse(rho)
    return ProjectionInvarianceReport(
        distances=dists,
        max_tail=max_tail,
        monotone=monotone,
        passed=max_tail < tol,
        c_witness_axis=c_axis,
        c_witness_projected=c_projected,
        restricted_axis_t=float(np.max(np.abs(shadows.z.imag) / shadows.z.real)),
        restricted_projected_t=float(np.max(np.abs(lv.imag) / lv.real)),
    )


@dataclass(frozen=True)
class LeftInverseReport:
    status: str
    ratio_verdict: Optional[LimitVerdict]
    derivative_verdict: Optional[LimitVerdict]
    prerequisite: LimitVerdict
    multiplier: float
    passed: bool


def left_inverse_ratio_check(
    m: HoloMap,
    rho: LinearProjectionAtInfinity,
    tol: float = DEFAULT_TOL,
    ladder: tuple = DEFAULT_LADDER,
    seed: int = 0,
) -> LeftInverseReport:
    """E-limit transfer: if phi_1/z has an E-limit, rho~ o phi / rho~ shares it.

    Returns status 'inconclusive' when the prerequisite E-limit does not
    exist along the sweep (no claim is made); otherwise verifies the ratio
    tends to the multiplier and the w-component growth ||phi_w|| / |z|
    tends to 0.
    """
    if m.domain != "siegel":
        raise DomainError("left_inverse_ratio_check expects a Siegel-side map")

    prereq = e_limit(lambda q: m.evaluator(q).z / q.z, m.dim, tol=tol, ladder=ladder, seed=seed)
    if not prereq.exists:
        return LeftInverseReport(
            status="inconclusive",
            ratio_verdict=None,
            derivative_verdict=None,
            prerequisite=prereq,
            multiplier=m.multiplier,
            passed=False,
        )

    def wgrowth(q: SiegelPoint) -> complex:
        return complex(math.sqrt(norm_sq(m.evaluator(q).w)) / abs(q.z))

    rv = e_limit(projection_ratio_fn(m, rho), m.dim, tol=tol, ladder=ladder, seed=seed)
    dv = e_limit(wgrowth, m.dim, tol=tol, ladder=ladder, seed=seed)
    ok = (
        rv.exists
        and dv.exists
        and abs(rv.value - m.multiplier) <= tol
        and abs(dv.value) <= tol
    )
    return LeftInverseReport(
        status="confirmed" if ok else "failed",
        ratio_verdict=rv,
        derivative_verdict=dv,
        prerequisite=prereq,
        multiplier=m.multiplier,
        passed=ok,
    )
