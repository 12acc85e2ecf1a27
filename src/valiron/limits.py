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
rungs; each sequence is a ``SiegelBatch``.  A ``SweepPlan`` holds every
sweep of a command set: one pass generates the rows of every distinct
family, with the most sequences any sweep asks of it, and checks them once,
and the map is evaluated once over them, with ``maps._images``.  The
probed functions of the map's images are ``MapProbe``s, each computed in
one call over every row of the plan and shared by every sweep that reads
it; each is one numpy expression, whose error against the same formula in
exact arithmetic its docstring states, and a row's value does not depend on
the other rows.  Any other function ``h`` of a point is evaluated point by
point, once on every row.  ``k_limit``, ``e_limit``, ``e0_limit``,
``jwc_check`` and ``left_inverse_ratio_check`` run a plan of their own
sweeps; ``valiron run`` builds one plan for all the sweeps of its commands.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass
from typing import Callable, Iterable, Optional, Sequence

import numpy as np

from .dynamics import tail_start
from .geometry import (
    DomainError,
    LinearProjectionAtInfinity,
    SiegelBatch,
    SiegelPoint,
    _norm_sq_rows,
    _one_row,
    check_siegel_arrays,
    max_kobayashi,
)
from .maps import HoloMap, _images

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

    def __hash__(self) -> int:
        return self._hash

    @functools.cached_property
    def _hash(self) -> int:
        # families key the sweep plans: hash the fields, seeds included, once
        return hash((self.kind, self.n_dim, self.amplitude, self.c_param, self.t_param,
                     self.ladder, self.seeds))


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


def _special_family(kind: str, c_param: float, t_param: float, n_dim: int, ladder: tuple):
    return ApproachFamily(
        kind=kind,
        n_dim=n_dim,
        c_param=c_param,
        t_param=t_param,
        ladder=ladder,
        seeds=_angled_seeds(n_dim, math.tanh(c_param), t_param),
    )


def c_special_family(
    c_param: float, t_param: float, n_dim: int, ladder: tuple = DEFAULT_LADDER
) -> ApproachFamily:
    """Sequences at axis distance <= C: ||w_k|| = s sqrt(x_k), s = tanh C."""
    return _special_family("c-special-restricted", c_param, t_param, n_dim, ladder)


def zero_special_family(
    c_param: float, t_param: float, n_dim: int, ladder: tuple = DEFAULT_LADDER
) -> ApproachFamily:
    """Special sequences: strengths decay as s/sqrt(k) along the ladder."""
    return _special_family("zero-special-restricted", c_param, t_param, n_dim, ladder)


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

    z is ``r * complex(cos theta, sin theta)``, within 5 u of it in each
    part (libm's cos or sin, then a product by the real r), and w is the
    seed direction scaled by the strength of the family's kind, zero when
    s = 0.  Each entry is computed from its own seed and rung alone, so a
    sequence has the same rows whatever else is generated with it.
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


def _drawn_seed(family: ApproachFamily, rng: np.random.Generator) -> ApproachSeed:
    """One drawn seed of ``family``, from the start of the stream ``rng``."""
    if family.kind == "koranyi":
        t_max = 0.75 * math.sqrt(family.amplitude ** 2 - 1.0)
        s_max = 0.95
    else:
        t_max = family.t_param
        s_max = math.tanh(family.c_param)
    theta = rng.uniform(-math.atan(t_max), math.atan(t_max)) if t_max > 0 else 0.0
    s = rng.uniform(0.0, s_max) if s_max > 0 else 0.0
    phase = rng.uniform(0.0, 2.0 * math.pi)
    return ApproachSeed(theta, s, _unit_direction(family.n_dim, phase))


def _rng_for(seed: int, index: int) -> np.random.Generator:
    # counter-based: each index owns an independent stream, so determinism
    # holds regardless of evaluation order
    return np.random.default_rng((int(seed), int(index)))


def _generate(counts: Iterable[tuple], seed: int) -> tuple:
    """The rows of every ``(family, count)`` of ``counts``, in order, checked once.

    Returns ``(z, w, sizes)``: the rows of all sequences, family by family,
    seed by seed and rung by rung, and the number of sequences of each
    family.  Each family's seeds are its canonical ones, then drawn ones up
    to ``count`` (a radial family has one sequence).  The seed drawn at index
    i comes from the start of the counter-based stream ``_rng_for(seed, i)``,
    whatever the family: one generator is built per distinct index, and its
    state is restored for each further family that draws there.  A point
    outside the domain raises the ``DomainError`` of the first such row.
    """
    counts = list(counts)
    streams: dict = {}  # drawn index -> (generator, its state before any draw)
    z_parts, w_parts, sizes = [], [], []
    for k, (fam, count) in enumerate(counts):
        if fam.kind == "radial":
            count = min(count, 1) or 1
        seeds = list(fam.seeds[:count])
        for i in range(len(seeds), count):
            if i in streams:
                rng, state = streams[i]
                rng.bit_generator.state = state
            else:
                rng = _rng_for(seed, i)
                if k + 1 < len(counts):  # a later family may draw at i too
                    streams[i] = rng, rng.bit_generator.state
            seeds.append(_drawn_seed(fam, rng))
        z, w = _family_arrays(fam, seeds)
        z_parts.append(z.ravel())
        w_parts.append(w.reshape(z.size, fam.n_dim - 1))
        sizes.append(len(seeds))
    if len(sizes) == 1:  # one family's rows need no copy
        z, w = z_parts[0], w_parts[0]
    else:
        z, w = np.concatenate(z_parts), np.concatenate(w_parts)
    check_siegel_arrays(z, w)
    return z, w, sizes


def generate_sequences(
    family: ApproachFamily, count: Optional[int] = None, seed: int = 0
) -> list:
    """Deterministic list of sequences: canonical seeds first, then drawn.

    Each sequence is a ``SiegelBatch`` over the ladder: the one-family
    case of the pass a ``SweepPlan`` makes (``_generate``).  The whole
    family is one array computation, checked once; a point outside the
    domain raises the ``DomainError`` of the first such point, seed by seed
    and rung by rung.  Drawn seeds use per-index counter-based randomness
    so the output is independent of evaluation order.
    """
    if count is None:
        count = len(family.seeds)
    z, w, (size,) = _generate(((family, count),), seed)
    rungs = len(family.ladder)
    return list(map(SiegelBatch._checked, z.reshape(size, rungs),
                    w.reshape(size, rungs, family.n_dim - 1)))


@dataclass(frozen=True)
class LimitVerdict:
    """Outcome of a finite limit probe.

    status 'limit-exists' carries the mean tail value; 'no-limit' carries a
    witness pair taken from two distinct sequences whose tail values are
    separated by more than NO_LIMIT_FACTOR * tol; anything in between is
    'inconclusive'.  ``traces`` holds the probed values as one ``(family_label,
    block)`` per family in probe order, a sequence per row of its block; the
    verdict reads the last TAIL_VALUES of each row, and the witness indices
    ``(i, j, v_i, v_j, separation)`` count sequences, block after block.
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


@dataclass(frozen=True, eq=False)
class MapProbe:
    """A probed function of the map's images, ``h(q) = f(q, phi(q), *args)``.

    ``f(points, images, *args)`` takes the probed points and their images
    under ``m`` as two ``SiegelBatch``es, then ``args``, and returns the
    values of ``h`` row by row, one numpy expression whose rows do not
    depend on each other.  A sweep evaluates ``m`` once for all of its
    probes of that map; calling a probe on one point evaluates that point
    alone, checked when it was made.
    """

    m: HoloMap
    f: Callable[..., np.ndarray]
    args: tuple = ()

    def __call__(self, q: SiegelPoint) -> complex:
        points = SiegelBatch.from_points((q,))
        with np.errstate(over="ignore", invalid="ignore"):  # an overflow fails the check
            images = SiegelBatch._checked(*_images(self.m, points.z, points.w)[:2])
        return complex(self.f(points, images, *self.args)[0])


@functools.lru_cache(maxsize=64)
def k_families(n_dim: int, ladder: tuple = DEFAULT_LADDER) -> tuple:
    """The K-limit sweep: one Koranyi family per amplitude M in M_SWEEP."""
    return tuple(koranyi_family(m_amp, n_dim, ladder) for m_amp in M_SWEEP)


@functools.lru_cache(maxsize=64)
def e_families(n_dim: int, ladder: tuple = DEFAULT_LADDER) -> tuple:
    """The E-limit sweep: C-special restricted families over C_SWEEP x T_SWEEP."""
    return tuple(c_special_family(c, t, n_dim, ladder) for c in C_SWEEP for t in T_SWEEP)


@functools.lru_cache(maxsize=64)
def e0_families(n_dim: int, ladder: tuple = DEFAULT_LADDER) -> tuple:
    """The E0-limit sweep: zero-special families over C0_SWEEP x T_SWEEP."""
    return tuple(zero_special_family(c, t, n_dim, ladder) for c in C0_SWEEP for t in T_SWEEP)


# the sweeps of jwc_check and left_inverse_ratio_check, in that order:
# (families of (N, ladder), drawn sequences per family)
CHECK_SWEEPS = ((e0_families, 0), (e_families, 0))


class SweepPlan:
    """The limit sweeps of a command set, generated and evaluated once.

    ``sweep`` declares the families a sweep probes and the drawn sequences
    it adds to each; every sweep is declared before the first trace is
    asked for.  That first request generates every declared family in one
    pass (``_generate``), with the most sequences any sweep asked of it, in
    declaration order, into one batch checked once.  A sequence is the same
    rows whatever the count (``_family_arrays`` is row-wise, and each drawn
    index has its own counter-based stream), so a sweep that reads fewer
    sequences reads the first ones of the larger generation.

    Each map is evaluated once, with ``maps._images``, over the whole
    batch, and each probe is computed once over it: a ``MapProbe`` in one
    call, which ``MapProbe``s of the same map, function and argument
    objects share, and a plain ``h`` point by point, in row order.  A trace
    is a family's ``(sequences, rungs)`` view of those values, held as
    complex.  Maps and probes are row-wise, so every value has the bits the
    sweep gives alone; but a row that no sweep of the probe reads is computed
    too, and an error there is raised.
    """

    def __init__(self, seed: int = 0):
        self.seed = seed
        self._counts: dict = {}  # family -> sequences to generate, in declaration order
        self._offsets: dict = {}  # family -> (first row, sequences generated)
        self._points: Optional[SiegelBatch] = None
        self._images: dict = {}  # id(map) -> (map, images of every row)
        # probe key -> (probe, values of every row); the probe keeps the keyed ids alive
        self._values: dict = {}

    def sweep(self, families: Sequence[ApproachFamily], extra: int = 0) -> tuple:
        """Declare a sweep: the canonical seeds plus ``extra`` drawn sequences of each family.

        Returns the sweep that ``traces`` and ``verdict`` take.  Once the
        plan is generated, a sweep can only be declared again.
        """
        families = tuple(families)
        for fam in families:
            count = len(fam.seeds) + extra
            if self._points is None:
                self._counts[fam] = max(self._counts.get(fam, count), count)
            elif self._counts.get(fam, -1) < count:
                raise ValueError("every sweep of a plan is declared before its first trace")
        return families, extra

    def _stack(self) -> SiegelBatch:
        if self._points is None:
            z, w, sizes = _generate(self._counts.items(), self.seed)
            row = 0
            for fam, size in zip(self._counts, sizes):
                self._offsets[fam] = (row, size)
                row += size * len(fam.ladder)
            self._points = SiegelBatch._checked(z, w)
        return self._points

    def _probe_values(self, probe) -> np.ndarray:
        """Values of ``probe`` on every row of the plan, computed once, as complex."""
        key = (id(probe.m), probe.f, *map(id, probe.args)) if isinstance(probe, MapProbe) else id(probe)
        if key not in self._values:
            points = self._stack()
            if isinstance(probe, MapProbe):
                if id(probe.m) not in self._images:
                    # the rows were checked when generated: only their images are
                    # checked, and an image that overflows fails its check unwarned
                    with np.errstate(over="ignore", invalid="ignore"):
                        images = SiegelBatch._checked(*_images(probe.m, points.z, points.w)[:2])
                    self._images[id(probe.m)] = (probe.m, images)
                values = probe.f(points, self._images[id(probe.m)][1], *probe.args)
            else:
                values = [probe(p) for p in points]
            self._values[key] = (probe, np.asarray(values, np.complex128))
        return self._values[key][1]

    def traces(self, probe: Callable[[SiegelPoint], complex], sweep: tuple) -> list:
        """One ``(family_label, block)`` of ``probe`` per family of ``sweep``, a sequence a row."""
        families, extra = self.sweep(*sweep)
        values = self._probe_values(probe)
        traces = []
        for fam in families:
            start, generated = self._offsets[fam]
            n, rungs = min(len(fam.seeds) + extra, generated), len(fam.ladder)
            traces.append((family_label(fam), values[start:start + n * rungs].reshape(n, rungs)))
        return traces

    def verdict(self, probe, sweep: tuple, tol: float = DEFAULT_TOL) -> "LimitVerdict":
        """``verdict_from_traces`` of the traces of ``probe`` along ``sweep``."""
        return verdict_from_traces(self.traces(probe, sweep), tol)

    def jwc_check(self, m: HoloMap, rho: LinearProjectionAtInfinity,
                  tol: float = DEFAULT_TOL, ladder: tuple = DEFAULT_LADDER) -> "JWCReport":
        """See the function ``jwc_check``; both parts read ``CHECK_SWEEPS[0]``."""
        if m.domain != "siegel":
            raise DomainError("jwc_check expects a Siegel-side map")
        families, extra = CHECK_SWEEPS[0]
        sweep = self.sweep(families(m.dim, ladder), extra)
        t1 = self.traces(projection_ratio_fn(m, rho), sweep)
        t2 = self.traces(projection_gap_fn(m, rho), sweep)
        v1, v2 = verdict_from_traces(t1, tol), verdict_from_traces(t2, tol)
        ok = (
            v1.exists
            and v2.exists
            and abs(v1.value - m.multiplier) <= tol
            and abs(v2.value) <= tol
        )
        return JWCReport(part1=v1, part2=v2, multiplier=m.multiplier, passed=ok)

    def left_inverse_ratio_check(self, m: HoloMap, rho: LinearProjectionAtInfinity,
                                 tol: float = DEFAULT_TOL,
                                 ladder: tuple = DEFAULT_LADDER) -> "LeftInverseReport":
        """See the function ``left_inverse_ratio_check``; its probes read ``CHECK_SWEEPS[1]``."""
        if m.domain != "siegel":
            raise DomainError("left_inverse_ratio_check expects a Siegel-side map")
        families, extra = CHECK_SWEEPS[1]
        sweep = self.sweep(families(m.dim, ladder), extra)
        prereq_traces, ratio_traces, growth_traces = [
            self.traces(h, sweep)
            for h in (first_coordinate_ratio_fn(m), projection_ratio_fn(m, rho), w_growth_fn(m))
        ]
        prereq = verdict_from_traces(prereq_traces, tol)
        if not prereq.exists:
            return LeftInverseReport(
                status="inconclusive",
                ratio_verdict=None,
                derivative_verdict=None,
                prerequisite=prereq,
                multiplier=m.multiplier,
                passed=False,
            )

        rv = verdict_from_traces(ratio_traces, tol)
        dv = verdict_from_traces(growth_traces, tol)
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


def _pairs(values: np.ndarray) -> np.ndarray:
    """``values[(i + d) % n]`` at ``[d, i]`` for d = 0 .. n // 2: every pair i <= j once.

    Row 0 is the diagonal; for even n the last row holds each of its pairs twice.
    """
    n = values.size
    ext = np.concatenate((values, values[:n // 2]))
    return np.ndarray((n // 2 + 1, n), ext.dtype, ext, strides=(ext.itemsize, ext.itemsize))


def verdict_from_traces(traces: Sequence[tuple], tol: float) -> LimitVerdict:
    """Verdict from the last TAIL_VALUES values of each sequence, each row of a block."""
    traces = tuple(traces)
    tails = [block[:, -min(TAIL_VALUES, block.shape[1]):] for _, block in traces]
    flat = np.concatenate(tails, axis=None)
    # v_i - v_j is -(v_j - v_i) exactly, so one difference per pair gives every
    # modulus; the diagonal stays, as x - x is NaN for a non-finite x
    with np.errstate(invalid="ignore"):
        diffs = _pairs(flat) - flat
    moduli = np.abs(diffs)
    spread = float(moduli.max())
    if spread < tol:
        # a limit carries no witness, so none is searched for
        return LimitVerdict(status="limit-exists", value=complex(np.mean(flat)),
                            spread=spread, tol=tol, witness=None, traces=traces)
    counts = np.concatenate([np.full(len(t), t.shape[1]) for t in tails])  # tail values a sequence
    owner = np.repeat(np.arange(counts.size), counts)
    moduli[_pairs(owner) == owner] = 0.0  # a witness pairs two sequences
    separation = float(moduli.max())
    witness = None
    if separation > 0.0:
        ds, ends = np.nonzero(moduli == separation)
        others = (ends + ds) % flat.size
        ps, qs = np.minimum(ends, others), np.maximum(ends, others)
        # the first maximal pair in (sequence i, sequence j, value in i, value in j) order
        k = np.lexsort((qs, ps, owner[qs], owner[ps]))[0]
        p, q = ps[k], qs[k]
        witness = (int(owner[p]), int(owner[q]), complex(flat[p]), complex(flat[q]), separation)
    if witness is not None and witness[4] > NO_LIMIT_FACTOR * tol:
        status = "no-limit"
    else:
        status = "inconclusive"
    return LimitVerdict(
        status=status, value=None, spread=spread, tol=tol, witness=witness, traces=traces
    )


def _one_sweep(h, families, tol: float, extra: int, seed: int) -> LimitVerdict:
    plan = SweepPlan(seed)
    return plan.verdict(h, plan.sweep(families, extra), tol)


def k_limit(h, n_dim: int, tol: float = DEFAULT_TOL, ladder: tuple = DEFAULT_LADDER,
            extra: int = 0, seed: int = 0) -> LimitVerdict:
    """K-limit surrogate: sweep Koranyi amplitudes M in M_SWEEP."""
    return _one_sweep(h, k_families(n_dim, ladder), tol, extra, seed)


def e_limit(h, n_dim: int, tol: float = DEFAULT_TOL, ladder: tuple = DEFAULT_LADDER,
            extra: int = 0, seed: int = 0) -> LimitVerdict:
    """E-limit surrogate: sweep C-special restricted families over C x T."""
    return _one_sweep(h, e_families(n_dim, ladder), tol, extra, seed)


def e0_limit(h, n_dim: int, tol: float = DEFAULT_TOL, ladder: tuple = DEFAULT_LADDER,
             extra: int = 0, seed: int = 0) -> LimitVerdict:
    """E0-limit surrogate: sweep zero-special families (small strengths)."""
    return _one_sweep(h, e0_families(n_dim, ladder), tol, extra, seed)


# -- Boundary behavior checks --------------------------------------------------


@dataclass(frozen=True)
class JWCReport:
    """Both limits of the projection comparison theorem, probed along E0 families."""

    part1: LimitVerdict
    part2: LimitVerdict
    multiplier: float
    passed: bool


def _first_coordinate_ratio(points: SiegelBatch, images: SiegelBatch) -> np.ndarray:
    return images.z / points.z


def first_coordinate_ratio_fn(m: HoloMap) -> MapProbe:
    """h(q) = phi_1(q) / z, the first image coordinate over z.

    One complex division of the image's coordinate: within 16 u of |h|.
    """
    return MapProbe(m, _first_coordinate_ratio)


def _projection_ratio(points: SiegelBatch, images: SiegelBatch, rho) -> np.ndarray:
    # a non-finite quotient is rejected where the ratio is read, not warned about here
    with np.errstate(invalid="ignore", divide="ignore"):
        return images.left_inverse(rho) / points.left_inverse(rho)


def projection_ratio_fn(m: HoloMap, rho: LinearProjectionAtInfinity) -> MapProbe:
    """h(q) = (rho~ o phi)(q) / rho~(q), the left-inverse comparison ratio.

    The quotient of two ``SiegelBatch.left_inverse`` values: their errors,
    relative to their moduli, add to the 16 u of the division.
    """
    return MapProbe(m, _projection_ratio, (rho,))


def _projection_gap(points: SiegelBatch, images: SiegelBatch, rho) -> np.ndarray:
    proj = images.project(rho)
    dw_norm = np.sqrt(_norm_sq_rows(images.w - proj.w))
    return np.hypot(np.abs(images.z - proj.z), dw_norm) / np.abs(points.left_inverse(rho))


def projection_gap_fn(m: HoloMap, rho: LinearProjectionAtInfinity) -> MapProbe:
    """h(q) = ||phi(q) - rho(phi(q))|| / |rho~(q)|, the off-geodesic gap.

    The difference ``phi(q) - rho(phi(q))`` cancels where the image is
    near its projection; its error is that of ``SiegelBatch.project``.  The
    norm ``hypot(|dz|, ||dw||)``, which does not overflow where ``|dz|^2``
    would, and the division add a few u of the value.
    """
    return MapProbe(m, _projection_gap, (rho,))


def _w_growth(points: SiegelBatch, images: SiegelBatch) -> np.ndarray:
    return np.sqrt(images.norm_sq()) / np.abs(points.z)


def w_growth_fn(m: HoloMap) -> MapProbe:
    """h(q) = ||phi_w(q)|| / |z|, the growth of the image's w part.

    Within (N / 2 + 6) u of h: ``norm_sq`` of the image's w (N u, halved
    by the root), the root, ``abs`` (2 ulps) and the quotient.
    """
    return MapProbe(m, _w_growth)


def jwc_check(m: HoloMap, rho: LinearProjectionAtInfinity, tol: float = DEFAULT_TOL,
              ladder: tuple = DEFAULT_LADDER) -> JWCReport:
    """Check (1) E0-lim rho~ o phi / rho~ = lam and (2) E0-lim ||phi - rho o phi|| / |rho~| = 0.

    Both parts read one evaluation of ``m`` along the canonical E0 sweep.
    """
    return SweepPlan().jwc_check(m, rho, tol, ladder)


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
    """Closed-form k(p_1(Z), rho_a(Z)), as one row of ``SiegelBatch.projection_distances``."""
    return float(_one_row(q).projection_distances(rho)[0])


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
    dists = points.projection_distances(rho)
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
) -> LeftInverseReport:
    """E-limit transfer: if phi_1/z has an E-limit, rho~ o phi / rho~ shares it.

    Returns status 'inconclusive' when the prerequisite E-limit does not
    exist along the sweep (no claim is made); otherwise verifies the ratio
    tends to the multiplier and the w-component growth ||phi_w|| / |z|
    tends to 0.  The three probes read one evaluation of ``m`` along the
    canonical E sweep.
    """
    return SweepPlan().left_inverse_ratio_check(m, rho, tol, ladder)
