"""Renormalized iteration solving the Schroder equation at a boundary fixed point.

For a hyperbolic self-map phi of H^N with Denjoy-Wolff point at infinity and
multiplier lam > 1, the normalized first coordinates

    sigma_n(Z) = pi_1(phi^n(Z)) / x_n,   x_n = Re pi_1(phi^n(1, 0)),

converge to the solution of sigma o phi = lam sigma, unique up to a positive
factor, with Re sigma(1, 0) = 1 at the base (1, 0), the Cayley image of the
ball's origin.  This module advances the renormalized state

    S_n(Z) = (pi_1(phi^n(Z)) / x_n,  pi_w(phi^n(Z)) / sqrt(x_n))

one step at a time via S_{n+1} = (L_{n+1} o phi o L_n^{-1})(S_n), which keeps
every stored quantity O(1) and stores the base scale in log-space.  The
update is algebraically identical to direct iteration.  It still forms
x_n S_n to evaluate phi, so it stops at the same scale ceiling (x_n ~ 1e300)
as direct iteration; the state is tested against it before every step,
through an upper bound of its magnitude that the previous step's image check
yields, and exactly only where that bound reaches the ceiling.

The base orbit, the grid and the grid images share the scales, so the state
is one stack of rows and a step is one map evaluation on arrays, which
advances every row at once through the map's ``batch``; black boxes alone go
point by point.  The probe orbit steps one row at a time.

Each row is checked once per step, as an image; the numpy check tests twice
the slack first.  The de-normalized inputs of a step are the
previous step's checked images, rescaled by about 1, and are checked again
only where ``_passes_again`` cannot prove that they pass: on the first step,
after a black box, and where an image row lay within twice the slack of the
boundary.

One step kernel on arrays, ``_renorm``, serves run_valiron, which makes one
state at the end, ``advance``, which wraps it for the state API, and
ValironResult.sigma_at.  Each step fixes the scale pair (x_n, x_{n+1}) from
the base orbit alone; run_valiron stores the pairs it used on the result,
and sigma_at replays the kernel over them for new points, so off-grid values
come from the very recursion that produced the grid values, without
evaluating the base orbit again.

A conjugated map T o phi o T^-1 (``conjugate_map``) is renormalized on its
inner map, as its iterates telescope, (T phi T^-1)^n = T phi^n T^-1.  The
stored rows are R_n = L_{x_n}(phi^n(T^-1 q)), and a step evaluates phi alone,
with the checks above; x_n is still Re pi_1 of the conjugated base orbit.
Only the first coordinate of T is taken of the images, once per step, and
packed by x_{n+1}: that column is sigma_{n+1}, tested for finiteness.
sigma_at maps its points by T^-1 once, replays the inner steps, and takes
the first coordinate of T once, at the end.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, replace
from typing import Callable, Iterable, Optional, Sequence

import numpy as np

from .dynamics import (
    INFINITY_THRESHOLD,
    MIN_TAIL,
    Orbit,
    SequenceClassification,
    classify_sequence,
    compute_orbit,
    estimate_drift,
    estimate_multiplier,
    tail_start,
)
from .geometry import (
    BallPoint,
    DomainError,
    NonFiniteError,
    SiegelAutomorphism,
    SiegelBatch,
    SiegelPoint,
    apply_automorphism,
    apply_automorphism_arrays,
    cayley_to_ball,
    cayley_to_siegel,
    check_siegel_arrays,
)
from .maps import (
    HoloMap,
    SCALE_LIMIT,
    ScaleOverflowError,
    _check_inputs,
    _images,
    conjugate_map,
    make_siegel_map_from_ball,
)

MIN_GRID_HEIGHT = 0.1
HYPERBOLICITY_MARGIN = 1e-6
CONSECUTIVE_CAUCHY = 3
PROBE_MIN_STEPS = 32
PROBE_MAX_STEPS = 64
PROBE_TARGET_HEIGHT = 1e8
# ln of the largest base scale at which states can still be de-normalized
LOG_SCALE_CEILING = math.log(SCALE_LIMIT)
# _passes_again holds for rows of at most _CLEAR_MAX_DIM coordinates, whose
# checked images and packed rows stay below _CLEAR_MAX_SIZE, de-normalized by
# a ratio r in _CLEAR_RATIO to the scale they were packed by
_CLEAR_MAX_DIM = 1000
_CLEAR_MAX_SIZE = 1e300
_CLEAR_RATIO = (0.75, 1.25)
# relative excess of a state's magnitude bound over the rounded magnitude
_MAGNITUDE_SLACK = 1e-9


class DegenerateGridError(ValueError):
    """Evaluation grid is empty or collapses to a single point."""


class NonHyperbolicError(ValueError):
    """Estimated multiplier is not bounded away from 1."""


@dataclass(frozen=True)
class EvaluationGrid:
    """Finite set of probe points, all at height >= MIN_GRID_HEIGHT, held in one batch.

    ``points`` may be a ``SiegelBatch``, which is kept as it is, or any
    iterable of ``SiegelPoint``s of one dimension, which is packed once.
    """

    points: SiegelBatch

    def __init__(self, points: Iterable[SiegelPoint]):
        if not isinstance(points, SiegelBatch):
            points = tuple(points)
        if not len(points):
            raise DegenerateGridError("empty evaluation grid")
        points = SiegelBatch.from_points(points)
        z, w = points.z, points.w
        # != compares as Python's complex ==, so 0.0 and -0.0 are one value
        if not ((z != z[0]).any() or (w != w[0]).any()):
            raise DegenerateGridError("grid must contain at least 2 distinct points")
        height = points.height()
        low = np.flatnonzero(height < MIN_GRID_HEIGHT)
        if low.size:
            raise DegenerateGridError(
                f"grid point at height {float(height[low[0]])!r} < {MIN_GRID_HEIGHT}"
            )
        object.__setattr__(self, "points", points)

    def __len__(self) -> int:
        return len(self.points)


def default_grid(n_dim: int) -> EvaluationGrid:
    """Tensor grid: z in {1,2,4} x {0, +i/2, -i/2}, small w polydisk.

    w magnitudes are capped at 0.5 so every point sits at height >= 0.75.
    The grid is one batch, z-major, checked once.
    """
    z_values = np.array([zb + d for zb in (1.0, 2.0, 4.0) for d in (0.0, 0.5j, -0.5j)])
    if n_dim == 1:
        w_values = np.zeros((1, 0), dtype=np.complex128)
    else:
        e1 = np.zeros(n_dim - 1, dtype=np.complex128)
        e1[0] = 1.0
        diag = np.ones(n_dim - 1, dtype=np.complex128) / math.sqrt(n_dim - 1)
        w_values = np.array([0.0 * e1, 0.5 * e1, 0.5j * e1, 0.25 * diag])
    return EvaluationGrid(SiegelBatch(
        np.repeat(z_values, len(w_values)), np.tile(w_values, (len(z_values), 1))))


@dataclass(frozen=True, eq=False)
class RenormalizedState:
    """State of the pipeline after n steps, as one read-only stack of rows.

    ``z``/``w`` hold S_n on the rows: row 0 is the orbit of the base (1, 0),
    then the grid points, then their phi-images (so sigma_n(phi(Z)) is always
    on hand).  ``base_sigma`` (a complex) and the read-only views ``sigma``
    and ``sigma_img`` are read from ``sigma_col`` when the state is made:
    for a conjugated map, whose rows are the inner rows R_n, the first
    coordinate of T of the rows packed by x_n; else None, which reads
    ``z``.  ``log_x`` is the base scale in log-space; ``scales`` is the pair
    (x_{n-1}, x_n) of the step that produced this state (empty for n = 0).

    ``advance`` also notes on the state it makes what the check of its rows,
    as images, returned with clearance (``_top``, see ``_passes_again``);
    on a state made otherwise, ``replace`` included, it is inf, and the
    next step takes the full tests.  A state is compared, and hashed, by
    identity: its arrays have no truth value.
    """

    n: int
    log_x: float
    z: np.ndarray
    w: np.ndarray
    scales: tuple = ()
    sigma_col: Optional[np.ndarray] = None
    _top: float = field(default=math.inf, init=False, repr=False, compare=False)

    def __post_init__(self):
        self.z.setflags(write=False)
        self.w.setflags(write=False)
        col = self.z if self.sigma_col is None else self.sigma_col
        col.setflags(write=False)
        g = len(col) // 2 + 1
        self.__dict__.update(base_sigma=complex(col[0]), sigma=col[1:g], sigma_img=col[g:])

    @property
    def x(self) -> float:
        return math.exp(self.log_x)

    def magnitude(self) -> float:
        """Largest component magnitude of the rows ``z``/``w`` (boundedness diagnostic)."""
        return _magnitude(self.z, self.w)


def _magnitude(z: np.ndarray, w: np.ndarray) -> float:
    mag = np.max(np.abs(z))
    return float(max(mag, np.max(np.abs(w))) if w.size else mag)


def _base(dim: int) -> SiegelPoint:
    """The base point (1, 0) of H^dim, at which Re sigma = 1."""
    return SiegelPoint(1.0, np.zeros(dim - 1, dtype=np.complex128))


def _schroder_defect(s_img: np.ndarray, s: np.ndarray, lam: float) -> np.ndarray:
    """|s_img - lam s| / (1 + |s|) on arrays of sigma(phi q) and sigma(q)."""
    return np.abs(s_img - lam * s) / (1.0 + np.abs(s))


def _pack(z: np.ndarray, w: np.ndarray, x: float):
    """Renormalized coordinates (z / x, w / sqrt(x)) of the rows."""
    return z / x, w / math.sqrt(x)


def _stepper(m: HoloMap) -> tuple:
    """``(phi, t)``: the map a renormalized step of ``m`` evaluates, and the T
    whose first coordinate gives sigma (None where that is the rows' own)."""
    return (m, None) if m.conjugation is None else m.conjugation


def _renorm(phi: HoloMap, t: Optional[SiegelAutomorphism], z: np.ndarray, w: np.ndarray,
            x_n: float, top: float, x_prev: float, x_next: Optional[float] = None) -> tuple:
    """L_{n+1} o phi o L_n^{-1} on rows of S_n packed by ``x_prev``, as the
    images' ``(z, w, col, top, x_next)``, packed by x_{n+1}.

    The de-normalized rows are checked unless ``_passes_again`` proves from
    ``top``, what their check as images returned (inf: none), that they
    pass; the images' check, with clearance up to ``_CLEAR_MAX_DIM``
    coordinates, gives the new ``top``.  x_{n+1} is ``x_next`` if given,
    else read from row 0, the base.  ``col`` is the sigma column: the packed
    z, or with a ``t``, pi_1 of T of the images (``_sigma_column``).
    """
    z, w = x_n * z, math.sqrt(x_n) * w
    if not _passes_again(top, x_prev, x_n):
        _check_inputs(phi, z, w)
    z, w, top = _images(phi, z, w, _clearance=w.shape[1] < _CLEAR_MAX_DIM)
    if t is not None:
        col, x_next = _sigma_column(t, z, w, x_next)
    elif x_next is None:
        x_next = float(z[0].real)
    z, w = _pack(z, w, x_next)
    return z, w, z if t is None else col, top, x_next


def _sigma_column(t: SiegelAutomorphism, z: np.ndarray, w: np.ndarray,
                  x_next: Optional[float] = None) -> tuple:
    """pi_1 of T on the image rows of an inner step, packed by x_{n+1}, and x_{n+1}.

    x_{n+1} is ``x_next`` if given, else Re pi_1 of T of row 0, the base.
    Raises NonFiniteError, as the check of a row would, where pi_1 is not
    finite.
    """
    with np.errstate(over="ignore", invalid="ignore"):
        col = apply_automorphism_arrays(t, z, w)[0]
    if not np.isfinite(col).all():
        raise NonFiniteError("non-finite coordinates")
    x_next = float(col[0].real) if x_next is None else x_next
    return col / x_next, x_next


def _passes_again(top: float, x_next: float, x_after: float) -> bool:
    """Whether image rows of a step, packed by ``x_next`` and de-normalized by
    ``x_after`` at the next step, provably pass that step's input check.

    ``top`` is what the images' check returned with clearance; if finite,
    each row (z, w) had Q = norm_sq(w) and H = Re z - Q > 2 s M, with
    s = BOUNDARY_SLACK and M = max(1, |z|, Q) <= top.  Let r = x_after /
    x_next, u = 2^-53, and N <= _CLEAR_MAX_DIM (``_renorm`` asks for no
    clearance beyond).  As top and top / x_next are at most _CLEAR_MAX_SIZE
    and r <= 5/4, nothing overflows.
    Packing (a complex quotient by a real: a reciprocal, perhaps subnormal,
    then a product) and de-normalizing (one product) put each part of z
    within 6 u of r times its value, and each part of w within 6 u of
    sqrt(r) times its value (the two square roots included), up to an
    absolute 2^-51 from underflow (2^-1075 times x_after < 2^1024).  As
    norm_sq is within N u of the exact sum, the new Q' is within (2N + 13) u
    of r Q; with |Re z| <= (1 + 2 u) M, the new height, rounded, exceeds
    r M (2 s - K u) (1 - 2 u) - 2^-51 with K = 2N + 20, and the new scale is
    at most max(1, r M (1 + K u)).  Where that scale is 1 the test needs a
    height above s, which holds as r M >= 3/4 and 0.75 K u < s / 2;
    elsewhere it needs a height above s r M (1 + K u), which holds as
    2 K u < s.  K <= 2020 meets both with room to spare.
    """
    if not (top <= _CLEAR_MAX_SIZE and top / x_next <= _CLEAR_MAX_SIZE):
        return False
    low, high = _CLEAR_RATIO
    return low <= x_after / x_next <= high


def initial_state(m: HoloMap, grid: EvaluationGrid) -> RenormalizedState:
    """S_0 on the rows: the base (1, 0), the grid and the grid's images."""
    points, base = grid.points, _base(m.dim)
    if points.dim != m.dim:
        raise DomainError("points of different dimensions")
    # the grid was checked when it was built: only its images are checked
    img_z, img_w, _ = _images(m, points.z, points.w)
    x0 = base.z.real
    z = np.concatenate(([base.z], points.z, img_z))
    w = np.concatenate((base.w[None, :], points.w, img_w))
    col, t = None, _stepper(m)[1]
    if t is not None:
        # the rows of T^-1 are checked by the first step, in full
        col, (z, w) = z / x0, apply_automorphism_arrays(t.inverse(), z, w)
    z, w = _pack(z, w, x0)
    return RenormalizedState(n=0, log_x=math.log(x0), z=z, w=w, sigma_col=col)


def advance(state: RenormalizedState, m: HoloMap) -> RenormalizedState:
    """One renormalized step: S_{n+1} = (L_{n+1} o phi o L_n^{-1}) o S_n.

    ``_renorm`` maps every row (base, grid and grid images) in one array
    evaluation, a conjugated map's inner rows by its inner map.  The input
    rows are checked, all before any image row, unless the state's ``_top``
    proves that they pass; so a step that rejects several rows may name
    another row than stepping the base first would.  De-normalizing needs
    x_n as a float, so a scale ceiling still exists; it is checked up-front
    (``_over_ceiling``) and raised loudly instead of silently producing
    infinities.
    """
    # x_prev is read only where _top is finite, on a state that advance made,
    # whose scales are set
    x_prev = state.scales[1] if state.scales else 1.0
    if _over_ceiling(state.log_x, state.z, state.w, state._top, x_prev):
        raise ScaleOverflowError(
            "de-normalized evaluation would exceed the double-precision range"
        )
    x_n = state.x
    phi, t = _stepper(m)
    z, w, col, top, x_next = _renorm(phi, t, state.z, state.w, x_n, state._top, x_prev)
    nxt = RenormalizedState(
        n=state.n + 1, log_x=state.log_x + math.log(x_next / x_n), z=z, w=w, scales=(x_n, x_next),
        sigma_col=None if t is None else col,
    )
    object.__setattr__(nxt, "_top", top)
    return nxt


def _over_ceiling(log_x: float, z: np.ndarray, w: np.ndarray, top: float, x_prev: float) -> bool:
    """Whether log_x + log(max(1, M)) exceeds LOG_SCALE_CEILING, with M the
    largest component magnitude of the rows ``z``/``w``.

    A finite ``top``, what the check of the rows as images returned with
    clearance, bounds them before they were packed by ``x_prev``: each
    stored |z| is within 12 u of at most t = top / x_prev, each |w_j| within
    (N / 2 + 8) u of at most sqrt(t).  That bound is tested first, and the
    exact magnitude only where the bound fails: log is monotone, so the
    verdict is the same.
    """
    if top < math.inf:
        t = top / x_prev
        bound = max(t, math.sqrt(t)) * (1.0 + _MAGNITUDE_SLACK)
        if log_x + math.log(max(1.0, bound)) <= LOG_SCALE_CEILING:
            return False
    return log_x + math.log(max(1.0, _magnitude(z, w))) > LOG_SCALE_CEILING


@dataclass(frozen=True, eq=False)
class ValironResult:
    """Converged (or truncated) output of the renormalization pipeline.

    Compared, and hashed, by identity, as a ``RenormalizedState`` is.
    """

    map: HoloMap
    grid: EvaluationGrid
    multiplier: float
    multiplier_uncertainty: float
    drift: float
    drift_uncertainty: float
    sigma: np.ndarray
    sigma_image: np.ndarray
    schroder_residuals: np.ndarray
    converged: bool
    n_stop: int
    cauchy_history: tuple
    normalization: complex
    classification: SequenceClassification
    outside_hypotheses: bool
    warnings: tuple
    base_orbit: Orbit
    scale_pairs: tuple
    _sigma_fn: Optional[Callable] = field(default=None, repr=False, compare=False)

    def sigma_at(self, points: Sequence[SiegelPoint], _top: float = math.inf) -> np.ndarray:
        """Evaluate the converged sigma at arbitrary points.

        Replays the renormalized step over the stored scale pairs, so the
        points ride along the same base orbit and off-grid probes use
        exactly the pipeline that produced the grid samples, with the same
        input checks as ``advance``.  ``_top`` is what a check of the points
        returned with clearance, if the caller made one (``residual_at``).
        A conjugated map's replay maps the points by T^-1 once, steps them
        on the inner map, whose first step checks them in full, and takes
        the first coordinate of T of the last images.
        """
        if not isinstance(points, SiegelBatch):
            points = tuple(points)
        if not len(points):
            return np.zeros(0, dtype=np.complex128)
        batch = SiegelBatch.from_points(points)
        if batch.w.shape[1] != self.map.dim - 1:  # a run with no stored step evaluates nothing
            raise DomainError(
                f"points of dimension {batch.w.shape[1] + 1} for a map of dimension {self.map.dim}")
        if self._sigma_fn is not None:
            return self._sigma_fn(batch)
        z, w, top, x_prev = batch.z, batch.w, _top, 1.0  # x_0, Re z of the base (1, 0)
        if not self.scale_pairs:
            return z / x_prev
        phi, t = _stepper(self.map)
        if t is not None:
            z, w, top = *apply_automorphism_arrays(t.inverse(), z, w), math.inf
        # the points take the full input check, unless their clearance proves
        # that they pass it; so do the images at later steps.  T is applied
        # to the images of the last step alone
        last = len(self.scale_pairs) - 1
        for k, (x_n, x_next) in enumerate(self.scale_pairs):
            z, w, col, top, x_prev = _renorm(
                phi, t if k == last else None, z, w, x_n, top, x_prev, x_next)
        return col

    def residual_at(self, points: Sequence[SiegelPoint]) -> np.ndarray:
        """Schroder residual |sigma(phi q) - lam sigma(q)| / (1 + |sigma(q)|).

        One map evaluation gives the images; one replay of sigma runs over
        the points and the images stacked.  The points and the images are
        checked once each, with clearance, so that the replay's first step
        need not check them again; a conjugated map's replay steps T^-1 of
        them, which its first step checks.
        """
        if not isinstance(points, SiegelBatch):
            points = tuple(points)
        if not len(points):
            return np.zeros(0)
        points = SiegelBatch.from_points(points)
        clear = points.w.shape[1] < _CLEAR_MAX_DIM
        top = check_siegel_arrays(points.z, points.w, _clearance=clear)
        img_z, img_w, top_img = _images(self.map, points.z, points.w, _clearance=clear)
        n = len(points)
        s = self.sigma_at(SiegelBatch._checked(
            np.concatenate((points.z, img_z)), np.concatenate((points.w, img_w))),
            _top=max(top, top_img))
        return _schroder_defect(s[n:], s[:n], self.multiplier)


def schroder_residual(m: HoloMap, sigma: Callable[[SiegelPoint], complex], q: SiegelPoint) -> float:
    """Normalized defect of the Schroder equation at one point, against ``m.multiplier``."""
    sq = complex(sigma(q))
    s_img = complex(sigma(m.evaluator(q)))
    return abs(s_img - m.multiplier * sq) / (1.0 + abs(sq))


def _multiplier_excess_decays(probe: Orbit) -> bool:
    """Detect a multiplier limit of 1 from the ratio trend.

    Hyperbolic orbits have x_{n+1}/x_n - lam shrinking geometrically, so the
    tail excess over 1 stabilizes (half-median ratio ~ 1); linear parabolic
    growth has excess ~ 1/x_n, giving a half-median ratio near 1/sqrt(2),
    and no fixed threshold below the excess itself would be honest.  Flags
    when the late-tail excess dropped under 85% of the early-tail excess
    while the apparent multiplier is already close to 1.
    """
    ratios = probe.x[1:] / probe.x[:-1]
    tail = ratios[tail_start(ratios.size):]
    half = tail.size // 2
    if half < 4:
        return False
    early = float(np.median(tail[:half])) - 1.0
    late = float(np.median(tail[half:])) - 1.0
    return late < 0.1 and late <= 0.85 * early


def _escape_probe(m: HoloMap, probe: Orbit, n_max: int) -> Orbit:
    """The probe, continued until the escape test of ``classify_sequence`` can
    decide, if it ends below INFINITY_THRESHOLD on a hyperbolic-looking orbit.

    A slow hyperbolic map (lam below 100^(1/64)) needs about log(100 / |z|) /
    log(lam) more steps, for the multiplier estimate lam, and MIN_TAIL more
    for the tail; the probe takes at most max(n_max, PROBE_MAX_STEPS) steps,
    and ``compute_orbit`` stops it at the scale ceiling.  A probe that ends
    above the threshold, was cut, or looks parabolic is returned as it is,
    for the checks of ``run_valiron`` to reject.
    """
    mod = abs(complex(probe.points.z[-1]))
    if probe.cutoff is not None or not mod < INFINITY_THRESHOLD:
        return probe
    lam = estimate_multiplier(probe).value
    if lam <= 1.0 + HYPERBOLICITY_MARGIN or _multiplier_excess_decays(probe):
        return probe
    extra = math.ceil(math.log(INFINITY_THRESHOLD / mod) / math.log(lam)) + MIN_TAIL
    return compute_orbit(m, probe, min(len(probe) - 1 + extra, max(n_max, PROBE_MAX_STEPS)))


def run_valiron(
    m: HoloMap,
    grid: Optional[EvaluationGrid] = None,
    tol: float = 1e-8,
    n_max: int = 200,
) -> ValironResult:
    """Run the renormalization pipeline to convergence.

    The orbit of the base (1, 0) fixes the scales x_n and Re sigma(1, 0) = 1;
    ``grid`` defaults to ``default_grid``.  Stops once the sup-grid Cauchy
    increment |sigma_{n+1} - sigma_n| stays below ``tol`` for
    CONSECUTIVE_CAUCHY consecutive steps, else at ``n_max`` with
    ``converged = False``.  A base orbit that is only C-special (not
    special) is outside the construction's hypotheses; the run proceeds but
    the result is flagged.  The base orbit is probed first, for at most 64
    steps unless a slow hyperbolic map needs more to escape (see
    ``_escape_probe``).

    Raises NotTendingToInfinityError, DegenerateGridError, or
    NonHyperbolicError when the inputs do not describe a hyperbolic
    approach to infinity.
    """
    if m.domain == "ball":
        m = make_siegel_map_from_ball(m)
    if grid is None:
        grid = default_grid(m.dim)

    warnings: list = []

    # probe adaptively: enough growth to classify and estimate, but not so
    # far that maps wrapped in coordinate changes lose boundary precision;
    # a slow orbit is continued, not recomputed
    probe = compute_orbit(m, _base(m.dim), PROBE_MIN_STEPS)
    if probe.cutoff is None and probe.x[-1] < PROBE_TARGET_HEIGHT:
        probe = _escape_probe(m, compute_orbit(m, probe, PROBE_MAX_STEPS), n_max)
    classification = classify_sequence(probe.points)
    lam = estimate_multiplier(probe)
    if lam.value <= 1.0 + HYPERBOLICITY_MARGIN or _multiplier_excess_decays(probe):
        raise NonHyperbolicError(
            f"multiplier estimate {lam.value!r} not bounded away from 1"
        )
    drift = estimate_drift(probe)
    outside = not classification.special
    if outside:
        warnings.append(
            "outside-hypotheses: base orbit is only C-special "
            f"(residual witness {classification.a_witness:.3g}); proceeding"
        )

    # the steps of advance, on the arrays of the rows; one state is made at the end
    state = initial_state(m, grid)
    phi, t = _stepper(m)
    log_x, z, w, sigma = state.log_x, state.z, state.w, state.sigma
    top, x_prev, g = math.inf, 1.0, len(grid) + 1
    scale_pairs, cauchy = [], []
    consecutive = 0
    converged = False
    for _ in range(n_max):
        try:
            if _over_ceiling(log_x, z, w, top, x_prev):
                raise ScaleOverflowError
            x_n = math.exp(log_x)
            z, w, col, top, x_next = _renorm(phi, t, z, w, x_n, top, x_prev)
        except ScaleOverflowError:  # a black box that iterates raw may raise it too
            warnings.append(
                f"scale ceiling reached at step {len(cauchy)}; stopping before n_max"
            )
            break
        log_x += math.log(x_next / x_n)
        x_prev = x_next
        scale_pairs.append((x_n, x_next))
        step = float(np.abs(col[1:g] - sigma).max())
        cauchy.append(step)
        sigma = col[1:g]
        if step < tol:
            consecutive += 1
            if consecutive >= CONSECUTIVE_CAUCHY:
                converged = True
                break
        else:
            consecutive = 0
    if scale_pairs:
        state = RenormalizedState(n=len(cauchy), log_x=log_x, z=z, w=w, scales=scale_pairs[-1],
                                  sigma_col=None if t is None else col)

    residuals = _schroder_defect(state.sigma_img, state.sigma, lam.value)
    return ValironResult(
        map=m,
        grid=grid,
        multiplier=lam.value,
        multiplier_uncertainty=lam.uncertainty,
        drift=drift.value,
        drift_uncertainty=drift.uncertainty,
        sigma=state.sigma.copy(),
        sigma_image=state.sigma_img.copy(),
        schroder_residuals=residuals,
        converged=converged,
        n_stop=state.n,
        cauchy_history=tuple(cauchy),
        normalization=complex(state.base_sigma),
        classification=classification,
        outside_hypotheses=outside,
        warnings=tuple(warnings),
        base_orbit=probe,
        scale_pairs=tuple(scale_pairs),
    )


def conjugation_transport(result: ValironResult, t: SiegelAutomorphism) -> ValironResult:
    """Transport a converged result to the conjugated map T o phi o T^-1.

    With Z_0 = T^-1(1, 0), the transported solution is

        sigma~(W) = sigma(T^-1 W) / Re sigma(Z_0),

    normalized so that Re sigma~(1, 0) = 1; the multiplier is unchanged.
    The grid is moved to T(grid) and the samples rescaled accordingly.
    """
    t_inv = t.inverse()
    z0 = apply_automorphism(t_inv, _base(result.map.dim))
    sigma_z0 = complex(result.sigma_at([z0])[0])
    if not sigma_z0.real > 0.0:
        raise DomainError("transport normalizer must have positive real part")
    factor = 1.0 / sigma_z0.real

    grid = result.grid.points
    moved_grid = EvaluationGrid(SiegelBatch(*apply_automorphism_arrays(t, grid.z, grid.w)))
    sigma = factor * result.sigma
    # phi_c(T Z) = T(phi Z), so the image samples transport by the same factor
    sigma_image = factor * result.sigma_image
    residuals = _schroder_defect(sigma_image, sigma, result.multiplier)

    def transported_sigma(points):
        points = SiegelBatch.from_points(points)
        pre = apply_automorphism_arrays(t_inv, points.z, points.w)
        # checked once, with clearance, so that the replay's first step need
        # not check the rows again
        top = check_siegel_arrays(*pre, _clearance=points.w.shape[1] < _CLEAR_MAX_DIM)
        return factor * result.sigma_at(SiegelBatch._checked(*pre), _top=top)

    drift = sigma_z0.imag / sigma_z0.real
    return replace(
        result,
        map=conjugate_map(result.map, t),
        grid=moved_grid,
        sigma=sigma,
        sigma_image=sigma_image,
        schroder_residuals=residuals,
        drift=drift,
        normalization=complex(1.0, drift),
        warnings=result.warnings + ("transported by conjugation",),
        _sigma_fn=transported_sigma,
    )


@dataclass(frozen=True)
class BallSideTheta:
    """Ball-side solution Theta = sigma o C of Theta o phi = (1/c) Theta."""

    result: ValironResult
    ball_points: tuple
    theta: np.ndarray
    residuals: np.ndarray

    def theta_at(self, points: Sequence[BallPoint]) -> np.ndarray:
        return self.result.sigma_at([cayley_to_siegel(p) for p in points])


def ball_side_theta(result: ValironResult) -> BallSideTheta:
    """Wrap a converged Siegel-side result as a ball-side intertwiner.

    Theta(0) equals the normalization 1 + i L (origin maps to the base
    point), Re Theta > 0 everywhere, and the residual against multiplier
    1/c = lam is the transported Schroder defect.
    """
    if not result.converged:
        raise DomainError("ball-side wrapper needs a converged result")
    ball_points = tuple(cayley_to_ball(p) for p in result.grid.points)
    return BallSideTheta(
        result=result,
        ball_points=ball_points,
        theta=result.sigma.copy(),
        residuals=result.schroder_residuals.copy(),
    )
