"""Renormalized iteration solving the Schroder equation at a boundary fixed point.

For a hyperbolic self-map phi of H^N with Denjoy-Wolff point at infinity and
multiplier lam > 1, the normalized first coordinates

    sigma_n(Z) = pi_1(phi^n(Z)) / x_n,   x_n = Re pi_1(phi^n(1, 0)),

converge to the solution of sigma o phi = lam sigma, unique up to a positive
factor, with Re sigma(1, 0) = 1 at the base (1, 0), the Cayley image of the
ball's origin.  This module steps the rows phi^n(Z) themselves: each step
evaluates phi on the previous step's checked images, bit for bit, checks
the new images once, and reads the sigma column pi_1 / x_{n+1}, with
x_{n+1} = Re pi_1 of the base image.  The renormalized state

    S_n(Z) = (pi_1(phi^n(Z)) / x_n,  pi_w(phi^n(Z)) / sqrt(x_n))

is packed only where a ``RenormalizedState`` is made: by ``initial_state``,
by each ``advance`` and at the end of a run.  As the rows are the raw
iterates, a run stops at the scale ceiling (components near 1e300) of
direct iteration; the image check returns a bound of every component,
which is tested against it before each step.

A state holds the base orbit, the grid and the grid images, which share
the scales.  The grid's images are the grid's own orbit one step ahead,
sigma_n(phi(Z)) = pi_1(phi^{n+1}(Z)) / x_n, so a step evaluates only the
base and the images, one stack of 1 + G rows for a grid of G points, in
one map evaluation on arrays through the map's ``batch`` (black boxes
alone go point by point).  The images of step n, with their bound and
their pi_1 column, are the grid rows of step n + 1, never evaluated or
checked again.  Row 0 is the base orbit that run_valiron classifies and
estimates lambda and L from; it is stepped alone, one row at a time, only
past the step where the stack stops.

One step, ``_step``, serves run_valiron, which makes one state at the end,
and ``advance``, which wraps it for the state API and keeps the raw rows
on the state it makes.  A state made otherwise (``replace`` included) is
de-normalized and checked in full before its step.  run_valiron stores the
scale pair (x_n, x_{n+1}) of each step on the result; ``sigma_at`` and
``residual_at`` replay as many steps on new rows and read them out over the
last x_{n+1}, so off-grid values come from the very recursion that produced
the grid values, without evaluating the base orbit again.  The images of
``residual_at``'s points are the points one step further on, as in a run.

A conjugated map T o phi o T^-1 (``conjugate_map``) is stepped on its
inner map, as its iterates telescope, (T phi T^-1)^n = T phi^n T^-1.  Rows
enter once, by T^-1 and one check (``maps._entered``), where
``initial_state``, ``sigma_at`` or ``residual_at`` makes them; images are
taken by phi alone, so no row is mapped by T and back.  The read-out takes
pi_1 of T alone (T the identity for a map that is not a conjugate), once
per row, when the row is an image; that column is tested for finiteness.

Every stepping loop and every one-shot entry holds one ``np.errstate`` per
call, under which an image that overflows fails its check unwarned.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Iterable, Optional, Sequence

import numpy as np

from .dynamics import (
    INFINITY_THRESHOLD,
    MIN_TAIL,
    Orbit,
    OrbitTooShortError,
    SequenceClassification,
    classify_sequence,
    compute_orbit,
    estimate_drift,
    estimate_multiplier,
    tail_start,
)
from .geometry import (
    DomainError,
    NonFiniteError,
    SiegelAutomorphism,
    SiegelBatch,
    SiegelPoint,
    _first_coordinate,
    check_siegel_arrays,
)
from .maps import (
    HoloMap,
    SCALE_LIMIT,
    ScaleOverflowError,
    _IDENTITY,
    _entered,
    _images,
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
    and ``sigma_img`` are read from ``sigma_col``, the sigma column of the
    stack, when the state is made.  ``log_x`` is the base scale in
    log-space; ``scales`` is the pair (x_{n-1}, x_n) of the step that
    produced this state (empty for n = 0).

    ``initial_state`` and ``advance`` also keep on the state they make its
    raw rows as the next step reads them (``_raw``): the rows that it
    evaluates, the base phi^n(1, 0) and the images phi^{n+1}(Z), and the
    grid rows phi^n(Z), each checked, with the pi_1 column of T and the
    bound of every component that their check returned (inf: not known),
    and x_n.  On a state made otherwise, ``replace`` included, it is None,
    and the next step de-normalizes the state and checks it in full.  A
    state is compared, and hashed, by identity: its arrays have no truth
    value.
    """

    n: int
    log_x: float
    z: np.ndarray
    w: np.ndarray
    sigma_col: np.ndarray
    scales: tuple = ()
    _raw: Optional[tuple] = field(default=None, init=False, repr=False, compare=False)

    def __post_init__(self):
        self.z.setflags(write=False)
        self.w.setflags(write=False)
        col, g = self.sigma_col, len(self.sigma_col) // 2 + 1
        col.setflags(write=False)
        self.__dict__.update(base_sigma=complex(col[0]), sigma=col[1:g], sigma_img=col[g:])

    @property
    def x(self) -> float:
        return math.exp(self.log_x)

    def magnitude(self) -> float:
        """Largest component magnitude of the rows ``z``/``w`` (boundedness diagnostic)."""
        return _magnitude(self.z, self.w)


def _magnitude(z: np.ndarray, w: np.ndarray) -> float:
    # np.hypot, as the row check takes |z|: np.abs of a complex array rounds apart from it
    mag = np.max(np.hypot(z.real, z.imag))
    return float(max(mag, np.max(np.hypot(w.real, w.imag))) if w.size else mag)


def _base(dim: int) -> SiegelPoint:
    """The base point (1, 0) of H^dim, at which Re sigma = 1."""
    return SiegelPoint(1.0, np.zeros(dim - 1, dtype=np.complex128))


def _schroder_defect(s_img: np.ndarray, s: np.ndarray, lam: float) -> np.ndarray:
    """|s_img - lam s| / (1 + |s|) on arrays of sigma(phi q) and sigma(q)."""
    return np.abs(s_img - lam * s) / (1.0 + np.abs(s))


def _step(m: HoloMap, rows: tuple, grid: tuple) -> tuple:
    """``(rows, grid)`` of step n + 1 from those of step n.

    ``rows`` is ``(z, w, col, top)`` of the base phi^n(1, 0) and the grid
    images phi^{n+1}(Z), the rows a step evaluates: ``col`` is pi_1 of T of
    each (x_n times its sigma), ``top`` the bound their check returned.
    ``grid`` is the same of the grid rows phi^n(Z).  The rows entered ``m``
    (``_entered``): its ``phi`` maps them, ``_images`` checks the images
    once, and the images of step n are the grid of step n + 1.  Past
    SCALE_LIMIT (``_over_ceiling``) ScaleOverflowError is raised instead.
    """
    if _over_ceiling(rows, grid):
        raise ScaleOverflowError("evaluation would exceed the double-precision range")
    phi, t = m.conjugation or (m, _IDENTITY)
    z, w, col, top = rows
    img_z, img_w, img_top = _images(phi, z, w)
    return (img_z, img_w, _pi1(t, img_z, img_w), img_top), (z[1:], w[1:], col[1:], top)


def _over_ceiling(rows: tuple, grid: tuple) -> bool:
    """Whether ``rows`` and ``grid`` reach past SCALE_LIMIT, exactly as the
    bound of one check of them all would.

    It takes the larger of their bounds, the last two checks'.  After
    ``initial_state``, or a state checked in full, the grid's bound covers
    the base and the grid, so the larger is the bound of all the rows.
    Later, the grid's bound is of the rows of the step before, which passed
    this test: the larger passes SCALE_LIMIT exactly when the newer bound,
    and so the bound of all the rows, does, and no row is measured again.
    Where a bound is not known (inf: a black box's images, or the first
    step of a map that is not a conjugate), the rows' largest component is
    measured, as it always was there.
    """
    bound = max(rows[3], grid[3])
    if bound == math.inf:
        bound = max(_magnitude(*rows[:2]), _magnitude(*grid[:2]))
    return bound > SCALE_LIMIT


def _pi1(t: SiegelAutomorphism, z: np.ndarray, w: np.ndarray) -> np.ndarray:
    """pi_1 of T on rows that a step evaluates: x_n times their sigma column.

    T is ``_entered``'s: the identity, which hands back the rows' z, checked
    with them, for a map that is not a conjugate.  Raises NonFiniteError, as
    the check of a row would, where pi_1 is not finite; a caller that minds
    the overflow warning holds ``np.errstate``.
    """
    col = _first_coordinate(t, z, w)
    if col is not z and not np.isfinite(col).all():
        raise NonFiniteError("non-finite coordinates")
    return col


def _made(n: int, rows: tuple, grid: tuple, x: float, scales: tuple = ()) -> RenormalizedState:
    """The state at step ``n`` and scale ``x`` of the raw ``rows`` and ``grid`` of a
    step (``_step``): the stack [base, grid, images], S_n = (z / x, w / sqrt(x)),
    with its column over x; ``rows``, ``grid`` and x are kept for the next step."""
    (z, w, col, _), (g_z, g_w, g_col, _) = rows, grid
    for a in (z, w, g_z, g_w):
        a.setflags(write=False)
    z_all, w_all = np.concatenate((z[:1], g_z, z[1:])), np.concatenate((w[:1], g_w, w[1:]))
    state = RenormalizedState(n=n, log_x=math.log(x), z=z_all / x, w=w_all / math.sqrt(x),
                              scales=scales, sigma_col=np.concatenate((col[:1], g_col, col[1:])) / x)
    object.__setattr__(state, "_raw", (rows, grid, x))
    return state


def initial_state(m: HoloMap, grid: EvaluationGrid) -> RenormalizedState:
    """S_0 on the rows: the base (1, 0) and the grid, entered once, then the grid's images.

    The base and the grid are their own sigma_0; the images' is pi_1 of T.
    The bounds of the two checks, of the entered rows (inf for a map that
    is not a conjugate, whose rows are not checked again) and of the
    images, together bound the first step's rows.
    """
    points, base = grid.points, _base(m.dim)
    if points.dim != m.dim:
        raise DomainError("points of different dimensions")
    z0 = np.concatenate(([base.z], points.z))
    with np.errstate(over="ignore", invalid="ignore"):  # an image that overflows fails its check
        phi, t, z, w, top = _entered(m, z0, np.concatenate((base.w[None, :], points.w)))
        img_z, img_w, img_top = _images(phi, z[1:], w[1:])
        col = np.concatenate((z0[:1], _pi1(t, img_z, img_w)))
    rows = (np.concatenate((z[:1], img_z)), np.concatenate((w[:1], img_w)), col, img_top)
    return _made(0, rows, (z[1:], w[1:], points.z, top), base.z.real)


def advance(state: RenormalizedState, m: HoloMap) -> RenormalizedState:
    """One renormalized step: S_{n+1} = (L_{n+1} o phi o L_n^{-1}) o S_n.

    ``_step`` maps the base and the grid images in one array evaluation, a
    conjugated map's inner rows by its inner map, and checks the images
    once; the state's images become the grid of the state it makes.  A
    state with no raw rows (made by ``replace``, say) is de-normalized by
    x_n and checked in full first, all before any image row, and its
    images' pi_1 column is read off the de-normalized rows.  The raw rows
    reach the double range where direct iteration does, so the scale
    ceiling is tested before the step and raised loudly instead of
    silently producing infinities.
    """
    with np.errstate(over="ignore", invalid="ignore"):  # an overflow fails a check
        if state._raw is None:
            if state.log_x + math.log(max(1.0, state.magnitude())) > LOG_SCALE_CEILING:
                raise ScaleOverflowError("evaluation would exceed the double-precision range")
            x_n = state.x
            z, w = x_n * state.z, math.sqrt(x_n) * state.w
            top = check_siegel_arrays(z, w)
            g = len(z) // 2 + 1
            rows_z, rows_w = np.concatenate((z[:1], z[g:])), np.concatenate((w[:1], w[g:]))
            t = m.conjugation[1] if m.conjugation else _IDENTITY
            rows = (rows_z, rows_w, _pi1(t, rows_z, rows_w), top)
            grid = (z[1:g], w[1:g], None, top)
        else:
            rows, grid, x_n = state._raw
        rows, grid = _step(m, rows, grid)
    x_next = float(rows[2][0].real)
    return _made(state.n + 1, rows, grid, x_next, (x_n, x_next))


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

    def sigma_at(self, points: Sequence[SiegelPoint]) -> np.ndarray:
        """Evaluate the converged sigma at arbitrary points by a replay of the run (``_replayed``)."""
        return self._replayed(points, False)

    def residual_at(self, points: Sequence[SiegelPoint]) -> np.ndarray:
        """Schroder residual |sigma(phi q) - lam sigma(q)| / (1 + |sigma(q)|), by one
        replay of the points that takes one step more for their images; on the
        grid, bit for bit the run's ``schroder_residuals``."""
        s = self._replayed(points, True)
        n = len(s) // 2
        return _schroder_defect(s[n:], s[:n], self.multiplier)

    def _replayed(self, points: Sequence[SiegelPoint], images: bool) -> np.ndarray:
        """sigma of the points, then of their images if ``images``.

        The points, of the map's width, enter once, then ride along the base
        orbit: they are stepped as many times as the run stepped, each step
        one ``_images`` that checks the images once, and read out by ``_pi1``
        over the last x_{n+1}, as the run read the grid.  Their images are
        the points one step further on, so ``images`` takes one step more
        and reads the last two steps: each row is evaluated and checked once.
        """
        if not isinstance(points, SiegelBatch):
            points = tuple(points)
        if not len(points):
            return np.zeros(0, dtype=np.complex128)
        batch = SiegelBatch.from_points(points)
        if batch.w.shape[1] != self.map.dim - 1:  # before the rows enter, even with no stored step
            raise DomainError(
                f"points of dimension {batch.w.shape[1] + 1} for a map of dimension {self.map.dim}")
        n = len(self.scale_pairs)
        with np.errstate(over="ignore", invalid="ignore"):  # an overflow fails a check
            phi, t, z, w, _ = _entered(self.map, batch.z, batch.w)
            for _ in range(n):
                z, w, _ = _images(phi, z, w)
            if images:
                img_z, img_w, _ = _images(phi, z, w)
            col = _pi1(t, z, w) if n else batch.z  # sigma_0 of a point is its z
            if images:
                col = np.concatenate((col, _pi1(t, img_z, img_w)))
        return col / (self.scale_pairs[-1][1] if n else 1.0)  # x_0 = Re z of (1, 0)


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


def _probe_steps(base: Orbit, n_max: int) -> Optional[int]:
    """The step count at which the probe rule next reads the base orbit
    ``base``, which has the count it named last (PROBE_MIN_STEPS first) or
    was cut by the scale ceiling; None once ``base`` is the probe.

    The rule reads 32 steps, then 64 if x_32 < PROBE_TARGET_HEIGHT.  A
    64-step orbit that ends below INFINITY_THRESHOLD and looks hyperbolic
    goes on until the escape test of ``classify_sequence`` can decide: a
    slow map (lam below 100^(1/64)) needs about log(100 / |z|) / log(lam)
    more steps, and MIN_TAIL more, up to max(n_max, PROBE_MAX_STEPS) in all.
    """
    n = len(base) - 1
    if base.cutoff is not None or n > PROBE_MAX_STEPS:
        return None
    if n == PROBE_MIN_STEPS:
        return PROBE_MAX_STEPS if base.x[-1] < PROBE_TARGET_HEIGHT else None
    mod = abs(complex(base.points.z[-1]))
    if not mod < INFINITY_THRESHOLD:
        return None
    lam = estimate_multiplier(base).value
    if lam <= 1.0 + HYPERBOLICITY_MARGIN or _multiplier_excess_decays(base):
        return None
    extra = math.ceil(math.log(INFINITY_THRESHOLD / mod) / math.log(lam)) + MIN_TAIL
    steps = min(n + extra, max(n_max, PROBE_MAX_STEPS))
    return steps if steps > n else None


def _row_orbit(m: HoloMap, row_z: list, row_w: list) -> Orbit:
    """The base orbit of ``m`` from rows 0 of the stack's first steps, which
    were checked when stepped.  A conjugated map's rows are inner rows: the
    orbit carries them as ``inner``, and T maps them in one call."""
    rows = SiegelBatch._checked(np.array(row_z), np.array(row_w))
    if m.conjugation is None:
        return Orbit(map=m, points=rows)
    start = Orbit(map=m, points=SiegelBatch.from_points([_base(m.dim)]),
                  inner=Orbit(map=m.conjugation[0], points=rows))
    return compute_orbit(m, start, len(rows) - 1)


def _gate(base: Orbit) -> tuple:
    """``(classification, multiplier, drift)`` of the probe ``base``, or the
    error of a base orbit that does not approach infinity hyperbolically."""
    classification = classify_sequence(base.points)
    try:
        lam = estimate_multiplier(base)
    except OrbitTooShortError as exc:
        if base.cutoff is None:
            raise
        raise OrbitTooShortError(f"{exc} (base orbit stopped: {base.cutoff})") from None
    if lam.value <= 1.0 + HYPERBOLICITY_MARGIN or _multiplier_excess_decays(base):
        raise NonHyperbolicError(
            f"multiplier estimate {lam.value!r} not bounded away from 1"
        )
    return classification, lam, estimate_drift(base)


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
    the result is flagged.

    Each step evaluates and checks the base and the grid images alone, 1 + G
    rows for a grid of G points: the images of one step are the grid of the
    next (``_step``), so a run evaluates G + (1 + G) n_stop rows, and its
    final state is the stack [base, grid, images] of ``advance``.

    The base orbit is row 0 of the stack.  Once it has the steps that the
    probe rule reads (``_probe_steps``), the gate classifies it and
    estimates lambda and L from it, and stops the run on a map it rejects.
    If the stack stops first, row 0 goes on alone by ``compute_orbit``, from
    the base if ``initial_state`` failed; an error of the stack is raised
    only once the gate has passed, so the gate's own error comes first.

    Raises NotTendingToInfinityError, DegenerateGridError, or
    NonHyperbolicError when the inputs do not describe a hyperbolic
    approach to infinity; OrbitTooShortError, naming the base orbit's
    cutoff, when it meets the scale ceiling too soon to estimate from; and
    ValueError on a ``tol`` that is NaN, negative or infinite, which no
    Cauchy stop could back (``tol = 0`` runs to ``n_max``).
    """
    if not 0.0 <= tol < math.inf:  # NaN fails it too
        raise ValueError(f"tol = {tol!r}: need a finite tol >= 0")
    if m.domain == "ball":
        m = make_siegel_map_from_ball(m)
    if grid is None:
        grid = default_grid(m.dim)

    # the steps of advance, on the raw rows; one state is made at the end.  An
    # image that overflows fails its check: numpy's warning would say it twice
    with np.errstate(over="ignore", invalid="ignore"):
        base = _base(m.dim)  # the base orbit, until it is the probe
        probe_at = PROBE_MIN_STEPS  # None once the gate has passed
        row_z, row_w, scale_pairs, cauchy = [], [], [], []
        consecutive = 0
        converged = False
        ceiling = failed = None
        try:
            state = initial_state(m, grid)
        except (ValueError, ArithmeticError) as exc:  # raised once the gate has passed
            failed = exc
        else:
            rows, grid_rows, x_n = state._raw
            sigma = state.sigma
            row_z.append(rows[0][0])
            row_w.append(rows[1][0])
        for _ in range(n_max if failed is None else 0):
            try:
                rows, grid_rows = _step(m, rows, grid_rows)
            except ScaleOverflowError:  # a black box that iterates raw may raise it too
                ceiling = len(cauchy)
                break
            except (ValueError, ArithmeticError) as exc:  # raised once the gate has passed
                if probe_at is None:
                    raise
                failed = exc
                break
            x_next = float(rows[2][0].real)
            scale_pairs.append((x_n, x_next))
            x_n = x_next
            sigma_next = grid_rows[2] / x_next
            step = float(np.abs(sigma_next - sigma).max())
            cauchy.append(step)
            sigma = sigma_next
            if probe_at is not None:
                row_z.append(rows[0][0])
                row_w.append(rows[1][0].copy())
                if len(cauchy) == probe_at:
                    base = _row_orbit(m, row_z, row_w)
                    probe_at = _probe_steps(base, n_max)
                    if probe_at is None:
                        classification, lam, drift = _gate(base)
            if step < tol:
                consecutive += 1
                if consecutive >= CONSECUTIVE_CAUCHY:
                    converged = True
                    break
            else:
                consecutive = 0
        if probe_at is not None:  # the stack stopped first: row 0 goes on alone
            if row_z:
                base = _row_orbit(m, row_z, row_w)
            while probe_at is not None:
                base = compute_orbit(m, base, probe_at)
                probe_at = _probe_steps(base, n_max)
            classification, lam, drift = _gate(base)
            if failed is not None:
                raise failed
    if scale_pairs:
        state = _made(len(cauchy), rows, grid_rows, x_n, scale_pairs[-1])

    outside = not classification.special
    warnings = []
    if outside:
        warnings.append(
            "outside-hypotheses: base orbit is only C-special "
            f"(residual witness {classification.a_witness:.3g}); proceeding"
        )
    if ceiling is not None:
        warnings.append(f"scale ceiling reached at step {ceiling}; stopping before n_max")
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
        base_orbit=base,
        scale_pairs=tuple(scale_pairs),
    )
