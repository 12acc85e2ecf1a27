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

The base orbit, the grid and the grid images share the scales, so the rows
are one stack and a step is one map evaluation on arrays, which advances
every row at once through the map's ``batch``; black boxes alone go point
by point.  Row 0 is the base orbit that run_valiron classifies and
estimates lambda and L from; it is stepped alone, one row at a time, only
past the step where the stack stops.

One step, ``_step``, serves run_valiron, which makes one state at the end,
and ``advance``, which wraps it for the state API and keeps the raw rows
on the state it makes.  A state made otherwise (``replace`` included) is
de-normalized and checked in full before its step.  run_valiron stores the
scale pair (x_n, x_{n+1}) of each step on the result; ``sigma_at`` and
``residual_at`` replay as many steps on new rows and read them out over the
last x_{n+1}, so off-grid values come from the very recursion that produced
the grid values, without evaluating the base orbit again.

A conjugated map T o phi o T^-1 (``conjugate_map``) is stepped on its
inner map, as its iterates telescope, (T phi T^-1)^n = T phi^n T^-1.  Rows
enter once, by T^-1 and one check (``maps._entered``), where
``initial_state``, ``sigma_at`` or ``residual_at`` makes them; images are
taken by phi alone, so no row is mapped by T and back.  The read-out takes
pi_1 of T alone (T the identity for a map that is not a conjugate), once
per step; that column is sigma_{n+1}, tested for finiteness.
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
    step that made the state (``_sigma_column``), when the state is made.
    ``log_x`` is the base scale in log-space; ``scales`` is the pair
    (x_{n-1}, x_n) of the step that produced this state (empty for n = 0).

    ``initial_state`` and ``advance`` also keep on the state they make its
    raw rows, the checked phi^n(Z), with the bound of their components
    that their check returned (inf: not known) and x_n (``_raw``); the
    next step evaluates them.  On a state made otherwise, ``replace``
    included, it is None, and the next step de-normalizes the state and
    checks it in full.  A state is compared, and hashed, by identity: its
    arrays have no truth value.
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


def _step(m: HoloMap, z: np.ndarray, w: np.ndarray, top: float) -> tuple:
    """One step of the raw rows phi^n(Z): ``(z, w, top, col, x_next)`` of the images.

    The rows entered ``m`` already (``_entered``), so its ``phi`` maps them
    and its ``t`` reads the sigma column off the images.  ``top`` bounds
    every component of the rows (inf: not known, then the largest is
    measured); past SCALE_LIMIT the images may leave the double range, and
    ScaleOverflowError is raised instead.  ``_images`` checks the images
    once and returns their bound.
    """
    if (top if top < math.inf else _magnitude(z, w)) > SCALE_LIMIT:
        raise ScaleOverflowError("evaluation would exceed the double-precision range")
    phi, t = m.conjugation or (m, _IDENTITY)
    z, w, top = _images(phi, z, w)
    return (z, w, top, *_sigma_column(t, z, w))


def _sigma_column(t: SiegelAutomorphism, z: np.ndarray, w: np.ndarray,
                  x_next: Optional[float] = None) -> tuple:
    """pi_1 of T on the rows that a step evaluates, packed by x_{n+1}, and x_{n+1}.

    T is ``_entered``'s: the identity, which hands back the rows' z, checked
    with them, for a map that is not a conjugate.  x_{n+1} is ``x_next`` if
    given, else Re pi_1 of T of row 0, the base.  Raises NonFiniteError, as
    the check of a row would, where pi_1 is not finite; a caller that minds
    the overflow warning holds ``np.errstate``.
    """
    col = _first_coordinate(t, z, w)
    if col is not z and not np.isfinite(col).all():
        raise NonFiniteError("non-finite coordinates")
    x_next = float(col[0].real) if x_next is None else x_next
    return col / x_next, x_next


def _made(n: int, z: np.ndarray, w: np.ndarray, top: float, x: float,
          col: np.ndarray, scales: tuple = ()) -> RenormalizedState:
    """The state of the raw rows ``z``/``w`` at step ``n`` and scale ``x``: S_n =
    (z / x, w / sqrt(x)), with the rows, their bound ``top`` and x kept for the next step."""
    z.setflags(write=False)
    w.setflags(write=False)
    state = RenormalizedState(n=n, log_x=math.log(x), z=z / x, w=w / math.sqrt(x), scales=scales,
                              sigma_col=col)
    object.__setattr__(state, "_raw", (z, w, top, x))
    return state


def _stacked(m: HoloMap, z: np.ndarray, w: np.ndarray, first: int) -> tuple:
    """``(phi, t, z, w, top, col)``: the checked rows ``z``/``w`` entered once
    (``_entered``), with the images by ``phi`` of rows ``first:``, checked
    once, stacked below; ``top`` bounds both checks (inf: not known), and
    ``col``, sigma_0 of the stack, is the rows' own z, then pi_1 of T of the images."""
    phi, t, z_in, w_in, top = _entered(m, z, w)
    img_z, img_w, img_top = _images(phi, z_in[first:], w_in[first:])
    col = np.concatenate((z, _sigma_column(t, img_z, img_w, 1.0)[0]))
    return phi, t, np.concatenate((z_in, img_z)), np.concatenate((w_in, img_w)), max(top, img_top), col


def initial_state(m: HoloMap, grid: EvaluationGrid) -> RenormalizedState:
    """S_0 on the rows: the base (1, 0) and the grid, entered once, then the grid's images."""
    points, base = grid.points, _base(m.dim)
    if points.dim != m.dim:
        raise DomainError("points of different dimensions")
    z, w, top, col = _stacked(m, np.concatenate(([base.z], points.z)),
                              np.concatenate((base.w[None, :], points.w)), 1)[2:]
    return _made(0, z, w, top, base.z.real, col)


def advance(state: RenormalizedState, m: HoloMap) -> RenormalizedState:
    """One renormalized step: S_{n+1} = (L_{n+1} o phi o L_n^{-1}) o S_n.

    ``_step`` maps every raw row (base, grid and grid images) in one array
    evaluation, a conjugated map's inner rows by its inner map, and checks
    the images once.  A state with no raw rows (made by ``replace``, say)
    is de-normalized by x_n and checked in full first, all before any
    image row.  The raw rows reach the double range where direct iteration
    does, so the scale ceiling is tested before the step and raised loudly
    instead of silently producing infinities.
    """
    if state._raw is None:
        if state.log_x + math.log(max(1.0, state.magnitude())) > LOG_SCALE_CEILING:
            raise ScaleOverflowError("evaluation would exceed the double-precision range")
        x_n = state.x
        z, w = x_n * state.z, math.sqrt(x_n) * state.w
        top = check_siegel_arrays(z, w)
    else:
        z, w, top, x_n = state._raw
    with np.errstate(over="ignore", invalid="ignore"):  # an overflow fails a check
        z, w, top, col, x_next = _step(m, z, w, top)
    return _made(state.n + 1, z, w, top, x_next, col, (x_n, x_next))


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
        replay of the points and their images stacked; on the grid, bit for bit
        the run's ``schroder_residuals``."""
        s = self._replayed(points, True)
        n = len(s) // 2
        return _schroder_defect(s[n:], s[:n], self.multiplier)

    def _replayed(self, points: Sequence[SiegelPoint], images: bool) -> np.ndarray:
        """sigma of the points, then of their images (``_stacked``) if ``images``.

        The points, of the map's width, enter once, then ride along the base
        orbit: they are stepped as many times as the run stepped, each step
        one ``_images`` that checks the images once, and read out by
        ``_sigma_column`` over the last x_{n+1}, as the run read the grid.
        """
        if not isinstance(points, SiegelBatch):
            points = tuple(points)
        if not len(points):
            return np.zeros(0, dtype=np.complex128)
        batch = SiegelBatch.from_points(points)
        if batch.w.shape[1] != self.map.dim - 1:  # before the rows enter, even with no stored step
            raise DomainError(
                f"points of dimension {batch.w.shape[1] + 1} for a map of dimension {self.map.dim}")
        if images:
            phi, t, z, w, _, col = _stacked(self.map, batch.z, batch.w, 0)
        else:
            phi, t, z, w, _ = _entered(self.map, batch.z, batch.w)
            col = batch.z
        if not self.scale_pairs:
            return col / 1.0  # x_0, Re z of the base (1, 0)
        for _ in self.scale_pairs:
            z, w, _ = _images(phi, z, w)
        with np.errstate(over="ignore", invalid="ignore"):  # a non-finite pi_1 raises
            return _sigma_column(t, z, w, self.scale_pairs[-1][1])[0]


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

    The base orbit is row 0 of the stack.  Once it has the steps that the
    probe rule reads (``_probe_steps``), the gate classifies it and
    estimates lambda and L from it, and stops the run on a map it rejects.
    If the stack stops first, row 0 goes on alone by ``compute_orbit``, from
    the base if ``initial_state`` failed; an error of the stack is raised
    only once the gate has passed, so the gate's own error comes first.

    Raises NotTendingToInfinityError, DegenerateGridError, or
    NonHyperbolicError when the inputs do not describe a hyperbolic
    approach to infinity; OrbitTooShortError, naming the base orbit's
    cutoff, when it meets the scale ceiling too soon to estimate from.
    """
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
            z, w, top, x_n = state._raw
            sigma, g = state.sigma, len(grid) + 1
            row_z.append(z[0])
            row_w.append(w[0])
        for _ in range(n_max if failed is None else 0):
            try:
                z, w, top, col, x_next = _step(m, z, w, top)
            except ScaleOverflowError:  # a black box that iterates raw may raise it too
                ceiling = len(cauchy)
                break
            except (ValueError, ArithmeticError) as exc:  # raised once the gate has passed
                if probe_at is None:
                    raise
                failed = exc
                break
            scale_pairs.append((x_n, x_next))
            x_n = x_next
            step = float(np.abs(col[1:g] - sigma).max())
            cauchy.append(step)
            sigma = col[1:g]
            if probe_at is not None:
                row_z.append(z[0])
                row_w.append(w[0].copy())
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
        state = _made(len(cauchy), z, w, top, x_n, col, scale_pairs[-1])

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
