"""Renormalized iteration solving the Schroder equation at a boundary fixed point.

For a hyperbolic self-map phi of H^N with Denjoy-Wolff point at infinity and
multiplier lam > 1, the normalized first coordinates

    sigma_n(Z) = pi_1(phi^n(Z)) / x_n,   x_n = Re pi_1(phi^n(base)),

converge to a solution of sigma o phi = lam sigma.  This module advances the
renormalized state

    S_n(Z) = (pi_1(phi^n(Z)) / x_n,  pi_w(phi^n(Z)) / sqrt(x_n))

one step at a time via S_{n+1} = (L_{n+1} o phi o L_n^{-1})(S_n), which keeps
every stored quantity O(1) and stores the base scale in log-space.  The
update is algebraically identical to direct iteration.  It still forms
x_n S_n to evaluate phi, so it stops at the same scale ceiling (x_n ~ 1e300)
as direct iteration; the state is checked against it before every step.

The base orbit, the grid and the grid images share the scales, so the state
is one stack of rows and a step is one map evaluation on arrays:
``maps.evaluate_batch`` advances every row at once through the map's
``batch``; black boxes alone go point by point.  The probe orbit steps one
row at a time.

Each step fixes the scale pair (x_n, x_{n+1}) from the base orbit alone.
run_valiron stores the pairs it used on the result, and
ValironResult.sigma_at replays the same step over the stored pairs for new
points, so off-grid values come from the very recursion that produced the
grid values, without evaluating the base orbit again.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, replace
from typing import Callable, Iterable, Optional, Sequence

import numpy as np

from .dynamics import (
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
    SiegelAutomorphism,
    SiegelBatch,
    SiegelPoint,
    apply_automorphism,
    apply_automorphism_arrays,
    cayley_to_ball,
    cayley_to_siegel,
    divide_by_real,
)
from .maps import (
    HoloMap,
    ScaleOverflowError,
    conjugate_map,
    evaluate_batch,
    make_siegel_map_from_ball,
)

MIN_GRID_HEIGHT = 0.1
HYPERBOLICITY_MARGIN = 1e-6
CONSECUTIVE_CAUCHY = 3
PROBE_MIN_STEPS = 32
PROBE_MAX_STEPS = 64
PROBE_TARGET_HEIGHT = 1e8
# ln of the largest base scale at which states can still be de-normalized
LOG_SCALE_CEILING = math.log(1e300)


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


@dataclass(frozen=True)
class RenormalizedState:
    """State of the pipeline after n steps, as one read-only stack of rows.

    ``z``/``w`` hold S_n on the rows: row 0 is the normalizing base orbit,
    then the grid points, then their phi-images (so sigma_n(phi(Z)) is always
    on hand).  ``base_sigma`` (a complex) and the read-only views ``sigma``
    and ``sigma_img`` are read from these rows when the state is made.
    ``log_x`` is the base scale in log-space; ``scales`` is the pair
    (x_{n-1}, x_n) of the step that produced this state (empty for n = 0).
    """

    n: int
    log_x: float
    z: np.ndarray
    w: np.ndarray
    scales: tuple = ()

    def __post_init__(self):
        self.z.setflags(write=False)
        self.w.setflags(write=False)
        g = len(self.z) // 2 + 1
        self.__dict__.update(base_sigma=complex(self.z[0]), sigma=self.z[1:g], sigma_img=self.z[g:])

    @property
    def x(self) -> float:
        return math.exp(self.log_x)

    def magnitude(self) -> float:
        """Largest stored component magnitude (boundedness diagnostic)."""
        mag = np.max(np.abs(self.z))
        return float(max(mag, np.max(np.abs(self.w))) if self.w.size else mag)


def _pack(z: np.ndarray, w: np.ndarray, x: float):
    """Renormalized coordinates (z / x, w / sqrt(x)) of the rows."""
    return divide_by_real(z, x), w / math.sqrt(x)


def initial_state(m: HoloMap, grid: EvaluationGrid, base: SiegelPoint) -> RenormalizedState:
    points = grid.points
    if base.dim != points.dim:
        raise DomainError("points of different dimensions")
    img_z, img_w = evaluate_batch(m, points.z, points.w)
    x0 = base.z.real
    z = np.concatenate(([base.z], points.z, img_z))
    z, w = _pack(z, np.concatenate((base.w[None, :], points.w, img_w)), x0)
    return RenormalizedState(n=0, log_x=math.log(x0), z=z, w=w)


def advance(state: RenormalizedState, m: HoloMap) -> RenormalizedState:
    """One renormalized step: S_{n+1} = (L_{n+1} o phi o L_n^{-1}) o S_n.

    Every row (base, grid and grid images) is de-normalized by x_n and
    mapped in one ``evaluate_batch`` call; the base image gives x_{n+1},
    which normalizes them all.  ``evaluate_batch`` checks every input row
    before any output row, so a step that rejects several rows may name
    another row than stepping the base first would.  De-normalizing needs
    x_n as a float, so a scale ceiling still exists; it is checked up-front
    and raised loudly instead of silently producing infinities.
    """
    if state.log_x + math.log(max(1.0, state.magnitude())) > LOG_SCALE_CEILING:
        raise ScaleOverflowError(
            "de-normalized evaluation would exceed the double-precision range"
        )
    x_n = state.x
    z, w = evaluate_batch(m, x_n * state.z, math.sqrt(x_n) * state.w)
    x_next = float(z[0].real)  # > 0: evaluate_batch checked the base image
    z, w = _pack(z, w, x_next)
    return RenormalizedState(
        n=state.n + 1, log_x=state.log_x + math.log(x_next / x_n), z=z, w=w, scales=(x_n, x_next)
    )


def intertwining_identity_check(state: RenormalizedState, m: HoloMap) -> float:
    """Max relative deviation of sigma_n(phi(Z)) = (x_{n+1}/x_n) sigma_{n+1}(Z).

    The identity is algebraic, so the deviation measures only rounding; a
    mis-cached scale breaks it immediately, which is what this guards.
    """
    nxt = advance(state, m)
    x_n, x_next = nxt.scales
    ratio = x_next / x_n
    lhs = state.sigma_img
    rhs = ratio * nxt.sigma
    scale = np.maximum(1.0, np.abs(rhs))
    return float(np.max(np.abs(lhs - rhs) / scale))


@dataclass(frozen=True)
class ValironResult:
    """Converged (or truncated) output of the renormalization pipeline."""

    map: HoloMap
    grid: EvaluationGrid
    base: SiegelPoint
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
    trace: tuple = ()
    _sigma_fn: Optional[Callable] = field(default=None, repr=False, compare=False)

    def sigma_at(self, points: Sequence[SiegelPoint]) -> np.ndarray:
        """Evaluate the converged sigma at arbitrary points.

        Replays the renormalized step over the stored scale pairs, so the
        points ride along the same base orbit and off-grid probes use
        exactly the pipeline that produced the grid samples.
        """
        if not isinstance(points, SiegelBatch):
            points = tuple(points)
        if not len(points):
            return np.zeros(0, dtype=np.complex128)
        if self._sigma_fn is not None:
            return self._sigma_fn(points)
        batch = SiegelBatch.from_points(points)
        sigma, v = _pack(batch.z, batch.w, self.base.z.real)
        for x_n, x_next in self.scale_pairs:
            sigma, v = _pack(*evaluate_batch(self.map, x_n * sigma, math.sqrt(x_n) * v), x_next)
        return sigma

    def residual_at(self, points: Sequence[SiegelPoint]) -> np.ndarray:
        """Schroder residual |sigma(phi q) - lam sigma(q)| / (1 + |sigma(q)|).

        One map evaluation gives the images; one replay of sigma runs over
        the points and the images stacked.
        """
        if not isinstance(points, SiegelBatch):
            points = tuple(points)
        if not len(points):
            return np.zeros(0)
        points = SiegelBatch.from_points(points)
        img_z, img_w = evaluate_batch(self.map, points.z, points.w)
        n = len(points)
        s = self.sigma_at(SiegelBatch._checked(
            np.concatenate((points.z, img_z)), np.concatenate((points.w, img_w))))
        return np.abs(s[n:] - self.multiplier * s[:n]) / (1.0 + np.abs(s[:n]))


def schroder_residual(m: HoloMap, sigma: Callable[[SiegelPoint], complex], q: SiegelPoint,
                      lam: Optional[float] = None) -> float:
    """Normalized defect of the Schroder equation at one point."""
    if lam is None:
        lam = m.multiplier
    sq = complex(sigma(q))
    s_img = complex(sigma(m.evaluator(q)))
    return abs(s_img - lam * sq) / (1.0 + abs(sq))


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


def run_valiron(
    m: HoloMap,
    grid: Optional[EvaluationGrid] = None,
    base: Optional[SiegelPoint] = None,
    tol: float = 1e-8,
    n_max: int = 200,
    record_trace: bool = False,
) -> ValironResult:
    """Run the renormalization pipeline to convergence.

    Stops once the sup-grid Cauchy increment |sigma_{n+1} - sigma_n| stays
    below ``tol`` for CONSECUTIVE_CAUCHY consecutive steps, else at
    ``n_max`` with ``converged = False``.  A base orbit that is only
    C-special (not special) is outside the construction's hypotheses; the
    run proceeds but the result is flagged.

    Raises NotTendingToInfinityError, DegenerateGridError, or
    NonHyperbolicError when the inputs do not describe a hyperbolic
    approach to infinity.
    """
    if m.domain == "ball":
        m = make_siegel_map_from_ball(m)
    if grid is None:
        grid = default_grid(m.dim)
    if base is None:
        base = SiegelPoint(1.0, np.zeros(m.dim - 1, dtype=np.complex128))

    warnings: list = []

    # probe adaptively: enough growth to classify and estimate, but not so
    # far that maps wrapped in coordinate changes lose boundary precision;
    # a slow orbit is continued, not recomputed
    probe = compute_orbit(m, base, PROBE_MIN_STEPS)
    if probe.cutoff is None and probe.x[-1] < PROBE_TARGET_HEIGHT:
        probe = compute_orbit(m, probe, PROBE_MAX_STEPS)
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

    state = initial_state(m, grid, base)
    trace = [state] if record_trace else []
    scale_pairs: list = []
    cauchy: list = []
    consecutive = 0
    converged = False
    for _ in range(n_max):
        try:
            nxt = advance(state, m)
        except ScaleOverflowError:
            warnings.append(
                f"scale ceiling reached at step {state.n}; stopping before n_max"
            )
            break
        step = float(np.max(np.abs(nxt.sigma - state.sigma)))
        cauchy.append(step)
        scale_pairs.append(nxt.scales)
        state = nxt
        if record_trace:
            trace.append(state)
        if step < tol:
            consecutive += 1
            if consecutive >= CONSECUTIVE_CAUCHY:
                converged = True
                break
        else:
            consecutive = 0

    residuals = np.abs(state.sigma_img - lam.value * state.sigma) / (1.0 + np.abs(state.sigma))
    return ValironResult(
        map=m,
        grid=grid,
        base=base,
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
        trace=tuple(trace),
    )


def conjugation_transport(result: ValironResult, t: SiegelAutomorphism) -> ValironResult:
    """Transport a converged result to the conjugated map T o phi o T^-1.

    With Z_0 = T^-1(1, 0), the transported solution is

        sigma~(W) = sigma(T^-1 W) / Re sigma(Z_0),

    normalized so that Re sigma~(1, 0) = 1; the multiplier is unchanged.
    The grid is moved to T(grid) and the samples rescaled accordingly.
    """
    one = SiegelPoint(1.0, np.zeros(result.map.dim - 1, dtype=np.complex128))
    if result.base != one:
        raise DomainError("transport is normalized at base (1, 0)")
    t_inv = t.inverse()
    z0 = apply_automorphism(t_inv, one)
    sigma_z0 = complex(result.sigma_at([z0])[0])
    if not sigma_z0.real > 0.0:
        raise DomainError("transport normalizer must have positive real part")
    factor = 1.0 / sigma_z0.real

    grid = result.grid.points
    moved_grid = EvaluationGrid(SiegelBatch(*apply_automorphism_arrays(t, grid.z, grid.w)))
    sigma = factor * result.sigma
    # phi_c(T Z) = T(phi Z), so the image samples transport by the same factor
    sigma_image = factor * result.sigma_image
    residuals = np.abs(sigma_image - result.multiplier * sigma) / (1.0 + np.abs(sigma))

    def transported_sigma(points):
        points = SiegelBatch.from_points(points)
        pre = SiegelBatch(*apply_automorphism_arrays(t_inv, points.z, points.w))
        return factor * result.sigma_at(pre)

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
