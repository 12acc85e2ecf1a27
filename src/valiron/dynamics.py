"""Orbit computation and asymptotic classification of Siegel-domain sequences.

A sequence tending to the vertex at infinity is classified three independent
ways and the verdicts are cross-checked:

(i)   membership of the tail in a Koranyi region K(INFINITY, M), over the
      whole fixed M grid at once;
(ii)  boundedness of the Kobayashi distances to the first-coordinate axis,
      k(Z_n, p_1(Z_n)), from the two-point distance formula;
(iii) raw ratio bounds ||w_n||^2 <= a x_n (a < 1) and |y_n| <= T x_n.

These are equivalent characterizations; a disagreement outside the ambiguity
band is a defect, not a representable state, and raises.

The tail is packed once into a ``SiegelBatch`` and every route runs on its
arrays, with the errors of the point-by-point computation.
Orbits are batches too: ``compute_orbit`` steps the map on one-row arrays
and checks each image row once; the orbit of a conjugated map is T of the
inner map's orbit, in one array call.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Optional, Sequence, Union

import numpy as np

from .geometry import (
    DomainError,
    NonFiniteError,
    SiegelBatch,
    SiegelPoint,
    _halfplane_distances,
    apply_automorphism_arrays,
    check_siegel_arrays,
    max_kobayashi,
    siegel_height,
)
from .maps import SCALE_LIMIT, HoloMap, _images

SPECIAL_RESIDUAL_TOL = 1e-6
AMBIGUITY_BAND = 1e-9
M_GRID = (1.1, 1.5, 2.0, 4.0, 8.0, 16.0, 32.0, 64.0, 128.0, 256.0, 512.0, 1024.0)
_M_GRID = np.array(M_GRID)
MIN_TAIL = 8
INFINITY_THRESHOLD = 100.0
MIN_ORBIT_FOR_ESTIMATES = 16


class NotTendingToInfinityError(ValueError):
    """The sequence tail does not escape toward the vertex at infinity."""


class AmbiguousClassificationError(ValueError):
    """A witness sits inside the tolerance band; no verdict is honest."""


class ClassificationDisagreementError(AssertionError):
    """The three classification routes disagree outside the band."""


class OrbitTooShortError(ValueError):
    """Estimator preconditions need a longer orbit."""


def tail_start(n: int) -> int:
    """Start index of the tail: the last half, at least MIN_TAIL terms."""
    return max(0, min(n - MIN_TAIL, n // 2))


@dataclass(frozen=True)
class Orbit:
    """Forward orbit of a Siegel-side map, its points held in one batch.

    ``x``, ``y`` and ``w_norm_sq`` are read from the batch when the orbit is
    made.  ``cutoff`` records a scale overflow that truncated the orbit; the
    points kept are still exact images of each other.  ``inner`` is, for a
    conjugated map ``T o phi o T^-1``, the orbit of ``phi`` from T^-1 of the
    start, which ``compute_orbit`` continues or cuts.
    """

    map: HoloMap
    points: SiegelBatch
    cutoff: Optional[str] = None
    inner: Optional["Orbit"] = field(default=None, repr=False, compare=False)

    def __post_init__(self):
        z = self.points.z
        self.__dict__.update(x=z.real, y=z.imag, w_norm_sq=self.points.norm_sq())

    def __len__(self) -> int:
        return len(self.points)


def compute_orbit(m: HoloMap, start: Union[SiegelPoint, "Orbit"], n_steps: int) -> Orbit:
    """Forward orbit [start, phi(start), ..., phi^n(start)].

    ``start`` may also be an orbit of ``m``: a shorter one is continued
    from its last point, a longer one cut to n + 1 points, and either way
    the result is, bit for bit, the orbit of its first point.  Each step
    maps one row and checks its image once; its input is the checked start
    or the previous checked image, so no row goes unchecked.  A scale
    overflow, or an image past the double range, does not raise: the orbit
    is returned truncated with the cutoff recorded, since the prefix is
    still valid data.

    The orbit of a conjugated map ``T o phi o T^-1`` is the start, then T of
    the orbit of ``phi`` from T^-1(start), which it carries as ``inner`` and
    continues or cuts with it.  T maps the new rows in one call, checked as
    one batch.  A row with Re z > SCALE_LIMIT ends the orbit after it; a
    non-finite row, or the inner orbit's end, before it.
    """
    if m.domain != "siegel":
        raise DomainError("orbits are computed on the Siegel side")
    if m.conjugation is not None:
        return _conjugated_orbit(m, start, n_steps)
    if isinstance(start, Orbit):
        points = start.points[:max(n_steps, 0) + 1]
    else:
        points = SiegelBatch.from_points([start])
    zs, ws = [points.z], [points.w]
    z, w = points.z[-1:], points.w[-1:]
    cutoff = None
    # the step of a finite point that overflows ends the orbit, without numpy's warning
    with np.errstate(over="ignore", invalid="ignore"):
        for k in range(len(points) - 1, n_steps):
            if z[0].real > SCALE_LIMIT:
                cutoff = f"scale overflow at step {k}"
                break
            try:
                z, w, _ = _images(m, z, w)
            except (OverflowError, NonFiniteError):
                cutoff = f"scale overflow at step {k}"
                break
            zs.append(z)
            ws.append(w)
    # every row is the checked start or an image that _images checked
    points = SiegelBatch._checked(np.concatenate(zs), np.concatenate(ws))
    return Orbit(map=m, points=points, cutoff=cutoff)


def _conjugated_orbit(m: HoloMap, start: Union[SiegelPoint, Orbit], n_steps: int) -> Orbit:
    """``compute_orbit`` of a conjugated map, as T of its inner orbit."""
    phi, t = m.conjugation
    if isinstance(start, Orbit) and start.inner is not None:
        kept, inner = start.points[:max(n_steps, 0) + 1], start.inner
    else:
        kept = start.points[:1] if isinstance(start, Orbit) else SiegelBatch.from_points([start])
        if n_steps <= 0:
            return Orbit(map=m, points=kept)
        with np.errstate(over="ignore", invalid="ignore"):
            pre = apply_automorphism_arrays(t.inverse(), kept.z, kept.w)
            try:
                check_siegel_arrays(*pre)
            except (OverflowError, NonFiniteError):
                return Orbit(map=m, points=kept, cutoff="scale overflow at step 0")
        inner = Orbit(map=phi, points=SiegelBatch._checked(*pre))
    inner = compute_orbit(phi, inner, n_steps)
    new = len(kept)
    with np.errstate(over="ignore", invalid="ignore"):
        z, w = apply_automorphism_arrays(t, inner.points.z[new:], inner.points.w[new:])
    finite = np.isfinite(z) & np.isfinite(w).all(axis=1)
    end = new - 1 + (len(z) if finite.all() else int(finite.argmin()))
    z, w = np.concatenate((kept.z, z))[:end + 1], np.concatenate((kept.w, w))[:end + 1]
    # a row that has a successor in the orbit is stepped only below the limit
    over = z.real[:end] > SCALE_LIMIT
    if over.any():
        end = int(over.argmax())
    if end >= new:
        check_siegel_arrays(z[new:end + 1], w[new:end + 1])
    cutoff = f"scale overflow at step {end}" if end < n_steps else None
    return Orbit(map=m, points=SiegelBatch._checked(z[:end + 1], w[:end + 1]), cutoff=cutoff,
                 inner=inner)


@dataclass(frozen=True)
class SequenceClassification:
    """Three-way verdict with numeric witnesses.

    special: residual ||w_n||^2 / x_n vanishes along the tail.
    c_special: distances to the first-coordinate axis bounded by C.
    restricted: |y_n| <= T x_n along the tail.
    koranyi_m: least grid amplitude whose region contains the tail.
    """

    special: bool
    c_special: Optional[float]
    restricted: bool
    restricted_t: float
    koranyi_m: Optional[float]
    a_witness: float
    tail_start: int
    residuals: np.ndarray
    m_predicted: float


def _check_tends_to_infinity(mods: np.ndarray) -> None:
    increasing = (mods[1:] > mods[:-1] * (1.0 - 1e-12)).all()
    if not increasing or mods[-1] < INFINITY_THRESHOLD:
        raise NotTendingToInfinityError(
            "tail moduli must increase beyond "
            f"{INFINITY_THRESHOLD:g}; got final |z| = {float(mods[-1])!r}"
        )


def classify_sequence(points: Sequence[SiegelPoint]) -> SequenceClassification:
    """Classify a sequence tending to infinity; see module docstring.

    ``points`` is a ``SiegelBatch`` or any sequence of points; the tail is
    packed into one batch once, and every route runs on its arrays.

    Raises NotTendingToInfinityError when the tail does not escape,
    AmbiguousClassificationError when a witness falls inside the band, and
    ClassificationDisagreementError if the three routes contradict each
    other outside the band (which would indicate a defect, not data).
    """
    if not isinstance(points, SiegelBatch):
        points = tuple(points)
    if len(points) < 2:
        raise OrbitTooShortError("need at least 2 points to classify")
    t0 = tail_start(len(points))
    tail = SiegelBatch.from_points(points[t0:])
    x, y = tail.z.real, tail.z.imag
    mods = np.hypot(x, y)  # abs(z), bit for bit
    _check_tends_to_infinity(mods)

    # route (iii): raw ratio witnesses
    residuals = tail.norm_sq() / x
    a_w = float(residuals.max())
    t_w = float((np.abs(y) / x).max())

    if abs(a_w - 1.0) <= AMBIGUITY_BAND:
        raise AmbiguousClassificationError("||w||^2/x witness inside the band at 1")

    # route (ii): Kobayashi distance to the axis, from the two-point formula
    c_w = max_kobayashi(tail.axis_tanh())
    if not math.isfinite(c_w):
        c_w = math.inf  # a NaN distance bounds nothing either

    c_special_present = a_w < 1.0 and math.isfinite(c_w)
    # routes (ii) and (iii) must agree: max distance == atanh(sqrt(a))
    if c_special_present:
        expected_c = math.atanh(math.sqrt(a_w))
        if abs(expected_c - c_w) > 1e-6 * (1.0 + expected_c):
            raise ClassificationDisagreementError(
                f"axis-distance witness {c_w!r} vs ratio witness {expected_c!r}"
            )

    # route (i): least amplitude on the grid whose region holds the whole
    # tail clear of the band
    inside = (tail.koranyi_margins(_M_GRID) > AMBIGUITY_BAND * np.maximum(1.0, mods)).all(axis=1)
    first = int(inside.argmax())
    koranyi_m = M_GRID[first] if inside[first] else None

    m_pred = math.sqrt(1.0 + t_w * t_w) / (1.0 - a_w) if a_w < 1.0 else math.inf

    # cross-checks between the routes (Lemma-style conversions)
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

    special = bool((residuals < SPECIAL_RESIDUAL_TOL).all() and residuals[-1] <= residuals[0])

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


@dataclass(frozen=True)
class EstimateWithUncertainty:
    value: float
    uncertainty: float


@dataclass(frozen=True)
class DriftEstimate:
    """Drift estimate L with the q_n diagnostic sequence.

    q_n = x_{n+1}/x_n + i (y_{n+1} - y_n)/x_n tends to lam + i L (lam - 1);
    the half-plane distances k(1, q_n) are non-increasing for special
    orbits, a monotonicity the estimators rely on.
    """

    value: float
    uncertainty: float
    q: np.ndarray
    k_to_one: np.ndarray


def _tail_estimate(orbit: Orbit, what: str, values: np.ndarray) -> EstimateWithUncertainty:
    """Median of ``values`` over the tail; uncertainty is the max deviation."""
    if len(orbit) < MIN_ORBIT_FOR_ESTIMATES:
        raise OrbitTooShortError(
            f"{what} estimation needs >= {MIN_ORBIT_FOR_ESTIMATES} points, got {len(orbit)}"
        )
    window = values[tail_start(values.size):]
    med = float(np.median(window))
    return EstimateWithUncertainty(value=med, uncertainty=float(np.max(np.abs(window - med))))


def estimate_multiplier(orbit: Orbit) -> EstimateWithUncertainty:
    """Median of x_{n+1}/x_n over the tail; uncertainty is the max deviation."""
    return _tail_estimate(orbit, "multiplier", orbit.x[1:] / orbit.x[:-1])


def estimate_drift(orbit: Orbit) -> DriftEstimate:
    """Median of y_n/x_n over the tail, with the q_n diagnostics.

    Precondition: the orbit tends to infinity, as classify_sequence checks;
    callers classify the orbit themselves.  No restriction check is needed,
    since a finite orbit always has a finite witness |y_n| <= T x_n.
    """
    drift = _tail_estimate(orbit, "drift", orbit.y / orbit.x)
    q = (orbit.x[1:] / orbit.x[:-1]) + 1j * (np.diff(orbit.y) / orbit.x[:-1])
    return DriftEstimate(drift.value, drift.uncertainty, q, _halfplane_distances(1.0, q))


def julia_margin(m: HoloMap, q: SiegelPoint) -> float:
    """siegel_height(phi(q)) - lam * siegel_height(q); nonnegative by Julia."""
    if m.domain != "siegel":
        raise DomainError("julia_margin is a Siegel-side quantity")
    return siegel_height(m.evaluator(q)) - m.multiplier * siegel_height(q)


@dataclass(frozen=True)
class DynamicsSummary:
    multiplier: EstimateWithUncertainty
    drift: DriftEstimate
    classification: SequenceClassification
    q_final: complex


def summarize_orbit(orbit: Orbit) -> DynamicsSummary:
    """Bundle the classification and both estimates for reporting."""
    cls = classify_sequence(orbit.points)
    lam = estimate_multiplier(orbit)
    drift = estimate_drift(orbit)
    return DynamicsSummary(
        multiplier=lam,
        drift=drift,
        classification=cls,
        q_final=complex(drift.q[-1]),
    )
