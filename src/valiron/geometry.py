"""Invariant geometry of the unit ball and the Siegel upper half-space.

Two models of the same rank-one symmetric domain are supported:

* the unit ball ``B^N = {zeta in C^N : ||zeta|| < 1}``,
* the Siegel domain ``H^N = {(z, w) in C x C^(N-1) : Re z > ||w||^2}``,

linked by the Cayley transform.  The Hermitian product used throughout is
``<u, v> = sum_j u_j * conj(v_j)`` (second slot conjugated).

All values are plain data; nothing here mutates its inputs.  Strict domain
inequalities are enforced with a relative slack of ``BOUNDARY_SLACK``;
points inside the slack band are rejected, never clamped.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass
from typing import Iterable, Optional, Sequence, Union

import numpy as np

# Tolerances are compile-time constants, read-only by convention.
BOUNDARY_SLACK = 1e-12      # relative slack on strict domain inequalities
MEMBERSHIP_BAND = 1e-9      # ambiguity band around region boundaries
UNIT_NORM_SLACK = 1e-12     # allowed deviation of boundary directions from norm 1
# check_siegel_arrays tests up to this many rows on Python floats: the array
# test costs 12 to 20 us at any size, the float test 1 to 1.5 us a row
# (crossover measured at about 10 rows for N = 5, 12 to 16 for N = 2 and 3)
FEW_ROWS = 8


class DomainError(ValueError):
    """Input violates a domain invariant (outside, or inside the slack band)."""


class NonFiniteError(DomainError):
    """A coordinate is NaN or infinite."""


class _InfinityVertex:
    """Tagged symbolic vertex at infinity; never a numeric sentinel."""

    _instance = None

    def __new__(cls):
        if cls._instance is None:
            cls._instance = super().__new__(cls)
        return cls._instance

    def __repr__(self) -> str:
        return "INFINITY"


INFINITY = _InfinityVertex()


def _as_complex_vector(coords: Iterable[complex]) -> np.ndarray:
    if isinstance(coords, np.ndarray) and coords.ndim == 1:
        return coords.astype(np.complex128)  # a copy, a third of the tuple path's cost
    arr = np.asarray(tuple(coords), dtype=np.complex128)
    if arr.ndim != 1:
        raise DomainError("coordinates must form a one-dimensional vector")
    return arr


def herm(u: np.ndarray, v: np.ndarray) -> complex:
    """Hermitian product <u, v> = sum u_j conj(v_j)."""
    return complex(np.dot(u, np.conjugate(v)))


def norm_sq(u: np.ndarray) -> float:
    return float(np.dot(u, np.conjugate(u)).real)


def _quiet_norm_sq(u: np.ndarray) -> float:
    """``norm_sq(u)`` without numpy's overflow and invalid-value warnings.

    An infinite or huge coordinate makes the dot product overflow; the
    point constructors reject such a point with their own message.  Only
    such vectors are summed under ``np.errstate``, whose entry costs about
    as much as the sum, on every point made.
    """
    if all(abs(c.real) < 1e100 and abs(c.imag) < 1e100 for c in u.tolist()):
        return norm_sq(u)
    with np.errstate(over="ignore", invalid="ignore"):
        return norm_sq(u)


@dataclass(frozen=True)
class BallPoint:
    """Point of the open unit ball B^N.

    Rejects NaN coordinates and inputs with ``1 - ||coords||^2 <= BOUNDARY_SLACK``.
    """

    coords: np.ndarray

    def __init__(self, coords: Iterable[complex]):
        arr = _as_complex_vector(coords)
        if arr.size < 1:
            raise DomainError("ball point needs at least one coordinate")
        nsq = _quiet_norm_sq(arr)
        if math.isnan(nsq):
            raise NonFiniteError("non-finite coordinates")
        if 1.0 - nsq <= BOUNDARY_SLACK:
            raise DomainError(f"not strictly inside the unit ball: ||p||^2 = {nsq!r}")
        arr.setflags(write=False)
        object.__setattr__(self, "coords", arr)

    @property
    def dim(self) -> int:
        return int(self.coords.size)

    def __eq__(self, other) -> bool:
        return isinstance(other, BallPoint) and np.array_equal(self.coords, other.coords)

    def __hash__(self):
        return hash(tuple(self.coords.tolist()))


@dataclass(frozen=True)
class BoundaryDirection:
    """Unit vector marking a boundary point of B^N (norm 1 within 1e-12)."""

    coords: np.ndarray

    def __init__(self, coords: Iterable[complex]):
        arr = _as_complex_vector(coords)
        if abs(math.sqrt(norm_sq(arr)) - 1.0) > UNIT_NORM_SLACK:
            raise DomainError(f"boundary direction must have unit norm, got {math.sqrt(norm_sq(arr))!r}")
        arr.setflags(write=False)
        object.__setattr__(self, "coords", arr)

    @property
    def dim(self) -> int:
        return int(self.coords.size)

    def __eq__(self, other) -> bool:
        return isinstance(other, BoundaryDirection) and np.array_equal(self.coords, other.coords)

    def __hash__(self):
        return hash(tuple(self.coords.tolist()))


def e1_direction(n: int) -> BoundaryDirection:
    """Distinguished boundary direction (1, 0, ..., 0) in C^n."""
    v = np.zeros(n, dtype=np.complex128)
    v[0] = 1.0
    return BoundaryDirection(v)


@dataclass(frozen=True)
class SiegelPoint:
    """Point of the Siegel domain H^N: Re z > ||w||^2, strictly.

    ``z`` is the distinguished first coordinate, ``w`` the remaining N-1
    coordinates.  ``N = 1`` is allowed; ``w`` is then empty.  A non-finite
    coordinate is rejected as such; a finite ``w`` whose norm overflows is
    rejected as outside the domain.
    """

    z: complex
    w: np.ndarray

    def __init__(self, z: complex, w: Iterable[complex] = ()):
        zc = complex(z)
        arr = _as_complex_vector(w)
        nsq = _quiet_norm_sq(arr)
        if not (math.isfinite(zc.real) and math.isfinite(zc.imag)) or (
            not math.isfinite(nsq) and (math.isnan(nsq) or not np.isfinite(arr).all())
        ):
            raise NonFiniteError("non-finite coordinates")
        height = zc.real - nsq
        scale = max(1.0, abs(zc), nsq)
        if height <= BOUNDARY_SLACK * scale:
            raise DomainError(
                f"not strictly inside the Siegel domain: Re z - ||w||^2 = {height!r}"
            )
        arr.setflags(write=False)
        object.__setattr__(self, "z", zc)
        object.__setattr__(self, "w", arr)

    @property
    def dim(self) -> int:
        return int(self.w.size) + 1

    @property
    def x(self) -> float:
        return self.z.real

    @property
    def y(self) -> float:
        return self.z.imag

    def __eq__(self, other) -> bool:
        return (
            isinstance(other, SiegelPoint)
            and self.z == other.z
            and np.array_equal(self.w, other.w)
        )

    def __hash__(self):
        return hash((self.z, tuple(self.w.tolist())))


def siegel_height(q: SiegelPoint) -> float:
    """Height Re z - ||w||^2; positive on the domain, 0 on the boundary."""
    return q.z.real - norm_sq(q.w)


def check_siegel_arrays(z: np.ndarray, w: np.ndarray) -> None:
    """Apply the checks of ``SiegelPoint`` to every row of ``(z, w)``.

    ``z`` has shape (n,) and ``w`` shape (n, N-1).  A row is rejected exactly
    when ``SiegelPoint(z[i], w[i])`` rejects it, and the ``DomainError`` of
    the first rejected row carries the scalar message.  A clear-margin test
    runs on Python floats for up to ``FEW_ROWS`` rows and on whole arrays
    above; a row that fails it (non-finite rows always do), or passes it by
    less than the rounding gap between these norms and ``norm_sq``, is
    decided by the scalar constructor.
    """
    rounding = 16.0 * (w.shape[1] + 1) * math.ulp(1.0)
    if z.shape[0] <= FEW_ROWS:
        for zi, wi in zip(z.tolist(), w.tolist()):
            nsq = 0.0
            for c in wi:
                nsq += c.real * c.real + c.imag * c.imag
            scale = max(1.0, math.hypot(zi.real, zi.imag), nsq)
            margin = (zi.real - nsq) - BOUNDARY_SLACK * scale
            # max() drops a NaN that np.maximum would keep: test Im z itself
            if not (margin > rounding * (nsq + scale) and math.isfinite(zi.imag)):
                SiegelPoint(zi, wi)
        return
    with np.errstate(invalid="ignore", over="ignore"):
        nsq = _norm_sq_rows(w)
        scale = np.maximum(np.abs(z), nsq)
        np.maximum(scale, 1.0, out=scale)
        margin = (z.real - nsq) - BOUNDARY_SLACK * scale
        clear = margin > rounding * (nsq + scale)
    if not clear.all():
        for i in np.flatnonzero(~clear):
            SiegelPoint(z[i], w[i])


def _checked_point(z: complex, w: np.ndarray) -> SiegelPoint:
    """A SiegelPoint from coordinates that already passed its checks.

    ``w`` must be a read-only row; ``SiegelBatch`` hands out its rows so.
    """
    p = object.__new__(SiegelPoint)
    p.__dict__.update(z=z, w=w)
    return p


def _norm_sq_rows(w: np.ndarray) -> np.ndarray:
    """``norm_sq(w[i])`` for every row: within N u relative."""
    return (w.real * w.real + w.imag * w.imag).sum(axis=-1)


def _herm_rows(u: np.ndarray, v: np.ndarray) -> np.ndarray:
    """``herm(u[i], v[i])`` for every row; ``v`` may be a single vector.

    The products are taken on the real parts: numpy's complex product uses
    a fused multiply-add for some shapes only, so a row could round apart
    from its batch.  The parts are set, not joined as ``re + 1j * im``,
    whose 0 * inf is NaN.  Each part is within N u of the sum of the
    moduli of its 2 (N - 1) products.
    """
    out = (u.real * v.real + u.imag * v.imag).sum(axis=-1).astype(np.complex128)
    out.imag = (u.imag * v.real - u.real * v.imag).sum(axis=-1)
    return out


def _height_ratio(h_p, h_q, mod: np.ndarray, parts: Optional[np.ndarray] = None) -> np.ndarray:
    """``4 h_P h_Q / (mod * mod)`` row by row.

    Where ``mod * mod`` overflows from a finite ``mod``, the ratio is taken
    in the scaled form ``(2 h_P / mod) * (2 h_Q / mod)``, on those rows
    only.  When ``mod`` is ``abs`` of the complex ``parts``, ``abs``
    overflowing from finite parts raises as Python's ``abs`` does.  Call it
    with overflow warnings off.
    """
    sq = mod * mod
    ratio = 4.0 * h_p * h_q / sq
    if not sq.max() < math.inf:
        if parts is not None and (np.isinf(mod) & np.isfinite(parts)).any():
            raise OverflowError("absolute value too large")
        over = np.isinf(sq) & np.isfinite(mod)
        ratio[over] = ((2.0 * h_p / mod) * (2.0 * h_q / mod))[over]
    return ratio


@dataclass(frozen=True, eq=False)
class SiegelBatch:
    """Read-only sequence of points of H^N held as arrays.

    ``z`` has shape (n,) and ``w`` shape (n, N-1).  The rows are checked
    once, by ``check_siegel_arrays``, when the batch is built; ``len``,
    integer indexing and iteration then hand out ``SiegelPoint``s without
    checking them again, and a slice is again a batch.  The array forms
    below are the formulas of the scalar functions they name, in plain
    numpy.  A row gets the same bits alone as inside any batch; each form
    states its error against the formula in exact arithmetic, in units of
    u = 2^-53.
    """

    z: np.ndarray
    w: np.ndarray
    # made on first use: norm_sq of the rows, and the rows as points
    _nsq = None
    _row_points = None

    def __init__(self, z: Iterable[complex], w: Iterable):
        z = np.array(z, dtype=np.complex128)
        w = np.array(w, dtype=np.complex128)
        if z.ndim != 1 or w.ndim != 2 or w.shape[0] != z.shape[0]:
            raise DomainError("a batch needs z of shape (n,) and w of shape (n, N-1)")
        check_siegel_arrays(z, w)
        z.setflags(write=False)
        w.setflags(write=False)
        object.__setattr__(self, "z", z)
        object.__setattr__(self, "w", w)

    @classmethod
    def _checked(cls, z: np.ndarray, w: np.ndarray) -> "SiegelBatch":
        """Batch over rows that already passed the checks of ``SiegelPoint``, made read-only."""
        z.setflags(write=False)
        w.setflags(write=False)
        batch = object.__new__(cls)
        batch.__dict__.update(z=z, w=w)
        return batch

    @classmethod
    def from_points(cls, points: Sequence[SiegelPoint]) -> "SiegelBatch":
        """Pack points into one batch; they were checked when they were made."""
        if isinstance(points, SiegelBatch):
            return points
        points = tuple(points)
        if not points:
            raise DomainError("a batch needs at least one point")
        try:
            w = np.array([p.w for p in points], dtype=np.complex128)
        except ValueError:
            raise DomainError("points of different dimensions") from None
        z = np.array([p.z for p in points], dtype=np.complex128)
        return cls._checked(z, w.reshape(len(points), points[0].dim - 1))

    def __len__(self) -> int:
        return self.z.shape[0]

    def __getitem__(self, i):
        if isinstance(i, slice):
            if i.indices(len(self)) == (0, len(self), 1):
                return self  # as a tuple's whole slice is the tuple
            part = SiegelBatch._checked(self.z[i], self.w[i])
            if self._nsq is not None:
                object.__setattr__(part, "_nsq", self._nsq[i])
            return part
        return self._points()[i]

    def __iter__(self):
        return iter(self._points())

    def _points(self) -> tuple:
        """The rows as points, made on first use."""
        if self._row_points is None:
            points = tuple(map(_checked_point, self.z.tolist(), self.w))
            object.__setattr__(self, "_row_points", points)
        return self._row_points

    def __eq__(self, other) -> bool:
        return (
            isinstance(other, SiegelBatch)
            and np.array_equal(self.z, other.z)
            and np.array_equal(self.w, other.w)
        )

    @property
    def dim(self) -> int:
        return self.w.shape[1] + 1

    def norm_sq(self) -> np.ndarray:
        """``norm_sq(w)`` of every row, computed once: within N u relative."""
        if self._nsq is None:
            nsq = _norm_sq_rows(self.w)
            nsq.setflags(write=False)
            object.__setattr__(self, "_nsq", nsq)
        return self._nsq

    def height(self) -> np.ndarray:
        """``siegel_height`` of every row: within u |Re z| + (N + 1) u ||w||^2."""
        return self.z.real - self.norm_sq()

    def koranyi_margins(self, amplitudes: Sequence[float]) -> np.ndarray:
        """``koranyi_margin(K(INFINITY, M), row)``, shape (len(amplitudes), n)."""
        x = self.z.real
        m = np.asarray(amplitudes, dtype=np.float64)[:, None]
        return (x - np.hypot(x + 1.0, self.z.imag) / m) - self.norm_sq()

    def axis_tanh(self) -> np.ndarray:
        """tanh of ``kobayashi_distance(row, project(p_1, row))`` for every row.

        The formula of ``kobayashi_tanh`` with the axis image ``(z, 0)`` put
        in: the cross term vanishes, the image has height ``Re z`` and
        ``z_Q + conj(z_P)`` is ``2 Re z``, so this rounds as the full
        formula does on the projected rows, with the same error bound.
        """
        x = self.z.real
        with np.errstate(over="ignore", invalid="ignore"):
            ratio = _height_ratio(self.height(), x, x + x)
            return np.sqrt(np.maximum(1.0 - ratio, 0.0))

    def kobayashi_tanh(self, other: "SiegelBatch") -> np.ndarray:
        """tanh of ``kobayashi_distance(self[i], other[i])`` for every row.

        Rows where the distance is 0 give 0, rows where it is infinite give
        values >= 1, and NaN stays NaN; ``max_kobayashi`` turns these into
        the largest distance.  Raises the ``OverflowError`` that the scalar
        distance raises where ``abs`` overflows from finite parts.  With e
        the error of the ratio ``4 h_P h_Q / |s|^2`` (a few u of it, more
        where a height cancels), a value t is within min(e / t, sqrt(e)),
        plus a rounding, of the exact one.
        """
        if self.dim != other.dim:
            raise DomainError("dimension mismatch")
        with np.errstate(over="ignore", invalid="ignore"):
            s = other.z + self.z.conj() - 2.0 * _herm_rows(other.w, self.w)
            ratio = _height_ratio(self.height(), other.height(), np.hypot(s.real, s.imag), s)
            return np.sqrt(np.maximum(1.0 - ratio, 0.0))

    def project(self, rho: "LinearProjectionAtInfinity") -> "SiegelBatch":
        """``project(rho, row)`` for every row, with its check and message.

        Each part of the first coordinate is within (N + 2) u of
        ``|z| + 2 ||a||^2 + 2 ||w|| ||a||``, the sum of the moduli of its terms.
        """
        a = rho.a
        if a.size != self.w.shape[1]:
            raise DomainError("projection vector dimension mismatch")
        z = self.z + 2.0 * _quiet_norm_sq(a) + 2.0 * _herm_rows(self.w, a)
        w = np.empty_like(self.w)
        w[:] = -a
        try:
            check_siegel_arrays(z, w)
        except DomainError as exc:
            raise DomainError(f"projected image left the Siegel domain: {exc}") from exc
        return SiegelBatch._checked(z, w)

    def left_inverse(self, rho: "LinearProjectionAtInfinity") -> np.ndarray:
        """``left_inverse_value(rho, row)`` for every row, with the error bound of ``project``."""
        a = rho.a
        if a.size != self.w.shape[1]:
            raise DomainError("projection vector dimension mismatch")
        return self.z + _quiet_norm_sq(a) + 2.0 * _herm_rows(self.w, a)


def max_kobayashi(tanh: np.ndarray) -> float:
    """Largest distance ``atanh`` of ``SiegelBatch.kobayashi_tanh`` values.

    As ``np.max`` of the scalar distances: NaN wins, then infinity (tanh
    >= 1).  ``atanh`` is monotone, so one ``math.atanh`` of the largest
    value is the largest distance.
    """
    top = float(np.max(tanh))
    return math.inf if top >= 1.0 else math.atanh(top)


def cayley_to_siegel(p: BallPoint) -> SiegelPoint:
    """Cayley transform B^N -> H^N.

    C(zeta_1, zeta') = ((1 + zeta_1)/(1 - zeta_1), zeta'/(1 - zeta_1)).
    The pole zeta_1 = 1 cannot occur for interior points but guards anyway.
    """
    zeta1 = complex(p.coords[0])
    denom = 1.0 - zeta1
    if abs(denom) <= BOUNDARY_SLACK:
        raise DomainError("Cayley transform undefined at zeta_1 = 1")
    z = (1.0 + zeta1) / denom
    w = p.coords[1:] / denom
    return SiegelPoint(z, w)


def cayley_to_ball(q: SiegelPoint) -> BallPoint:
    """Inverse Cayley transform H^N -> B^N.

    zeta_1 = (z - 1)/(z + 1), zeta' = 2 w/(z + 1).
    """
    denom = q.z + 1.0
    zeta1 = (q.z - 1.0) / denom
    zeta_rest = 2.0 * q.w / denom
    return BallPoint(np.concatenate(([zeta1], zeta_rest)))


def horoball_value(p: BallPoint, tau: BoundaryDirection) -> float:
    """Horoball level |1 - <p, tau>|^2 / (1 - ||p||^2) at tau.

    The horoball E(tau, t) is the sublevel set {value < 1/t}; smaller values
    mean deeper inside horoballs centered at tau.
    """
    if p.dim != tau.dim:
        raise DomainError("dimension mismatch between point and direction")
    num = abs(1.0 - herm(p.coords, tau.coords)) ** 2
    den = 1.0 - norm_sq(p.coords)
    return num / den


@dataclass(frozen=True)
class KoranyiRegion:
    """Approach region with a boundary vertex and an amplitude.

    Ball model: vertex tau in dB^N, amplitude R > 1/2, region
    ``|1 - <z, tau>| < R (1 - ||z||^2)``.  Siegel model: vertex INFINITY,
    amplitude M > 1, region ``||w||^2 < Re z - |z + 1| / M``.  Under the
    Cayley transform K(e_1, R) corresponds to K(INFINITY, 2R).
    """

    domain: str
    vertex: Union[BoundaryDirection, _InfinityVertex]
    amplitude: float

    def __post_init__(self):
        if self.domain == "ball":
            if not isinstance(self.vertex, BoundaryDirection):
                raise DomainError("ball region requires a BoundaryDirection vertex")
            if not self.amplitude > 0.5:
                raise DomainError("ball amplitude must satisfy R > 1/2")
        elif self.domain == "siegel":
            if self.vertex is not INFINITY:
                raise DomainError("siegel region vertex must be INFINITY")
            if not self.amplitude > 1.0:
                raise DomainError("siegel amplitude must satisfy M > 1")
        else:
            raise DomainError(f"unknown domain tag {self.domain!r}")


def koranyi_region_at_infinity(m_amplitude: float) -> KoranyiRegion:
    return KoranyiRegion("siegel", INFINITY, float(m_amplitude))


def koranyi_margin(region: KoranyiRegion, p: Union[BallPoint, SiegelPoint]) -> float:
    """Signed distance-like margin to the region boundary (positive inside)."""
    if region.domain == "ball":
        if not isinstance(p, BallPoint):
            raise DomainError("ball region expects a BallPoint")
        tau = region.vertex
        return region.amplitude * (1.0 - norm_sq(p.coords)) - abs(
            1.0 - herm(p.coords, tau.coords)
        )
    if not isinstance(p, SiegelPoint):
        raise DomainError("siegel region expects a SiegelPoint")
    return (p.z.real - abs(p.z + 1.0) / region.amplitude) - norm_sq(p.w)


def koranyi_classify(region: KoranyiRegion, p: Union[BallPoint, SiegelPoint]) -> str:
    """Three-valued membership: 'in', 'out', or 'band' near the boundary.

    The band is |margin| <= MEMBERSHIP_BAND relative to the point scale;
    callers that need a boolean must decide how to treat 'band' explicitly.
    """
    margin = koranyi_margin(region, p)
    if region.domain == "ball":
        scale = 1.0
    else:
        scale = max(1.0, abs(p.z))
    if abs(margin) <= MEMBERSHIP_BAND * scale:
        return "band"
    return "in" if margin > 0 else "out"


def koranyi_contains(region: KoranyiRegion, p: Union[BallPoint, SiegelPoint]) -> bool:
    """Boolean membership; band points count as outside (conservative)."""
    return koranyi_classify(region, p) == "in"


# -- Kobayashi distance ------------------------------------------------------


def mobius_involution(a: BallPoint) -> "_Mobius":
    """Ball automorphism phi_a with phi_a(0) = a, phi_a(a) = 0, involutive."""
    return _Mobius(a.coords.copy())


class _Mobius:
    """phi_a(z) = (a - P_a z - s_a Q_a z) / (1 - <z, a>), the standard involution.

    P_a is the orthogonal projection onto C a, Q_a = I - P_a and
    s_a = sqrt(1 - ||a||^2).
    """

    def __init__(self, a: np.ndarray):
        self.a = a
        self.a_sq = norm_sq(a)
        self.s = math.sqrt(max(0.0, 1.0 - self.a_sq))

    def apply(self, p: BallPoint) -> BallPoint:
        return BallPoint(self.apply_raw(p.coords))

    def apply_raw(self, z: np.ndarray) -> np.ndarray:
        if self.a_sq == 0.0:
            return -z
        za = herm(z, self.a)
        proj = (za / self.a_sq) * self.a
        perp = z - proj
        denom = 1.0 - za
        return (self.a - proj - self.s * perp) / denom


def kobayashi_distance(
    p: Union[BallPoint, SiegelPoint], q: Union[BallPoint, SiegelPoint]
) -> float:
    """Kobayashi distance, in either model.

    Ball pairs: move ``p`` to the origin with the Mobius involution, then
    ``tanh^-1`` of the image norm.  Siegel pairs use the Cayley transport
    of that formula,

        tanh^2 k(P, Q) = 1 - 4 h(P) h(Q) / |z_Q + conj(z_P) - 2<w_Q, w_P>|^2,

    which stays finite at heights where ball coordinates would round onto
    the sphere: a pair is one row of ``SiegelBatch.kobayashi_tanh``, which
    takes the ratio as ``(2 h(P) / |s|) (2 h(Q) / |s|)`` where the squared
    modulus |s|^2 overflows.  The one-point
    special cases ``k(0, z) = tanh^-1 ||z||`` and
    ``k((z,0),(z,w)) = tanh^-1(||w|| / sqrt(Re z))`` fall out of these.
    """
    if isinstance(p, SiegelPoint) and isinstance(q, SiegelPoint):
        p, q = SiegelBatch.from_points([p]), SiegelBatch.from_points([q])
        return max_kobayashi(p.kobayashi_tanh(q))
    if not (isinstance(p, BallPoint) and isinstance(q, BallPoint)):
        raise DomainError("kobayashi_distance expects two points of the same model")
    if p.dim != q.dim:
        raise DomainError("dimension mismatch")
    image = mobius_involution(p).apply_raw(q.coords)
    r = math.sqrt(norm_sq(image))
    if r >= 1.0:
        # only reachable through rounding on near-boundary pairs
        return math.inf
    return math.atanh(r)


# -- Automorphisms of the Siegel domain --------------------------------------


@dataclass(frozen=True)
class SiegelAutomorphism:
    """Automorphism of H^N fixing the vertex at infinity, as the triple

        (x, y, a): (z, w) -> ((z + ||a||^2 + 2 <w, a> - i y) / x, (w + a) / sqrt(x)),

    the Heisenberg translation by ``a``, then the scale-translate by
    ``(x, y)``, with x > 0 and every parameter finite.  These automorphisms
    form a group, and ``composite`` and ``inverse`` give the triple of a
    product or an inverse in closed form.  A zero-length ``a`` is no
    translation, so a scale fits every dimension.
    """

    x: float = 1.0
    y: float = 0.0
    a: np.ndarray = ()

    def __post_init__(self):
        a = _as_complex_vector(self.a)
        a.setflags(write=False)
        object.__setattr__(self, "a", a)
        if not self.x > 0.0:
            raise DomainError("scale-translate requires x > 0")
        if not (math.isfinite(self.x) and math.isfinite(self.y) and np.isfinite(a).all()):
            raise NonFiniteError("non-finite automorphism parameters")

    @staticmethod
    def scale(x: float, y: float = 0.0) -> "SiegelAutomorphism":
        return SiegelAutomorphism(float(x), float(y))

    @staticmethod
    def translate(a: Iterable[complex]) -> "SiegelAutomorphism":
        return SiegelAutomorphism(a=a)

    @staticmethod
    def composite(factors: Sequence["SiegelAutomorphism"]) -> "SiegelAutomorphism":
        """The factors applied first to last, as one triple."""
        factors = iter(factors)
        return functools.reduce(SiegelAutomorphism._then, factors, next(factors, SiegelAutomorphism()))

    def _then(self, t: "SiegelAutomorphism") -> "SiegelAutomorphism":
        """This automorphism, then ``t``: with c = sqrt(x_1) a_2, the triple
        (x_1 x_2, y_1 + x_1 y_2 - 2 Im <a_1, c>, a_1 + c)."""
        y, a = self.y + self.x * t.y, self.a
        if t.a.size:
            if a.size and a.size != t.a.size:
                raise DomainError("translation vector dimension mismatch")
            with np.errstate(over="ignore", invalid="ignore"):  # rejected as non-finite below
                c = math.sqrt(self.x) * t.a
                y, a = (y - 2.0 * herm(a, c).imag, a + c) if a.size else (y, c)
        return SiegelAutomorphism(self.x * t.x, y, a)

    def inverse(self) -> "SiegelAutomorphism":
        """The triple (1 / x, -y / x, -a / sqrt(x))."""
        with np.errstate(over="ignore"):
            a = -self.a / math.sqrt(self.x)
        return SiegelAutomorphism(1.0 / self.x, -self.y / self.x, a)


def apply_automorphism(t: SiegelAutomorphism, q: SiegelPoint) -> SiegelPoint:
    """Apply t to q, as a one-row ``apply_automorphism_arrays``; the image is checked."""
    z, w = apply_automorphism_arrays(t, np.array([q.z]), q.w[None, :])
    return SiegelPoint(z[0], w[0])


def apply_automorphism_arrays(t: SiegelAutomorphism, z: np.ndarray, w: np.ndarray):
    """Apply t to every row of ``(z, w)``.

    Shapes are (n,) and (n, N-1); rows are not validated.  The translation
    adds ``||a||^2 + 2 <w, a>`` to z within (N + 2) u of
    ``|z| + ||a||^2 + 2 ||w|| ||a||`` in each part; the scale then rounds
    each part of z three times (the shift, 1 / x and the product) and w
    twice (sqrt(x) and the quotient).  The translation, the shift and the
    division are each skipped where they are the identity, so a translation
    alone keeps the finite part of an image whose other part overflows:
    numpy divides by x as by x + 0i, and 0 * inf is NaN.
    """
    a = t.a
    if a.size:
        if a.size != w.shape[1]:
            raise DomainError("translation vector dimension mismatch")
        z, w = z + norm_sq(a) + 2.0 * _herm_rows(w, a), w + a
    if t.y:
        z = z - 1j * t.y
    if t.x != 1.0:
        z, w = z / t.x, w / math.sqrt(t.x)
    return z, w


# -- Linear projections onto parallel axes -----------------------------------


@dataclass(frozen=True)
class LinearProjectionAtInfinity:
    """Idempotent holomorphic projection onto the axis {(z, -a) : z in C}.

    rho_a(z, w) = (z + 2 ||a||^2 + 2 <w, a>, -a); a = 0 recovers the
    first-coordinate projection p_1(z, w) = (z, 0).  The left inverse
    rho~_a(z, w) = z + ||a||^2 + 2 <w, a> maps H^N into the half-plane.
    """

    a: np.ndarray

    def __init__(self, a: Iterable[complex]):
        arr = _as_complex_vector(a)
        arr.setflags(write=False)
        object.__setattr__(self, "a", arr)


def first_coordinate_projection(n_dim: int) -> LinearProjectionAtInfinity:
    return LinearProjectionAtInfinity(np.zeros(n_dim - 1, dtype=np.complex128))


def project(rho: LinearProjectionAtInfinity, q: SiegelPoint) -> SiegelPoint:
    """Apply rho_a; raises DomainError if the image leaves H^N.

    Mathematically the image of an interior point is interior; failures can
    only come from rounding near the boundary and must surface, not clamp.
    """
    a = rho.a
    if a.size != q.w.size:
        raise DomainError("projection vector dimension mismatch")
    z = q.z + 2.0 * norm_sq(a) + 2.0 * herm(q.w, a)
    try:
        return SiegelPoint(z, -a)
    except DomainError as exc:
        raise DomainError(f"projected image left the Siegel domain: {exc}") from exc


def left_inverse_value(rho: LinearProjectionAtInfinity, q: SiegelPoint) -> complex:
    """rho~_a(z, w) = z + ||a||^2 + 2 <w, a>, a point of the right half-plane."""
    a = rho.a
    if a.size != q.w.size:
        raise DomainError("projection vector dimension mismatch")
    return q.z + norm_sq(a) + 2.0 * herm(q.w, a)


def halfplane_distance(z1: complex, z2: complex) -> float:
    """Poincare distance on the right half-plane {Re z > 0}.

    tanh k = |z1 - z2| / |z1 + conj(z2)|; agrees with the N = 1 Siegel
    Kobayashi distance.
    """
    if z1.real <= 0 or z2.real <= 0:
        raise DomainError("half-plane distance needs Re z > 0")
    r = abs(z1 - z2) / abs(z1 + z2.conjugate())
    if r >= 1.0:
        return math.inf
    return math.atanh(r)
