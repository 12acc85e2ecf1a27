"""Invariant geometry of the unit ball and the Siegel upper half-space.

Two models of the same rank-one symmetric domain are supported:

* the unit ball ``B^N = {zeta in C^N : ||zeta|| < 1}``,
* the Siegel domain ``H^N = {(z, w) in C x C^(N-1) : Re z > ||w||^2}``,

linked by the Cayley transform.  The Hermitian product used throughout is
``<u, v> = sum_j u_j * conj(v_j)`` (second slot conjugated).

All values are plain data; nothing here mutates its inputs.  Strict domain
inequalities are enforced with a relative slack of ``BOUNDARY_SLACK``;
points inside the slack band are rejected, never clamped.

A Siegel formula has one definition, on rows: membership is one
inequality on the in-order ``norm_sq``, which ``SiegelPoint`` tests on
Python floats and ``check_siegel_arrays`` on the same bits in numpy, and
every other scalar Siegel function is one row of its ``SiegelBatch`` form
(``halfplane_distance`` of ``_halfplane_distances``), bit for bit.
"""

from __future__ import annotations

import cmath
import functools
import math
from dataclasses import dataclass
from typing import Iterable, Sequence, Union

import numpy as np

# Tolerances are compile-time constants, read-only by convention.
BOUNDARY_SLACK = 1e-12      # relative slack on strict domain inequalities
MEMBERSHIP_BAND = 1e-9      # ambiguity band around region boundaries
UNIT_NORM_SLACK = 1e-12     # allowed deviation of boundary directions from norm 1
# check_siegel_arrays tests up to this many rows in one pass on Python floats:
# the array test costs 10 to 15 us at any size, the pass about 0.4 us a row at
# N = 2 and 1.7 us at N = 10 (the two cost the same at about 24 rows for N = 2,
# 16 for N = 3, 12 for N = 5 and 8 for N = 10); the sigma_at replay has 8 rows
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
    """Hermitian product <u, v> = sum u_j conj(v_j), as one row of ``_herm_rows``."""
    return complex(_herm_rows(u[None, :], v)[0])


def norm_sq(u) -> float:
    """||u||^2 of a list or an array, summed in order on Python floats; never warns."""
    total = 0.0
    for c in u if isinstance(u, list) else u.tolist():
        total += c.real * c.real + c.imag * c.imag
    return total


@dataclass(frozen=True)
class BallPoint:
    """Point of the open unit ball B^N.

    Rejects non-finite coordinates as such, and inputs with
    ``1 - ||coords||^2 <= BOUNDARY_SLACK``; a finite vector whose norm
    overflows is outside, as in ``_check_row``.
    """

    coords: np.ndarray

    def __init__(self, coords: Iterable[complex]):
        arr = _as_complex_vector(coords)
        if arr.size < 1:
            raise DomainError("ball point needs at least one coordinate")
        values = arr.tolist()
        nsq = norm_sq(values)
        if not (nsq < math.inf or all(map(cmath.isfinite, values))):
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
        _check_row(zc, arr.tolist())
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


def _check_row(z: complex, w: list) -> None:
    """Membership test of ``SiegelPoint``: a finite ``w`` whose ``norm_sq`` overflows is outside."""
    nsq = norm_sq(w)
    if not (cmath.isfinite(z) and (nsq < math.inf or all(map(cmath.isfinite, w)))):
        raise NonFiniteError("non-finite coordinates")
    height = z.real - nsq
    if not height > BOUNDARY_SLACK * max(1.0, abs(z), nsq):
        message = f"not strictly inside the Siegel domain: Re z - ||w||^2 = {height!r}"
        if height > 0.0:  # above the boundary, but within the slack of the test
            slack = BOUNDARY_SLACK * max(1.0, abs(z), nsq)
            message += f" <= {BOUNDARY_SLACK:g} * max(1, |z|, ||w||^2) = {slack!r}"
        raise DomainError(message)


def _one_row(q: SiegelPoint) -> "SiegelBatch":
    """``q`` as a one-row batch over its own read-only ``w``."""
    return SiegelBatch._checked(np.array([q.z]), q.w[None, :])


def siegel_height(q: SiegelPoint) -> float:
    """Height Re z - ||w||^2; positive on the domain, 0 on the boundary."""
    return float(_one_row(q).height()[0])


def check_siegel_arrays(z: np.ndarray, w: np.ndarray) -> float:
    """Apply the checks of ``SiegelPoint`` to every row of ``(z, w)``.

    ``z`` has shape (n,) and ``w`` shape (n, N-1).  A row is rejected exactly
    when ``SiegelPoint(z[i], w[i])`` rejects it, with the error of the first
    rejected row.

    Returns the largest ``max(1, |z|, ||w||^2)`` of the rows (1 for none),
    on the bits of the test; inside H^N it bounds every component, which
    the scale ceiling of the renormalized step reads.  This is
    ``_check_rows`` under its own ``np.errstate``; a caller that holds one
    already, as every stepping loop does, calls ``_check_rows``.
    """
    with np.errstate(invalid="ignore", over="ignore"):  # a non-finite row fails the test
        return _check_rows(z, w)


def _check_rows(z: np.ndarray, w: np.ndarray) -> float:
    """``check_siegel_arrays`` under the caller's ``np.errstate``: call it with
    overflow and invalid warnings off.

    The membership inequality is tested once per row; a non-finite row
    fails it, so the row test of ``SiegelPoint``, ``_check_row``, runs only
    on a failing row, and gives its error.  Up to ``FEW_ROWS`` rows are
    tested in one pass on Python floats, with ``norm_sq`` summed inline and
    the scale raised from ``|z|`` by comparisons, so that a NaN modulus
    leaves it NaN, as ``np.maximum`` does.  Above, numpy takes the same
    inequality on the same bits (``_norm_sq_rows`` is ``norm_sq`` row by
    row, ``np.hypot`` is Python's ``abs``).
    """
    if z.shape[0] <= FEW_ROWS:
        top = 1.0
        for zi, wi in zip(z.tolist(), w.tolist()):
            nsq = 0.0
            for c in wi:
                nsq += c.real * c.real + c.imag * c.imag
            try:
                scale = abs(zi)
            except OverflowError:  # from finite parts: the row test raises the row's error
                scale = math.nan
            if nsq > scale:
                scale = nsq
            if scale < 1.0:
                scale = 1.0
            if not zi.real - nsq > BOUNDARY_SLACK * scale:
                _check_row(zi, wi)  # raises the row's error
            if scale > top:
                top = scale
        return top
    nsq = _norm_sq_rows(w)
    scale = np.maximum(np.hypot(z.real, z.imag), nsq)
    np.maximum(scale, 1.0, out=scale)
    inside = z.real - nsq > BOUNDARY_SLACK * scale
    if np.count_nonzero(inside) < len(inside):
        for i in np.flatnonzero(~inside):
            _check_row(complex(z[i]), w[i].tolist())
    return float(scale.max())


def _checked_point(z: complex, w: np.ndarray) -> SiegelPoint:
    """A SiegelPoint from coordinates that already passed its checks.

    ``w`` must be a read-only row; ``SiegelBatch`` hands out its rows so.
    """
    p = object.__new__(SiegelPoint)
    p.__dict__.update(z=z, w=w)
    return p


def _norm_sq_rows(w: np.ndarray) -> np.ndarray:
    """``norm_sq`` of every row, bit for bit: the columns are added in order,
    from the first (``norm_sq`` adds it to +0.0, which is exact)."""
    if w.dtype == np.complex128 and w.flags.c_contiguous:
        sq = w.view(np.float64)
        sq = sq * sq
        sq = sq[:, 0::2] + sq[:, 1::2]
    else:
        sq = w.real * w.real + w.imag * w.imag
    total = sq[:, 0] if sq.shape[1] else np.zeros(len(sq))
    for j in range(1, sq.shape[1]):
        total += sq[:, j]
    return total


def _herm_rows(u: np.ndarray, v: np.ndarray) -> np.ndarray:
    """``herm(u[i], v[i])`` for every row; ``v`` may be a single vector of the row length.

    The products are taken on the real parts: numpy's complex product uses
    a fused multiply-add for some shapes only, so a row could round apart
    from its batch.  The parts are set, not joined as ``re + 1j * im``,
    whose 0 * inf is NaN.  Each part is within N u of the sum of the
    moduli of its 2 (N - 1) products.
    """
    if u.shape[-1] != v.shape[-1]:
        raise DomainError("dimension mismatch")
    out = (u.real * v.real + u.imag * v.imag).sum(axis=-1).astype(np.complex128)
    out.imag = (u.imag * v.real - u.real * v.imag).sum(axis=-1)
    return out


def _shift_rows(z, w: np.ndarray, a: np.ndarray, what: str, k: float = 1.0) -> np.ndarray:
    """``z + k ||a||^2 + 2 <w, a>`` row by row, each part within (N + 2) u of
    ``|z| + k ||a||^2 + 2 ||w|| ||a||``; ``what`` names ``a`` in the dimension error."""
    if a.size != w.shape[1]:
        raise DomainError(f"{what} vector dimension mismatch")
    return z + k * norm_sq(a) + 2.0 * _herm_rows(w, a)


def _abs_rows(c: np.ndarray) -> np.ndarray:
    """Python's ``abs`` of every entry to the bit (``np.abs`` rounds apart), raising its
    ``OverflowError`` where finite parts overflow; call it with overflow warnings off."""
    mod = np.hypot(c.real, c.imag)
    if not mod.max(initial=0.0) < math.inf and (np.isinf(mod) & np.isfinite(c)).any():
        raise OverflowError("absolute value too large")
    return mod


def _height_ratio(h_p, h_q, mod: np.ndarray) -> np.ndarray:
    """``4 h_P h_Q / (mod * mod)`` row by row.

    Where ``mod * mod`` overflows from a finite ``mod``, the ratio is taken
    in the scaled form ``(2 h_P / mod) * (2 h_Q / mod)``, on those rows
    only.  Call it with overflow warnings off.
    """
    sq = mod * mod
    ratio = 4.0 * h_p * h_q / sq
    if not sq.max() < math.inf:
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
    below, in plain numpy, are the only definitions of the scalar functions
    they name: each scalar function is one row of its form.  A row gets the
    same bits alone as inside any batch; each form states its error against
    the formula in exact arithmetic, in units of u = 2^-53.
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
        """``norm_sq`` of every row, computed once: within N u relative."""
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
        formula does on the projected rows, with the same error bound.  Rows
        where ``2 Re z`` overflows take the ratio reduced, ``h / Re z``.
        """
        x, h = self.z.real, self.height()
        with np.errstate(over="ignore", invalid="ignore"):
            two_x = x + x
            ratio = _height_ratio(h, x, two_x)
            if not two_x.max() < math.inf:
                np.copyto(ratio, h / x, where=np.isinf(two_x) & np.isfinite(x))
            return np.sqrt(np.maximum(1.0 - ratio, 0.0))

    def kobayashi_tanh(self, other: "SiegelBatch") -> np.ndarray:
        """tanh of ``kobayashi_distance(self[i], other[i])`` for every row.

        Rows where the distance is 0 give 0, rows where it is infinite give
        values >= 1, and NaN stays NaN; ``max_kobayashi`` turns these into
        the largest distance.  Raises the ``OverflowError`` that the scalar
        distance raises where ``abs`` overflows from finite parts.  Rows
        where the sum ``s`` itself overflows, as ``2 Re z`` does from
        Re z ~ 9e307, take half the sum and the ratio as ``(h_P / |s/2|)
        (h_Q / |s/2|)``; on an axis pair this is ``axis_tanh``'s ``h / Re z``
        bit for bit.  With e the error of the ratio ``4 h_P h_Q / |s|^2`` (a
        few u of it, more where a height cancels), a value t is within
        min(e / t, sqrt(e)), plus a rounding, of the exact one.
        """
        if self.dim != other.dim:
            raise DomainError("dimension mismatch")
        with np.errstate(over="ignore", invalid="ignore"):
            s = other.z + self.z.conj() - 2.0 * _herm_rows(other.w, self.w)
            h_p, h_q, mod = self.height(), other.height(), _abs_rows(s)
            ratio = _height_ratio(h_p, h_q, mod)
            if not mod.max(initial=0.0) < math.inf:
                over = ~np.isfinite(s)
                half = _abs_rows(0.5 * other.z[over] + 0.5 * self.z[over].conj()
                                 - _herm_rows(other.w[over], self.w[over]))
                ratio[over] = (h_p[over] / half) * (h_q[over] / half)
            return np.sqrt(np.maximum(1.0 - ratio, 0.0))

    def project(self, rho: "LinearProjectionAtInfinity") -> "SiegelBatch":
        """``project(rho, row)`` for every row, with its check and message;
        the first coordinate is the ``_shift_rows`` of z by ``a``, with k = 2."""
        z = _shift_rows(self.z, self.w, rho.a, "projection", 2.0)
        w = np.broadcast_to(-rho.a, self.w.shape).copy()
        try:
            check_siegel_arrays(z, w)
        except DomainError as exc:
            raise DomainError(f"projected image left the Siegel domain: {exc}") from exc
        return SiegelBatch._checked(z, w)

    def left_inverse(self, rho: "LinearProjectionAtInfinity") -> np.ndarray:
        """``left_inverse_value(rho, row)`` for every row: the ``_shift_rows`` of z by ``a``."""
        return _shift_rows(self.z, self.w, rho.a, "projection")

    def projection_distances(self, rho: "LinearProjectionAtInfinity") -> np.ndarray:
        """``limits.projection_distance(row, rho)``, k(p_1(Z), rho_a(Z)), for every row.

        With c = 2||a||^2 + 2<w, a>, the squared tanh of the distance is
        (|c|^2 + 4 x ||a||^2) / |2x + c|^2; this matches the two-point pipeline
        and stays stable at large |z| where ball coordinates cancel.  A squared
        modulus overflowing from a finite one raises, as Python's ``** 2`` does.
        """
        nsq_a, x = norm_sq(rho.a), self.z.real
        with np.errstate(over="ignore", divide="ignore", invalid="ignore"):
            c = 2.0 * nsq_a + 2.0 * _herm_rows(self.w, rho.a)
            mods = np.stack([_abs_rows(c), _abs_rows(2.0 * x + c)])
            sq = mods * mods
            if (np.isinf(sq) & np.isfinite(mods)).any():
                raise OverflowError("projection distance out of range")
            num = sq[0] + 4.0 * x * nsq_a
            return np.where(num >= sq[1], math.inf, np.arctanh(np.sqrt(num / sq[1])))


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
    return float(_one_row(p).koranyi_margins((region.amplitude,))[0, 0])


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
    modulus |s|^2 overflows.  The one-point special cases ``k(0, z) = tanh^-1 ||z||``
    and ``k((z,0),(z,w)) = tanh^-1(||w|| / sqrt(Re z))`` fall out of these.
    """
    if isinstance(p, SiegelPoint) and isinstance(q, SiegelPoint):
        return max_kobayashi(_one_row(p).kobayashi_tanh(_one_row(q)))
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

    def __eq__(self, other) -> bool:
        return (
            isinstance(other, SiegelAutomorphism)
            and (self.x, self.y) == (other.x, other.y)
            and np.array_equal(self.a, other.a)
        )

    def __hash__(self):
        return hash((self.x, self.y, tuple(self.a.tolist())))

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
    is ``_shift_rows``; the scale then rounds each part of z three times
    (the shift, 1 / x and the product) and w twice (sqrt(x) and the
    quotient).  The translation, the shift and the division are each
    skipped where they are the identity, so a translation alone keeps the
    finite part of an image whose other part overflows: numpy divides by x
    as by x + 0i, and 0 * inf is NaN.
    """
    z_out = _first_coordinate(t, z, w)
    if t.a.size:
        w = w + t.a
    if t.x != 1.0:
        w = w / math.sqrt(t.x)
    return z_out, w


def _first_coordinate(t: SiegelAutomorphism, z: np.ndarray, w: np.ndarray) -> np.ndarray:
    """pi_1 of ``apply_automorphism_arrays``, bit for bit; ``z`` itself for the identity."""
    if t.a.size:
        z = _shift_rows(z, w, t.a, "translation")
    if t.y:
        z = z - 1j * t.y
    if t.x != 1.0:
        z = z / t.x
    return z


# -- Linear projections onto parallel axes -----------------------------------


@dataclass(frozen=True)
class LinearProjectionAtInfinity:
    """Idempotent holomorphic projection onto the axis {(z, -a) : z in C}.

    rho_a(z, w) = (z + 2 ||a||^2 + 2 <w, a>, -a); a = 0 recovers the
    first-coordinate projection p_1(z, w) = (z, 0).  The left inverse
    rho~_a(z, w) = z + ||a||^2 + 2 <w, a> maps H^N into the half-plane.
    Every entry of ``a`` is finite.
    """

    a: np.ndarray

    def __init__(self, a: Iterable[complex]):
        arr = _as_complex_vector(a)
        if not np.isfinite(arr).all():
            raise NonFiniteError("non-finite projection direction")
        arr.setflags(write=False)
        object.__setattr__(self, "a", arr)

    def __eq__(self, other) -> bool:
        return isinstance(other, LinearProjectionAtInfinity) and np.array_equal(self.a, other.a)

    def __hash__(self):
        return hash(tuple(self.a.tolist()))


def first_coordinate_projection(n_dim: int) -> LinearProjectionAtInfinity:
    return LinearProjectionAtInfinity(np.zeros(n_dim - 1, dtype=np.complex128))


def project(rho: LinearProjectionAtInfinity, q: SiegelPoint) -> SiegelPoint:
    """Apply rho_a; raises DomainError if the image leaves H^N.

    Mathematically the image of an interior point is interior; failures can
    only come from rounding near the boundary and must surface, not clamp.
    """
    return _one_row(q).project(rho)[0]


def left_inverse_value(rho: LinearProjectionAtInfinity, q: SiegelPoint) -> complex:
    """rho~_a(z, w) = z + ||a||^2 + 2 <w, a>, a point of the right half-plane."""
    return complex(_one_row(q).left_inverse(rho)[0])


def _halfplane_distances(z1, z2) -> np.ndarray:
    """``halfplane_distance`` of every pair of ``z1`` and ``z2``, which broadcast."""
    z1, z2 = np.asarray(z1, np.complex128), np.asarray(z2, np.complex128)
    if not (np.isfinite(z1).all() and np.isfinite(z2).all()):
        raise NonFiniteError("non-finite coordinates")
    if not ((z1.real > 0.0).all() and (z2.real > 0.0).all()):
        raise DomainError("half-plane distance needs Re z > 0")
    with np.errstate(over="ignore", divide="ignore", invalid="ignore"):
        r = _abs_rows(z1 - z2) / _abs_rows(z1 + z2.conj())
        return np.where(r >= 1.0, math.inf, np.arctanh(r))


def halfplane_distance(z1: complex, z2: complex) -> float:
    """Poincare distance on the right half-plane {Re z > 0}, one pair of ``_halfplane_distances``.

    tanh k = |z1 - z2| / |z1 + conj(z2)|, infinite where rounding puts it at
    1 or above; agrees with the N = 1 Siegel Kobayashi distance.
    """
    return float(_halfplane_distances(z1, z2))
