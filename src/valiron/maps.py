"""Holomorphic self-maps of the ball and Siegel domain, with a small catalog.

A map is an evaluator plus metadata (Denjoy-Wolff point, boundary
multiplier, optional closed-form intertwining function).  A Siegel-side map
may be defined by ``batch``, the map on arrays of points, or by the pair
``(inner, T)`` of ``conjugate_map`` alone; its evaluator is then a one-row
call.  The catalog holds hyperbolic examples whose Schroder solutions are
known, used as oracles, each defined so:

* ``make_siegel_linear``      (z, w) -> (lam z, sqrt(lam) w)
* ``make_halfplane_affine``   (z, w) -> (lam z + i b, sqrt(lam) w)
* ``make_valiron_example``    (z, w) -> (A z + A w^2 psi(z), 0) on H^2

``evaluate_batch`` runs a Siegel-side map on arrays of points through
``batch``, or T and the inner map; black boxes alone go point by point.
Evaluators are pure; per-point work is independent, so results never depend
on evaluation order, and a row gets the same bits alone as inside any batch.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from functools import partial
from typing import Callable, Optional, Union

import numpy as np

from .geometry import (
    BallPoint,
    BoundaryDirection,
    DomainError,
    INFINITY,
    SiegelPoint,
    _checked_point,
    apply_automorphism_arrays,
    cayley_to_ball,
    cayley_to_siegel,
    check_siegel_arrays,
    e1_direction,
)

# Hard ceiling for raw iteration; past this the renormalized pipeline is the
# only honest representation.
SCALE_LIMIT = 1e300


class ScaleOverflowError(OverflowError):
    """Raised when raw iteration exceeds SCALE_LIMIT.

    Orbit data past this point is not representable in doubles; use the
    renormalized pipeline (valiron.renorm) instead of raw iterate().
    """


@dataclass(frozen=True)
class PsiChoice:
    """Holomorphic psi: {Re z > 0} -> closed unit disk, |psi| < 1.

    kinds: 'constant' (param c, |c| < 1), 'cayley' (z -> (z-1)/(z+1)),
    'oscillating' (z -> exp(-pi/2) z^i, principal branch; bounded by 1 but
    with no limit along the positive real axis).  A call takes a complex
    number or an array of them; the constant kind returns its constant.
    """

    kind: str
    param: complex = 0.0

    def __post_init__(self):
        if self.kind == "constant":
            if abs(self.param) >= 1.0:
                raise DomainError("constant psi needs |param| < 1")
        elif self.kind not in ("cayley", "oscillating"):
            raise DomainError(f"unknown psi kind {self.kind!r}")

    def __call__(self, z):
        if self.kind == "constant":
            return complex(self.param)
        z = np.asarray(z, dtype=np.complex128)
        if self.kind == "cayley":
            return (z - 1.0) / (z + 1.0)
        # exp(-pi/2) * z^i = exp(-pi/2) * exp(i log z); |.| = exp(-arg z - pi/2)
        return math.exp(-math.pi / 2.0) * np.exp(1j * np.log(z))

    def describe(self) -> str:
        if self.kind == "constant":
            return f"constant({self.param:g})" if self.param.imag == 0 else f"constant({self.param})"
        return self.kind


Point = Union[BallPoint, SiegelPoint]


@dataclass(frozen=True)
class HoloMap:
    """Holomorphic self-map with hyperbolic boundary data.

    ``dw`` is the Denjoy-Wolff point: INFINITY for Siegel-side maps, a
    BoundaryDirection for ball-side ones.  ``multiplier`` is the boundary
    dilation coefficient: lam > 1 on the Siegel side, c = 1/lam < 1 on the
    ball side.  ``intertwiner``, when present, is a closed-form solution of
    the Schroder equation sigma(phi(q)) = lam sigma(q), used only as a test
    oracle.

    ``batch`` is the map on arrays of Siegel points: ``batch(z, w)`` with
    ``z`` of shape (n,) and ``w`` of shape (n, N-1) returns the images'
    ``(z, w)`` in the same shapes.  It validates neither its input nor its
    output; ``evaluate_batch`` does both.  ``conjugation`` is ``(inner,
    t)`` on the map ``t o inner o t^-1`` that ``conjugate_map`` made;
    ``evaluate_batch``, ``compute_orbit`` and the renormalized step (in
    ``renorm``) all step on ``inner``.  A map has one of the two, not both.
    A Siegel map given either gets a one-row ``_images`` as its
    ``evaluator``, which checks the image; the input point was checked when
    it was made.  ``dataclasses.replace`` keeps that evaluator, so
    ``replace(m, batch=None)`` is ``m`` evaluated point by point.
    """

    domain: str
    dim: int
    dw: object
    multiplier: float
    evaluator: Optional[Callable[[Point], Point]] = None
    intertwiner: Optional[Callable[[Point], complex]] = None
    name: str = "anonymous"
    params: dict = field(default_factory=dict)
    # the same map in the other model, when known; lets Cayley transports
    # round-trip exactly instead of stacking coordinate changes
    twin: Optional["HoloMap"] = field(default=None, repr=False, compare=False)
    batch: Optional[Callable[[np.ndarray, np.ndarray], tuple]] = field(
        default=None, repr=False, compare=False
    )
    conjugation: Optional[tuple] = field(default=None, repr=False, compare=False)

    def __post_init__(self):
        if self.domain not in ("ball", "siegel"):
            raise DomainError(f"unknown domain tag {self.domain!r}")
        if self.domain == "siegel":
            if self.dw is not INFINITY:
                raise DomainError("siegel map must have Denjoy-Wolff point INFINITY")
            if not self.multiplier > 1.0:
                raise DomainError("siegel-side multiplier must satisfy lam > 1")
        else:
            if not isinstance(self.dw, BoundaryDirection):
                raise DomainError("ball map needs a BoundaryDirection Denjoy-Wolff point")
            if not 0.0 < self.multiplier < 1.0:
                raise DomainError("ball-side multiplier must satisfy 0 < c < 1")
        if self.batch is not None and self.conjugation is not None:
            raise DomainError("a map has a batch or a conjugation, not both")
        if self.evaluator is None:
            if self.domain != "siegel" or self.batch is None and self.conjugation is None:
                raise DomainError("a map needs an evaluator, or a batch on the Siegel side")
            object.__setattr__(self, "evaluator", partial(_evaluate_one, self))

    def __call__(self, q: Point) -> Point:
        return self.evaluator(q)


def evaluate_batch(m: HoloMap, z: np.ndarray, w: np.ndarray) -> tuple:
    """Images under the Siegel-side map ``m`` of the rows of ``(z, w)``.

    ``z`` has shape (n,) and ``w`` shape (n, N-1); the images come back as
    arrays of the same shapes.  Every input row is checked as
    ``SiegelPoint`` checks it, before any row is mapped; then ``_images``
    maps the rows and checks the images.
    """
    _check_inputs(m, z, w)
    return _images(m, z, w)[:2]


def _check_inputs(m: HoloMap, z: np.ndarray, w: np.ndarray) -> None:
    """The checks ``evaluate_batch`` makes before it maps any row."""
    _check_siegel_side(m)
    check_siegel_arrays(z, w)


def _check_siegel_side(m: HoloMap) -> None:
    if m.domain != "siegel":
        raise DomainError("evaluate_batch expects a Siegel-side map")


def _images(m: HoloMap, z: np.ndarray, w: np.ndarray, _clearance: bool = False) -> tuple:
    """``evaluate_batch`` on rows that already passed the checks of ``SiegelPoint``.

    Only the images are checked, once each.  An orbit steps through this:
    each step's input row is the checked start or the previous checked
    image, bit for bit.  A map with ``batch`` runs on the whole arrays.  A
    conjugate ``t o inner o t^-1`` applies T^-1 (``apply_automorphism_arrays``),
    checks those rows as ``evaluate_batch`` does, maps them by ``_images`` of
    ``inner`` and applies T.  A black box is evaluated point by point: it
    gets each row as a ``SiegelPoint`` over a read-only row of one copy of
    ``w``, not checked again, and returns points, checked when made.

    Returns ``(z, w, top)``, where ``top`` is what ``check_siegel_arrays``
    returns of the images with ``_clearance``: inf for a black box, whose
    images were checked as points.  Rows of another width raise DomainError.
    """
    _check_siegel_side(m)
    if w.shape[1] != m.dim - 1:
        raise DomainError(f"points of dimension {w.shape[1] + 1} for a map of dimension {m.dim}")
    if m.conjugation is not None:
        phi, t = m.conjugation
        pre = apply_automorphism_arrays(t.inverse(), z, w)
        _check_inputs(phi, *pre)
        z, w = apply_automorphism_arrays(t, *_images(phi, *pre)[:2])
    elif m.batch is None:
        w = w.copy()  # one copy for the batch: a box may keep its input points
        w.setflags(write=False)
        images = [m.evaluator(_checked_point(zi, wi)) for zi, wi in zip(z.tolist(), w)]
        z_out = np.array([q.z for q in images], dtype=np.complex128)
        w_out = np.array([q.w for q in images], dtype=np.complex128).reshape(w.shape)
        return z_out, w_out, math.inf
    else:
        z, w = m.batch(z, w)
    if _clearance:
        return z, w, check_siegel_arrays(z, w, _clearance=True)
    check_siegel_arrays(z, w)
    return z, w, math.inf


def _evaluate_one(m: HoloMap, q: SiegelPoint) -> SiegelPoint:
    """``m(q)`` as a one-row ``_images`` (``q`` was checked when made), without overflow warnings."""
    with np.errstate(over="ignore", invalid="ignore"):
        z, w, _ = _images(m, np.array([q.z]), q.w[None, :])
    w.setflags(write=False)
    return _checked_point(complex(z[0]), w[0])


def make_siegel_linear(lam: float, n_dim: int) -> HoloMap:
    """Hyperbolic linear model (z, w) -> (lam z, sqrt(lam) w); sigma = z."""
    if not lam > 1.0:
        raise DomainError("hyperbolicity requires lam > 1")
    root = math.sqrt(lam)

    def batch(z: np.ndarray, w: np.ndarray) -> tuple:
        return lam * z, root * w

    return HoloMap(
        domain="siegel",
        dim=n_dim,
        dw=INFINITY,
        multiplier=float(lam),
        intertwiner=lambda q: q.z,
        name="siegel_linear",
        params={"lambda": float(lam), "N": int(n_dim)},
        batch=batch,
    )


def make_halfplane_affine(lam: float, b: float, n_dim: int) -> HoloMap:
    """Affine model (z, w) -> (lam z + i b, sqrt(lam) w); sigma = z + i L.

    The drift constant is L = b / (lam - 1), so that sigma(phi) = lam sigma.
    """
    if not lam > 1.0:
        raise DomainError("hyperbolicity requires lam > 1")
    root = math.sqrt(lam)
    drift = b / (lam - 1.0)

    def batch(z: np.ndarray, w: np.ndarray) -> tuple:
        return lam * z + 1j * b, root * w

    return HoloMap(
        domain="siegel",
        dim=n_dim,
        dw=INFINITY,
        multiplier=float(lam),
        intertwiner=lambda q: q.z + 1j * drift,
        name="halfplane_affine",
        params={"lambda": float(lam), "b": float(b), "N": int(n_dim)},
        batch=batch,
    )


def make_valiron_example(a_mult: float, psi: PsiChoice) -> HoloMap:
    """Shear-type map of H^2: (z, w) -> (A z + A w^2 psi(z), 0), A > 1.

    Self-map because |w^2 psi(z)| < ||w||^2 < Re z; its Schroder solution is
    sigma(z, w) = z + w^2 psi(z), reached by the pipeline in very few steps
    since sigma_n stabilizes after one iteration.  ``batch`` and the
    closed-form ``intertwiner`` share the one numpy definition of psi; the
    image is within a few u of |A z| + |A w^2 psi(z)| (psi's complex
    quotient, or log and exp, included).
    """
    if not a_mult > 1.0:
        raise DomainError("hyperbolicity requires A > 1")

    def batch(z: np.ndarray, w: np.ndarray) -> tuple:
        w1 = w[:, 0]
        return a_mult * z + a_mult * w1 * w1 * psi(z), np.zeros_like(w)

    def sigma(q: SiegelPoint) -> complex:
        w1 = complex(q.w[0])
        return complex(q.z + w1 * w1 * psi(q.z))

    return HoloMap(
        domain="siegel",
        dim=2,
        dw=INFINITY,
        multiplier=float(a_mult),
        intertwiner=sigma,
        name="valiron_example",
        params={"A": float(a_mult), "psi": psi.describe()},
        batch=batch,
    )


def make_ball_map_from_siegel(m: HoloMap) -> HoloMap:
    """Conjugate a Siegel-side map by the Cayley transform onto the ball.

    Metadata is transported: the Denjoy-Wolff point INFINITY becomes e_1 and
    the multiplier becomes c = 1/lam.
    """
    if m.domain != "siegel":
        raise DomainError("expected a siegel-side map")
    if m.twin is not None and m.twin.domain == "ball":
        return m.twin

    def ev(p: BallPoint) -> BallPoint:
        return cayley_to_ball(m.evaluator(cayley_to_siegel(p)))

    theta = None
    if m.intertwiner is not None:
        theta = lambda p: m.intertwiner(cayley_to_siegel(p))  # noqa: E731

    return HoloMap(
        domain="ball",
        dim=m.dim,
        evaluator=ev,
        dw=e1_direction(m.dim),
        multiplier=1.0 / m.multiplier,
        intertwiner=theta,
        name=m.name + "_ball",
        params=dict(m.params),
        twin=m,
    )


def make_siegel_map_from_ball(m: HoloMap) -> HoloMap:
    """Inverse transport: conjugate a ball-side map onto the Siegel domain."""
    if m.domain != "ball":
        raise DomainError("expected a ball-side map")
    # the Cayley transform sends e_1, and only e_1, to infinity
    if m.dw != e1_direction(m.dim):
        raise DomainError("the Cayley transport needs the Denjoy-Wolff point e_1")
    if m.twin is not None and m.twin.domain == "siegel":
        return m.twin

    def ev(q: SiegelPoint) -> SiegelPoint:
        return cayley_to_siegel(m.evaluator(cayley_to_ball(q)))

    sigma = None
    if m.intertwiner is not None:
        sigma = lambda q: m.intertwiner(cayley_to_ball(q))  # noqa: E731

    return HoloMap(
        domain="siegel",
        dim=m.dim,
        evaluator=ev,
        dw=INFINITY,
        multiplier=1.0 / m.multiplier,
        intertwiner=sigma,
        name=m.name.removesuffix("_ball"),
        params=dict(m.params),
        twin=m,
    )


def conjugate_map(m: HoloMap, t) -> HoloMap:
    """Conjugated map T o phi o T^-1 for an automorphism T fixing infinity.

    It keeps ``(m, t)`` as its ``conjugation``, and its iterates telescope,
    ``(T phi T^-1)^n = T phi^n T^-1``: ``compute_orbit`` gives T of the
    orbit of ``m``, in one array call, and carries that inner orbit.  The
    renormalized step and ``sigma_at`` step the rows of T^-1(q) on ``m``
    and take only the first coordinate of T of the images (see ``renorm``).
    ``evaluate_batch`` maps T^-1(q) by ``m`` and applies T (see
    ``_images``).  Raises ``NonFiniteError`` where T^-1 is not finite.
    """
    if m.domain != "siegel":
        raise DomainError("conjugation is implemented on the Siegel side")
    t.inverse()  # every evaluation applies T^-1: it must be finite

    return HoloMap(
        domain="siegel",
        dim=m.dim,
        dw=INFINITY,
        multiplier=m.multiplier,
        intertwiner=None,
        name=m.name + "_conj",
        params=dict(m.params),
        conjugation=(m, t),
    )


def _check_scale(q: Point) -> None:
    if isinstance(q, SiegelPoint) and q.z.real > SCALE_LIMIT:
        raise ScaleOverflowError(
            f"Re z = {q.z.real!r} exceeds {SCALE_LIMIT:g}; raw iteration cannot "
            "continue, use the renormalized pipeline"
        )


def iterate(m: HoloMap, q: Point, n: int) -> Point:
    """n-fold composition phi^n(q) by raw evaluation.

    Raises ScaleOverflowError once Re z exceeds SCALE_LIMIT; hyperbolic
    orbits grow like lam^n, so this triggers near n = log(1e300)/log(lam).
    """
    if n < 0:
        raise DomainError("iterate needs n >= 0")
    cur = q
    for _ in range(n):
        _check_scale(cur)
        cur = m.evaluator(cur)
        _check_scale(cur)
    return cur


# -- Catalog -------------------------------------------------------------------


def catalog() -> dict:
    """Canonical named instances used by tests and the CLI."""
    return {
        "siegel_linear(2,2)": make_siegel_linear(2.0, 2),
        "siegel_linear(1.5,1)": make_siegel_linear(1.5, 1),
        "siegel_linear(3,3)": make_siegel_linear(3.0, 3),
        "halfplane_affine(2,1,2)": make_halfplane_affine(2.0, 1.0, 2),
        "halfplane_affine(3,5,2)": make_halfplane_affine(3.0, 5.0, 2),
        "valiron_example(2,constant(0.5))": make_valiron_example(
            2.0, PsiChoice("constant", 0.5)
        ),
        "valiron_example(2,oscillating)": make_valiron_example(
            2.0, PsiChoice("oscillating")
        ),
        "valiron_example(3,cayley)": make_valiron_example(3.0, PsiChoice("cayley")),
    }
