"""Extended-precision oracle for the array formulas, with derived error bounds.

A formula is evaluated twice on the same double inputs: by the code under
test in doubles, and here exactly, or in mpmath at 50 significant digits,
far below a double's last bit.  Sums, differences and products of doubles
are kept exact, as dyadic numbers m 2^e with Python integers; a quotient, a
root, abs, exp, log or atanh makes the value an mpmath number, and the rest
of its formula runs in mpmath.

Each value is an ``X``: the exact value of a subexpression and a bound on
how far its evaluation in doubles can be from it.  An operation propagates
the bounds of its operands exactly (first order is not assumed) and adds
the rounding of its own result, ``ROUND * u * |result|`` with u = 2^-53 and
``|result|`` the modulus of the computed result.  The ``ROUND`` constants
count the roundings of one operation; nothing is fitted to observed errors.
The bounds are summed in doubles, whose own error is far below the slack
of 2^-40 that ``within`` allows them.

A test asserts ``within(got, x)``: the double ``got`` is within ``x.e`` of
the exact ``x.v``.  The last sections are in doubles: the sigma of a
conjugated map, transported from a run of the map, and its Schroder defect;
the probe of the base orbit, stepped alone by ``compute_orbit``; the
renormalized run as it stepped the whole stack of rows, base, grid and
grid images, on every step; the limit traces and their verdict, one
sequence at a time; and the generation of sequences, one family at a time,
with a generator per drawn seed.
"""

import math

import mpmath
import numpy as np
from mpmath import mp, mpc, mpf
from mpmath.libmp import from_man_exp

from valiron.dynamics import (
    INFINITY_THRESHOLD,
    MIN_TAIL,
    classify_sequence,
    compute_orbit,
    estimate_multiplier,
)
from valiron.geometry import (
    NonFiniteError,
    SiegelBatch,
    SiegelPoint,
    apply_automorphism_arrays,
    check_siegel_arrays,
)
from valiron.limits import NO_LIMIT_FACTOR, TAIL_VALUES, ApproachSeed, _pairs, _rng_for
from valiron.maps import SCALE_LIMIT, make_siegel_map_from_ball
from valiron.renorm import (
    CONSECUTIVE_CAUCHY,
    HYPERBOLICITY_MARGIN,
    PROBE_MAX_STEPS,
    PROBE_MIN_STEPS,
    PROBE_TARGET_HEIGHT,
    _multiplier_excess_decays,
    default_grid,
)

mp.dps = 50

U = 2.0 ** -53  # unit roundoff of a double
DBL_MAX = 1.7976931348623157e308

# Roundings of one operation, in units of u times the modulus of its result.
ROUND_ADD = 1        # each part of a sum rounds once
ROUND_MUL_REAL = 1   # a real factor: each part of the product rounds once
ROUND_MUL = 3        # complex by complex: sqrt(2) gamma_2 (Higham, ASNA, Lemma 3.5),
                     # sqrt(5) u with a fused multiply-add
ROUND_DIV_REAL = 2   # by a real divisor: 1 / x, then a product (numpy), or one quotient
ROUND_DIV = 16       # complex by complex, Smith's method: 7 roundings per part, and
                     # sqrt(2)^2 from the parts' moduli to the quotient's
ROUND_SQRT = 1       # correctly rounded
ROUND_LIBM = 4       # hypot, abs of a complex, atanh of a real: within 2 ulps
ROUND_CLIBM = 8      # complex exp and log: within 2 ulps per part

# an exact real is a dyadic (m, e) = m 2^e, an exact complex a pair of them
_TWO53 = 9007199254740992.0


def _dy(x: float) -> tuple:
    """A finite double as the dyadic (m, e)."""
    m, e = math.frexp(x)
    return int(m * _TWO53), e - 53


def _dy_add(a: tuple, b: tuple) -> tuple:
    (m1, e1), (m2, e2) = a, b
    if e1 > e2:
        return (m1 << (e1 - e2)) + m2, e2
    return m1 + (m2 << (e2 - e1)), e1


def _dy_neg(a: tuple) -> tuple:
    return -a[0], a[1]


def _dy_mul(a: tuple, b: tuple) -> tuple:
    return a[0] * b[0], a[1] + b[1]


def _dy_float(a: tuple) -> float:
    """|a| as a double, within an ulp."""
    m, e = abs(a[0]), a[1]
    shift = m.bit_length() - 64
    if shift > 0:
        m, e = m >> shift, e + shift
    try:
        return math.ldexp(float(m), e)
    except OverflowError:
        return math.inf


def _dy_mp(a: tuple) -> mpf:
    return mp.make_mpf(from_man_exp(a[0], a[1], mp.prec, "n"))


def _is_pair(d) -> bool:
    return type(d[0]) is tuple


def _dy_sum(a, b):
    """a + b of dyadic reals or pairs."""
    if _is_pair(a):
        if _is_pair(b):
            return _dy_add(a[0], b[0]), _dy_add(a[1], b[1])
        return _dy_add(a[0], b), a[1]
    if _is_pair(b):
        return _dy_add(a, b[0]), b[1]
    return _dy_add(a, b)


def _dy_prod(a, b):
    """a b of dyadic reals or pairs."""
    if _is_pair(a):
        if _is_pair(b):
            (ar, ai), (br, bi) = a, b
            return (_dy_add(_dy_mul(ar, br), _dy_neg(_dy_mul(ai, bi))),
                    _dy_add(_dy_mul(ar, bi), _dy_mul(ai, br)))
        return _dy_mul(a[0], b), _dy_mul(a[1], b)
    if _is_pair(b):
        return _dy_mul(a, b[0]), _dy_mul(a, b[1])
    return _dy_mul(a, b)


def _dy_negate(a):
    return (_dy_neg(a[0]), _dy_neg(a[1])) if _is_pair(a) else _dy_neg(a)


def _dy_mag(a) -> float:
    return math.hypot(_dy_float(a[0]), _dy_float(a[1])) if _is_pair(a) else _dy_float(a)


def _mag(v) -> float:
    """|v| of an mpmath number, as a double."""
    return abs(float(v)) if type(v) is mpf else abs(complex(v))


class X:
    """An exact value ``v``, its modulus ``m`` as a double, and the bound ``e``
    on the error of its double evaluation.

    ``X(v, e)`` takes an mpmath value; ``exact`` makes the exact dyadic
    value of a double, and sums and products of dyadic values stay dyadic.
    """

    __slots__ = ("d", "_v", "e", "m", "real_valued")

    def __init__(self, v, e=0.0, m=None):
        self.d, self._v, self.e = None, v, e
        self.m = _mag(v) if m is None else m
        # a real factor rounds a product's parts once each
        self.real_valued = type(v) is mpf or (e == 0.0 and not v.imag)

    @classmethod
    def _dyadic(cls, d, e=0.0, m=None):
        x = cls.__new__(cls)
        x.d, x._v, x.e = d, None, e
        x.m = _dy_mag(d) if m is None else m
        x.real_valued = not _is_pair(d) or (e == 0.0 and not d[1][0])
        return x

    @property
    def v(self):
        """The exact value as an mpmath number."""
        if self._v is None:
            d = self.d
            self._v = mpc(_dy_mp(d[0]), _dy_mp(d[1])) if _is_pair(d) else _dy_mp(d)
        return self._v

    def _round(self, v, prop, rounds):
        """The result ``v`` (mpmath) of an operation that rounds ``rounds`` times."""
        x = X(v, prop)
        x.e = prop + rounds * U * (x.m + prop)
        return x

    def _round_dyadic(self, d, prop, rounds):
        x = X._dyadic(d, prop)
        x.e = prop + rounds * U * (x.m + prop)
        return x

    def __add__(self, other):
        other = lift(other)
        prop = self.e + other.e
        if self.d is not None and other.d is not None:
            return self._round_dyadic(_dy_sum(self.d, other.d), prop, ROUND_ADD)
        return self._round(self.v + other.v, prop, ROUND_ADD)

    __radd__ = __add__

    def __sub__(self, other):
        return self + (-lift(other))

    def __rsub__(self, other):
        return lift(other) + (-self)

    def __neg__(self):
        if self.d is not None:
            return X._dyadic(_dy_negate(self.d), self.e, self.m)
        return X(-self.v, self.e, self.m)

    def __mul__(self, other):
        other = lift(other)
        prop = self.m * other.e + other.m * self.e + self.e * other.e
        rounds = ROUND_MUL_REAL if self.real_valued or other.real_valued else ROUND_MUL
        if self.d is not None and other.d is not None:
            return self._round_dyadic(_dy_prod(self.d, other.d), prop, rounds)
        return self._round(self.v * other.v, prop, rounds)

    __rmul__ = __mul__

    def __truediv__(self, other):
        other = lift(other)
        if other.e >= other.m:
            return X(self.v / other.v, math.inf)
        prop = (self.m * other.e / other.m + self.e) / (other.m - other.e)
        if not other.real_valued:
            rounds = ROUND_DIV
        elif self.is_float() and other.is_float():
            rounds = 1  # a quotient of floats
        else:
            rounds = ROUND_DIV_REAL
        return self._round(self.v / other.v, prop, rounds)

    def __rtruediv__(self, other):
        return lift(other) / self

    def is_float(self) -> bool:
        """A real number, not a complex one with a zero imaginary part."""
        return type(self._v) is mpf if self.d is None else not _is_pair(self.d)

    def conj(self):
        if self.d is None:
            return X(self.v.conjugate(), self.e, self.m)
        if not _is_pair(self.d):
            return self
        return X._dyadic((self.d[0], _dy_neg(self.d[1])), self.e, self.m)

    @property
    def real(self):
        if self.d is not None:
            return X._dyadic(self.d[0] if _is_pair(self.d) else self.d, self.e)
        return X(self.v.real, self.e)

    @property
    def imag(self):
        if self.d is not None:
            return X._dyadic(self.d[1] if _is_pair(self.d) else (0, 0), self.e)
        return X(self.v.imag, self.e)

    def double(self):
        """The exact value rounded to a double (complex or float)."""
        v = self.v
        return complex(v) if isinstance(v, mpc) else float(v)


def lift(x) -> X:
    """An X for an operand: an X as it is, a double input or constant as exact."""
    return x if type(x) is X else exact(x)


def exact(x) -> X:
    """A finite double input, exactly as given (complex stays complex)."""
    if isinstance(x, complex):
        return X._dyadic((_dy(x.real), _dy(x.imag)), 0.0, abs(x))
    return X._dyadic(_dy(float(x)), 0.0, abs(float(x)))


def const(value, double) -> X:
    """A constant the code holds as the double ``double``; ``value`` is its exact value."""
    return X(value, _mag(mpmath.mpmathify(double) - value) * (1.0 + 2.0 ** -40))


def sqrt(x: X) -> X:
    """|sqrt(a) - sqrt(b)| <= min(|a - b| / sqrt(a), sqrt(|a - b|)), then one rounding."""
    v = mpmath.sqrt(max(x.v, 0))
    vf = float(v)
    prop = min(x.e / vf, math.sqrt(x.e)) if vf > 0.0 else math.sqrt(x.e)
    return x._round(v, prop, ROUND_SQRT)


def atanh(x: X) -> X:
    """Monotone: the propagated bound is exact at the ends of x +- e."""
    def f(t):
        return mpmath.inf if t >= 1 else mpmath.atanh(max(t, -1))
    v = f(x.v)
    prop = float(max(abs(f(x.v + x.e) - v), abs(v - f(x.v - x.e))))
    return x._round(v, prop, ROUND_LIBM)


def clamp0(x: X) -> X:
    """max(x, 0) of a real: 1-Lipschitz, no rounding."""
    if x.d is not None:
        return x if x.d[0] >= 0 else X._dyadic((0, 0), x.e)
    return X(max(x.v, mpf(0)), x.e)


def hypot(x: X, y: X) -> X:
    """sqrt(x^2 + y^2) of reals: 1-Lipschitz in each, then the rounding of hypot."""
    v = mpmath.hypot(x.v, y.v)
    return x._round(v, x.e + y.e, ROUND_LIBM)


def absolute(x: X) -> X:
    """|x|: |(|a| - |b|)| <= |a - b|, then the rounding of hypot."""
    if x.d is not None and not _is_pair(x.d):
        return x._round_dyadic((abs(x.d[0]), x.d[1]), x.e, ROUND_LIBM)
    return x._round(abs(x.v), x.e, ROUND_LIBM)


def exp(x: X) -> X:
    v = mpmath.exp(x.v)
    return x._round(v, _mag(v) * math.expm1(x.e), ROUND_CLIBM)


def log(x: X) -> X:
    prop = math.inf if x.e >= x.m else -math.log1p(-x.e / x.m)
    return x._round(mpmath.log(x.v), prop, ROUND_CLIBM)


def within(got, x: X) -> bool:
    """The double ``got`` is within the bound of the exact value."""
    bound = x.e * (1.0 + 2.0 ** -40)
    if x.d is not None:  # exactly: the difference of two dyadic numbers
        return _dy_mag(_dy_sum(exact(got).d, _dy_negate(x.d))) <= bound
    got = complex(got)
    if not math.isfinite(abs(got)):
        return False
    near = complex(x.v)  # each part within u of the exact one
    # the distance in doubles, with its two roundings and that of ``near``
    far = abs(got - near) * (1.0 + 3.0 * U) + U * (abs(near.real) + abs(near.imag)) * (1.0 + U)
    if far <= bound:
        return True
    (re, im), v = exact(got).d, x.v
    re, im = _dy_mp(re) - v.real, _dy_mp(im) - v.imag
    return re * re + im * im <= mpf(bound) ** 2


def row(values) -> list:
    """A row of doubles as exact inputs."""
    return [exact(complex(c)) for c in values]


# -- geometry -------------------------------------------------------------------


def herm(u: list, v: list) -> X:
    """<u, v> = sum u_j conj(v_j), left to right."""
    total = exact(0j)
    for a, b in zip(u, v):
        total = total + a * b.conj()
    return total


def norm_sq(u: list) -> X:
    """||u||^2, each term re^2 + im^2."""
    total = exact(0.0)
    for a in u:
        total = total + (a.real * a.real + a.imag * a.imag)
    return total


def height(z: X, w: list) -> X:
    return z.real - norm_sq(w)


class Rho:
    """A projection vector a as exact inputs, with ||a||^2 taken once."""

    def __init__(self, a):
        self.a = row(a)
        self.nsq = norm_sq(self.a)
        # a = 0: every term it adds is an exact zero
        self.zero = not np.any(a)


def left_inverse(z: X, w: list, rho: Rho) -> X:
    if rho.zero:
        return z
    return z + rho.nsq + 2 * herm(w, rho.a)


def project(z: X, w: list, rho: Rho) -> tuple:
    if rho.zero:
        return z, [exact(0j) for _ in w]
    return z + 2 * rho.nsq + 2 * herm(w, rho.a), [-c for c in rho.a]


# a value whose double evaluation overflows
OVERFLOW = X(mpf("nan"), math.inf)


def tanh_from_heights(h_p: X, h_q: X, mod: X) -> X:
    """sqrt(max(1 - 4 h_P h_Q / mod^2, 0)), scaled as the code scales past overflow."""
    if mod.m > DBL_MAX:
        return OVERFLOW
    if mod.m > math.sqrt(DBL_MAX):
        ratio = (2 * h_p / mod) * (2 * h_q / mod)
    else:
        ratio = 4 * h_p * h_q / (mod * mod)
    return sqrt(clamp0(1 - ratio))


def kobayashi_tanh(p: tuple, q: tuple) -> X:
    (zp, wp), (zq, wq) = p, q
    s = zq + zp.conj() - 2 * herm(wq, wp)
    return tanh_from_heights(height(zp, wp), height(zq, wq), absolute(s))


def axis_tanh(z: X, w: list, nsq: X = None) -> X:
    """tanh k((z, w), (z, 0)); ``nsq`` is ||w||^2, if already at hand.

    Where 2 Re z overflows, the ratio 4 h x / (2 x)^2 is taken as the code
    takes it, reduced to h / x.
    """
    x = z.real
    h = x - (norm_sq(w) if nsq is None else nsq)
    if (x + x).m > DBL_MAX:
        return sqrt(clamp0(1 - h / x))
    return tanh_from_heights(h, x, x + x)


# -- maps --------------------------------------------------------------------------


def linear(lam: float):
    root = sqrt(exact(lam))
    return lambda z, w: (lam * z, [root * c for c in w])


def affine(lam: float, b: float):
    root = sqrt(exact(lam))
    return lambda z, w: (lam * z + exact(1j * b), [root * c for c in w])


def psi(kind: str, param: complex = 0.0):
    if kind == "constant":
        return lambda z: exact(complex(param))
    if kind == "cayley":
        return lambda z: (z - 1) / (z + 1)
    scale = const(mpmath.exp(-mpmath.pi / 2), math.exp(-math.pi / 2.0))
    return lambda z: scale * exp(exact(1j) * log(z))


def valiron(a_mult: float, kind: str, param: complex = 0.0):
    f = psi(kind, param)

    def image(z, w):
        w1 = w[0]
        return a_mult * z + a_mult * w1 * w1 * f(z), [exact(0j)]

    return image


# -- automorphisms ---------------------------------------------------------------
#
# An automorphism is its triple (x, y, a) of X values.  ``then`` and ``inverse``
# take the operations of ``SiegelAutomorphism.composite`` and ``inverse``, so
# the bound of each constant holds its own roundings; ``fused`` applies a
# triple as ``apply_automorphism_arrays`` does.


def triple(t) -> tuple:
    """The double constants of the automorphism ``t``, as exact inputs."""
    return exact(t.x), exact(t.y), row(t.a)


def then(t1: tuple, t2: tuple) -> tuple:
    """t1, then t2: with c = sqrt(x_1) a_2, (x_1 x_2, y_1 + x_1 y_2 - 2 Im <a_1, c>, a_1 + c)."""
    (x1, y1, a1), (x2, y2, a2) = t1, t2
    y, a = y1 + x1 * y2, a1
    if a2:
        root = sqrt(x1)
        c = [root * d for d in a2]
        y, a = (y - 2 * herm(a1, c).imag, [p + q for p, q in zip(a1, c)]) if a1 else (y, c)
    return x1 * x2, y, a


def inverse(t: tuple) -> tuple:
    """(1 / x, -y / x, -a / sqrt(x))."""
    x, y, a = t
    root = sqrt(x)
    return 1 / x, -y / x, [-c / root for c in a]


def fused(t: tuple):
    """(z, w) -> ((z + ||a||^2 + 2 <w, a> - i y) / x, (w + a) / sqrt(x)); no translation for a = []."""
    x, y, a = t
    root, iy = sqrt(x), exact(1j) * y

    def image(z, w):
        if a:
            z, w = z + norm_sq(a) + 2 * herm(w, a), [c + d for c, d in zip(w, a)]
        return (z - iy) / x, [c / root for c in w]

    return image


def automorphism(t):
    """The automorphism ``t`` applied with its double constants."""
    return fused(triple(t))


def conjugate(inner, t):
    forward, back = automorphism(t), automorphism(t.inverse())
    return lambda z, w: forward(*inner(*back(z, w)))


def cayley_to_ball(z: X, w: list) -> list:
    den = z + 1
    return [(z - 1) / den] + [(2 * c) / den for c in w]


def cayley_to_siegel(zeta: list) -> tuple:
    den = 1 - zeta[0]
    return (1 + zeta[0]) / den, [c / den for c in zeta[1:]]


def through_the_ball(inner):
    """The Siegel map of the ball map of ``inner``, both transports taken point by point."""

    def image(z, w):
        z, w = inner(*cayley_to_siegel(cayley_to_ball(z, w)))
        return cayley_to_siegel(cayley_to_ball(z, w))

    return image


def images(image, z, w) -> list:
    """``image`` on every row of the double arrays (z, w): a list of (X, [X])."""
    return [image(exact(complex(zi)), row(wi)) for zi, wi in zip(z.tolist(), w)]


def assert_images(got_z, got_w, want) -> None:
    for i, (wz, ww) in enumerate(want):
        assert within(got_z[i], wz), (i, got_z[i], wz.v, wz.e)
        for j, c in enumerate(ww):
            assert within(got_w[i, j], c), (i, j, got_w[i, j], c.v, c.e)


# -- probes -----------------------------------------------------------------------


def first_coordinate_ratio(q: tuple, image: tuple, rho: Rho, li_q: X) -> X:
    return image[0] / q[0]


def projection_ratio(q: tuple, image: tuple, rho: Rho, li_q: X) -> X:
    """``li_q`` is ``left_inverse(*q, rho)``, shared by the probes of q."""
    return left_inverse(*image, rho) / li_q


def projection_gap(q: tuple, image: tuple, rho: Rho, li_q: X) -> X:
    pz, pw = project(*image, rho)
    dz = image[0] - pz
    dw = [c - d for c, d in zip(image[1], pw)]
    return hypot(absolute(dz), sqrt(norm_sq(dw))) / absolute(li_q)


def w_growth(q: tuple, image: tuple, rho: Rho, li_q: X) -> X:
    return sqrt(norm_sq(image[1])) / absolute(q[0])


# -- sigma of a conjugated map, from the run of the map -------------------------
#
# These take doubles, not X values: they restate what a conjugation does to
# sigma through the library's own replay, for the tests of that invariance.


def transported_sigma(result, t) -> tuple:
    """``(factor, sigma~)``: the sigma of T o phi o T^-1 from the run of phi.

    sigma~(W) = factor * sigma(T^-1 W), on a ``SiegelBatch``, with
    factor = 1 / Re sigma(T^-1 (1, 0)), so that Re sigma~(1, 0) = 1; the
    multiplier is phi's.
    """
    t_inv = t.inverse()

    def pulled_back(points):
        return result.sigma_at(SiegelBatch(*apply_automorphism_arrays(t_inv, points.z, points.w)))

    factor = 1.0 / pulled_back(SiegelBatch([1.0], np.zeros((1, result.map.dim - 1))))[0].real
    return factor, lambda points: factor * pulled_back(points)


def schroder_defect(sigma, m, lam: float, points) -> np.ndarray:
    """|sigma(phi q) - lam sigma(q)| / (1 + |sigma(q)|) on a ``SiegelBatch``, phi = ``m``
    evaluated point by point."""
    s = sigma(points)
    s_img = sigma(SiegelBatch.from_points([m(q) for q in points]))
    return np.abs(s_img - lam * s) / (1.0 + np.abs(s))


# -- the probe of the base orbit, stepped alone ------------------------------------


def probe_orbit(m, n_max: int = 200):
    """The orbit of the base (1, 0) that the gate of ``run_valiron`` reads.

    ``compute_orbit`` steps it alone: 32 steps, then 64 if x_32 is below
    PROBE_TARGET_HEIGHT.  A 64-step orbit that ends below INFINITY_THRESHOLD
    and looks hyperbolic is continued by log(100 / |z|) / log(lam) + MIN_TAIL
    steps, up to max(n_max, 64) steps in all; a cut orbit is taken as it is.
    """
    if m.domain == "ball":
        m = make_siegel_map_from_ball(m)
    probe = compute_orbit(m, SiegelPoint(1.0, np.zeros(m.dim - 1)), PROBE_MIN_STEPS)
    if probe.cutoff is not None or not probe.x[-1] < PROBE_TARGET_HEIGHT:
        return probe
    probe = compute_orbit(m, probe, PROBE_MAX_STEPS)
    mod = abs(complex(probe.points.z[-1]))
    if probe.cutoff is not None or not mod < INFINITY_THRESHOLD:
        return probe
    lam = estimate_multiplier(probe).value
    if lam <= 1.0 + HYPERBOLICITY_MARGIN or _multiplier_excess_decays(probe):
        return probe
    extra = math.ceil(math.log(INFINITY_THRESHOLD / mod) / math.log(lam)) + MIN_TAIL
    return compute_orbit(m, probe, min(PROBE_MAX_STEPS + extra, max(n_max, PROBE_MAX_STEPS)))


# -- the renormalized run, stepping the whole stack ------------------------------------


def _stack_images(phi, z, w) -> tuple:
    """The images of the rows under ``phi`` and the bound of their check: by
    ``batch``, or point by point for a black box, whose bound is not known (inf)."""
    if phi.batch is None:
        images = [phi.evaluator(SiegelPoint(zi, wi)) for zi, wi in zip(z.tolist(), w)]
        z = np.array([q.z for q in images], dtype=np.complex128)
        return z, np.array([q.w for q in images], dtype=np.complex128).reshape(w.shape), math.inf
    z, w = phi.batch(z, w)
    return z, w, check_siegel_arrays(z, w)


def _largest(z, w) -> float:
    """The largest component modulus, each by np.hypot, as the row check takes |z|."""
    return float(max(np.hypot(z.real, z.imag).max(), np.hypot(w.real, w.imag).max(initial=0.0)))


def full_stack_run(m, grid=None, tol: float = 1e-8, n_max: int = 200) -> dict:
    """The renormalized run as it was when every step mapped the whole stack
    [base, grid, grid images], 1 + 2G rows for G grid points, and checked
    every image: the reference, bit for bit, for the run that steps the base
    and the images alone.

    A conjugate T o phi o T^-1 enters its rows by T^-1 and steps them by
    phi; the sigma column of a step is pi_1 of T of every row, over x_{n+1},
    the real part of row 0's.  Before each step the scale ceiling tests the
    bound that the last check of all rows returned, or their largest
    component where no bound is known.  The run stops after
    CONSECUTIVE_CAUCHY steps below ``tol``, at ``n_max`` or at the ceiling;
    it restates a run whose gate passes, with the multiplier and the
    classification of ``probe_orbit``.  Returns the fields of
    ``ValironResult`` that the steps make, and ``base_rows``, the ``(z, w)``
    of row 0 on every step.
    """
    if m.domain == "ball":
        m = make_siegel_map_from_ball(m)
    points = (default_grid(m.dim) if grid is None else grid).points
    phi, t = m.conjugation or (m, None)
    z = np.concatenate(([1.0 + 0j], points.z))
    w = np.concatenate((np.zeros((1, m.dim - 1), dtype=np.complex128), points.w))

    def column(z, w):
        if t is None:
            return z
        col = apply_automorphism_arrays(t, z, w)[0]
        if not np.isfinite(col).all():
            raise NonFiniteError("non-finite coordinates")
        return col

    with np.errstate(over="ignore", invalid="ignore"):
        col, top = z, math.inf
        if t is not None:
            z, w = apply_automorphism_arrays(t.inverse(), z, w)
            top = check_siegel_arrays(z, w)
        img_z, img_w, img_top = _stack_images(phi, z[1:], w[1:])
        col = np.concatenate((col, column(img_z, img_w)))
        z, w, top = np.concatenate((z, img_z)), np.concatenate((w, img_w)), max(top, img_top)
        g, x_n = len(points) + 1, 1.0
        sigma, base_z, base_w = col[1:g], [z[0]], [w[0]]
        pairs, cauchy, consecutive, converged, ceiling = [], [], 0, False, None
        for _ in range(n_max):
            if (top if top < math.inf else _largest(z, w)) > SCALE_LIMIT:
                ceiling = len(cauchy)
                break
            z, w, top = _stack_images(phi, z, w)
            col = column(z, w)
            x_next = float(col[0].real)
            col = col / x_next
            pairs.append((x_n, x_next))
            x_n = x_next
            step = float(np.abs(col[1:g] - sigma).max())
            cauchy.append(step)
            sigma = col[1:g]
            base_z.append(z[0])
            base_w.append(w[0].copy())
            if step < tol:
                consecutive += 1
                if consecutive >= CONSECUTIVE_CAUCHY:
                    converged = True
                    break
            else:
                consecutive = 0
    probe = probe_orbit(m, n_max)
    lam = estimate_multiplier(probe).value
    classification = classify_sequence(probe.points)
    warnings = []
    if not classification.special:
        warnings.append("outside-hypotheses: base orbit is only C-special "
                        f"(residual witness {classification.a_witness:.3g}); proceeding")
    if ceiling is not None:
        warnings.append(f"scale ceiling reached at step {ceiling}; stopping before n_max")
    s, s_img = col[1:g], col[g:]
    return {
        "sigma": s,
        "sigma_image": s_img,
        "schroder_residuals": np.abs(s_img - lam * s) / (1.0 + np.abs(s)),
        "cauchy_history": tuple(cauchy),
        "scale_pairs": tuple(pairs),
        "n_stop": len(cauchy),
        "converged": converged,
        "warnings": tuple(warnings),
        "normalization": complex(col[0]),
        "base_rows": (np.array(base_z), np.array(base_w)),
    }


# -- limit traces, one sequence at a time --------------------------------------------


def per_sequence(traces) -> list:
    """The ``(label, block)`` traces of a family as ``(label, i, block[i])``, one per
    sequence, family after family."""
    return [(label, i, values) for label, block in traces for i, values in enumerate(block)]


def per_sequence_verdict(traces, tol: float) -> tuple:
    """``(status, value, spread, witness)`` of the verdict on ``(label, i, values)``
    traces, one per sequence, as ``verdict_from_traces`` took them before it read
    family blocks: the reference for the verdict on blocks, bit for bit."""
    tails = [values[-min(TAIL_VALUES, values.size):] for _, _, values in traces]
    flat = np.concatenate(tails)
    with np.errstate(invalid="ignore"):
        diffs = _pairs(flat) - flat
    moduli = np.abs(diffs)
    spread = float(moduli.max())
    if spread < tol:
        return "limit-exists", complex(np.mean(flat)), spread, None
    owner = np.repeat(np.arange(len(tails)), [t.size for t in tails])
    moduli[_pairs(owner) == owner] = 0.0
    separation = float(moduli.max())
    witness = None
    if separation > 0.0:
        ds, ends = np.nonzero(moduli == separation)
        others = (ends + ds) % flat.size
        ps, qs = np.minimum(ends, others), np.maximum(ends, others)
        k = np.lexsort((qs, ps, owner[qs], owner[ps]))[0]
        p, q = ps[k], qs[k]
        witness = (int(owner[p]), int(owner[q]), complex(flat[p]), complex(flat[q]), separation)
    if witness is not None and witness[4] > NO_LIMIT_FACTOR * tol:
        return "no-limit", None, spread, witness
    return "inconclusive", None, spread, witness


# -- sequence generation, one family at a time -----------------------------------------


def family_arrays(family, seeds) -> tuple:
    """(z, w) of every (seed, rung) point of one family, shapes (S, R) and (S, R, N-1),
    as the library computed them before the families of a ladder were one pass."""
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
        size = np.sqrt(np.maximum(x, 0.0))
        if family.kind == "zero-special-restricted":
            size *= s[:, None] / np.sqrt(np.arange(1.0, x.shape[1] + 1.0))
        else:
            size *= s[:, None]
    w = size.astype(np.complex128)[:, :, None] * u.reshape(len(seeds), 1, family.n_dim - 1)
    return z, w


def drawn_seed(family, rng) -> ApproachSeed:
    """One drawn seed of ``family``, by three ``Generator.uniform`` calls on ``rng``."""
    if family.kind == "koranyi":
        t_max = 0.75 * math.sqrt(family.amplitude ** 2 - 1.0)
        s_max = 0.95
    else:
        t_max = family.t_param
        s_max = math.tanh(family.c_param)
    theta = rng.uniform(-math.atan(t_max), math.atan(t_max)) if t_max > 0 else 0.0
    s = rng.uniform(0.0, s_max) if s_max > 0 else 0.0
    phase = rng.uniform(0.0, 2.0 * math.pi)
    u = () if family.n_dim == 1 else (complex(np.exp(1j * phase)),) + (0j,) * (family.n_dim - 2)
    return ApproachSeed(theta, s, u)


def generate(counts, seed: int) -> tuple:
    """``(z, w, sizes)`` of ``limits._generate``, family by family: a new generator
    ``_rng_for(seed, i)`` for each drawn seed, one ``family_arrays`` call per family,
    then one concatenation and one check."""
    z_parts, w_parts, sizes = [], [], []
    for fam, count in counts:
        if fam.kind == "radial":
            count = min(count, 1) or 1
        seeds = list(fam.seeds[:count])
        seeds += [drawn_seed(fam, _rng_for(seed, i)) for i in range(len(seeds), count)]
        z, w = family_arrays(fam, seeds)
        z_parts.append(z.ravel())
        w_parts.append(w.reshape(z.size, fam.n_dim - 1))
        sizes.append(len(seeds))
    z, w = np.concatenate(z_parts), np.concatenate(w_parts)
    check_siegel_arrays(z, w)
    return z, w, sizes
