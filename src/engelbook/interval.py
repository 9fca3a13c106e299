"""Closed intervals with outward rounding (Moore, *Interval Analysis*, 1966),
and the proofs about the zeros of plane fields built on them.

An ``Enclosure`` holds closed intervals [lo, hi], one per array entry, or
one pair of floats.  Each operation computes its ends in float arithmetic
and then moves each end one float outward (``np.nextafter``).  Float +, -,
*, / and sqrt are correctly rounded and monotone, so a result encloses the
exact operation on every choice of reals from its operands, and also the
correctly rounded float operation on every choice of floats from them: an
interval computation that repeats a float computation's operations, in its
order, encloses that computation's result.  This holds through gradual
underflow; an end that overflows becomes infinite and encloses everything
beyond it.

Integer powers are products of the ends, so they enclose the exact power
and the correctly rounded square.  numpy's ``**`` of a float by an integer
other than 1, 2 and -1 goes through the C library's ``pow``, which is
assumed within one ulp of the exact power, so an enclosure of its result
needs that much allowance.  cos and sin are enclosed by their hull [-1, 1]
(``TRIG_HULL``), which holds every value numpy's cos and sin return at a
finite argument, however the argument was rounded.

numpy's exp is not correctly rounded, so ``Enclosure.exp`` moves each end
``EXP_ULPS`` = 4 floats outward, which assumes an error below 3 ulps; the
tests compare it with 50-digit mpmath values.
``group_sums`` adds enclosures in float arithmetic, whose rounding is not
outward: recursive summation of n terms errs by at most gamma(n - 1) times
the sum of their magnitudes (Higham, *Accuracy and Stability of Numerical
Algorithms*, 2002, eq. 4.4), with gamma(n) = n u / (1 - n u), u = 2^-53, so
each sum is widened by gamma(n + 1) times that sum of magnitudes, which also
covers the rounding of the magnitudes' own sum and of the allowance.

The bounds that ``krawczyk_image``, ``prove_zeros`` and ``exclude_zeros``
take are enclosures of a plane field V, its Jacobian J and a level
function over boxes (``foliation.ClassifierBounds``): ``value``,
``jacobian`` and ``level`` map the (m, 2) lower and upper corners of m
boxes to (V_p, V_q), ((J_pp, J_pq), (J_qp, J_qq)) and the level's
enclosure.

Smoothstep S(t) = t^3 (10 - 15 t + 6 t^2) and its slope S'(t) = 30 t^2 (1 -
t)^2, with t clipped to [0, 1] (S is 0 below and 1 above, S' is 0 outside),
are enclosed from their float values at the ends, widened by a bound on
those values' rounding: S is monotone, and S' rises to its one peak
S'(1/2) = 15/8 and falls again.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

import numpy as np

__all__ = [
    "EXP_ULPS",
    "SMOOTHSTEP",
    "TRIG_HULL",
    "Enclosure",
    "exclude_zeros",
    "krawczyk_image",
    "prove_zeros",
    "smoothstep",
    "smoothstep_slope",
    "strictly_inside",
]

EXP_ULPS = 4  # floats each end of an exp enclosure moves outward
_UNIT_ROUNDOFF = 2.0**-53
_KRAWCZYK_TRIES = 4  # box sizes tried around a zero, each half the last
_COVER_START = 16  # boxes per side of the exclusion cover's first level
_COVER_LEVELS = 16  # levels of the exclusion cover before it gives up
_COVER_MAX_BOXES = 100_000  # open boxes of one level before it gives up
# the (p, q) rows of (lo, mid, hi) that each quarter of a box starts and ends at
_QUARTER_CUTS = np.array([[[0, 0], [1, 0], [0, 1], [1, 1]], [[1, 1], [2, 1], [1, 2], [2, 2]]])

# smoothstep 10t^3 - 15t^4 + 6t^5 and its first two derivatives, for 0 < t < 1,
# on float arrays; the second derivative also takes an Enclosure
SMOOTHSTEP = (
    lambda t: t * t * t * (10.0 + t * (-15.0 + 6.0 * t)),
    lambda t: 30.0 * t * t * (1.0 - t) * (1.0 - t),
    lambda t: 60.0 * t * (2.0 * t - 1.0) * (t - 1.0),
)


@dataclass(frozen=True)
class Enclosure:
    """Closed intervals [lo, hi], one per array entry; a float operand is the
    interval holding only itself."""

    lo: np.ndarray
    hi: np.ndarray

    # an array operand defers to the reflected operations below
    __array_ufunc__ = None

    @staticmethod
    def of(x: "Enclosure | float") -> "Enclosure":
        return x if isinstance(x, Enclosure) else Enclosure(x, x)

    @staticmethod
    def _outward(lo, hi) -> "Enclosure":
        return Enclosure(np.nextafter(lo, -np.inf), np.nextafter(hi, np.inf))

    def contains_zero(self) -> np.ndarray:
        return (self.lo <= 0.0) & (0.0 <= self.hi)

    def __add__(self, other):
        if isinstance(other, float):
            return Enclosure._outward(self.lo + other, self.hi + other)
        o = Enclosure.of(other)
        return Enclosure._outward(self.lo + o.lo, self.hi + o.hi)

    def __neg__(self) -> "Enclosure":
        return Enclosure(-self.hi, -self.lo)

    def __sub__(self, other):
        if isinstance(other, float):
            return Enclosure._outward(self.lo - other, self.hi - other)
        o = Enclosure.of(other)
        return Enclosure._outward(self.lo - o.hi, self.hi - o.lo)

    def __rsub__(self, other):
        return Enclosure.of(other) - self

    def __mul__(self, other):
        if isinstance(other, float):
            # a float factor scales the ends, and a negative one swaps them
            lo, hi = self.lo * other, self.hi * other
            return Enclosure._outward(lo, hi) if other >= 0.0 else Enclosure._outward(hi, lo)
        o = Enclosure.of(other)
        a, b, c, d = self.lo * o.lo, self.lo * o.hi, self.hi * o.lo, self.hi * o.hi
        return Enclosure._outward(
            np.minimum(np.minimum(a, b), np.minimum(c, d)),
            np.maximum(np.maximum(a, b), np.maximum(c, d)),
        )

    __rmul__ = __mul__

    def __truediv__(self, other):
        """The quotient's ends are quotients of ends where the divisor does
        not contain 0; where it does, the quotient is the whole line."""
        if isinstance(other, float) and other != 0.0:
            lo, hi = self.lo / other, self.hi / other
            return Enclosure._outward(lo, hi) if other > 0.0 else Enclosure._outward(hi, lo)
        o = Enclosure.of(other)
        # the quotients by a divisor that contains 0 are replaced below, and
        # one that overflows is an infinite end
        with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
            ends = tuple(np.divide(a, b) for a in (self.lo, self.hi) for b in (o.lo, o.hi))
        whole = o.contains_zero()
        return Enclosure._outward(
            np.where(whole, -np.inf, np.minimum.reduce(ends)),
            np.where(whole, np.inf, np.maximum.reduce(ends)),
        )

    def __rtruediv__(self, other):
        return Enclosure.of(other) / self

    def __pow__(self, n: int) -> "Enclosure":
        """x ** n for an integer n, from repeated products of each end.

        An odd power is monotone, so its ends are the powers of the ends.  An
        even power of an interval that contains 0 starts at exactly 0, and
        otherwise runs between the powers of the end nearer 0 and the one
        farther from it.  A negative power is 1 over the positive one and
        raises ``ValueError`` where the interval contains 0 (a pole).
        """
        if n < 0:
            if np.any(self.contains_zero()):
                raise ValueError(f"negative power {n} of an interval that contains 0")
            return 1.0 / self ** (-n)
        if n == 0:
            one = np.ones_like(self.lo, dtype=float)
            return Enclosure(one, one)
        if n == 2:
            # the same ends as the products below, from one rounding each
            a2, b2 = self.lo * self.lo, self.hi * self.hi
            up, down = self.lo >= 0.0, self.hi <= 0.0
            lo = np.nextafter(np.where(up, a2, np.where(down, b2, 0.0)), -np.inf)
            hi = np.nextafter(np.where(up, b2, np.where(down, a2, np.maximum(a2, b2))), np.inf)
            return Enclosure(np.where(up | down, np.maximum(lo, 0.0), 0.0), hi)
        a, b = Enclosure.of(self.lo), Enclosure.of(self.hi)
        pa, pb = a, b
        for _ in range(n - 1):
            pa, pb = pa * a, pb * b
        if n % 2:
            return Enclosure(pa.lo, pb.hi)
        up = self.lo >= 0.0
        down = self.hi <= 0.0
        # never below 0, which also keeps an underflowing end from going negative
        lo = np.maximum(np.where(up, pa.lo, np.where(down, pb.lo, 0.0)), 0.0)
        hi = np.where(up, pb.hi, np.where(down, pa.hi, np.maximum(pa.hi, pb.hi)))
        return Enclosure(lo, hi)

    def sqrt(self) -> "Enclosure":
        # of a quantity known to be nonnegative, so a negative lower end means 0
        return Enclosure._outward(np.sqrt(np.maximum(self.lo, 0.0)), np.sqrt(self.hi))

    def exp(self) -> "Enclosure":
        """exp is increasing, so its ends are the exps of the ends, each
        moved ``EXP_ULPS`` floats outward for numpy's rounding; the lower end
        never goes below 0."""
        with np.errstate(over="ignore", under="ignore"):
            lo, hi = np.exp(self.lo), np.exp(self.hi)
        for _ in range(EXP_ULPS):
            lo, hi = np.nextafter(lo, -np.inf), np.nextafter(hi, np.inf)
        return Enclosure(np.maximum(lo, 0.0), hi)

    def group_sums(self, groups: np.ndarray, n: int) -> "Enclosure":
        """The sums of the 1-D entries by group, for the groups 0 .. n - 1.

        The ends are summed in float arithmetic (``np.bincount`` adds in
        input order), so each sum of m terms is widened by gamma(m + 1)
        times the sum of the terms' magnitudes; an empty group is [0, 0]
        moved outward."""
        size = np.bincount(groups, np.maximum(np.abs(self.lo), np.abs(self.hi)), n)
        m = np.bincount(groups, minlength=n) + 1.0
        slack = m * _UNIT_ROUNDOFF / (1.0 - m * _UNIT_ROUNDOFF) * size
        return Enclosure._outward(
            np.bincount(groups, self.lo, n) - slack, np.bincount(groups, self.hi, n) + slack
        )


def smoothstep(t: Enclosure) -> Enclosure:
    """S over ``t``: S is increasing, so its ends are its values at the
    clipped ends.  On [0, 1] the float value of S(x) (``SMOOTHSTEP[0]``) is
    within 248 u x^3 of the exact one: the cube takes 2 roundings, the
    Horner factor 10 + x (-15 + 6 x) is within gamma(4) (10 + 15 x + 6 x^2)
    of its value, and the product takes 1 more.  Each end is widened by
    2^-45 x^3 = 256 u x^3, plus 2^-1060 for steps that underflow, each of
    which errs by at most 2^-1075 more."""
    a, b = np.clip(t.lo, 0.0, 1.0), np.clip(t.hi, 0.0, 1.0)
    return Enclosure._outward(
        SMOOTHSTEP[0](a) - (2.0**-45 * (a * a * a) + 2.0**-1060),
        SMOOTHSTEP[0](b) + (2.0**-45 * (b * b * b) + 2.0**-1060),
    )


def smoothstep_slope(t: Enclosure) -> Enclosure:
    """S' over ``t``: S' rises on [0, 1/2] and falls on [1/2, 1], so its
    least value is at a clipped end, and its greatest is the peak 15/8 where
    the clipped range holds 1/2, and at an end elsewhere.  The float value
    of S'(x) (``SMOOTHSTEP[1]``) is a product of 5 nonnegative factors with
    6 roundings, so it is within gamma(6) of the exact one, and each end is
    widened by 2^-49 = 16 u times it, plus 2^-1060 for steps that
    underflow."""
    a, b = np.clip(t.lo, 0.0, 1.0), np.clip(t.hi, 0.0, 1.0)
    at_a, at_b = SMOOTHSTEP[1](a), SMOOTHSTEP[1](b)
    least = np.minimum(at_a, at_b)
    most = np.maximum(at_a, at_b)
    peak = (a <= 0.5) & (0.5 <= b)
    return Enclosure._outward(
        least - (2.0**-49 * least + 2.0**-1060),
        np.where(peak, 1.875, most + (2.0**-49 * most + 2.0**-1060)),
    )


TRIG_HULL = Enclosure(-1.0, 1.0)  # every value of cos or sin


# -- proofs about the zeros of plane fields ----------------------------------------


def krawczyk_image(
    bounds, mid: np.ndarray, inverse: np.ndarray, lo: np.ndarray, hi: np.ndarray
) -> tuple[tuple[Enclosure, Enclosure], tuple]:
    """The Krawczyk image K = m - Y V(m) + (I - Y J(X)) (X - m) of each box
    X = [lo, hi] that holds its point m = ``mid``, with Y = ``inverse``,
    and the enclosure J(X) it used.

    Every zero of V in X lies in K (Krawczyk 1969), whatever Y is; if K
    lies in the interior of X, and Y is the inverse of J(m) or near it, X
    holds exactly one zero (Moore, Kearfott and Cloud, *Introduction to
    Interval Analysis*, 2009, Theorem 8.2).
    """
    v = bounds.value(mid, mid)
    jac = bounds.jacobian(lo, hi)
    offset = (Enclosure(lo[:, 0], hi[:, 0]) - mid[:, 0], Enclosure(lo[:, 1], hi[:, 1]) - mid[:, 1])
    image = []
    for i in range(2):
        y0, y1 = inverse[:, i, 0], inverse[:, i, 1]
        k = mid[:, i] - (v[0] * y0 + v[1] * y1)
        for j in range(2):
            rest = (1.0 if i == j else 0.0) - (jac[0][j] * y0 + jac[1][j] * y1)
            k = k + rest * offset[j]
        image.append(k)
    return (image[0], image[1]), jac


def strictly_inside(image: tuple[Enclosure, Enclosure], lo: np.ndarray, hi: np.ndarray) -> np.ndarray:
    """Whether each box image lies in the interior of its box [lo, hi]."""
    return np.logical_and.reduce(
        [(k.lo > lo[:, i]) & (k.hi < hi[:, i]) for i, k in enumerate(image)]
    )


def prove_zeros(
    bounds, zeros: np.ndarray, jac: np.ndarray, radius: float
) -> tuple[np.ndarray, np.ndarray, tuple[np.ndarray, np.ndarray]]:
    """Whether each zero is elliptic and positive, with the corners of the
    pairwise disjoint boxes that prove it.

    ``jac`` is the float J at each zero, and ``radius`` that of the disk
    searched.  Each zero's box is the square around it of half-width an
    eighth of its distance to the nearest other zero (of twice ``radius``
    for a lone zero), a sixteenth where the float det J is not positive; it
    is halved up to ``_KRAWCZYK_TRIES - 1`` times until its Krawczyk image
    (``krawczyk_image``, with Y the float inverse of J) lies in its
    interior: the box then holds exactly one zero of the field, and every
    matrix of the enclosure of J there is invertible.  The enclosures of
    det J, from that J, and of the level over the box must then exclude 0.
    ``ValueError`` names the first zero where any of this fails, or whose
    box meets another.

    The det test is kept although, in exact arithmetic, a strict Krawczyk
    inclusion already makes every matrix of J(X) regular, so det J keeps
    one sign.  The computed det enclosure is rounded outward and can still
    meet 0 where the inclusion holds, and the type is read from its lower
    end: without the test such a box would be typed hyperbolic.
    """
    n = len(zeros)
    det = jac[:, 0, 0] * jac[:, 1, 1] - jac[:, 0, 1] * jac[:, 1, 0]
    with np.errstate(divide="ignore", invalid="ignore"):
        inverse = np.stack([jac[:, 1, 1], -jac[:, 0, 1], -jac[:, 1, 0], jac[:, 0, 0]], -1)
        inverse = (inverse / det[:, None]).reshape(n, 2, 2)
    gaps = np.sqrt(((zeros[:, None] - zeros[None]) ** 2).sum(-1))
    np.fill_diagonal(gaps, np.inf)
    # a saddle's image grows faster with its box than a node's does
    half = np.minimum(gaps.min(1), 2.0 * radius) / np.where(det > 0.0, 8.0, 16.0)
    lo, hi = zeros.copy(), zeros.copy()
    # per zero: its image inside its box, det J and the level clear of 0
    tests = np.zeros((3, n), bool)
    elliptic, positive = np.zeros(n, bool), np.zeros(n, bool)
    for attempt in range(_KRAWCZYK_TRIES):
        todo = np.flatnonzero(~tests.all(0))
        if not todo.size:
            break
        if attempt:
            half[todo] *= 0.5
        m = zeros[todo]
        lo[todo], hi[todo] = m - half[todo, None], m + half[todo, None]
        box_lo, box_hi = lo[todo], hi[todo]
        image, ((j00, j01), (j10, j11)) = krawczyk_image(bounds, m, inverse[todo], box_lo, box_hi)
        det_box = j00 * j11 - j01 * j10
        level = bounds.level(box_lo, box_hi)
        with np.errstate(invalid="ignore"):
            tests[:, todo] = (
                strictly_inside(image, box_lo, box_hi),
                ~det_box.contains_zero(),
                ~level.contains_zero(),
            )
        elliptic[todo], positive[todo] = det_box.lo > 0.0, level.lo > 0.0
    apart = ~((lo[:, None] <= hi[None]) & (lo[None] <= hi[:, None])).all(-1)
    np.fill_diagonal(apart, True)
    problems = (
        "holds no unique zero its Krawczyk image proves",
        "has a det J enclosure that meets 0",
        "has a level enclosure that meets 0",
    )
    for i in range(n):
        failed = [text for text, ok in zip(problems, tests[:, i]) if not ok]
        if not apart[i].all():
            failed.append("meets another zero's box")
        if failed:
            raise ValueError(
                f"the box {_box_text(lo[i], hi[i])} around the zero at "
                f"{_point_text(zeros[i])} {failed[0]}"
            )
    return elliptic, positive, (lo, hi)


def _box_text(lo: np.ndarray, hi: np.ndarray) -> str:
    return f"[{float(lo[0])!r}, {float(hi[0])!r}] x [{float(lo[1])!r}, {float(hi[1])!r}]"


def _point_text(z: np.ndarray) -> str:
    return f"({float(z[0])!r}, {float(z[1])!r})"


def _meets_disk(lo: np.ndarray, hi: np.ndarray, reach: float) -> np.ndarray:
    """Whether each box [lo, hi] of (m, 2) corners may meet the closed disk
    of squared radius at most ``reach``: whether the lower end of the
    enclosure of p^2 + q^2 at the point of the box nearest the origin is at
    most ``reach``.  The end is taken in plain floats: each square moved one
    float down (and kept at 0 or above), their sum moved one float down, the
    floats ``(Enclosure.of(p) ** 2 + Enclosure.of(q) ** 2).lo`` gives."""
    near = np.clip(0.0, lo, hi)
    square = np.maximum(np.nextafter(near * near, -np.inf), 0.0)
    return np.nextafter(square[:, 0] + square[:, 1], -np.inf) <= reach


def exclude_zeros(value: Callable, radius: float, lo_z: np.ndarray, hi_z: np.ndarray) -> None:
    """Prove that every zero of the field on the disk of ``radius`` lies in
    one of the boxes [lo_z, hi_z].

    The square [-radius, radius]^2 is split into ``_COVER_START``^2 boxes,
    and each level splits every open box into four.  A box is closed when
    all its points lie outside the closed disk, or when it lies in one of
    the given boxes, or when the enclosure of V over it excludes 0: then it
    holds no zero (``_meets_disk``).  ``value`` maps box corners to the
    enclosures (V_p, V_q) and runs once per level, over the boxes still
    open.  ``ValueError`` names an open box after ``_COVER_LEVELS`` levels,
    or when more than ``_COVER_MAX_BOXES`` are open.
    """
    edges = np.linspace(-radius, radius, _COVER_START + 1)
    corners = np.stack(np.meshgrid(edges[:-1], edges[:-1], indexing="ij"), -1).reshape(-1, 2)
    ends = np.stack(np.meshgrid(edges[1:], edges[1:], indexing="ij"), -1).reshape(-1, 2)
    lo, hi = corners, ends
    reach = (Enclosure.of(radius) ** 2).hi
    for _ in range(_COVER_LEVELS):
        inside = _meets_disk(lo, hi, reach)
        lo, hi = lo[inside], hi[inside]
        vp, vq = value(lo, hi)
        open_ = (vp.lo <= 0.0) & (0.0 <= vp.hi) & (vq.lo <= 0.0) & (0.0 <= vq.hi)
        lo, hi = lo[open_], hi[open_]
        open_ = ~((lo[:, None] >= lo_z[None]) & (hi[:, None] <= hi_z[None])).all(-1).any(-1)
        lo, hi = lo[open_], hi[open_]
        if not len(lo):
            return
        if len(lo) > _COVER_MAX_BOXES:
            break
        # the four quarters, each quarter's boxes in turn, with the corners'
        # coordinates from (lo, mid, hi)
        cuts = np.stack([lo, 0.5 * (lo + hi), hi])
        lo, hi = cuts[_QUARTER_CUTS, :, (0, 1)].transpose(0, 1, 3, 2).reshape(2, -1, 2)
    raise ValueError(
        f"no proof that the box {_box_text(lo[0], hi[0])} holds no zero but the ones found"
    )
