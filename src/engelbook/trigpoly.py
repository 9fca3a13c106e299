"""Exact trigonometric polynomial arithmetic over named chart coordinates.

An expression is a finite sum of terms

    coeff * prod(x_i ** p_i) * {1 | cos | sin}(sum_j k_j * x_j + phase)

with integer Laurent exponents ``p_i`` on non-angular coordinates and integer
frequencies ``k_j`` on coordinates allowed inside a trigonometric argument.
This class of functions is closed under addition, multiplication, partial
differentiation, and precomposition with maps that send each coordinate to a
constant or to an integer-affine combination of coordinates (``substitute``),
so every operation here is exact up to float round-off in coefficients and
phases.  Expressions are kept in a canonical normal form, which makes
equality testing a term-by-term comparison.

Canonical form of a term:

- frequencies that are zero are dropped; a trig factor with no frequencies
  left is folded into the coefficient;
- the first nonzero frequency (in chart coordinate order) is positive;
- the phase lies in [0, pi/2), using the quarter-turn identities to trade
  phase against the mode and the sign of the coefficient; phases within
  1e-12 of a quarter-turn boundary are snapped before folding;
- terms are sorted by (powers, mode, frequencies, phase) and merged when
  their discrete data agree and their phases differ by at most 1e-12;
- terms with |coeff| <= 1e-12 are dropped.

A term is a ``TrigTerm`` named tuple, equal to the plain tuple of its
fields.  ``_normalize_term`` is idempotent on canonical terms, so only a
product of two trigonometric factors, whose product-to-sum terms carry new
frequencies and phases, and a term list built from scratch normalize their
terms; every other operation keeps canonical terms canonical and runs only
the merge step (see ``Expr``).  A sum of many expressions (``Expr.sum``)
sorts all their terms once, and equals the left fold of ``+`` bit for bit.
"""

from __future__ import annotations

import enum
import functools
import itertools
import math
import operator
import re
from dataclasses import dataclass
from typing import Callable, Iterable, Mapping, NamedTuple, Sequence

import numpy as np

__all__ = [
    "KIND_ANGULAR",
    "KIND_LINEAR",
    "KIND_POLYNOMIAL",
    "Coordinate",
    "Expr",
    "Mode",
    "ParseError",
    "TrigTerm",
    "canonical_equal",
    "parse_expression",
]

TAU = math.tau
HALF_PI = math.pi / 2.0
ZERO_TOL = 1e-12
PHASE_SNAP = 1e-12

KIND_ANGULAR = "angular"
KIND_LINEAR = "linear"
KIND_POLYNOMIAL = "polynomial"
_KINDS = (KIND_ANGULAR, KIND_LINEAR, KIND_POLYNOMIAL)


class Mode(enum.IntEnum):
    """Trigonometric factor carried by a term; CONST means no factor."""

    CONST = 0
    COS = 1
    SIN = 2


@dataclass(frozen=True)
class Coordinate:
    """A chart coordinate together with the ways it may enter a term.

    ``angular``: periodic, appears only inside cos/sin, integer frequency.
    ``linear``: non-periodic but allowed inside cos/sin; the parser admits
    only unit frequencies on it, although products may create larger ones
    internally.  May also carry Laurent powers.
    ``polynomial``: appears only through Laurent powers.
    """

    name: str
    kind: str = KIND_POLYNOMIAL

    def __post_init__(self) -> None:
        if self.kind not in _KINDS:
            raise ValueError(f"unknown coordinate kind {self.kind!r}")
        if not self.name.isidentifier():
            raise ValueError(f"coordinate name {self.name!r} is not an identifier")

    @property
    def is_angular(self) -> bool:
        return self.kind == KIND_ANGULAR

    @property
    def trig_ok(self) -> bool:
        return self.kind != KIND_POLYNOMIAL


class TrigTerm(NamedTuple):
    """One canonical term coeff * monomial * {1, cos, sin}(freqs . x + phase).

    A tuple of its fields in this order, so it compares equal to the plain
    tuple ``(coeff, powers, mode, freqs, phase)``; the arithmetic reads its
    fields by position (``_ORDER``, ``t[1:4]``).
    """

    coeff: float
    powers: tuple[int, ...]
    mode: Mode
    freqs: tuple[int, ...]
    phase: float

    def discrete_key(self) -> tuple:
        return (self.powers, int(self.mode), self.freqs)


# the canonical term order: (powers, mode, freqs, phase); t[1:4] is the
# discrete key and t[1:5] the key and phase
_ORDER = operator.itemgetter(1, 2, 3, 4)


def _normalize_term(
    coeff: float,
    powers: tuple[int, ...],
    mode: Mode,
    freqs: tuple[int, ...],
    phase: float,
) -> TrigTerm:
    zero_freqs = (0,) * len(powers)
    if mode == Mode.CONST or not any(freqs):
        if mode == Mode.COS:
            coeff *= math.cos(phase)
        elif mode == Mode.SIN:
            coeff *= math.sin(phase)
        return TrigTerm(float(coeff), powers, Mode.CONST, zero_freqs, 0.0)

    first = next(f for f in freqs if f)
    if first < 0:
        freqs = tuple(-f for f in freqs)
        phase = -phase
        if mode == Mode.SIN:
            coeff = -coeff

    # Phase into [0, pi/2) by quarter turns; values within PHASE_SNAP of a
    # boundary are pushed over it so exact identities stay exact.
    ph = phase % TAU
    n = int(math.floor((ph + PHASE_SNAP) / HALF_PI))
    ph -= n * HALF_PI
    if ph < 0.0:
        ph = 0.0
    n %= 4
    if n == 1:
        # f(x + pi/2): cos -> -sin, sin -> cos
        mode, coeff = (Mode.SIN, -coeff) if mode == Mode.COS else (Mode.COS, coeff)
    elif n == 2:
        coeff = -coeff
    elif n == 3:
        # f(x + 3*pi/2): cos -> sin, sin -> -cos
        mode, coeff = (Mode.SIN, coeff) if mode == Mode.COS else (Mode.COS, -coeff)
    return TrigTerm(float(coeff), powers, mode, freqs, ph)


def _canonical(raw: Iterable[TrigTerm]) -> tuple[TrigTerm, ...]:
    """Canonical form of arbitrary terms: each term normalized, then merged."""
    return _merge_terms([_normalize_term(*t) for t in raw])


def _merge_terms(normed: list[TrigTerm]) -> tuple[TrigTerm, ...]:
    """Sort normalized terms, merge near-equal ones and drop the negligible.

    Terms merge when their discrete data agree and their phases lie within
    ``PHASE_SNAP`` of the group's first term, whose phase the sum keeps; so
    the phases that survive are more than ``PHASE_SNAP`` apart and a
    canonical tuple merges to itself.  The terms of magnitude at most
    ``ZERO_TOL`` are dropped (``_drop_negligible``), and a NaN or infinite
    coefficient raises ``ValueError``.
    """
    normed.sort(key=_ORDER)
    merged: list[TrigTerm] = []
    for t in normed:
        if merged:
            prev = merged[-1]
            if prev[1:4] == t[1:4] and abs(prev[4] - t[4]) <= PHASE_SNAP:
                merged[-1] = TrigTerm(prev[0] + t[0], *prev[1:])
                continue
        merged.append(t)
    return _drop_negligible(merged)


def _sum_terms(operands: Iterable[tuple[TrigTerm, ...]]) -> tuple[TrigTerm, ...] | None:
    """The terms of the left fold ``e1 + e2 + ...`` of canonical term tuples,
    from one sort; None where only the fold itself gives them.

    The stable sort keeps each group of terms with one discrete key and
    phase in operand order, and the group is summed left to right in that
    order.  Whenever its sum reaches ``ZERO_TOL`` or below it drops out and
    the group's next term starts it again, as in the fold, which drops it at
    that step.  Groups whose phases lie more than ``PHASE_SNAP`` apart never
    meet in the fold.  Where two phases of one discrete key differ by a
    nonzero amount at most ``PHASE_SNAP``, the fold merges across groups,
    and where a sum is not finite, the fold raises; both return None.
    """
    out: list[TrigTerm] = []
    head = None  # the group's first term
    acc = None  # the group's running sum, None while it has dropped out
    for t in sorted(itertools.chain.from_iterable(operands), key=_ORDER):
        if head is not None and head[1:5] == t[1:5]:
            if acc is None:
                acc = t
                continue
            c = acc[0] + t[0]
            if abs(c) <= ZERO_TOL:
                acc = None
            elif abs(c) < math.inf:
                acc = TrigTerm(c, *acc[1:])
            else:
                return None
            continue
        if head is not None and head[1:4] == t[1:4] and t[4] - head[4] <= PHASE_SNAP:
            return None
        if acc is not None:
            out.append(acc)
        head = acc = t
    if acc is not None:
        out.append(acc)
    return tuple(out)


def _drop_negligible(terms: list[TrigTerm]) -> tuple[TrigTerm, ...]:
    """The terms of magnitude above ``ZERO_TOL``; ``ValueError`` on a NaN or
    infinite coefficient, which is never dropped as a zero.  The filter
    keeps only finite coefficients, so a term is inspected again only when
    some term was left out."""
    kept = tuple(t for t in terms if ZERO_TOL < abs(t.coeff) < math.inf)
    if len(kept) < len(terms):
        for t in terms:
            if not math.isfinite(t.coeff):
                raise ValueError(f"expression coefficient {t.coeff!r} is not finite")
    return kept


def _coord_index(coords: tuple[Coordinate, ...], name: str) -> int:
    for i, c in enumerate(coords):
        if c.name == name:
            return i
    raise KeyError(f"no coordinate named {name!r}")


@dataclass(frozen=True)
class Expr:
    """A canonical sum of trigonometric polynomial terms over fixed coordinates.

    Construct through the classmethods or the parser.  The ``terms`` tuple
    is canonical on every path: a term list built from scratch goes through
    ``_canonical``, and each operation below keeps the invariant.

    Operations whose terms are canonical already skip ``_normalize_term``,
    which is idempotent on canonical terms, and run only the merge step:

    - a sum, whose operands are canonical;
    - a product term with a CONST-mode factor, which keeps the other
      factor's mode, frequencies and phase (zero ones for two constants);
    - ``partial``, which only lowers a power or turns cos into -sin (sin
      into cos) with the same frequencies and phase.

    ``Expr.sum`` adds many expressions with one sort of all their terms,
    each group of one discrete key and phase summed left to right in
    operand order; that is the left fold ``e1 + e2 + ...`` bit for bit,
    and where phases within ``PHASE_SNAP`` or a sum that is not finite
    would make the two differ, it runs the fold.

    Negation and scaling by a float leave each term canonical; scaling
    drops the terms it brings to ``ZERO_TOL`` or below, as the merge step
    does.  A NaN or infinite coefficient raises ``ValueError`` on every
    path, as does scaling by a factor that is not finite.  A sum with the
    zero expression returns the other operand, and a product with it, or
    its partial, returns the zero expression, after the same chart and
    coordinate-name checks.
    """

    coords: tuple[Coordinate, ...]
    terms: tuple[TrigTerm, ...]

    # -- construction ----------------------------------------------------

    @classmethod
    def from_terms(cls, coords: Sequence[Coordinate], terms: Iterable[TrigTerm]) -> "Expr":
        coords = tuple(coords)
        return cls(coords, _canonical(terms))

    @classmethod
    def zero(cls, coords: Sequence[Coordinate]) -> "Expr":
        return cls(tuple(coords), ())

    @classmethod
    def const(cls, coords: Sequence[Coordinate], value: float) -> "Expr":
        coords = tuple(coords)
        n = len(coords)
        return cls.from_terms(coords, [TrigTerm(float(value), (0,) * n, Mode.CONST, (0,) * n, 0.0)])

    @classmethod
    def term(
        cls,
        coords: Sequence[Coordinate],
        coeff: float,
        powers: Sequence[int] | None = None,
        mode: Mode = Mode.CONST,
        freqs: Sequence[int] | None = None,
        phase: float = 0.0,
    ) -> "Expr":
        """General validated single-term builder."""
        coords = tuple(coords)
        n = len(coords)
        powers = tuple(int(p) for p in (powers if powers is not None else (0,) * n))
        freqs = tuple(int(k) for k in (freqs if freqs is not None else (0,) * n))
        if len(powers) != n or len(freqs) != n:
            raise ValueError("powers and freqs must match the coordinate tuple")
        for c, p, k in zip(coords, powers, freqs):
            if p and c.is_angular:
                raise ValueError(f"angular coordinate {c.name!r} cannot carry a power")
            if k and not c.trig_ok:
                raise ValueError(
                    f"coordinate {c.name!r} cannot appear inside a trigonometric argument"
                )
        return cls.from_terms(coords, [TrigTerm(float(coeff), powers, mode, freqs, float(phase))])

    @classmethod
    def coordinate(cls, coords: Sequence[Coordinate], name: str) -> "Expr":
        coords = tuple(coords)
        i = _coord_index(coords, name)
        powers = [0] * len(coords)
        powers[i] = 1
        return cls.term(coords, 1.0, powers)

    @classmethod
    def sum(cls, coords: Sequence[Coordinate], operands: Iterable["Expr"]) -> "Expr":
        """The left fold ``zero + e1 + e2 + ...`` over ``coords``, bit for bit,
        from one sort of all the operands' terms (``_sum_terms``); where that
        sort cannot give the fold's terms, the fold itself."""
        zero = cls.zero(coords)
        live = []
        for e in operands:
            zero._check_same_chart(e)
            if e.terms:
                live.append(e)
        if len(live) <= 1:
            return live[0] if live else zero
        terms = _sum_terms(e.terms for e in live)
        if terms is None:
            return functools.reduce(operator.add, live)
        return cls(zero.coords, terms)

    # -- structure --------------------------------------------------------

    @functools.cached_property
    def read_axes(self) -> frozenset[int]:
        """The coordinate axes this expression reads: those where one of its
        terms has a nonzero power or frequency.  Its value does not change
        along any other axis."""
        return frozenset(
            i for t in self.terms for i, (p, k) in enumerate(zip(t.powers, t.freqs)) if p or k
        )

    def max_coeff(self) -> float:
        return max((abs(t.coeff) for t in self.terms), default=0.0)

    def is_zero(self, tol: float = ZERO_TOL) -> bool:
        """Coefficient-bound zero test; a certificate only where monomial
        factors are bounded by 1 in magnitude."""
        return self.max_coeff() <= tol

    def _check_same_chart(self, other: "Expr") -> None:
        if self.coords != other.coords:
            raise ValueError("expressions live over different coordinate tuples")

    # -- arithmetic -------------------------------------------------------

    def _coerce(self, other: "Expr | float | int") -> "Expr":
        if isinstance(other, Expr):
            self._check_same_chart(other)
            return other
        if isinstance(other, (int, float)):
            return Expr.const(self.coords, float(other))
        return NotImplemented  # type: ignore[return-value]

    def __add__(self, other: "Expr | float | int") -> "Expr":
        rhs = self._coerce(other)
        if rhs is NotImplemented:
            return NotImplemented
        if not rhs.terms:
            return self
        if not self.terms:
            return rhs
        return Expr(self.coords, _merge_terms(list(self.terms + rhs.terms)))

    __radd__ = __add__

    def __neg__(self) -> "Expr":
        return Expr(
            self.coords,
            tuple(TrigTerm(-t.coeff, t.powers, t.mode, t.freqs, t.phase) for t in self.terms),
        )

    def __sub__(self, other: "Expr | float | int") -> "Expr":
        rhs = self._coerce(other)
        if rhs is NotImplemented:
            return NotImplemented
        return self + (-rhs)

    def __rsub__(self, other: "Expr | float | int") -> "Expr":
        return (-self) + other

    def __mul__(self, other: "Expr | float | int") -> "Expr":
        if isinstance(other, (int, float)):
            c = float(other)
            if not math.isfinite(c):
                raise ValueError(f"expression factor {c!r} is not finite")
            scaled = [TrigTerm(c * t.coeff, t.powers, t.mode, t.freqs, t.phase) for t in self.terms]
            return Expr(self.coords, _drop_negligible(scaled))
        rhs = self._coerce(other)
        if rhs is NotImplemented:
            return NotImplemented
        if not self.terms:
            return self
        if not rhs.terms:
            return rhs
        out: list[TrigTerm] = []
        for a in self.terms:
            for b in rhs.terms:
                if a.mode == Mode.CONST or b.mode == Mode.CONST:
                    out.extend(_term_product(a, b))
                else:
                    out.extend(_normalize_term(*t) for t in _term_product(a, b))
        return Expr(self.coords, _merge_terms(out))

    __rmul__ = __mul__

    def __pow__(self, n: int) -> "Expr":
        if not isinstance(n, int) or n < 0:
            raise ValueError("only nonnegative integer powers are defined")
        out = Expr.const(self.coords, 1.0)
        for _ in range(n):
            out = out * self
        return out

    # -- calculus ---------------------------------------------------------

    def partial(self, name: str) -> "Expr":
        """Exact partial derivative with respect to the named coordinate."""
        i = _coord_index(self.coords, name)
        if not self.terms:
            return self
        out: list[TrigTerm] = []
        for t in self.terms:
            p = t.powers[i]
            if p:
                powers = list(t.powers)
                powers[i] = p - 1
                out.append(TrigTerm(t.coeff * p, tuple(powers), t.mode, t.freqs, t.phase))
            k = t.freqs[i]
            if k and t.mode == Mode.COS:
                out.append(TrigTerm(-t.coeff * k, t.powers, Mode.SIN, t.freqs, t.phase))
            elif k and t.mode == Mode.SIN:
                out.append(TrigTerm(t.coeff * k, t.powers, Mode.COS, t.freqs, t.phase))
        return Expr(self.coords, _merge_terms(out))

    # -- evaluation -------------------------------------------------------

    def compile(self) -> Callable[[np.ndarray], np.ndarray]:
        """Vectorized evaluator of (..., dim) points, ``_evaluator``'s one-column case.

        Traced as ``trigpoly.compile``: ``batch_eval_scalars`` calls it for a
        lone live scalar, and shares one ``_evaluator`` among more."""
        fn = _evaluator((self,))
        return lambda pts: fn(pts)[..., 0]

    # -- substitution -----------------------------------------------------

    def substitute(
        self,
        coords: Sequence[Coordinate],
        images: Mapping[str, "float | tuple[Mapping[str, int], float]"] = {},
    ) -> "Expr":
        """Precompose with a map onto the coordinate tuple ``coords``.

        ``images`` sends a coordinate to a constant, or to ``(linear,
        offset)``: ``offset`` plus the integer combination ``linear`` of
        coordinates of ``coords``.  A coordinate it does not name goes to
        the coordinate of ``coords`` with its name.  So constants restrict
        to a slice, pairs shear or rename, and the default transplants.

        Raises ``ValueError`` for a negative power at a constant 0 (a Laurent
        pole), a non-integer multiplier, a power through an image that is not
        one signed coordinate, a power landing on an angular coordinate, a
        frequency landing on a polynomial one, and a coordinate sent with
        multiplier 1 to one coordinate of another kind.  A term that a
        constant brings to a zero coefficient is dropped before later checks;
        one that a constant brings to a NaN or infinite coefficient raises
        ``ValueError`` too, as every ``Expr`` does.
        """
        coords = tuple(coords)
        for name in images:
            _coord_index(self.coords, name)
        # per coordinate: a constant, or its (target, multiplier) pairs and offset
        maps: list[float | tuple[list[tuple[int, int]], float]] = []
        for c in self.coords:
            image = images.get(c.name, ({c.name: 1}, 0.0))
            if not isinstance(image, tuple):
                maps.append(float(image))
                continue
            row = [0] * len(coords)
            for name, mult in image[0].items():
                if int(mult) != mult:
                    raise ValueError("substitution multipliers must be integers")
                row[_coord_index(coords, name)] += int(mult)
            pairs = [(j, m) for j, m in enumerate(row) if m]
            offset = float(image[1])
            if len(pairs) == 1 and pairs[0][1] == 1 and offset == 0.0:
                target = coords[pairs[0][0]]
                if target.kind != c.kind:
                    raise ValueError(
                        f"cannot transplant {c.name!r} ({c.kind}) onto {target.name!r} ({target.kind})"
                    )
            maps.append((pairs, offset))

        out: list[TrigTerm] = []
        for t in self.terms:
            coeff, phase = t.coeff, t.phase
            powers = [0] * len(coords)
            freqs = [0] * len(coords)
            for c, image, p, k in zip(self.coords, maps, t.powers, t.freqs):
                if isinstance(image, float):
                    if p:
                        if image == 0.0 and p < 0:
                            raise ValueError(f"Laurent pole: {c.name}^({p}) at {c.name} = 0")
                        coeff *= image**p
                        if coeff == 0.0:
                            break
                    if k:
                        phase += k * image
                    continue
                pairs, offset = image
                if p:
                    if offset != 0.0 or len(pairs) != 1 or abs(pairs[0][1]) != 1:
                        raise ValueError(
                            f"power of {c.name!r} cannot be pushed through a non-permutation substitution"
                        )
                    j, m = pairs[0]
                    if coords[j].is_angular:
                        raise ValueError(
                            f"substitution would put a power on angular coordinate {coords[j].name!r}"
                        )
                    powers[j] += p
                    coeff *= float(m) ** p
                if k:
                    for j, m in pairs:
                        freqs[j] += k * m
                    phase += k * offset
            else:  # no constant zeroed the term
                for j, k in enumerate(freqs):
                    if k and not coords[j].trig_ok:
                        raise ValueError(
                            f"substitution would put a frequency on coordinate {coords[j].name!r}"
                        )
                out.append(TrigTerm(coeff, tuple(powers), t.mode, tuple(freqs), phase))
        return Expr.from_terms(coords, out)

    # -- output -----------------------------------------------------------

    def to_string(self) -> str:
        if not self.terms:
            return "0"
        chunks: list[str] = []
        for t in self.terms:
            body = _term_body(self.coords, t)
            if not chunks:
                chunks.append(f"-{body}" if t.coeff < 0 else body)
            else:
                chunks.append(f"{'-' if t.coeff < 0 else '+'} {body}")
        return " ".join(chunks)

    def __str__(self) -> str:
        return self.to_string()


def _evaluator(exprs: Sequence[Expr]) -> Callable[[np.ndarray], np.ndarray]:
    """Map (..., dim) points to (..., len(exprs)), one column per expression.

    Each call computes every distinct power ``x_i ** p`` and trig factor
    ``cos/sin(phase + sum k_i x_i)`` once for all terms.  A term is ``coeff
    * f1 * f2 ...``, powers in coordinate order and the trig factor last,
    and a column sums its terms in order from +0.0, so it is never -0.0.
    As ``np.full(c) * f`` and ``c * f`` are the same IEEE product, each
    column is bitwise the one-term-at-a-time sum from ``np.full(coeff)``.
    """
    slots: dict[tuple, int] = {}  # factor -> its index in the factors of a call
    columns: list[list] = [[] for _ in exprs]
    for column, e in zip(columns, exprs):
        for t in e.terms:
            idx = [slots.setdefault((i, p), len(slots)) for i, p in enumerate(t.powers) if p]
            if t.mode != Mode.CONST:
                idx.append(slots.setdefault((t.mode, t.phase, t.freqs), len(slots)))
            column.append((t.coeff, idx))

    def factor(pts: np.ndarray, key: tuple) -> np.ndarray:
        if len(key) == 2:
            return pts[..., key[0]] ** key[1]
        mode, arg, freqs = key
        for i, k in enumerate(freqs):
            if k:
                arg = arg + k * pts[..., i]
        return np.cos(arg) if mode == Mode.COS else np.sin(arg)

    def fn(pts: np.ndarray) -> np.ndarray:
        pts = np.asarray(pts, dtype=float)
        factors = [factor(pts, key) for key in slots]
        out = np.zeros(pts.shape[:-1] + (len(columns),))
        for j, column in enumerate(columns):
            col = out[..., j]
            for acc, idx in column:
                for s in idx:
                    acc = acc * factors[s]
                col += acc
        return out

    return fn


def _term_product(a: TrigTerm, b: TrigTerm) -> list[TrigTerm]:
    coeff = a.coeff * b.coeff
    powers = tuple(map(operator.add, a.powers, b.powers))
    if a.mode == Mode.CONST and b.mode == Mode.CONST:
        return [TrigTerm(coeff, powers, Mode.CONST, a.freqs, 0.0)]
    if a.mode == Mode.CONST:
        return [TrigTerm(coeff, powers, b.mode, b.freqs, b.phase)]
    if b.mode == Mode.CONST:
        return [TrigTerm(coeff, powers, a.mode, a.freqs, a.phase)]
    diff = tuple(map(operator.sub, a.freqs, b.freqs))
    summ = tuple(map(operator.add, a.freqs, b.freqs))
    dph = a.phase - b.phase
    sph = a.phase + b.phase
    half = 0.5 * coeff
    # product-to-sum identities
    if a.mode == Mode.COS and b.mode == Mode.COS:
        return [
            TrigTerm(half, powers, Mode.COS, diff, dph),
            TrigTerm(half, powers, Mode.COS, summ, sph),
        ]
    if a.mode == Mode.SIN and b.mode == Mode.SIN:
        return [
            TrigTerm(half, powers, Mode.COS, diff, dph),
            TrigTerm(-half, powers, Mode.COS, summ, sph),
        ]
    if a.mode == Mode.SIN and b.mode == Mode.COS:
        return [
            TrigTerm(half, powers, Mode.SIN, summ, sph),
            TrigTerm(half, powers, Mode.SIN, diff, dph),
        ]
    # cos * sin
    return [
        TrigTerm(half, powers, Mode.SIN, summ, sph),
        TrigTerm(-half, powers, Mode.SIN, diff, dph),
    ]


def canonical_equal(a: Expr, b: Expr, tol: float = 1e-9) -> bool:
    """Whether two canonical expressions agree coefficient-by-coefficient.

    Terms are matched on (powers, mode, frequencies) and paired by phase
    within ``tol``; paired coefficients must agree within ``tol`` and
    unpaired terms must have coefficient magnitude at most ``tol``.
    """
    if a.coords != b.coords:
        return False

    def grouped(e: Expr) -> dict[tuple, list[TrigTerm]]:
        groups: dict[tuple, list[TrigTerm]] = {}
        for t in e.terms:
            groups.setdefault(t.discrete_key(), []).append(t)
        return groups

    ga, gb = grouped(a), grouped(b)
    for key in set(ga) | set(gb):
        ta = ga.get(key, [])
        tb = gb.get(key, [])
        i = j = 0
        while i < len(ta) and j < len(tb):
            if abs(ta[i].phase - tb[j].phase) <= tol:
                if abs(ta[i].coeff - tb[j].coeff) > tol:
                    return False
                i += 1
                j += 1
            elif ta[i].phase < tb[j].phase:
                if abs(ta[i].coeff) > tol:
                    return False
                i += 1
            else:
                if abs(tb[j].coeff) > tol:
                    return False
                j += 1
        for t in ta[i:] + tb[j:]:
            if abs(t.coeff) > tol:
                return False
    return True


# -- pretty printing -------------------------------------------------------


def _fmt_float(x: float) -> str:
    if x == int(x) and abs(x) < 1e15:
        return str(int(x))
    return repr(x)


def _linarg_string(coords: tuple[Coordinate, ...], t: TrigTerm) -> str:
    parts: list[str] = []
    for c, k in zip(coords, t.freqs):
        if not k:
            continue
        body = c.name if abs(k) == 1 else f"{abs(k)}*{c.name}"
        if not parts:
            parts.append(body if k > 0 else f"-{body}")
        else:
            parts.append(f"{'+' if k > 0 else '-'} {body}")
    if t.phase != 0.0:
        parts.append(f"+ {_fmt_float(t.phase)}")
    return " ".join(parts)


def _term_body(coords: tuple[Coordinate, ...], t: TrigTerm) -> str:
    factors: list[str] = []
    for c, p in zip(coords, t.powers):
        if p == 0:
            continue
        factors.append(c.name if p == 1 else f"{c.name}^{p}")
    if t.mode != Mode.CONST:
        fn = "cos" if t.mode == Mode.COS else "sin"
        factors.append(f"{fn}({_linarg_string(coords, t)})")
    mag = abs(t.coeff)
    if not factors or mag != 1.0:
        factors.insert(0, _fmt_float(mag))
    return "*".join(factors)


# -- parser ------------------------------------------------------------------


class ParseError(ValueError):
    """Syntax or validation error in an expression string, with position."""

    def __init__(self, message: str, position: int) -> None:
        super().__init__(f"{message} (at position {position})")
        self.position = position


@dataclass(frozen=True)
class _Token:
    kind: str  # "num" | "name" | "op"
    text: str
    value: float
    pos: int


_TOKEN_RE = re.compile(
    r"(?P<num>\d+\.\d*(?:[eE][+-]?\d+)?|\.\d+(?:[eE][+-]?\d+)?|\d+(?:[eE][+-]?\d+)?)"
    r"|(?P<name>[A-Za-z_]\w*)"
    r"|(?P<op>[-+*^()])"
)


def _tokenize(text: str) -> list[_Token]:
    tokens: list[_Token] = []
    pos = 0
    while pos < len(text):
        if text[pos].isspace():
            pos += 1
            continue
        m = _TOKEN_RE.match(text, pos)
        if m is None:
            raise ParseError(f"unexpected character {text[pos]!r}", pos)
        if m.lastgroup == "num":
            tokens.append(_Token("num", m.group(), float(m.group()), pos))
        elif m.lastgroup == "name":
            tokens.append(_Token("name", m.group(), 0.0, pos))
        else:
            tokens.append(_Token("op", m.group(), 0.0, pos))
        pos = m.end()
    return tokens


class _Parser:
    """Recursive descent over: expr := term (+- term)*, term := factor (* factor)*,
    factor := number | coord[^int] | cos/sin(linarg) | (expr)."""

    def __init__(self, text: str, coords: Sequence[Coordinate]) -> None:
        self.text = text
        self.tokens = _tokenize(text)
        self.pos = 0
        self.coords = tuple(coords)
        self.index = {c.name: i for i, c in enumerate(self.coords)}

    def _peek(self) -> _Token | None:
        return self.tokens[self.pos] if self.pos < len(self.tokens) else None

    def _at_op(self, symbols: str) -> bool:
        tok = self._peek()
        return tok is not None and tok.kind == "op" and tok.text in symbols

    def _advance(self) -> _Token:
        tok = self._peek()
        if tok is None:
            raise ParseError("unexpected end of input", len(self.text))
        self.pos += 1
        return tok

    def _expect_op(self, symbol: str) -> None:
        tok = self._peek()
        if tok is None:
            raise ParseError(f"expected {symbol!r}", len(self.text))
        if tok.kind != "op" or tok.text != symbol:
            raise ParseError(f"expected {symbol!r}", tok.pos)
        self.pos += 1

    def parse(self) -> Expr:
        e = self.expr()
        tok = self._peek()
        if tok is not None:
            raise ParseError(f"unexpected token {tok.text!r}", tok.pos)
        return e

    def expr(self) -> Expr:
        negate = False
        if self._at_op("+-"):
            negate = self._advance().text == "-"
        out = self.term()
        if negate:
            out = -out
        while self._at_op("+-"):
            op = self._advance().text
            rhs = self.term()
            out = out + rhs if op == "+" else out - rhs
        return out

    def term(self) -> Expr:
        out = self.factor()
        while self._at_op("*"):
            self._advance()
            out = out * self.factor()
        return out

    def factor(self) -> Expr:
        tok = self._peek()
        if tok is None:
            raise ParseError("unexpected end of input", len(self.text))
        if tok.kind == "op" and tok.text == "(":
            self._advance()
            e = self.expr()
            self._expect_op(")")
            return e
        if tok.kind == "num":
            self._advance()
            return Expr.const(self.coords, tok.value)
        if tok.kind == "name":
            if tok.text in ("cos", "sin"):
                self._advance()
                self._expect_op("(")
                freqs, phase = self.linarg()
                self._expect_op(")")
                mode = Mode.COS if tok.text == "cos" else Mode.SIN
                return Expr.term(self.coords, 1.0, None, mode, freqs, phase)
            if tok.text in self.index:
                self._advance()
                i = self.index[tok.text]
                c = self.coords[i]
                if c.is_angular:
                    raise ParseError(
                        f"angular coordinate {c.name!r} may appear only inside cos or sin",
                        tok.pos,
                    )
                p = 1
                if self._at_op("^"):
                    self._advance()
                    p = self._exponent()
                powers = [0] * len(self.coords)
                powers[i] = p
                return Expr.term(self.coords, 1.0, powers)
            if tok.text == "pi":
                self._advance()
                return Expr.const(self.coords, math.pi)
            raise ParseError(f"unknown coordinate {tok.text!r}", tok.pos)
        raise ParseError(f"unexpected token {tok.text!r}", tok.pos)

    def _exponent(self) -> int:
        neg = False
        if self._at_op("-"):
            self._advance()
            neg = True
        tok = self._advance()
        if tok.kind != "num" or not tok.text.isdigit():
            raise ParseError("exponent must be an integer", tok.pos)
        p = int(tok.text)
        return -p if neg else p

    def linarg(self) -> tuple[tuple[int, ...], float]:
        """Sum of integer multiples of trig-capable coordinates plus constants."""
        freqs = [0] * len(self.coords)
        phase = 0.0
        first = True
        while True:
            sign = 1
            if self._at_op("+-"):
                sign = -1 if self._advance().text == "-" else 1
            elif not first:
                break
            first = False
            tok = self._advance()
            if tok.kind == "num":
                if self._at_op("*"):
                    self._advance()
                    self._apply_freq(freqs, tok, sign, self._advance())
                else:
                    phase += sign * tok.value
            elif tok.kind == "name":
                if tok.text == "pi" and tok.text not in self.index:
                    phase += sign * math.pi
                elif tok.text in self.index:
                    unit = _Token("num", "1", 1.0, tok.pos)
                    self._apply_freq(freqs, unit, sign, tok)
                else:
                    raise ParseError(f"unknown coordinate {tok.text!r}", tok.pos)
            else:
                raise ParseError(f"unexpected token {tok.text!r}", tok.pos)
        return tuple(freqs), phase

    def _apply_freq(self, freqs: list[int], num_tok: _Token, sign: int, name_tok: _Token) -> None:
        if name_tok.kind != "name":
            raise ParseError("expected a coordinate name", name_tok.pos)
        if name_tok.text not in self.index:
            raise ParseError(f"unknown coordinate {name_tok.text!r}", name_tok.pos)
        i = self.index[name_tok.text]
        c = self.coords[i]
        if not c.trig_ok:
            raise ParseError(
                f"coordinate {c.name!r} may not appear inside a trigonometric argument",
                name_tok.pos,
            )
        if num_tok.value != int(num_tok.value):
            raise ParseError(
                f"non-integer frequency {num_tok.text} on coordinate {c.name!r}",
                num_tok.pos,
            )
        k = sign * int(num_tok.value)
        freqs[i] += k
        if c.kind == KIND_LINEAR and abs(freqs[i]) > 1:
            raise ParseError(
                f"frequency magnitude {abs(freqs[i])} not allowed on linear coordinate {c.name!r}",
                num_tok.pos,
            )


def parse_expression(text: str, coords: Sequence[Coordinate]) -> Expr:
    """Parse an expression string over the given coordinates.

    Raises ParseError with a character position for syntax errors, unknown
    coordinates, angular coordinates outside a trigonometric argument,
    non-integer frequencies, and over-large frequencies on linear
    coordinates.
    """
    return _Parser(text, coords).parse()
