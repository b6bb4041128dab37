"""Canonical-form fragment of the Dedekind-completed hyperreal line.

A number here is ``h# + sign * delta`` where ``h`` is a hyperreal, ``sign``
is -1, 0 or +1, and ``delta`` is an additive idempotent.  This covers the
pure embedded cuts (sign 0) plus the two oriented families around them; every
operation below stays inside the fragment.

Idempotents come in two consecutive kinds per positive scale ``a``:

* ``B(a)``: the largest idempotent not containing ``a`` (scaled infinitesimal
  sup; ``B(1)`` is the sup of the infinitesimals, printed ``eps_d``);
* ``A(a)``: the smallest idempotent containing ``a`` (scaled finite sup;
  ``A(1)`` is the sup of the positive reals, printed ``DELTA_d``).

Idempotent identity is archimedean-class identity of scales, so ``B(2)`` and
``B(1)`` are the same idempotent with different representatives.

Addition never cancels an idempotent: ``x + (-x)`` returns ``-ab_p(x)``,
which is exactly the failure of cancellation the absorption part measures.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass, field
from typing import Optional

from . import seqfield as sf
from .errors import (ClassUndetermined, NotInfinitesimal, OutOfRange, SignUndetermined,
                     UnlimitedValue)
from .intervals import Interval
from .seqfield import (ArchClass, ClassTag, CompareResult, Hyperreal, Verdict,
                       arch_compare, classify, hyper_floor, make, shadow)

DEFAULT_DEPTH = sf.DEFAULT_DEPTH


class IdemKind(enum.Enum):
    ZERO = 0
    B = 1
    A = 2


@dataclass(frozen=True)
class Idempotent:
    kind: IdemKind
    scale: Optional[Hyperreal] = None

    # construction depth for the positivity check; not part of the value
    check_depth: int = field(default=DEFAULT_DEPTH, compare=False, repr=False)

    def __post_init__(self):
        if self.kind is IdemKind.ZERO:
            if self.scale is not None:
                raise ValueError("ZERO idempotent carries no scale")
            return
        if self.scale is None:
            raise ValueError(f"{self.kind.name} idempotent needs a scale")
        check = sf._compare(self.scale, 0, self.check_depth, self.check_depth // 2)
        if check.verdict is not Verdict.GREATER:
            raise ValueError(
                f"idempotent scale must verify positive at depth {self.check_depth}"
                f" (got {check.verdict.value})")

    @classmethod
    def zero(cls) -> "Idempotent":
        return cls(IdemKind.ZERO)

    @classmethod
    def b(cls, scale, depth: int = DEFAULT_DEPTH) -> "Idempotent":
        return cls(IdemKind.B, make(scale), check_depth=depth)

    @classmethod
    def a(cls, scale, depth: int = DEFAULT_DEPTH) -> "Idempotent":
        return cls(IdemKind.A, make(scale), check_depth=depth)

    @property
    def is_zero(self) -> bool:
        return self.kind is IdemKind.ZERO

    def scaled(self, factor: Hyperreal, depth: int) -> "Idempotent":
        """Scale-part multiplication: B(a) -> B(f*a), A(a) -> A(f*a), the new
        scale checked positive at ``depth``, the depth of the operation."""
        if self.is_zero:
            return self
        return Idempotent(self.kind, make(factor) * self.scale, check_depth=depth)

    def render(self) -> str:
        if self.is_zero:
            return "0"
        one = self.scale.const_value == 1
        if self.kind is IdemKind.B:
            return "eps_d" if one else f"B({self.scale.label})"
        return "DELTA_d" if one else f"A({self.scale.label})"

    def __eq__(self, other):
        if not isinstance(other, Idempotent):
            return NotImplemented
        return idem_cmp(self, other) is Verdict.EQUAL

    __hash__ = None  # depth-dependent equality; not hashable


EPS_IDEM = Idempotent.b(sf.ONE)
DELTA_IDEM = Idempotent.a(sf.ONE)
ZERO_IDEM = Idempotent.zero()


def idem_cmp(d1: Idempotent, d2: Idempotent, depth: int = DEFAULT_DEPTH) -> Verdict:
    """Order on idempotents: ZERO < B(a) < A(a); within a kind the scales'
    archimedean classes decide; A(a) < B(b) exactly when class(a) < class(b)."""
    if d1.is_zero and d2.is_zero:
        return Verdict.EQUAL
    if d1.is_zero:
        return Verdict.LESS
    if d2.is_zero:
        return Verdict.GREATER
    rel = arch_compare(d1.scale, d2.scale, depth)
    if rel is ArchClass.UNDETERMINED:
        return Verdict.UNDETERMINED
    if rel is ArchClass.LOWER:
        return Verdict.LESS
    if rel is ArchClass.HIGHER:
        return Verdict.GREATER
    # same archimedean class: consecutive pair B < A
    if d1.kind is d2.kind:
        return Verdict.EQUAL
    return Verdict.LESS if d1.kind is IdemKind.B else Verdict.GREATER


def idem_eq(d1: Idempotent, d2: Idempotent, depth: int = DEFAULT_DEPTH) -> bool:
    return idem_cmp(d1, d2, depth) is Verdict.EQUAL


def idem_add(d1: Idempotent, d2: Idempotent, depth: int = DEFAULT_DEPTH) -> Idempotent:
    """Addition of idempotents is the class maximum."""
    verdict = idem_cmp(d1, d2, depth)
    if verdict is Verdict.UNDETERMINED:
        raise ClassUndetermined(f"cannot order {d1.render()} and {d2.render()}")
    return d2 if verdict is Verdict.LESS else d1


@dataclass(frozen=True)
class DedekindNumber:
    h: Hyperreal
    sign: int
    delta: Idempotent

    def __post_init__(self):
        if self.sign not in (-1, 0, 1):
            raise ValueError(f"sign must be -1, 0 or +1, got {self.sign}")
        if (self.sign == 0) != self.delta.is_zero:
            raise ValueError("sign 0 exactly when the idempotent part is ZERO")

    def render(self) -> str:
        base = f"{self.h.label}#"
        if self.sign == 0:
            return base
        op = "+" if self.sign > 0 else "-"
        return f"{base} {op} {self.delta.render()}"

    def __add__(self, other):
        return dd_add(self, other)

    def __neg__(self):
        return dd_neg(self)

    def __sub__(self, other):
        return dd_add(self, dd_neg(other))

    def __eq__(self, other):
        if not isinstance(other, DedekindNumber):
            return NotImplemented
        return dd_eq(self, other)

    __hash__ = None

    def __repr__(self):
        return f"DedekindNumber({self.render()})"


def embed(h) -> DedekindNumber:
    """Embed a hyperreal as the pure cut h# (absorption part 0)."""
    return DedekindNumber(make(h), 0, ZERO_IDEM)


def eps_d() -> DedekindNumber:
    """Sup of the infinitesimals as a number: 0# + eps_d."""
    return DedekindNumber(sf.ZERO, 1, EPS_IDEM)


def delta_d() -> DedekindNumber:
    """Sup of the positive reals as a number: 0# + DELTA_d."""
    return DedekindNumber(sf.ZERO, 1, DELTA_IDEM)


def zero_cut() -> DedekindNumber:
    return embed(0)


def from_idem(delta: Idempotent, sign: int = 1) -> DedekindNumber:
    """The idempotent itself as a number, 0# +/- delta."""
    if delta.is_zero:
        return zero_cut()
    return DedekindNumber(sf.ZERO, sign, delta)


def _absorbed_by(h: Hyperreal, delta: Idempotent, depth: int,
                 probes: int = sf.DEFAULT_PROBES) -> Optional[bool]:
    """Does the idempotent absorb the hyperreal h?  None when undecidable.

    B(a) absorbs the values of class strictly below a (|h|/a infinitesimal);
    A(a) also absorbs its own class (|h|/a appreciable); ZERO absorbs only 0.
    """
    if delta.is_zero:
        result = sf._compare(h, 0, depth, depth // 2)
        if result.verdict is Verdict.EQUAL:
            return True
        if result.verdict is Verdict.UNDETERMINED:
            return None
        return False
    ratio = abs(h) * delta.scale.tilde_inv()
    tag = classify(ratio, depth, probes)
    if tag is ClassTag.UNDETERMINED:
        return None
    if delta.kind is IdemKind.B:
        return tag is ClassTag.INFINITESIMAL
    return tag in (ClassTag.INFINITESIMAL, ClassTag.APPRECIABLE)


def dd_add(x: DedekindNumber, y: DedekindNumber,
           depth: int = DEFAULT_DEPTH) -> DedekindNumber:
    """Add canonical forms: hyperreal parts add, idempotents take the class
    maximum, and the sign follows the dominant operand (with (+,-) -> - on
    equal classes, the absorption rule that kills additive inverses)."""
    h = x.h + y.h
    verdict = idem_cmp(x.delta, y.delta, depth)
    if verdict is Verdict.UNDETERMINED:
        raise ClassUndetermined(
            f"cannot order {x.delta.render()} and {y.delta.render()}")
    if verdict is Verdict.LESS:
        return DedekindNumber(h, y.sign, y.delta)
    if verdict is Verdict.GREATER:
        return DedekindNumber(h, x.sign, x.delta)
    # equal idempotent classes (covers ZERO + ZERO)
    if x.delta.is_zero:
        return DedekindNumber(h, 0, ZERO_IDEM)
    sign = 1 if (x.sign > 0 and y.sign > 0) else -1
    return DedekindNumber(h, sign, x.delta)


def dd_neg(x: DedekindNumber) -> DedekindNumber:
    """Negation swaps the orientation: -(h# + D) = (-h)# - D."""
    return DedekindNumber(-x.h, -x.sign, x.delta)


def dd_scalar_mul(b, x: DedekindNumber, depth: int = DEFAULT_DEPTH) -> DedekindNumber:
    """Multiply by a hyperreal scalar with decidable sign.

    Positive b scales the hyperreal part and the idempotent scale; negative b
    routes through negation, flipping the orientation.
    """
    b = make(b)
    check = sf._compare(b, 0, depth, depth // 2)
    if check.verdict is Verdict.UNDETERMINED:
        raise SignUndetermined(f"sign of {b.label} undecided at depth {depth}")
    if check.verdict is Verdict.EQUAL:
        raise SignUndetermined("scalar must be eventually nonzero")
    negative = check.verdict is Verdict.LESS
    # the suffix-verified sign makes b (resp. -b) a valid positive scale
    scaled_delta = x.delta.scaled(-b if negative else b, depth)
    sign = x.sign if not negative else -x.sign
    return DedekindNumber(b * x.h, sign, scaled_delta)


def ab_p(x: DedekindNumber) -> Idempotent:
    """Absorption part: the maximal idempotent y with x + y = x."""
    return x.delta


def absorbs(x: DedekindNumber, y: DedekindNumber, depth: int = DEFAULT_DEPTH,
            probes: int = sf.DEFAULT_PROBES) -> bool:
    """True when |y| <= ab_p(x) in the canonical order, i.e. x + y = x.

    The sign of y is irrelevant: a form absorbing -y absorbs y as well.
    """
    habs = _absorbed_by(y.h, x.delta, depth, probes)
    if habs is None:
        raise ClassUndetermined("absorption of the hyperreal part undecided")
    if not habs:
        return False
    verdict = idem_cmp(y.delta, x.delta, depth)
    if verdict is Verdict.UNDETERMINED:
        raise ClassUndetermined("idempotent class comparison undecided")
    return verdict in (Verdict.LESS, Verdict.EQUAL)


def wst(x: DedekindNumber, tolerance, depth: int = DEFAULT_DEPTH) -> Interval:
    """Standard part of a limited form as a certified rational interval.

    This is ``shadow`` of the hyperreal part: width at most ``2*tolerance``,
    endpoints rounded outward to the dyadic grid ``2^-k <= tolerance/8``.
    """
    try:
        return shadow(x.h, tolerance, depth)
    except UnlimitedValue as exc:
        raise OutOfRange(f"{x.render()} lies outside (-DELTA_d, DELTA_d)") from exc


def dd_cmp(x: DedekindNumber, y: DedekindNumber, depth: int = DEFAULT_DEPTH,
           probes: int = sf.DEFAULT_PROBES) -> CompareResult:
    """Order canonical forms.  When the hyperreal gap is not absorbed by the
    larger idempotent it decides; otherwise orientation and idempotent class
    break the tie (h# - D < h# < h# + D).

    A decided gap's witness is an index ``w <= depth/2`` with the sign of
    ``x.h - y.h`` constant on ``[w, depth]``: ``depth//2``, where its scan
    stops, or 0 from forms; not the least one.  Absorbed branches give 0."""
    dverdict = idem_cmp(x.delta, y.delta, depth)
    if dverdict is Verdict.UNDETERMINED:
        return CompareResult(Verdict.UNDETERMINED, None)
    larger = y.delta if dverdict is Verdict.LESS else x.delta
    absorbed = _absorbed_by(x.h - y.h, larger, depth, probes)
    if absorbed is None:
        return CompareResult(Verdict.UNDETERMINED, None)
    if not absorbed:
        return sf._compare(x.h, y.h, depth, depth // 2)
    if x.sign != y.sign:
        verdict = Verdict.LESS if x.sign < y.sign else Verdict.GREATER
        return CompareResult(verdict, 0)
    if x.sign == 0 or dverdict is Verdict.EQUAL:
        return CompareResult(Verdict.EQUAL, 0)
    if x.sign > 0:
        return CompareResult(dverdict, 0)
    flipped = Verdict.LESS if dverdict is Verdict.GREATER else Verdict.GREATER
    return CompareResult(flipped, 0)


def dd_eq(x: DedekindNumber, y: DedekindNumber, depth: int = DEFAULT_DEPTH,
          probes: int = sf.DEFAULT_PROBES) -> bool:
    return dd_cmp(x, y, depth, probes).verdict is Verdict.EQUAL


def dd_le(x: DedekindNumber, y: DedekindNumber, depth: int = DEFAULT_DEPTH) -> bool:
    verdict = dd_cmp(x, y, depth).verdict
    if verdict is Verdict.UNDETERMINED:
        raise ClassUndetermined("order undecided at this depth")
    return verdict in (Verdict.LESS, Verdict.EQUAL)


@dataclass(frozen=True)
class EpsPartForm:
    """Scaled-idempotent refinement ``a#+ + eps# x eps_d+`` of an oriented form.

    ``base`` carries the refined idempotent (original scale times eps); the
    nonneg flag records the restriction to nonnegative representatives.
    """
    base: DedekindNumber
    eps_scale: Hyperreal
    nonneg_restricted: bool = True

    def scaled(self, b, depth: int = DEFAULT_DEPTH) -> "EpsPartForm":
        """Positive scalar action, matching scalar multiplication of the base."""
        return EpsPartForm(dd_scalar_mul(b, self.base, depth),
                           self.eps_scale, self.nonneg_restricted)

    def render(self) -> str:
        op = "+" if self.base.sign >= 0 else "-"
        return (f"{self.base.h.label}#+ {op} "
                f"{self.eps_scale.label}# x {self.base.delta.render()}+")


def eps_part(x: DedekindNumber, eps, depth: int = DEFAULT_DEPTH) -> EpsPartForm:
    """Refine an oriented form by an infinitesimal resolution eps.

    The idempotent scale is multiplied by eps; a negative orientation yields
    the subtracted form.
    """
    eps = make(eps)
    if x.sign == 0:
        raise NotInfinitesimal("eps-part needs a nonzero absorption part")
    if classify(eps, depth) is not ClassTag.INFINITESIMAL:
        raise NotInfinitesimal(f"{eps.label} did not classify infinitesimal")
    if sf._compare(eps, 0, depth, depth // 2).verdict is not Verdict.GREATER:
        raise NotInfinitesimal(f"{eps.label} must be positive")
    refined = DedekindNumber(x.h, x.sign, x.delta.scaled(eps, depth))
    return EpsPartForm(refined, eps, True)


def rel_holds(kind: str, x: DedekindNumber, y: DedekindNumber, delta: Idempotent,
              depth: int = DEFAULT_DEPTH) -> bool:
    """The three congruences modulo a positive idempotent.

    R: the pair stays equal after adding delta (upper identification);
    S: equal after subtracting delta (lower identification, the coarsest);
    T: the hyperreal gap sits strictly inside delta and the oriented
       idempotent parts either coincide or both lie strictly below delta.
    T implies R implies S, both strictly.
    """
    if delta.is_zero:
        raise ValueError("relations are defined modulo a positive idempotent")
    if kind not in ("R", "S", "T"):
        raise ValueError(f"unknown relation {kind!r}")
    if kind == "T":
        inside = _absorbed_by(x.h - y.h, delta, depth)
        if inside is None:
            raise ClassUndetermined("gap membership undecided")
        if not inside:
            return False
        if x.sign == y.sign and idem_cmp(x.delta, y.delta, depth) is Verdict.EQUAL:
            return True
        below_x = idem_cmp(x.delta, delta, depth)
        below_y = idem_cmp(y.delta, delta, depth)
        if Verdict.UNDETERMINED in (below_x, below_y):
            raise ClassUndetermined("idempotent domination undecided")
        return below_x is Verdict.LESS and below_y is Verdict.LESS
    order = dd_cmp(x, y, depth).verdict
    if order is Verdict.UNDETERMINED:
        raise ClassUndetermined("pair order undecided")
    lo, hi = (x, y) if order is not Verdict.GREATER else (y, x)
    if kind == "R":
        return dd_le(hi, dd_add(lo, from_idem(delta, 1), depth), depth)
    return dd_le(dd_add(hi, from_idem(delta, -1), depth), lo, depth)


def dd_floor(x: DedekindNumber) -> DedekindNumber:
    """Canonical-fragment floor: the componentwise floor of the hyperreal
    part, embedded as a pure cut.  Forms whose idempotent reaches the class
    of 1 are projected the same way."""
    return embed(hyper_floor(x.h))
