"""Computable stand-ins for the hyperreals and hyperintegers.

A `Hyperreal` is a lazy total map ``index -> Fraction``.  The genuine
ultrafilter quotient is not computable, so order verdicts use a cofinite
(Frechet) proxy: a comparison holds when the sign of the difference is
constant on a suffix ``[w, depth]`` of the inspected window with
``2*w <= depth``.  Everything that cannot be settled that way is reported
as ``UNDETERMINED`` rather than guessed.

Only leaves memoize: user generators, the named sequences and partial sums.
Their memo is keyed by index, so reading ``a(depth)`` evaluates that index
alone.  The results of ``+ - *``, negation, ``abs``, ``tilde_inv`` and
``constant`` are views: they keep no memo and read their operands at the
same index, so a scan evaluates only the indices its verdict reads.

Scans read integer pairs, not fractions.  Each sequence's ``pair`` is its
pair evaluator: ``pair(n)`` is ``(p, q)`` with ``q > 0`` and ``a(n) = p/q``,
not necessarily reduced.  A leaf's memo holds the reduced pair of each term
(``as_integer_ratio``), so a memo hit is one dict read; a view's ``pair`` is
the function that cross-multiplies its operands' pairs (fraction-free
evaluation; Knuth, TAOCP vol. 2, 4.5.1), holding their evaluators rather
than the operands, so each view costs one call per index.  A verdict needs
only signs and comparisons with the probe bounds, which cross-multiplication
gives exactly, so no gcd is taken on a scan; a value is normalised only when
``at`` returns it as a ``Fraction``.  Leaf terms, constants and tolerances
are read with ``intervals.exact_rational``, which refuses a float or a bool
with ``TypeError``, and depths and probe counts with ``intervals.exact_int``.

A sequence may carry a closed *monomial form* ``(c, e)``: ``a(n) =
c * (n+1)^e`` at every ``n >= 0``, with ``e = 0`` whenever ``c = 0``.
Constants have ``e = 0``, ``OMEGA`` is ``(1, 1)`` and ``RECIPROCAL_SUCC``
``(1, -1)``; products, ``tilde_inv``, negation and ``abs`` propagate it, and
so do sums and differences of equal exponents.  The form only steers the
verdicts; values are always read from the generator.  ``compare`` decides
two forms from their coefficients (the proof is in its docstring).

Every other verdict is one scan, ``_window``: how far down from ``depth``
the suffix window ``[w, depth]`` stays uniform.  It reads a cell per index
(a sign, a tag, or ``shadow``'s grid cell) and stops at the first one that
breaks the window: another sign or tag, or a hull wider than
``tolerance/2``.  ``shadow`` scans down to index 0, and so does public
``compare``, for its least witness.  Every scan whose caller reads only the
verdict stops at ``depth//2``, all that a verdict needs: ``classify``,
``arch_compare``, and ``_compare`` at its default floor behind ``dd_cmp``
and the other sign checks.

A sequence may also carry an integer *bracket* ``bracket(n, k) -> (lo, hi,
start)`` with ``lo <= a(n) * 2^k <= hi``, cheaper to compute than ``a(n)``
itself (partial sums of series set one; ``+`` and ``-`` propagate it).
``start <= n`` opens a run: every index of ``[start, n]`` has the bracket
``(lo, hi)`` (a partial sum frozen at its certified tail reports where the
freeze begins, any other read ``n``; ``+`` and ``-`` take the larger of
their operands' starts).  It only filters: ``classify``'s cell is the tag
of the bracket when it lies within one tag and of the exact ``a(n)``
otherwise; ``shadow``'s is the bracket rounded outward, which still holds
the term.  A run is one cell, so the scan crosses it in one step.

A bracketed sequence may also be *monotone*: ``a(n) >= 0`` is nondecreasing
and so are both ends of its bracket at every scale (the partial sums of a
nonnegative series set it; nothing propagates it).  Then, as for a form,
the tags are monotone in ``n``, and the hull of the cells of ``[n, depth]``
is ``(cell_lo(n), cell_hi(depth))``.  Such a scan reads the window's two
ends first and bisects only when the window does not reach the lower one.

A `Hyperinteger` is a `Hyperreal` whose terms are integers, so it takes
part in every operation and verdict above.  Floors, Euclidean quotients and
remainders, and gcds with their Bezout witnesses are its views, with pairs
``(v, 1)``.

Index origin is 0; classical sequences written from n = 1 are shifted.
All values are immutable and generators must be pure, so any operation may
be evaluated concurrently; the memos are only a benign performance detail
(a race recomputes an identical value).
"""

from __future__ import annotations

import enum
import operator
import threading
from dataclasses import dataclass
from fractions import Fraction
from typing import Callable, Optional, Tuple

from .errors import (DivisionByZeroAtIndex, NotConvergentAtDepth,
                     UnlimitedValue, ZeroTailAtDepth)
from .intervals import Interval, _fraction_to_text, exact_int, exact_rational, grid_bits

DEFAULT_DEPTH = 4096
DEFAULT_PROBES = 64

# Memoize only a bounded prefix; deeper indices are recomputed on the fly so
# very deep scans do not pin memory.
_CACHE_LIMIT = 1 << 17

# The `_cache` of a view: it memoizes nothing, and its len() is 0.
_NO_MEMO = ()


class Verdict(enum.Enum):
    LESS = "Less"
    EQUAL = "Equal"
    GREATER = "Greater"
    UNDETERMINED = "Undetermined"


class ClassTag(enum.Enum):
    INFINITESIMAL = "Infinitesimal"
    APPRECIABLE = "Appreciable"
    UNLIMITED = "Unlimited"
    UNDETERMINED = "Undetermined"


class ArchClass(enum.Enum):
    SAME = "SameClass"
    LOWER = "LowerClass"
    HIGHER = "HigherClass"
    UNDETERMINED = "Undetermined"


@dataclass(frozen=True)
class CompareResult:
    verdict: Verdict
    witness_index: Optional[int]

    def __post_init__(self):
        undecided = self.verdict is Verdict.UNDETERMINED
        if undecided != (self.witness_index is None):
            raise ValueError("witness present exactly when the verdict is decided")


_UNDETERMINED = CompareResult(Verdict.UNDETERMINED, None)
_BY_SIGN = (Verdict.LESS, Verdict.EQUAL, Verdict.GREATER)

Form = Tuple[Fraction, int]
Pair = Tuple[int, int]


def _monomial(c: Fraction, e: int) -> Form:
    """The form ``(c, e)``; the zero sequence takes exponent 0."""
    return (c, e) if c else (c, 0)


def _combine_forms(fa: Optional[Form], fb: Optional[Form], op, symbol) -> Optional[Form]:
    """Form of the pointwise ``a op b``, or None.

    ``c_a (n+1)^e_a * c_b (n+1)^e_b = c_a c_b (n+1)^(e_a+e_b)``; for ``+``
    and ``-`` with ``e_a = e_b = e`` the sum is ``(c_a op c_b) (n+1)^e``.  A
    zero coefficient is the zero sequence, which is ``0 * (n+1)^e`` for every
    ``e``, so it takes the other operand's exponent.
    """
    if fa is None or fb is None:
        return None
    (ca, ea), (cb, eb) = fa, fb
    if symbol == "*":
        return _monomial(ca * cb, ea + eb)
    if not ca:
        ea = eb
    elif not cb:
        eb = ea
    return _monomial(op(ca, cb), ea) if ea == eb else None


def _coprime_fraction(p: int, q: int) -> Fraction:
    """``Fraction(p, q)`` for a leaf's memoized pair, which is reduced with
    ``q > 0``, without the constructor's gcd: on a partial sum's pair of
    thousands of digits that gcd costs more than the sum did."""
    value = object.__new__(Fraction)
    value._numerator, value._denominator = p, q
    return value


def _rational_term_pair(value, n: int) -> Pair:
    """A leaf's term as its reduced pair."""
    return exact_rational(value, "term", n).as_integer_ratio()


def _integer_term_pair(value, n: int) -> Pair:
    """A hyperinteger leaf's term as its pair ``(v, 1)``."""
    if not isinstance(value, int):
        raise TypeError(f"non-integer term {value!r} at index {n}")
    return int(value), 1


class Hyperreal:
    """Lazy exact-rational sequence; the computable face of a hyperreal.

    ``pair`` is the sequence's pair evaluator: ``pair(n)`` is ``(p, q)``
    with ``q > 0`` and ``a(n) = p/q`` (see the module docstring), and ``at``
    normalises it to a ``Fraction``.  ``Hyperreal(gen)`` is a leaf: its
    ``pair`` reads a memo of reduced pairs keyed by index, and below
    ``_CACHE_LIMIT`` runs ``gen(n)`` once per index (two threads racing on
    one index may both run it).  A view's ``gen`` is its pair evaluator and
    its ``pair`` itself.  Setting ``gen`` installs the matching ``pair``.
    ``form`` is the monomial form or None (see the module docstring).
    ``const_value`` is the value of a sequence built by ``constant`` (whose
    label is that value) and None otherwise; ``shadow`` takes it as an exact
    point.  ``bracket``, when set, maps ``(n, k)`` to integers ``(lo, hi,
    start)`` with ``lo <= a(n) * 2^k <= hi`` and the same ``(lo, hi)`` at
    every index of ``[start, n]``; ``monotone`` marks a bracketed sequence
    whose values and bracket ends are nondecreasing, values ``>= 0`` (see
    the module docstring).
    """

    __slots__ = ("pair", "_gen", "form", "const_value", "label", "bracket",
                 "monotone", "_cache")

    def __init__(self, gen: Callable[[int], Fraction], label="<seq>",
                 bracket: Optional[Callable[[int, int], Tuple[int, int, int]]] = None):
        self.form: Optional[Form] = None
        self.const_value: Optional[Fraction] = None
        self.label = label
        self.bracket = bracket
        self.monotone = False
        self._cache = {}
        self.gen = gen

    @classmethod
    def _view(cls, pair_gen: Callable[[int], Pair], label, form: Optional[Form] = None,
              bracket=None) -> "Hyperreal":
        """A memo-free sequence whose pair evaluator is ``pair_gen``."""
        h = cls(pair_gen, label, bracket)
        h.form = form
        h._cache = _NO_MEMO
        h.gen = pair_gen  # reinstalled without the memo: pair is pair_gen
        return h

    @property
    def gen(self):
        return self._gen

    @gen.setter
    def gen(self, gen):
        # the leaf's evaluator holds its memo and generator, not the leaf, so
        # a dropped leaf is freed without the cycle collector
        self._gen = gen
        memo, term_pair = self._cache, self._term_pair
        self.pair = gen if memo is _NO_MEMO else \
            _memoized(lambda n: term_pair(gen(n), n), memo)

    _term_pair = staticmethod(_rational_term_pair)

    @classmethod
    def constant(cls, q) -> "Hyperreal":
        q = exact_rational(q, "constant")
        pq = (q.numerator, q.denominator)
        h = cls._view(lambda n: pq, _fraction_to_text(q), _monomial(q, 0))
        h.const_value = q
        return h

    def at(self, n: int) -> Fraction:
        """The exact value ``a(n)``, normalised."""
        if n < 0:
            raise IndexError(n)
        p, q = self.pair(n)
        return Fraction(p, q) if self._cache is _NO_MEMO else _coprime_fraction(p, q)

    def prefix(self, count: int) -> list:
        return [self.at(i) for i in range(count)]

    def _combine(self, other, op, symbol):
        other = make(other)
        form = _combine_forms(self.form, other.form, op, symbol)
        qa, qb = self.const_value, other.const_value
        if qa is not None and qb is not None:
            return Hyperreal.constant(form[0])
        # exact pointwise identities; they also keep labels readable
        if symbol == "+":
            if qa == 0:
                return other
            if qb == 0:
                return self
        elif symbol == "-" and qb == 0:
            return self
        elif symbol == "*":
            if qa == 0 or qb == 0:
                return Hyperreal.constant(0)
            if qa == 1:
                return other
            if qb == 1:
                return self
        return Hyperreal._view(_pair_op(symbol, self.pair, other.pair),
                               f"({self.label} {symbol} {other.label})", form,
                               _combine_brackets(self.bracket, other.bracket, symbol))

    def __add__(self, other):
        return self._combine(other, operator.add, "+")

    __radd__ = __add__

    def __sub__(self, other):
        return self._combine(other, operator.sub, "-")

    def __rsub__(self, other):
        return make(other) - self

    def __mul__(self, other):
        return self._combine(other, operator.mul, "*")

    __rmul__ = __mul__

    def _pointwise(self, pair_gen, label, form_map):
        """The view with pair evaluator ``pair_gen``, a map of this one's
        pairs, its form mapped by ``form_map(c, e)``; a constant stays a
        constant."""
        form = self.form and _monomial(*form_map(*self.form))
        if self.const_value is not None:
            return Hyperreal.constant(form[0])
        return Hyperreal._view(pair_gen, label, form)

    def __neg__(self):
        pa = self.pair

        def gen(n):
            p, q = pa(n)
            return -p, q

        return self._pointwise(gen, f"(-{self.label})", lambda c, e: (-c, e))

    def __abs__(self):
        pa = self.pair

        def gen(n):
            p, q = pa(n)
            return abs(p), q

        # (n+1)^e > 0, so |c (n+1)^e| = |c| (n+1)^e
        return self._pointwise(gen, f"|{self.label}|", lambda c, e: (abs(c), e))

    def tilde_inv(self) -> "Hyperreal":
        """Total pseudo-inverse: zero terms map to zero, others to 1/x.

        A form with ``c != 0`` has no zero term, and ``1 / (c (n+1)^e) =
        (1/c) (n+1)^-e``; the zero form maps to itself.
        """
        pa = self.pair

        def gen(n):  # the pair of q/p, the sign kept in the numerator
            p, q = pa(n)
            if p > 0:
                return q, p
            return (-q, -p) if p else (0, 1)

        return self._pointwise(gen, f"~{self.label}",
                               lambda c, e: (_pseudo_inverse(c), -e))

    def __repr__(self):
        return f"{type(self).__name__}({self.label})"


def _memoized(fn: Callable[[int], object], memo: dict) -> Callable[[int], object]:
    """``fn`` read through ``memo``, keyed by index: a hit is one dict read.
    Only indices below ``_CACHE_LIMIT`` are stored, so very deep scans do
    not pin memory; a negative index raises ``IndexError``."""
    def read(n):
        value = memo.get(n)
        if value is None:
            if n < 0:
                raise IndexError(n)
            value = fn(n)
            if n < _CACHE_LIMIT:
                memo[n] = value
        return value

    return read


def _pseudo_inverse(x: Fraction) -> Fraction:
    return 1 / x if x else x


def _pair_op(symbol, pa, pb) -> Callable[[int], Pair]:
    """Pair evaluator of the pointwise ``a symbol b`` from the operands' pair
    evaluators: ``x/y * u/v = xu/yv`` and ``x/y +- u/v = (xv +- uy)/yv``,
    or ``(x +- u)/y`` when ``y = v``.  Denominators stay positive."""
    if symbol == "*":
        def gen(n):
            x, y = pa(n)
            u, v = pb(n)
            return x * u, y * v
    elif symbol == "+":
        def gen(n):
            x, y = pa(n)
            u, v = pb(n)
            if y == v:
                return x + u, y
            return x * v + u * y, y * v
    else:
        def gen(n):
            x, y = pa(n)
            u, v = pb(n)
            if y == v:
                return x - u, y
            return x * v - u * y, y * v
    return gen


def _combine_brackets(ba, bb, symbol):
    """Bracket of a pointwise sum or difference; None unless both have one.
    Both operands' brackets are constant on ``[max(start_a, start_b), n]``,
    so the combined one is too."""
    if ba is None or bb is None or symbol not in "+-":
        return None
    if symbol == "+":
        def bracket(n, k):
            (lo_a, hi_a, start_a), (lo_b, hi_b, start_b) = ba(n, k), bb(n, k)
            return lo_a + lo_b, hi_a + hi_b, max(start_a, start_b)
    else:
        def bracket(n, k):
            (lo_a, hi_a, start_a), (lo_b, hi_b, start_b) = ba(n, k), bb(n, k)
            return lo_a - hi_b, hi_a - lo_b, max(start_a, start_b)
    return bracket


class Hyperinteger(Hyperreal):
    """Lazy exact-integer sequence: a `Hyperreal` whose terms are integers.

    A leaf checks each term is an ``int``, and ``at`` returns an ``int``;
    its pairs, and its views', are ``(v, 1)``.
    """

    __slots__ = ()

    _term_pair = staticmethod(_integer_term_pair)

    def __init__(self, gen: Callable[[int], int], label="<iseq>", bracket=None):
        super().__init__(gen, label, bracket)

    @classmethod
    def constant(cls, v) -> "Hyperinteger":
        return super().constant(int(exact_rational(v, "constant")))

    def at(self, n: int) -> int:
        return int(super().at(n))


# The canonical named sequences.  Shared leaves, so their memos are reused.
OMEGA = Hyperreal(lambda n: Fraction(n + 1), label="omega")
OMEGA.form = (Fraction(1), 1)
RECIPROCAL_SUCC = Hyperreal(lambda n: Fraction(1, n + 1), label="1/(n+1)")
RECIPROCAL_SUCC.form = (Fraction(1), -1)

def cumulative_gen(term: Callable[[int], object]) -> Callable[[int], object]:
    """Generator of running sums of `term` (exact fractions, or integers at
    a fixed scale), with its own thread-safe table (plain memoization would
    make deep evaluation quadratic).  A term that raises is not recorded, so
    the next read that needs it raises again."""
    acc: list = []
    lock = threading.Lock()

    def gen(n):
        if n < len(acc):
            return acc[n]
        with lock:
            while len(acc) <= n:
                k = len(acc)
                prev = acc[-1] if acc else 0
                acc.append(prev + term(k))
        return acc[n]

    return gen


HARMONIC = Hyperreal(cumulative_gen(lambda k: Fraction(1, k + 1)),
                     label="harmonic")

_BUILTINS = {
    "omega": OMEGA,
    "harmonic": HARMONIC,
    "reciprocal_succ": RECIPROCAL_SUCC,
}

ZERO = Hyperreal.constant(0)
ONE = Hyperreal.constant(1)


def make(source) -> Hyperreal:
    """A Hyperreal from a builtin name, a generator or an exact rational."""
    if isinstance(source, Hyperreal):
        return source
    if isinstance(source, str) and source in _BUILTINS:
        return _BUILTINS[source]
    if callable(source):
        return Hyperreal(source)
    return Hyperreal.constant(source)


def _sign(q: Fraction) -> int:
    return (q > 0) - (q < 0)


def compare(a, b, depth: int = DEFAULT_DEPTH) -> CompareResult:
    """Cofinite-proxy comparison over indices ``0..depth``.

    Returns a decided verdict only when the sign of ``a - b`` is constant on
    a suffix ``[w, depth]`` with ``2*w <= depth``; the witness is that ``w``.

    When the difference has a form ``(c, e)`` (both sides have forms, with
    equal exponents or a zero coefficient), ``a(n) - b(n) = c (n+1)^e`` and
    ``(n+1)^e > 0``, so its sign is the sign of ``c`` at every ``n >= 0``.
    The scan would find that sign on all of ``[0, depth]``: the verdict is
    read from ``c`` and the witness is 0.
    """
    return _compare(a, b, depth, 0)


def _compare(a, b, depth: int, floor: int | None = None) -> CompareResult:
    """``compare`` whose scan stops once the window reaches ``floor <=
    depth//2``.  At ``floor = depth//2``, the default, it reads only
    ``[depth//2, depth]``, all that the verdict needs; a decided witness is
    then ``floor``, or 0 when forms decide, and not the least one."""
    exact_int(depth, "depth", 1)
    a, b = make(a), make(b)
    gap = _combine_forms(a.form, b.form, operator.sub, "-")
    if gap is not None:
        return CompareResult(_BY_SIGN[_sign(gap[0]) + 1], 0)
    pa, pb = a.pair, b.pair

    def sign_cell(n):  # sign(x/y - u/v) = sign(xv - uy), as y, v > 0
        x, y = pa(n)
        u, v = pb(n)
        gap = x * v - u * y
        return (gap > 0) - (gap < 0), n

    sign, w = _window(sign_cell, _same, depth, depth // 2 if floor is None else floor)
    if 2 * w > depth:
        return _UNDETERMINED
    return CompareResult(_BY_SIGN[sign + 1], w)


def _same(tag, c):
    """The join of a tag scan: the window goes on while the tag stays."""
    return tag if c == tag else None


def _window(cell, join, depth: int, floor: int, monotone: bool = False):
    """The suffix window ``[w, depth]`` and its state: ``(state, w)``.

    The window grows down from ``depth`` while ``join(state, c)``, the state
    widened by the next cell ``c``, is not None, and stops once ``w <=
    floor``: a ``w`` above ``floor`` is the window's exact start.  ``cell(n)``
    is ``(c, start)``, with the cell ``c`` at every index of the run
    ``[start, n]`` (``start = n`` for a cell of one index), and the window
    takes a whole run in one step.  The state at ``depth`` is its cell; a
    None one is no window.

    ``monotone`` says that the window reaches ``n`` exactly when ``join(state
    at depth, cell(n))``, then its state, is not None, and that the indices
    it reaches are a suffix: a tag monotone in ``n``, or the hull of
    nondecreasing cells.  Then ``floor`` is read first, and a bisection
    finds ``w`` only when the window does not reach it.
    """
    state, w = cell(depth)
    if state is None:
        return None, depth
    low = floor  # a monotone window starts in [low, w], or below floor
    while low < w:
        if not monotone:
            n = w - 1
        else:
            n = floor if low == floor else (low + w) // 2
        c, start = cell(n)
        joined = join(state, c)
        if joined is not None:
            state, w = joined, start
        elif monotone:
            low = n + 1
        else:
            break
    return state, w


def classify(a, depth: int = DEFAULT_DEPTH, probes: int = DEFAULT_PROBES) -> ClassTag:
    """Bucket a hyperreal by finite evidence against probes 1/m and m, m <= probes.

    The tags are proxy verdicts: a constant below 1/probes *is* reported as
    infinitesimal.  Callers pick the probe budget accordingly.  A bracketed
    sequence is filtered at scale ``bits(probes) + bits(depth) + 8``.
    """
    depth, probes = exact_int(depth, "depth", 1), exact_int(probes, "probes", 1)
    return _classify(make(a), depth, probes,
                     probes.bit_length() + depth.bit_length() + 8)


def _classify(a: Hyperreal, depth: int, probes: int, scale: int) -> ClassTag:
    """``classify`` with the bracket, if any, read at ``2^scale``: the tag
    of ``[depth//2, depth]`` from one ``_window`` scan with the same-tag join.

    ``|a(n)|`` lies in ``[low, high] / 2^scale``, and the tag grows with
    ``|a(n)|``, so the tags of ``low`` and ``high`` agreeing decide the tag
    of ``a(n)``, and of every index of the bracket's run; when they differ
    the exact value is read, for that index alone.

    For a form ``(c, e)``, ``|a(n)| = |c| (n+1)^e`` is monotone in ``n``, so
    its tag is too, and so is a monotone sequence's: the scan is monotone,
    and the window's two ends decide it.
    """
    def tag_of(p, q):  # the tag of p/q, q > 0
        p = abs(p)
        if p * probes < q:
            return ClassTag.INFINITESIMAL
        if p > probes * q:
            return ClassTag.UNLIMITED
        return ClassTag.APPRECIABLE

    pair = a.pair
    bracket = a.bracket
    if bracket is None or a.form is not None:
        cell = lambda n: (tag_of(*pair(n)), n)
    else:
        one = 1 << scale

        def cell(n):
            lo, hi, start = bracket(n, scale)
            tag = tag_of(max(lo, -hi, 0), one)
            if tag is tag_of(max(-lo, hi), one):
                return tag, start
            return tag_of(*pair(n)), n

    tag, w = _window(cell, _same, depth, depth // 2, a.form is not None or a.monotone)
    return tag if 2 * w <= depth else ClassTag.UNDETERMINED


def shadow_scale(tolerance: Fraction, depth: int) -> int:
    """The scale ``f = k + bits(depth) + 3`` at which ``shadow`` reads a
    bracketed sequence, ``k`` the least integer with ``2^-k <= tolerance/8``."""
    return grid_bits(tolerance / 8) + depth.bit_length() + 3


def shadow(a, tolerance, depth: int = DEFAULT_DEPTH) -> Interval:
    """Certified interval of width <= 2*tolerance around the sequence limit.

    The scan runs on the dyadic grid ``2^-k``, ``k`` the least integer with
    ``2^-k <= tolerance/8``: term ``a(n)`` lies in a cell ``[l_n, h_n] / 2^k``,
    with ``l_n = floor(a(n) * 2^k)`` and ``h_n = l_n + 1`` from the exact
    value.  A bracketed sequence is read at the finer scale
    ``f = k + bits(depth) + 3`` instead, and its bracket rounded outward to
    the grid ``2^-k`` is the cell: it holds ``a(n)`` all the same.  A partial
    sum's bracket is under ``(depth + 1) / 2^f <= 2^-(k+3)`` wide there, so
    its cell is at most one grid step wider than the exact cell on either
    side, and the window may stop earlier.  The Cauchy window is one
    ``_window`` scan down to index 0 whose join, the hull ``[LO, HI]`` of the
    cells, stops it once the hull spans more than ``tolerance/2``; it must
    reach ``depth/2``.  The returned interval
    ``[HI/2^k - tolerance, LO/2^k + tolerance]`` holds
    ``[a(n) - tolerance/2, a(n) + tolerance/2]`` for every ``n`` in the window,
    so drift beyond the inspected depth of up to tolerance/2 stays covered.
    Its endpoints are rounded outward to the grid (their denominators divide
    ``tolerance.denominator * 2^k``).  A constant is classified like any other
    sequence (its form makes that two reads) and is then its own point.
    """
    tolerance = exact_rational(tolerance, "tolerance", positive=True)
    a = make(a)
    exact_int(depth, "depth", 1)
    fine = shadow_scale(tolerance, depth)
    k = fine - depth.bit_length() - 3
    if _classify(a, depth, DEFAULT_PROBES, fine) is ClassTag.UNLIMITED:
        raise UnlimitedValue(f"{a.label} classified unlimited at depth {depth}")
    if a.const_value is not None:
        return Interval.point(a.const_value)
    max_spread = (tolerance.numerator << k) // (2 * tolerance.denominator)
    bracket = a.bracket
    if bracket is None:
        pair = a.pair

        def cell(n):
            p, q = pair(n)
            m = (p << k) // q
            return (m, m + 1), n
    else:
        shift = fine - k

        def cell(n):
            lo, hi, start = bracket(n, fine)
            return (lo >> shift, -(-hi >> shift)), start

    def hull(state, c):
        lo, hi = min(state[0], c[0]), max(state[1], c[1])
        return (lo, hi) if hi - lo <= max_spread else None

    (lo, hi), w = _window(cell, hull, depth, 0, a.monotone)
    if 2 * w > depth:
        raise NotConvergentAtDepth(
            f"no Cauchy window at tolerance {tolerance} within depth {depth}")
    return Interval(Fraction(hi, 1 << k) - tolerance, Fraction(lo, 1 << k) + tolerance)


def hyper_floor(a) -> Hyperinteger:
    """Componentwise floor; n(i) <= a(i) < n(i)+1 at every index."""
    a = make(a)
    q = a.const_value
    if q is not None:
        return Hyperinteger.constant(q.numerator // q.denominator)

    def gen(n, pair=a.pair):  # floor(p/q) is unchanged by scaling p and q alike
        p, q = pair(n)
        return p // q, 1

    return Hyperinteger._view(gen, f"floor({a.label})")


def divides(a: Hyperinteger, d: Hyperinteger) -> Callable[[int], bool]:
    """Componentwise divisibility d(i) | a(i); for d(i) = 0 only 0 is divisible."""

    def check(n):
        di = d.at(n)
        ai = a.at(n)
        return ai == 0 if di == 0 else ai % di == 0

    return check


def _eucl_divmod(a: int, d: int):
    q, r = divmod(a, d)
    if r < 0:  # Python's remainder tracks the divisor's sign; we want 0 <= r < |d|
        q, r = q + 1, r - d
    return q, r


def div_rem(a: Hyperinteger, d: Hyperinteger):
    """Componentwise Euclidean division with 0 <= r < |d|."""

    def quot_rem(n):
        di = d.at(n)
        if di == 0:
            raise DivisionByZeroAtIndex(n)
        return _eucl_divmod(a.at(n), di)

    return (Hyperinteger._view(lambda n: (quot_rem(n)[0], 1), f"({a.label} div {d.label})"),
            Hyperinteger._view(lambda n: (quot_rem(n)[1], 1), f"({a.label} mod {d.label})"))


def _xgcd(a: int, b: int):
    old_r, r = a, b
    old_s, s = 1, 0
    old_t, t = 0, 1
    while r:
        q = old_r // r
        old_r, r = r, old_r - q * r
        old_s, s = s, old_s - q * s
        old_t, t = t, old_t - q * t
    if old_r < 0:
        old_r, old_s, old_t = -old_r, -old_s, -old_t
    return old_r, old_s, old_t


def gcd_bezout(a: Hyperinteger, d: Hyperinteger):
    """Componentwise gcd with Bezout witnesses: g(i) = s(i)*a(i) + t(i)*d(i).

    One memoized triple per index; g, s and t are views of it.
    """
    triple = _memoized(lambda n: _xgcd(a.at(n), d.at(n)), {})

    return (Hyperinteger._view(lambda n: (triple(n)[0], 1), f"gcd({a.label},{d.label})"),
            Hyperinteger._view(lambda n: (triple(n)[1], 1), "bezout-s"),
            Hyperinteger._view(lambda n: (triple(n)[2], 1), "bezout-t"))


def arch_compare(a, b, depth: int = DEFAULT_DEPTH,
                 probes: int = DEFAULT_PROBES) -> ArchClass:
    """Compare archimedean classes: SAME when both ratios stay bounded by the
    probe budget on a witnessed suffix, LOWER when |a/b| drops below 1/probes
    (evidence that a = o(b)), HIGHER symmetrically.

    For two forms, a zero coefficient is a zero sequence, and otherwise
    ``|a(n)/b(n)| = |c_a/c_b| (n+1)^(e_a - e_b)`` is monotone in ``n``, as
    is its tag (LOWER < SAME < HIGHER), so the window's two ends decide it.
    """
    depth, probes = exact_int(depth, "depth", 1), exact_int(probes, "probes", 1)
    a, b = make(a), make(b)
    pa, pb = a.pair, b.pair

    def tag_at(n):
        x, y = pa(n)
        u, v = pb(n)
        x, u = abs(x) * v, abs(u) * y  # |a(n)| : |b(n)| = x : u
        if u == 0:
            return None if x == 0 else ArchClass.HIGHER
        if x * probes < u:
            return ArchClass.LOWER
        if x > probes * u:
            return ArchClass.HIGHER
        return ArchClass.SAME

    monotone = a.form is not None and b.form is not None
    if monotone:
        zero_tail = not a.form[0] or not b.form[0]
    else:
        window = range((depth + 1) // 2, depth + 1)
        zero_tail = (all(pa(n)[0] == 0 for n in window)
                     or all(pb(n)[0] == 0 for n in window))
    if zero_tail:
        raise ZeroTailAtDepth("an operand is zero on the whole inspected suffix")
    tag, w = _window(lambda n: (tag_at(n), n), _same, depth, depth // 2, monotone)
    return tag if 2 * w <= depth else ArchClass.UNDETERMINED
