"""Fuzz of the library's public functions, in the pattern of
``test_cli_fuzz.py`` (Zeller et al., *The Fuzzing Book*).

Hypothesis draws each function's arguments from small valid values mixed
with hostile ones: the floats 0.1, 2.5, nan and inf, ``True``, ``None``,
``""``, ``"x"``, ``"1e99999999"``, ``Fraction(1)`` where an int is due,
``-10**400`` and empty lists.  Each call runs in a forked child, one at a
time, which caps its own address space and CPU time.  A fork costs a few
milliseconds where a fresh interpreter costs tens, so the draws fit the
time budget; the test process forks only while it runs one thread.  A call must end in a
result, a ``HyperlineError``, or a ``ValueError``/``TypeError`` raised by a
``raise`` statement in the ``hyperline`` package: an error out of a builtin,
``fractions`` or ``decimal``, a crash and a timeout all fail.  The example
counts are fixed and the draws derandomized, so the suite makes the same
calls every time.

Huge positive integers (``10**400``) go only to parameters that are refused
or bounded before any work.  ``hermite_Ms``'s ``p`` (its primality test is
trial division) and the ``limit`` of ``partial_sum`` and ``perfect_powers``
(an enumeration of the powers up to it) have no such bound, nor have a
depth, ``eta_terms`` or a sieve's ``steps``, so they are drawn small.

``test_probe_meets_the_gate`` pins the inputs that each once went through
unchecked: a float or a bool read as a number, a depth met inside the memo
or a builtin, a decimal exponent that built ``10^|e|``, a zero or negative
tolerance, and an empty coefficient list.
"""

import json
import linecache
import math
import os
import re
import resource
import select
import signal
import threading
from fractions import Fraction
from pathlib import Path

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

import hyperline
from hyperline import extsum as es, goldbach as gb, hermite as hm, seqfield as sf
from hyperline import wattenberg as wb
from hyperline.errors import HyperlineError
from hyperline.intervals import Interval, exact_int, exact_rational, read_fraction

F = Fraction
PACKAGE = Path(hyperline.__file__).resolve().parent
CPU_SECONDS = 10
WALL_SECONDS = 60
SPARE_ADDRESS_SPACE = 1 << 30

HUGE = 10 ** 400
HOSTILE = [0.1, 2.5, math.nan, math.inf, True, None, "", "x", "1e99999999", -HUGE]


def ints(lo, hi, huge=False):
    """A valid small ``int`` in ``[lo, hi]``, or a hostile value, ``Fraction(1)``
    among them; ``10**400`` too where the parameter bounds it before work."""
    return st.one_of(st.integers(lo, hi),
                     st.sampled_from(HOSTILE + [F(1)] + ([HUGE] if huge else [])))


rationals = st.one_of(st.integers(-9, 9), st.fractions(-9, 9, max_denominator=12),
                      st.sampled_from(["1/3", "-0.25", "7", HUGE] + HOSTILE))
tolerances = st.one_of(st.sampled_from([F(1, 10 ** 6), F(1, 100), F(1, 3), 1, "1/1000",
                                        0, -1, HUGE]),
                       st.sampled_from(HOSTILE))
sequences = st.one_of(st.sampled_from(["omega", "harmonic", "reciprocal_succ", 3,
                                       F(-2, 3), "1/2"]),
                      st.sampled_from(HOSTILE))
coefficients = st.lists(rationals, max_size=4)
depths = ints(-1, 64)
probes = ints(-1, 64, huge=True)
texts = st.sampled_from(["1/3", "0.1", "-2.5e-3", "7", "1e400", "", "x", " 1/2 ", "1/0",
                         "nan", "inf", "1e99999999", "1e-99999999", "1_000", "9" * 5000])
series_texts = st.sampled_from(["geom(1/2)", "geom(0.1)", "geom(1e-99999999)", "pser(2)",
                                "pser(2.5)", "pser(0)", "alt(geom(-1/3))", "harmonic",
                                "powers_recip", "geom(x)", "geom(1/0)", ""])
SPECS = {"geom": lambda: es.geom(F(1, 2)), "pser": lambda: es.pser(2),
         "alt": lambda: es.alternating(es.pser(3)), "harmonic": es.harmonic_series}
specs = st.sampled_from(sorted(SPECS))
CERT = hm.nonvanish_certificate([3, -1])
UNIT = Interval(0, 1)
INTERVAL_OPS = {"add": UNIT.__add__, "sub": UNIT.__sub__, "rsub": UNIT.__rsub__,
                "mul": UNIT.__mul__, "widen": UNIT.widen, "contains": UNIT.contains}

# name -> (function of the drawn arguments, their strategies)
CALLS = {
    "seqfield.make": (sf.make, (sequences,)),
    "seqfield.Hyperreal.constant": (sf.Hyperreal.constant, (rationals,)),
    "seqfield.Hyperinteger.constant": (sf.Hyperinteger.constant, (rationals,)),
    "seqfield.compare": (sf.compare, (sequences, sequences, depths)),
    "seqfield.classify": (sf.classify, (sequences, depths, probes)),
    "seqfield.arch_compare": (sf.arch_compare, (sequences, sequences, depths, probes)),
    "seqfield.shadow": (sf.shadow, (sequences, tolerances, depths)),
    "seqfield.hyper_floor": (lambda a: sf.hyper_floor(a).at(3), (sequences,)),
    "wattenberg.dd_cmp": (lambda a, b, depth, m:
                          wb.dd_cmp(wb.embed(a), wb.embed(b), depth, m),
                          (sequences, sequences, depths, probes)),
    "wattenberg.dd_add": (lambda a, depth: wb.dd_add(wb.embed(a), wb.eps_d(), depth),
                          (sequences, depths)),
    "wattenberg.absorbs": (lambda a, depth, m:
                           wb.absorbs(wb.eps_d(), wb.embed(a), depth, m),
                           (sequences, depths, probes)),
    "wattenberg.wst": (lambda a, tolerance, depth: wb.wst(wb.embed(a), tolerance, depth),
                       (sequences, tolerances, depths)),
    "wattenberg.Idempotent.b": (wb.Idempotent.b, (sequences, depths)),
    "wattenberg.dd_scalar_mul": (lambda b, depth: wb.dd_scalar_mul(b, wb.eps_d(), depth),
                                 (sequences, depths)),
    "wattenberg.eps_part": (lambda eps, depth: wb.eps_part(wb.eps_d(), eps, depth),
                            (sequences, depths)),
    "extsum.geom": (lambda r, depth: es.flat_sum(es.geom(r), depth), (rationals, depths)),
    "extsum.pser": (lambda k, depth: es.flat_sum(es.pser(k), depth), (ints(-1, 6), depths)),
    "extsum.flat_sum": (lambda name, depth, terms, probe:
                        es.flat_sum(SPECS[name](), depth, terms, probe),
                        (specs, depths, ints(-1, 40), rationals)),
    "extsum.upper_lower_limit": (lambda a, depth: es.upper_lower_limit(a, None, depth),
                                 (sequences, depths)),
    "extsum.parse_series": (es.parse_series, (series_texts,)),
    "goldbach.perfect_powers": (gb.perfect_powers, (ints(-2, 2000),)),
    "goldbach.partial_sum": (gb.partial_sum, (ints(-2, 2000),)),
    "goldbach.tail_bound": (gb.tail_bound, (ints(-2, 2000, huge=True),)),
    "goldbach.euler_sieve": (gb.euler_sieve, (ints(-2, 3000, huge=True), ints(-2, 12))),
    "goldbach.flat_identity": (gb.flat_identity, (ints(-2, 400), depths)),
    "goldbach.goldbach_report": (gb.goldbach_report, (ints(-2, 2000),)),
    "hermite.poly_expand_f": (hm.poly_expand_f, (ints(-1, 3), ints(-1, 13))),
    "hermite.hermite_Ms": (hm.hermite_Ms, (ints(-1, 3), ints(-1, 13))),
    "hermite.hermite_M": (hm.hermite_M,
                          (ints(-1, 3), ints(-1, 13), ints(-1, 4, huge=True))),
    "hermite.e_interval": (hm.e_interval, (tolerances,)),
    "hermite.pi_oracle": (hm.pi_oracle, (tolerances,)),
    "hermite.hermite_eps": (hm.hermite_eps, (ints(-1, 3), ints(-1, 13),
                                             ints(-1, 4, huge=True), tolerances)),
    "hermite.search_start": (hm.search_start, (coefficients, ints(-5, 100, huge=True))),
    "hermite.nonvanish_certificate": (hm.nonvanish_certificate,
                                      (coefficients, ints(-5, 100))),
    "hermite.combination_interval": (hm.combination_interval, (coefficients, tolerances)),
    "hermite.verify_certificate": (lambda digits: hm.verify_certificate(CERT, digits),
                                   (ints(-3, 80),)),
    "hermite.cf_convergents": (hm.cf_convergents,
                               (st.one_of(rationals, st.just(hm.pi_oracle)),
                                ints(-1, 12, huge=True))),
    "hermite.liouville_partial": (hm.liouville_partial, (ints(-1, 5, huge=True),)),
    "hermite.liouville_approx": (hm.liouville_approx,
                                 (ints(-1, 9, huge=True), ints(-1, 5, huge=True))),
    "hermite.eval_q_analytic": (
        lambda c, x, terms, radius: hm.eval_q_analytic(lambda n: c, Interval.point(x), terms,
                                                       radius),
        (rationals, rationals, ints(-1, 20), rationals)),
    "hermite.elem_sym": (hm.elem_sym, (coefficients, ints(-1, 5, huge=True))),
    "intervals.Interval": (Interval, (rationals, rationals)),
    "intervals.Interval.ops": (lambda op, q: INTERVAL_OPS[op](q),
                               (st.sampled_from(sorted(INTERVAL_OPS)), rationals)),
    "intervals.Interval.pow_int": (Interval(1, 2).pow_int, (ints(-2, 6),)),
    "intervals.exact_rational": (lambda value: exact_rational(value, "value"),
                                 (st.one_of(rationals, texts),)),
    "intervals.exact_int": (lambda value: exact_int(value, "value", 1),
                            (ints(-2, 9, huge=True),)),
}


def _ending(call) -> dict:
    """How ``call()`` ends: its ``kind`` ("result", "hyperline", "refused" for
    a ValueError or TypeError raised in the package, or "escaped"), the
    exception's type name and message, and where it was raised."""
    try:
        call()
    except HyperlineError as exc:
        return {"kind": "hyperline", "type": type(exc).__name__, "message": str(exc)[:300]}
    except Exception as exc:
        tb = exc.__traceback__
        while tb.tb_next is not None:
            tb = tb.tb_next
        path = Path(tb.tb_frame.f_code.co_filename).resolve()
        line = linecache.getline(str(path), tb.tb_lineno).strip()
        ours = isinstance(exc, (ValueError, TypeError)) and PACKAGE in path.parents \
            and line.startswith("raise")
        return {"kind": "refused" if ours else "escaped", "type": type(exc).__name__,
                "message": str(exc)[:300], "where": f"{path.name}:{tb.tb_lineno}: {line}"}
    return {"kind": "result"}


def _limit_child():
    with open("/proc/self/statm") as statm:
        size = int(statm.read().split()[0]) * os.sysconf("SC_PAGE_SIZE")
    limit = size + SPARE_ADDRESS_SPACE
    resource.setrlimit(resource.RLIMIT_AS, (limit, limit))
    resource.setrlimit(resource.RLIMIT_CPU, (CPU_SECONDS, CPU_SECONDS))


def run_in_child(call) -> dict:
    """``_ending(call)``, from a forked child that caps its own address space
    and CPU time; a child that dies or outlives ``WALL_SECONDS`` is reported
    as "killed"."""
    if threading.active_count() != 1:
        pytest.fail("a fork is safe only while the test process runs one thread")
    read_end, write_end = os.pipe()
    pid = os.fork()
    if pid == 0:
        os.close(read_end)
        try:
            _limit_child()
            ending = _ending(call)
        except BaseException as exc:  # the child must not return into pytest
            ending = {"kind": "escaped", "type": type(exc).__name__, "message": repr(exc)}
        os.write(write_end, json.dumps(ending).encode())
        os._exit(0)
    os.close(write_end)
    with os.fdopen(read_end, "rb") as pipe:
        if not select.select([pipe], [], [], WALL_SECONDS)[0]:
            os.kill(pid, signal.SIGKILL)
        text = pipe.read()
    _, status = os.waitpid(pid, 0)
    if not text:
        return {"kind": "killed", "status": status}
    return json.loads(text)


def _shown(value):
    text = repr(value) if not isinstance(value, int) or abs(value) < HUGE else "10**400"
    return text if len(text) < 80 else text[:40] + f"...({len(text)} chars)"


FUZZ = dict(derandomize=True, deadline=None, database=None,
            suppress_health_check=[HealthCheck.too_slow, HealthCheck.data_too_large])


@pytest.mark.parametrize("name", sorted(CALLS))
@settings(max_examples=12, **FUZZ)
@given(data=st.data())
def test_public_function_ends_cleanly(name, data):
    function, strategies = CALLS[name]
    args = data.draw(st.tuples(*strategies), label="args")
    ending = run_in_child(lambda: function(*args))
    assert ending["kind"] in ("result", "hyperline", "refused"), \
        (name, [_shown(a) for a in args], ending)


def _probe(text, error, message):
    """The probe ``text``, a call evaluated here, which must end in ``error``
    with a message matching ``message``."""
    call = eval("lambda: " + text)
    return pytest.param(call, error, message, id=text)


PROBES = [
    _probe("es.geom(0.1)", TypeError, "^ratio 0.1 is a float"),
    _probe("sf.shadow(sf.RECIPROCAL_SUCC, 0.1, 64)", TypeError, "^tolerance 0.1 is a float"),
    _probe("wb.wst(wb.embed(sf.RECIPROCAL_SUCC), 0.1, 64)", TypeError,
           "^tolerance 0.1 is a float"),
    _probe("Interval(0.1, 0.2)", TypeError, "^lo 0.1 is a float"),
    _probe("sf.compare(1, 2, 10.5)", TypeError, "^depth must be an int, got float$"),
    _probe("sf.compare(1, 2, True)", TypeError, "^depth must be an int, got bool$"),
    _probe("sf.compare(sf.HARMONIC, 3, 2.5)", TypeError, "^depth must be an int, got float$"),
    _probe("wb.dd_cmp(wb.embed(sf.HARMONIC), wb.embed(3), 100.5)", TypeError,
           "^depth must be an int, got float$"),
    _probe("sf.classify(sf.HARMONIC, 100.5)", TypeError, "^depth must be an int, got float$"),
    _probe("hm.hermite_Ms(True, 3)", TypeError, "^n must be an int, got bool$"),
    _probe("gb.perfect_powers(True)", TypeError, "^limit must be an int, got bool$"),
    _probe("es.pser(True)", TypeError, "^exponent must be an int, got bool$"),
    _probe("es.flat_sum(es.pser(2.5))", TypeError, "^exponent must be an int, got float$"),
    _probe("gb.euler_sieve(100.5, 3)", TypeError, "^depth must be an int, got float$"),
    _probe("hm.cf_convergents(0.5, 3)", TypeError, "^alpha 0.5 is a float"),
    _probe("hm.nonvanish_certificate([0.1, 1])", TypeError,
           "^coefficient 0.1 at index 0 is a float"),
    _probe("read_fraction('1e-99999999')", ValueError, "'1e-99999999' has more than 2\\^20"),
    _probe("sf.make('1e99999999')", ValueError, "'1e99999999' has more than 2\\^20"),
    _probe("es.parse_series('geom(1e-99999999)')", ValueError,
           "'1e-99999999' has more than 2\\^20"),
    _probe("hm.hermite_eps(1, 3, 1, 0)", ValueError, "^tolerance must be positive$"),
    _probe("hm.hermite_eps(1, 3, 1, -1)", ValueError, "^tolerance must be positive$"),
    _probe("hm.combination_interval([3, -1], 0)", ValueError, "^tolerance must be positive$"),
    _probe("hm.combination_interval([3, -1], -1)", ValueError, "^tolerance must be positive$"),
    _probe("hm.combination_interval([], F(1, 10))", ValueError,
           "^need at least coefficient b_0$"),
    _probe("hm.verify_certificate(CERT, 2.5)", TypeError, "^digits must be an int, got float$"),
]


@pytest.mark.parametrize("call, error, message", PROBES)
def test_probe_meets_the_gate(call, error, message):
    ending = run_in_child(call)
    assert ending["kind"] == "refused" and ending["type"] == error.__name__, ending
    assert re.search(message, ending["message"]), ending
