"""The workloads: seeded inputs, the operation each one times, and the check
of its output against `oracle`.

Every workload is a fixed list of slots.  The seed draws each slot's input
from a narrow band, so every seed gives the same mix of operation kinds and
sizes (a percentile then lands on the same kind of operation in every run)
while the inputs themselves differ.  Forms and sequences are built inside
the timed call, so the library's per-sequence memo caches start cold in
every pass.
"""

from __future__ import annotations

import json
import os
import subprocess
import sys
from dataclasses import dataclass, replace
from fractions import Fraction
from math import gcd
from random import Random
from typing import Any, Callable, Optional

import oracle
from oracle import RatFn

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
CHILD = os.path.join(HERE, "child.py")


@dataclass
class Op:
    kind: str
    label: str
    run: Callable[[], Any]                   # the timed call
    check: Callable[[Any], Optional[str]]    # None when the output is right
    corrupt: Callable[[Any], Any]            # a wrong output, for the self-test
    keep: Callable[[Any], Any] = lambda out: out    # what check needs, untimed


class CommandFailed(Exception):
    pass


def warm_shared_caches():
    """Fill the caches that every operation shares, as a long-running user
    process would have them: the named sequences' memo prefixes up to the
    deepest index any operation reads, and e."""
    from hyperline import hermite, seqfield as sf

    for seq in (sf.OMEGA, sf.RECIPROCAL_SUCC, sf.HARMONIC):
        seq.at(4096)
    hermite._e_upper()


# ---------------------------------------------------------------------------
# certify: nonvanishing certificates for sum b_k e^k

# (degree, prime): |b_0| * denominator is drawn from [previous prime, prime - 1],
# so the certificate search starts at that prime for every seed
CERT_SLOTS = [(1, p) for p in (5, 11, 17, 29, 47, 79, 109, 149, 181, 211)]
CERT_SLOTS += [(2, p) for p in (5, 11, 17, 29, 47, 67, 89, 113, 151, 157)]
CERT_SLOTS += [(3, p) for p in (5, 11, 17, 23, 37, 47, 67, 83)]
# Exact epsilon bound above 4300 digits: to_dict raises ValueError every time.
CERT_FAILING = ["126,1,1,-2"]


def certify(seed: int) -> list:
    rng = Random(f"certify:{seed}")
    batch = []
    for n, p in CERT_SLOTS:
        lo = max(q for q in range(2, p) if oracle.is_prime(q))
        d = rng.choice((1, 2, 3))
        t = rng.choice([t for t in range(lo, p) if gcd(t, d) == 1])
        b0 = Fraction(rng.choice((1, -1)) * t, d)
        rest = [Fraction(rng.choice([c for c in range(-9, 10) if c]), d) for _ in range(n)]
        batch.append([b0] + rest)
    batch += [[Fraction(c) for c in text.split(",")] for text in CERT_FAILING]
    return [_certify_op(coeffs) for coeffs in batch]


def _certify_op(coeffs):
    from hyperline import hermite as hm

    def run():
        # the round trip scripts/hermite_certificates.py makes
        cert = hm.nonvanish_certificate(coeffs)
        text = json.dumps(cert.to_dict())
        return cert, text, hm.verify_certificate(hm.certificate_from_dict(json.loads(text)))

    def check(out):
        cert, text, verified = out
        if not verified:
            return "verify_certificate rejected the round trip"
        doc = json.loads(text)
        if ([Fraction(int(a), int(b)) for a, b in doc["coeffs"]] != coeffs
                or doc["prime"] != cert.prime or [int(m) for m in doc["M"]] != cert.M
                or int(doc["I"]) != cert.integer_combination
                or Fraction(doc["lower_bound"]) != cert.lower_bound):
            return "JSON form differs from the certificate"
        return oracle.check_certificate(coeffs, cert.prime, cert.M,
                                        cert.integer_combination, cert.lower_bound)

    def corrupt(out):
        cert, _text, verified = out
        forged = replace(cert, M=[cert.M[0] + 1] + cert.M[1:])
        return forged, json.dumps(forged.to_dict()), verified

    label = ",".join(str(c) for c in coeffs)
    return Op("certificate", label, run, check, corrupt)


# ---------------------------------------------------------------------------
# order: canonical forms h# +/- delta over rational functions of n

COEFS = [Fraction(c) for c in ("1/4", "1/3", "1/2", "2/3", "1", "3/2", "2", "3")]
FAMILIES = ("const", "lin", "rec", "rec2")
MULTS = ("", "omega", "recip")
ORDER_KINDS = ("compare", "classify", "arch_compare", "dd_cmp", "dd_add",
               "dd_add_neg", "absorbs", "rel_R", "rel_S", "rel_T")
ORDER_DEPTHS = (1024, 1024, 2048, 4096)  # per kind


_MULT_MODEL = {"": RatFn.const(1), "omega": oracle.OMEGA, "recip": oracle.RECIP}


def _term_model(term) -> RatFn:
    fam, a, b, mult = term
    if fam == "const":
        f = RatFn((a,))
    elif fam == "lin":
        f = RatFn((b, a))
    else:
        f = RatFn((a + b, b), (1, 1) if fam == "rec" else (1, 2, 1))
    return f * _MULT_MODEL[mult]


def _term_build(term):
    from hyperline import seqfield as sf

    fam, a, b, mult = term
    if fam == "const":
        h = sf.Hyperreal.constant(a)
    elif fam == "lin":
        h = sf.Hyperreal(lambda n: a * n + b, label=f"({a}n+{b})")
    elif fam == "rec":
        h = sf.Hyperreal(lambda n: a / (n + 1) + b, label=f"({a}/(n+1)+{b})")
    else:
        h = sf.Hyperreal(lambda n: a / (n + 1) ** 2 + b / (n + 1),
                         label=f"({a}/(n+1)^2+{b}/(n+1))")
    if mult == "omega":
        h = h * sf.OMEGA
    elif mult == "recip":
        h = h * sf.RECIPROCAL_SUCC
    return h


def _h_model(terms) -> RatFn:
    total = _term_model(terms[0]) if terms else RatFn.const(0)
    for term in terms[1:]:
        total = total + _term_model(term)
    return total


def _h_build(terms):
    h = _term_build(terms[0])
    for term in terms[1:]:
        h = h + _term_build(term)
    return h


def _scale_model(scale) -> RatFn:
    kind, c = scale
    if kind == "one":
        return _MULT_MODEL[""]
    return RatFn.const(c) * _MULT_MODEL[{"const": "", "omega": "omega", "recip": "recip"}[kind]]


def _idem_build(idem, depth):
    from hyperline import seqfield as sf, wattenberg as wb

    if idem is None:
        return wb.ZERO_IDEM
    kind, (scale_kind, c) = idem
    scale = {"one": sf.ONE, "const": sf.Hyperreal.constant(c),
             "omega": sf.Hyperreal.constant(c) * sf.OMEGA,
             "recip": sf.Hyperreal.constant(c) * sf.RECIPROCAL_SUCC}[scale_kind]
    return (wb.Idempotent.b if kind == "B" else wb.Idempotent.a)(scale, depth)


def _form_model(form):
    terms, sign, idem = form
    return _h_model(terms), sign, (None if idem is None else (idem[0], _scale_model(idem[1])))


def _form_build(form, depth):
    from hyperline import wattenberg as wb

    terms, sign, idem = form
    return wb.DedekindNumber(_h_build(terms), sign, _idem_build(idem, depth))


SCALE_KINDS = ("one", "const", "omega", "recip")


def _template(trng, kind):
    """The structure of one slot, the same for every seed: term families and
    multipliers, idempotent kinds and scales, and how y's h relates to x's."""
    def term():
        return trng.choice(FAMILIES), trng.choice(MULTS)

    def idem():
        return trng.choice("BA"), trng.choice(SCALE_KINDS)

    x_terms = [term() for _ in range(trng.choice((1, 2)))]
    x_idem = idem() if kind == "dd_add_neg" or trng.random() < 2 / 3 else None
    r = trng.random()
    # same h (the idempotents decide), h plus one term, or an unrelated h
    shares = r < 0.6
    y_terms = [] if r < 0.25 else [term() for _ in range(1 if shares else trng.choice((1, 2)))]
    # y often carries x's idempotent, so ties and congruences can hold
    if trng.random() < 0.4:
        y_idem = x_idem
    else:
        y_idem = idem() if trng.random() < 2 / 3 else None
    return x_terms, x_idem, shares, y_terms, y_idem, idem()


def _values(rng, template):
    """Seeded coefficients, orientations and scale constants for a template."""
    x_terms, x_idem, shares, y_terms, y_idem, delta = template

    def coef():
        return rng.choice(COEFS) * rng.choice((1, -1))

    def terms(spec):
        return [(fam, coef(), coef(), mult) for fam, mult in spec]

    def idem(spec):
        return None if spec is None else (spec[0], (spec[1], rng.choice(COEFS)))

    def form(ts, spec):
        return ts, 0 if spec is None else rng.choice((1, -1)), idem(spec)

    x = form(terms(x_terms), x_idem)
    y = form((x[0] if shares else []) + terms(y_terms), y_idem)
    return x, y, idem(delta)


def _settled(kind, mx, my, mdelta, depth) -> bool:
    """Every sign and class the library's scans will meet is fixed well inside
    the inspected window, so its cofinite proxy agrees with the mathematics."""
    hx, hy, gap = mx[0], my[0], mx[0] - my[0]
    if kind == "compare":
        return oracle.sign_settled(gap, depth)
    if kind == "classify":
        return oracle.class_settled(hx, depth)
    if kind == "arch_compare":
        return (not hx.is_zero and not hy.is_zero and oracle.sign_settled(hx, depth)
                and oracle.sign_settled(hy, depth) and oracle.class_settled(hx / hy, depth))
    scales = [d[1] for d in (mx[2], my[2], mdelta) if d is not None]
    if not all(oracle.sign_settled(f, depth) for f in (gap, hx, hy)):
        return False
    ratios = [f / s for f in (gap, hx, hy) for s in scales]
    ratios += [s / t for s in scales for t in scales]
    return all(oracle.class_settled(f, depth) for f in ratios)


def _draw(rng, kind, template, depth, attempts):
    for _ in range(attempts):
        x, y, delta = _values(rng, template)
        if kind == "dd_add_neg" and not x[0]:
            continue
        models = [_form_model(x), _form_model(y), _form_model(([], 1, delta))[2]]
        if x[0] and y[0] and _settled(kind, *models, depth):
            return x, y, delta, models
    return None


def order(seed: int, sink=None) -> list:
    rng = Random(f"order:{seed}")
    ops = []
    for kind in ORDER_KINDS:
        for i, depth in enumerate(ORDER_DEPTHS):
            # a template whose values settle often; chosen without the seed
            trng, probe = Random(f"order-template:{kind}:{i}"), Random("probe")
            while True:
                template = _template(trng, kind)
                if sum(_draw(probe, kind, template, depth, 1) is not None
                       for _ in range(12)) >= 3:
                    break
            drawn = _draw(rng, kind, template, depth, 2000)
            if drawn is None:
                raise RuntimeError(f"no settled {kind} input at depth {depth}")
            ops.append(_order_op(kind, *drawn, depth))
    return ops


_VERDICT = {-1: "Less", 0: "Equal", 1: "Greater"}


def _order_op(kind, x, y, delta, models, depth):
    from hyperline import seqfield as sf, wattenberg as wb

    mx, my, mdelta = models
    rel = kind[4:] if kind.startswith("rel_") else None
    points = (0, 1, depth // 2, depth)

    def build():
        return _form_build(x, depth), _form_build(y, depth)

    keep = lambda out: out
    if kind == "compare":
        run = lambda: sf.compare(_h_build(x[0]), _h_build(y[0]), depth)
    elif kind == "classify":
        run = lambda: sf.classify(_h_build(x[0]), depth)
    elif kind == "arch_compare":
        run = lambda: sf.arch_compare(_h_build(x[0]), _h_build(y[0]), depth)
    elif kind in ("dd_add", "dd_add_neg"):
        def run():
            fx, fy = build()
            fy = wb.dd_neg(fx) if kind == "dd_add_neg" else fy
            return wb.dd_add(fx, fy, depth), fx

        def keep(out):
            # small enough to hold: the sum's sequences cache `depth` values
            result, fx = out
            return (result.render(), result.sign, result.delta is fx.delta,
                    fx.delta.render(), tuple(result.h.at(n) for n in points))
    else:
        call = {"dd_cmp": lambda a, b: wb.dd_cmp(a, b, depth),
                "absorbs": lambda a, b: wb.absorbs(a, b, depth)}.get(
            kind, lambda a, b: wb.rel_holds(rel, a, b, _idem_build(delta, depth), depth))
        run = lambda: call(*build())

    def check(out):
        gap = mx[0] - my[0]
        if kind == "compare":
            want = gap.sign
            if out.verdict.value != _VERDICT[want]:
                return f"verdict {out.verdict.value}, expected {_VERDICT[want]}"
            if not oracle.witness_ok(gap, want, out.witness_index, depth):
                return f"sign not constant on [{out.witness_index}, {depth}]"
            return None
        if kind == "classify":
            want = oracle.growth_class(mx[0])
            return None if out.value == want else f"{out.value}, expected {want}"
        if kind == "arch_compare":
            want = oracle.arch_class(mx[0], my[0])
            return None if out.value == want else f"{out.value}, expected {want}"
        if kind == "dd_add_neg":
            rendered, sign, _, delta_text, _ = out
            if sign != -1 or not rendered.endswith(" - " + delta_text):
                return f"x + (-x) rendered {rendered!r}, not ending ' - {delta_text}'"
            return None
        if kind == "dd_add":
            rendered, sign, from_x, _, values = out
            h, want_sign, idem = oracle.form_add(mx, my)
            got = mx[2] if from_x else my[2]
            if (sign != want_sign or oracle.idem_rank(got) != oracle.idem_rank(idem)
                    or values != tuple(h.at(n) for n in points)):
                return f"sum {rendered} differs from the model"
            return None
        if kind == "dd_cmp":
            want = _VERDICT[oracle.form_cmp(mx, my)]
            if out.verdict.value != want:
                return f"verdict {out.verdict.value}, expected {want}"
            fx, fy = build()
            back = wb.dd_cmp(fy, fx, depth).verdict.value
            if back != _VERDICT[-oracle.form_cmp(mx, my)]:
                return f"not antisymmetric: reversed pair gave {back}"
            return None
        want = oracle.absorbs(mx, my) if kind == "absorbs" else oracle.relation(rel, mx, my, mdelta)
        return None if out == want else f"{out}, expected {want}"

    def corrupt(out):
        if kind in ("compare", "dd_cmp"):
            flipped = sf.Verdict.LESS if out.verdict is not sf.Verdict.LESS else sf.Verdict.GREATER
            return sf.CompareResult(flipped, out.witness_index)
        if kind == "classify":
            return sf.ClassTag.UNDETERMINED
        if kind == "arch_compare":
            return sf.ArchClass.UNDETERMINED
        if kind in ("dd_add", "dd_add_neg"):
            rendered, sign, from_x, delta_text, values = out
            return rendered.replace(" - ", " + "), -sign or 1, from_x, delta_text, values
        return not out

    return Op(kind, f"{kind}@{depth}", run, check, corrupt, keep=keep)


# ---------------------------------------------------------------------------
# sums: Goldbach-Euler partial sums, the Euler sieve, flat sums and shadows

# (series, ratio, depth): the shadow scan's cost follows the ratio's digits,
# so the ratio is fixed per slot and the seed draws the tolerance
WST_SLOTS = [("geom", Fraction(1, 3), 2048), ("geom", Fraction(2, 5), 2048),
             ("alt", Fraction(1, 3), 2048), ("alt", Fraction(1, 2), 2048),
             ("powers", None, 4096), ("geom", Fraction(1, 4), 4096)]


def _ladder(rng, lo_exp, hi_exp, count):
    """`count` log-spaced sizes over [10^lo, 10^hi], each moved by at most 2%
    by the seed: the sieve's cost grows with the square of its depth, so a
    wider band would change the pass's cost from seed to seed."""
    step = (hi_exp - lo_exp) / (count - 1)
    return [int(10 ** (lo_exp + i * step) * rng.uniform(0.98, 1.02)) for i in range(count)]


def sums(seed: int) -> list:
    rng = Random(f"sums:{seed}")
    ops = [_partial_sum_op(limit) for limit in _ladder(rng, 4, 6, 12)]
    ops += [_sieve_op(depth, rng.randint(5, 20)) for depth in _ladder(rng, 3, 4.3, 8)]
    for series, r, depth in WST_SLOTS:
        if series == "powers":
            # the partial sums move by ~2.4e-4 over [depth/2, depth]
            tol = Fraction(rng.randint(2, 10), 1000)
        else:
            tol = Fraction(rng.randint(1, 9), 10 ** rng.randint(5, 8))
        ops.append(_wst_op(series, r, tol, depth))
    return ops


def _shifted(interval):
    from hyperline import Interval

    return Interval(interval.lo + 1, interval.hi + 1)


def _partial_sum_op(limit):
    from hyperline import goldbach as gb

    def check(total):
        want = oracle.reciprocal_sum(k - 1 for k in oracle.perfect_powers(limit))
        if total != want:
            return "differs from the sum over the perfect powers"
        if not 1 - gb.tail_bound(limit) <= total < 1:
            return "outside [1 - tail_bound, 1)"
        return None

    return Op("partial_sum", f"partial_sum({limit})", lambda: gb.partial_sum(limit),
              check, lambda total: total + Fraction(1, 10 ** 9))


def _sieve_op(depth, steps):
    from hyperline import goldbach as gb

    def check(report):
        if report.removed_bases != oracle.sieve_bases(depth, steps):
            return f"bases {report.removed_bases} are not the first non-powers"
        if not report.residual.contains(1):
            return f"residual {report.residual} misses 1"
        return None

    return Op("euler_sieve", f"euler_sieve({depth}, {steps})",
              lambda: gb.euler_sieve(depth, steps), check,
              lambda report: replace(report, residual=_shifted(report.residual)))


def _wst_op(series, r, tol, depth):
    from hyperline import extsum as es, goldbach as gb, wattenberg as wb

    if series == "powers":
        make, limit = gb.powers_reciprocal_series, Fraction(1)
    elif series == "geom":
        make, limit = (lambda: es.geom(r)), r / (1 - r)
    else:
        make, limit = (lambda: es.alternating(es.geom(r))), r / (1 + r)

    def run():
        flat = es.flat_sum(make(), depth=depth)
        return flat, wb.wst(flat.value, tol, depth)

    def keep(out):
        # the value's partial-sum sequence caches `depth` large rationals
        flat, interval = out
        return flat.value.render(), flat.divergent, flat.eta_interval, interval

    def check(out):
        rendered, divergent, eta, interval = out
        if divergent or not rendered.endswith("# - eps_d"):
            return f"value {rendered} is not eta# - eps_d"
        if not eta.contains(limit):
            return f"eta interval misses {limit}"
        if not interval.contains(limit) or interval.width > 2 * tol:
            return f"wst interval misses {limit} or is wider than 2*{tol}"
        return None

    label = f"wst({series}({r or ''}), {tol}, {depth})"
    return Op("flat_sum+wst", label, run, check,
              lambda out: out[:3] + (_shifted(out[3]),), keep)


# ---------------------------------------------------------------------------
# cli: the README's commands, each in a fresh interpreter

# README: `hyperline hermite cert --coeffs -87,32`.  argparse takes "-87,32"
# for an option, so it exits 2; it stays, counted as failed.
CLI_FAILING = ["hermite", "cert", "--coeffs", "-87,32"]


def child_env():
    env = dict(os.environ)
    env["PYTHONPATH"] = SRC + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    return env


def run_child(argv, trace=False):
    """(exit code, stdout, launcher stats) of one command in a fresh interpreter."""
    flags = ["--trace"] if trace else []
    proc = subprocess.run([sys.executable, CHILD, *flags, "--", *argv], env=child_env(),
                          capture_output=True, text=True, timeout=120)
    stats = {}
    for line in proc.stderr.splitlines():
        if line.startswith("perfbench-child "):
            stats = json.loads(line[len("perfbench-child "):])
    return proc.returncode, proc.stdout, proc.stderr, stats


def cli(seed: int, sink=None) -> list:
    """`sink`, when given, makes each child trace itself and collects the
    launcher's statistics."""
    rng = Random(f"cli:{seed}")
    n = rng.choice((1, 2))
    commands = [
        ["goldbach", "--limit", str(rng.randint(5 * 10 ** 5, 10 ** 6))],
        ["sieve", "--depth", str(rng.randint(9000, 11000)), "--steps", "20"],
        ["extsum", "--series", "geom(1/2)"],
        ["hermite", "m", "--n", str(n), "--p", str(rng.choice((3, 5, 7))),
         "--k", str(rng.randint(0, n))],
        CLI_FAILING,
        ["dirichlet", "--alpha", "pi", "--count", "4"],
        ["liouville", "--m", str(rng.randint(1, 3)), "--n", str(rng.randint(2, 3))],
        ["wat", "--expr", "1# + eps_d - eps_d"],
    ]
    return [_cli_op(argv, sink) for argv in commands]


def _opt(argv, name):
    return argv[argv.index(name) + 1]


def _check_doc(argv, doc):
    cmd = argv[0]
    if cmd == "goldbach":
        limit = int(_opt(argv, "--limit"))
        want = oracle.reciprocal_sum(k - 1 for k in oracle.perfect_powers(limit))
        if Fraction(doc["partial_sum"]) != want or Fraction(doc["abs_err_vs_1"]) != 1 - want:
            return "partial sum differs from the sum over the perfect powers"
        if not 1 - Fraction(doc["tail_bound"]) <= want:
            return "tail bound does not cover 1 - partial sum"
    elif cmd == "sieve":
        depth, steps = int(_opt(argv, "--depth")), int(_opt(argv, "--steps"))
        lo, hi = map(Fraction, doc["residual"])
        if doc["removed_bases"] != oracle.sieve_bases(depth, steps) or not lo <= 1 <= hi:
            return "wrong bases or residual misses 1"
    elif cmd == "extsum":
        lo, hi = map(Fraction, doc["wst_interval"])
        elo, ehi = map(Fraction, doc["eta_interval"])
        if (doc["value"] != "sum[geom(1/2)]# - eps_d" or doc["divergent"]
                or not lo <= 1 <= hi or hi - lo > Fraction(2, 10 ** 6) or not elo <= 1 <= ehi):
            return "flat sum of geom(1/2) is not 1# - eps_d with intervals around 1"
    elif cmd == "hermite" and argv[1] == "m":
        n, p, k = (int(_opt(argv, f)) for f in ("--n", "--p", "--k"))
        if int(doc["M"]) != oracle.hermite_Ms(n, p)[k]:
            return "M differs from the sympy expansion"
    elif cmd == "hermite":
        coeffs = [Fraction(c) for c in _opt(argv, "--coeffs").split(",")]
        if [Fraction(int(a), int(b)) for a, b in doc["coeffs"]] != coeffs:
            return "coefficients differ"
        if not all(doc["checks"].values()):
            return "a certificate check is false"
        return oracle.check_certificate(coeffs, doc["prime"], [int(m) for m in doc["M"]],
                                        int(doc["I"]), Fraction(doc["lower_bound"]))
    elif cmd == "dirichlet":
        want = oracle.pi_convergents(int(_opt(argv, "--count")))
        got = [(int(c["p"]), int(c["q"])) for c in doc["convergents"]]
        if got != want:
            return f"convergents {got}, expected {want}"
        for c, (p, q) in zip(doc["convergents"], want):
            # |pi - p/q| lies between the distances to the ends of PI_BRACKET
            err = Fraction(c["abs_err_upper"])
            near, far = sorted(abs(x - Fraction(p, q)) for x in oracle.PI_BRACKET)
            if not near <= err <= far + Fraction(1, 10 ** 35) or not err < Fraction(1, q * q):
                return f"error bound for {p}/{q} is wrong"
    elif cmd == "liouville":
        p, q, holds = oracle.liouville(int(_opt(argv, "--m")), int(_opt(argv, "--n")))
        if (int(doc["p"]), int(doc["q"]), doc["bound_holds"]) != (p, q, holds):
            return "Liouville approximation differs"
    elif cmd == "wat":
        if doc["canonical"] != "1# - eps_d":
            return f"{doc['canonical']} is not 1# - eps_d"
    return None


# one wrong field per command, for the self-test
_CLI_CORRUPT = {
    "goldbach": lambda doc: doc.update(partial_sum="1/3"),
    "sieve": lambda doc: doc.update(residual=["2", "3"]),
    "extsum": lambda doc: doc.update(wst_interval=["2", "3"]),
    "hermite": lambda doc: doc.update(M=str(int(doc["M"]) + 1) if isinstance(doc["M"], str)
                                      else [str(int(doc["M"][0]) + 1)] + doc["M"][1:]),
    "dirichlet": lambda doc: doc["convergents"][1].update(p="23"),
    "liouville": lambda doc: doc.update(bound_holds=not doc["bound_holds"]),
    "wat": lambda doc: doc.update(canonical="1#"),
}


def _cli_op(argv, sink):
    def run():
        code, out, err, stats = run_child(argv, trace=sink is not None)
        if sink is not None:
            sink.append(dict(stats, stdout_bytes=len(out.encode())))
        if code != 0:
            said = [line for line in err.splitlines() if not line.startswith("perfbench-child ")]
            raise CommandFailed(f"exit {code}: {said[-1] if said else ''}")
        return out

    def corrupt(out):
        doc = json.loads(out)
        _CLI_CORRUPT[argv[0]](doc)
        return json.dumps(doc)

    return Op("cli." + argv[0], " ".join(argv), run,
              lambda out: _check_doc(argv, json.loads(out)), corrupt)


def engines(seed: int, sink=None) -> list:
    """The paper's two verification engines in one batch: the Hermite
    certificates and the Goldbach-Euler sums."""
    return certify(seed) + sums(seed)


WORKLOADS = {"engines": engines, "order": order, "cli": cli}
