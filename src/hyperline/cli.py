"""Command-line front end.

Every subcommand prints a single JSON document (or CSV rows with --format
csv) to stdout.  Rationals are rendered as decimal-free "p/q" strings so no
rounding ever happens on the way out; every number read or printed goes
through the decimal codec in `intervals`.  Work caps refuse an input before
any work, and a document of 2^20 bytes or more is not printed.  Exit codes:
0 success, 2 usage error or output over that cap, 3 an
undetermined/unknown-convergence verdict, 4 certificate search exhausted.
"""

from __future__ import annotations

import argparse
import csv
import decimal
import io
import json
import re
import sys
from fractions import Fraction

# Engine modules are reached through their module objects: each one's code
# runs only when a command reads from it (see hyperline/__init__.py).
from . import extsum, goldbach, hermite, seqfield, wattenberg
from .intervals import (_MAX_DECIMAL_CHARS, _fraction_to_text, _to_decimal, grid_bits,
                        read_fraction, read_int)
from .errors import (ClassUndetermined, ConvergenceUnknown, NotConvergentAtDepth,
                     PrecisionExhausted, SearchExhausted, SignUndetermined,
                     UnlimitedValue)

_SOFT_ERRORS = (ClassUndetermined, ConvergenceUnknown, NotConvergentAtDepth,
                SignUndetermined, UnlimitedValue, PrecisionExhausted)

# The eta/wst grid bounds (_tolerance, the pser exponent, the eta slack, a geom
# ratio's size, parse_rational's exponent) keep the 4300-digit figure: they bound
# eta and wst work until ROADMAP's floored eta intervals re-derive them.
_MAX_DIGITS = 4300
_MAX_BITS = (10 ** _MAX_DIGITS).bit_length() - 1
_MAX_GOLDBACH_LIMIT = 10 ** 10
# Work bounds: at the caps, sieve takes about 0.8 s, and extsum --series
# harmonic, whose divergence probe reads brackets, about 0.1 s and 20 MB.  A
# certified series whose tables would floor more than 2^28 bits of terms
# (extsum.table_work) is refused too; geom(199/200) at depth 4096, just
# below, takes about 0.5 s.
_MAX_SIEVE_STEPS = 10 ** 4
_MAX_SIEVE_DEPTH = 10 ** 18
_MAX_EXTSUM_DEPTH = 5 * 10 ** 4
_MAX_TABLE_WORK = 1 << 28
# wat: the named idempotents' forms decide every sum without a scan, but a
# sign scan of two form-free leaves over [depth/2, depth] took 0.15 s at depth
# 2^16, 1.2 s at 2^20 and 4.7 s at 2^22, at about 16 MB; past 2^20 a scan
# would read more than 2^19 + 1 indices
_MAX_WAT_DEPTH = 1 << 20
# hermite m: the expansion of degree N = (n+1)p - 1 takes about n N big-integer
# steps, which hermite_M_min_bits, 0 for a small p, does not bound: n N = 80200
# (--n 200 --p 2) took 0.24 s, 180300 (--n 300 --p 2) 1.3 s, 500500 7.6 s; peak
# RSS tracks N hermite_M_min_bits: 135-265 MB and 0.3-0.8 s just below 2^30 at
# n = 1..10, 390 MB at 1.8e9 (--n 1 --p 10007)
_MAX_EXPANSION = 1 << 17
_MAX_EXPANSION_BITS = 1 << 30
# hermite cert: at degree 3 a search starting where hermite_M_min_bits is
# about 87000 took 0.9 s and 150 MB, and 160000 (5000,1,1,-1) 2.4 s and 410 MB
_MAX_CERT_BITS = 1 << 17


def parse_rational(text: str) -> Fraction:
    """A finite rational from "p/q" or a decimal; ValueError otherwise
    (including a zero denominator, "inf", "nan" and a decimal exponent
    above _MAX_DIGITS, refused before 10^exponent is built)."""
    text = text.strip()
    try:
        if "/" in text:
            return read_fraction(text)
        value = decimal.Decimal(text)
        exponent = value.as_tuple().exponent
        if isinstance(exponent, int) and abs(exponent) > _MAX_DIGITS:
            raise ValueError(f"exponent above {_MAX_DIGITS}")
        return Fraction(value)
    except (ArithmeticError, ValueError) as exc:
        raise ValueError(f"cannot parse rational {text!r}: {exc}") from exc


# argparse `type=` functions: bad input becomes a usage error (exit 2)

def _tolerance(text: str) -> Fraction:
    try:
        value = parse_rational(text)
    except ValueError as exc:
        raise argparse.ArgumentTypeError(str(exc)) from None
    if value <= 0:
        raise argparse.ArgumentTypeError(f"tolerance must be positive, got {text!r}")
    # wst endpoints lie on the grid 2^-k, k = grid_bits(tolerance / 8), offset
    # by the tolerance: their numerators and denominators have about this many bits
    bits = value.numerator.bit_length() + value.denominator.bit_length()
    if bits + grid_bits(value / 8) > _MAX_BITS:
        raise argparse.ArgumentTypeError(
            f"tolerance {text!r} would print more than {_MAX_DIGITS} digits")
    return value


def _depth(text: str) -> int:
    try:
        value = read_int(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"depth must be an integer, got {text!r}") from None
    if value < 1:
        raise argparse.ArgumentTypeError(f"depth must be at least 1, got {text!r}")
    return value


def _leaf(text: str):
    """The name and argument of the series under any ``alt(...)``, or
    ``(None, None)``."""
    match = extsum._CALL.match(text)
    while match and match.group(1) == "alt" and match.group(2) is not None:
        match = extsum._CALL.match(match.group(2))
    return match.groups() if match else (None, None)


def _ratio_prints(text: str) -> bool:
    """Whether a ``geom`` ratio's terms have at most _MAX_DIGITS digits; an
    exponent above that is refused before 10^exponent, seconds of work."""
    exponent = re.search(r"[eE][+-]?(\d[\d_]*)", text)
    if exponent and read_int(exponent.group(1)) > _MAX_DIGITS:
        return False
    try:
        ratio = read_fraction(text)
    except (ValueError, ZeroDivisionError):
        return True  # parse_series says what is wrong with it
    return max(abs(ratio.numerator), ratio.denominator) < 10 ** _MAX_DIGITS


def _series(text: str) -> extsum.SeriesSpec:
    too_big = f"series {text!r}: eta_interval would print more than {_MAX_DIGITS} digits"
    name, arg = _leaf(text)
    if name == "geom" and arg is not None and not _ratio_prints(arg):
        raise argparse.ArgumentTypeError(
            f"series {text!r}: its ratio would print more than {_MAX_DIGITS} digits")
    # pser(k)'s tail bound at index m is 1/((k-1) (m+1)^(k-1)), m >= 127, so its
    # grid needs at least 7 (k-1) bits: refuse before that power is built
    if name == "pser" and arg is not None:
        try:
            exponent = read_int(arg)
        except ValueError:
            exponent = 0  # parse_series refuses it
        if 7 * (exponent - 1) > _MAX_BITS:
            raise argparse.ArgumentTypeError(too_big)
    try:
        spec = extsum.parse_series(text)
        # eta_interval adds one interval per signed part, each on the grid
        # 2^-k, k = grid_bits(slack), slack that part's tail bound
        parts = extsum.split_parts(spec) if spec.pattern == extsum.SPLIT else (spec,)
        slacks = [Fraction(part.tail_bound(extsum.DEFAULT_ETA_TERMS - 1))
                  for part in parts if part.tail_bound is not None]
    except (ArithmeticError, ValueError) as exc:
        raise argparse.ArgumentTypeError(f"bad series {text!r}: {exc}") from None
    if any(slack and grid_bits(slack) > _MAX_BITS for slack in slacks):
        raise argparse.ArgumentTypeError(too_big)
    return spec


def _check_output_size(parser, args):
    """Refuse, as a usage error before any work, an input past a work cap
    (the figures above; a series' by `extsum.table_work` at `shadow`'s
    scale).  What may print is bounded by `run`'s stdout cap alone."""
    depth = getattr(args, "depth", 0)  # unset only where no cap reads it
    if args.command == "sieve" and args.steps > _MAX_SIEVE_STEPS:
        parser.error(f"sieve --steps {args.steps}: steps above 10^4 are refused")
    if args.command == "sieve" and depth > _MAX_SIEVE_DEPTH:
        parser.error(f"sieve --depth {_to_decimal(depth)}: depths above 10^18 are refused")
    if args.command == "extsum" and depth > _MAX_EXTSUM_DEPTH:
        parser.error(f"extsum --depth {_to_decimal(depth)}: depths above 50000 are refused")
    if args.command == "wat" and depth > _MAX_WAT_DEPTH:
        parser.error(f"wat --depth {_to_decimal(depth)}: a sign scan of [depth/2, depth] "
                     f"would read more than 2^19 + 1 indices")
    if args.command == "extsum" and extsum.table_work(
            args.series, depth, seqfield.shadow_scale(args.tolerance, depth),
            _MAX_TABLE_WORK) > _MAX_TABLE_WORK:
        parser.error(f"extsum --series {args.series.label} --depth {depth}: its partial "
                     f"sums would floor more than 2^28 bits of terms")
    if args.command == "goldbach" and args.limit > _MAX_GOLDBACH_LIMIT:
        parser.error(f"goldbach --limit {args.limit}: limits above 10^10 are refused")
    if args.command == "hermite" and args.hermite_command == "m":
        degree = (args.n + 1) * args.p - 1
        if args.n * degree > _MAX_EXPANSION:
            parser.error(f"hermite m --n {args.n} --p {args.p}: n times the degree "
                         f"(n+1)p - 1 above 2^17 is refused")
        if degree * hermite.hermite_M_min_bits(args.n, args.p) > _MAX_EXPANSION_BITS:
            parser.error(f"hermite m --n {args.n} --p {args.p}: its expansion would "
                         f"hold more than 2^30 bits")
    if args.command == "hermite" and args.hermite_command == "cert" and \
            _cert_start_bits(args) > _MAX_CERT_BITS:
        parser.error(f"hermite cert --coeffs {args.coeffs}: the Hermite integers "
                     f"at the first prime would pass 2^17 bits")


def _cert_start_bits(args) -> int:
    """``hermite_M_min_bits`` just above where the prime search starts, an
    estimate of the size of the Hermite integers at the first prime: it is
    not monotone in p, and dips by up to a third past a power of two.  It is
    0 for coefficients that do not parse (the search reports them) and for a
    start at the prime cap, where no prime is tried."""
    try:
        coefficients = [parse_rational(c) for c in args.coeffs.split(",")]
    except ValueError:
        return 0
    start = hermite.search_start(coefficients, args.p_cap)
    if start >= args.p_cap:
        return 0
    return hermite.hermite_M_min_bits(len(coefficients) - 1, start + 1)


def _build_parser() -> argparse.ArgumentParser:
    # The shared flags live on a parent parser with SUPPRESS defaults so they
    # can be given either before or after the subcommand (a subparser default
    # would otherwise clobber a value parsed by the main parser).
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--depth", type=_depth, default=argparse.SUPPRESS,
                        help="inspection depth for sequence verdicts")
    common.add_argument("--tolerance", type=_tolerance,
                        default=argparse.SUPPRESS,
                        help="interval tolerance (p/q or decimal)")
    common.add_argument("--format", choices=("json", "csv"),
                        default=argparse.SUPPRESS, dest="output_format")

    parser = argparse.ArgumentParser(
        prog="hyperline", parents=[common],
        description="exact arithmetic on the extended hyperreal line")
    sub = parser.add_subparsers(dest="command", required=True)

    p_gb = sub.add_parser("goldbach", parents=[common],
                          help="perfect-power partial sum report")
    p_gb.add_argument("--limit", type=int, required=True)

    p_sieve = sub.add_parser("sieve", parents=[common],
                             help="stepwise Euler sieve")
    p_sieve.add_argument("--steps", type=int, required=True)

    p_ext = sub.add_parser("extsum", parents=[common],
                           help="flat sum of a series expression")
    p_ext.add_argument("--series", type=_series, required=True,
                       help="geom(r) | pser(k) | powers_recip | harmonic | alt(...)")

    p_herm = sub.add_parser("hermite", parents=[common],
                            help="Hermite integers and certificates")
    herm_sub = p_herm.add_subparsers(dest="hermite_command", required=True)
    p_m = herm_sub.add_parser("m", parents=[common],
                              help="one Hermite integer M_k(n, p)")
    p_m.add_argument("--n", type=int, required=True)
    p_m.add_argument("--p", type=int, required=True)
    p_m.add_argument("--k", type=int, default=0)
    p_cert = herm_sub.add_parser("cert", parents=[common],
                                 help="nonvanishing certificate")
    p_cert.add_argument("--coeffs", required=True,
                        help="comma-separated rationals, e.g. 3,-1 or -87,32")
    p_cert.add_argument("--p-cap", type=int, default=10_000,
                        help="abort the prime search above this bound")

    p_dir = sub.add_parser("dirichlet", parents=[common],
                           help="continued-fraction convergents")
    p_dir.add_argument("--alpha", required=True, help="pi | e | p/q")
    p_dir.add_argument("--count", type=int, required=True)

    p_liou = sub.add_parser("liouville", parents=[common],
                            help="Liouville-constant approximation")
    p_liou.add_argument("--m", type=int, required=True)
    p_liou.add_argument("--n", type=int, required=True)

    p_wat = sub.add_parser("wat", parents=[common],
                           help="canonical-form expression calculator")
    p_wat.add_argument("--expr", required=True,
                       help='e.g. "1# + eps_d - eps_d"')
    return parser


def _apply_defaults(args):
    if getattr(args, "depth", None) is None:
        if args.command == "sieve":
            args.depth = 10_000
        elif args.command in ("extsum", "wat"):
            args.depth = seqfield.DEFAULT_DEPTH
    if getattr(args, "tolerance", None) is None:
        args.tolerance = Fraction(1, 10 ** 6)
    if getattr(args, "output_format", None) is None:
        args.output_format = "json"


_TERM = re.compile(r"^(?:(?P<rat>-?\d+(?:/\d+)?)#|(?P<eps>eps_d)|(?P<delta>DELTA_d))$")


def eval_wat_expr(text: str, depth: int | None = None) -> wattenberg.DedekindNumber:
    """The canonical form of a sum of terms r#, eps_d and DELTA_d, at
    `depth` (default seqfield.DEFAULT_DEPTH); ValueError on a bad term."""
    if depth is None:
        depth = seqfield.DEFAULT_DEPTH
    tokens = text.replace("+", " + ").replace("-", " - ").split()
    result = wattenberg.zero_cut()
    sign = 1
    expect_term = True
    seen_term = False
    for token in tokens:
        if token in "+-":
            if expect_term:
                if seen_term:
                    raise ValueError(f"misplaced operator in {text!r}")
                sign *= -1 if token == "-" else 1  # unary sign on the first term
                continue
            sign = 1 if token == "+" else -1
            expect_term = True
            continue
        match = _TERM.match(token)
        if not match:
            raise ValueError(f"bad term {token!r}")
        if match.group("rat"):
            try:
                value = read_fraction(match.group("rat"))
            except ZeroDivisionError:
                raise ValueError(f"zero denominator in {token!r}") from None
            term = wattenberg.embed(value)
        elif match.group("eps"):
            term = wattenberg.eps_d()
        else:
            term = wattenberg.delta_d()
        if sign < 0:
            term = wattenberg.dd_neg(term)
        result = wattenberg.dd_add(result, term, depth)
        sign = 1
        expect_term = False
        seen_term = True
    if expect_term:
        raise ValueError(f"trailing operator in {text!r}")
    return result


def _interval_pair(interval):
    if interval is None:
        return None
    return [_fraction_to_text(interval.lo), _fraction_to_text(interval.hi)]


def _run_command(args) -> dict:
    if args.command == "goldbach":
        return goldbach.goldbach_report(args.limit)
    if args.command == "sieve":
        return goldbach.euler_sieve(args.depth, args.steps).to_dict()
    if args.command == "extsum":
        spec = args.series
        result = extsum.flat_sum(spec, depth=args.depth)
        wst_interval = None
        if not result.divergent:
            try:
                wst_interval = wattenberg.wst(result.value, args.tolerance, args.depth)
            except (NotConvergentAtDepth, UnlimitedValue) as exc:
                # value stands on its own; the shadow is a bonus field
                print(f"note: wst_interval: {exc}", file=sys.stderr)
        return {
            "series": spec.label,
            "value": result.value.render(),
            "divergent": result.divergent,
            "eta_interval": _interval_pair(result.eta_interval),
            "wst_interval": _interval_pair(wst_interval),
        }
    if args.command == "hermite":
        if args.hermite_command == "m":
            return {"M": _to_decimal(hermite.hermite_M(args.n, args.p, args.k))}
        cert = hermite.nonvanish_certificate(
            [parse_rational(c) for c in args.coeffs.split(",")],
            p_cap=args.p_cap)
        return cert.to_dict()
    if args.command == "dirichlet":
        if args.alpha == "pi":
            alpha = hermite.pi_oracle
        elif args.alpha == "e":
            alpha = hermite.e_oracle
        else:
            alpha = parse_rational(args.alpha)
        convergents = hermite.cf_convergents(alpha, args.count)
        return {
            "alpha": args.alpha,
            "convergents": [{"p": _to_decimal(c.p), "q": _to_decimal(c.q),
                             "abs_err_upper": _fraction_to_text(c.error_bound.hi)}
                            for c in convergents],
        }
    if args.command == "liouville":
        convergent, holds = hermite.liouville_approx(args.m, args.n)
        return {
            "m": args.m,
            "n": args.n,
            "p": _to_decimal(convergent.p),
            "q": _to_decimal(convergent.q),
            "error_interval": _interval_pair(convergent.error_bound),
            "bound_holds": holds,
        }
    if args.command == "wat":
        value = eval_wat_expr(args.expr, args.depth)
        return {"expr": args.expr, "canonical": value.render()}
    raise AssertionError(f"unhandled command {args.command}")


def _csv_rows(doc: dict):
    list_key = next((k for k, v in doc.items()
                     if isinstance(v, list) and v and isinstance(v[0], dict)), None)
    if list_key is None:
        yield list(doc.keys())
        yield [_csv_cell(v) for v in doc.values()]
        return
    header = list(doc[list_key][0].keys())
    yield header
    for row in doc[list_key]:
        yield [_csv_cell(row.get(k)) for k in header]


def _csv_cell(value):
    if isinstance(value, (list, dict)):
        return json.dumps(value)
    return "" if value is None else str(value)


def render(doc: dict, output_format: str) -> str:
    if output_format == "json":
        return json.dumps(doc, indent=2)
    out = io.StringIO()
    csv.writer(out, lineterminator="\n").writerows(_csv_rows(doc))
    return out.getvalue().rstrip("\n")


_NEGATIVE_VALUE = re.compile(r"-\.?\d")


def _attach_negative_values(argv):
    """argparse reads a value such as -87,32 or -1/2 as an option unless it
    is attached to its option, so pass `--coeffs -87,32` as `--coeffs=-87,32`."""
    out = []
    for token in argv:
        if (out and out[-1].startswith("--") and len(out[-1]) > 2
                and "=" not in out[-1] and _NEGATIVE_VALUE.match(token)):
            out[-1] += "=" + token
        else:
            out.append(token)
    return out


def run(argv) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(_attach_negative_values(argv))
        _apply_defaults(args)
        _check_output_size(parser, args)
    except SystemExit as exc:
        return exc.code if isinstance(exc.code, int) else 2
    try:
        text = render(_run_command(args), args.output_format)
        size = len(text.encode()) + 1  # with print's newline
        if size >= _MAX_DECIMAL_CHARS:
            raise ValueError(f"output of {size} bytes is over the stdout cap of "
                             f"2^20 - 1 bytes")
    except SearchExhausted as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 4
    except _SOFT_ERRORS as exc:
        print(f"undetermined: {exc}", file=sys.stderr)
        return 3
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    print(text)
    return 0


def main():
    sys.exit(run(sys.argv[1:]))


if __name__ == "__main__":
    main()
