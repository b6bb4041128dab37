"""Per-layer tracing of hyperline from outside the library.

`Tracer.install` wraps the public functions of each module in a span
recorder and rebinds the wrapper under every name that held the original in
every loaded hyperline module, because modules import each other's
functions by name (wattenberg binds compare/classify/shadow, extsum binds
dd_add, goldbach binds flat_sum, cli binds wst).  Hot methods are counted
rather than spanned: `Hyperreal.at`, `SeriesSpec.term_at` and the
`Interval` operators (whose time is also summed, as intervals' self time).

A span is [name, start, end, parent, op, child_time, outermost]; self time
is end - start - child_time.  Spans stay in memory until `write`.
"""

from __future__ import annotations

import functools
import json
import sys
from collections import Counter
from time import perf_counter

WRAPPED = {
    "seqfield": ("compare", "classify", "arch_compare", "shadow"),
    "wattenberg": ("dd_cmp", "dd_add", "dd_le", "idem_cmp", "absorbs",
                   "rel_holds", "wst"),
    "extsum": ("flat_sum",),
    "goldbach": ("partial_sum", "euler_sieve", "perfect_powers"),
    "hermite": ("hermite_M", "e_interval", "nonvanish_certificate",
                "verify_certificate", "cf_convergents", "_certify_eps",
                "combination_interval"),
}
SCANS = ("seqfield.compare", "seqfield.classify", "seqfield.arch_compare")
INTERVAL_OPS = ("__add__", "__radd__", "__sub__", "__rsub__", "__mul__",
                "__rmul__", "__neg__")

# per-layer metric -> unit; every traced run reports all of them
LAYER_UNITS = {
    "intervals.ops": "count", "intervals.self_ms": "ms",
    "intervals.max_endpoint_bits": "bits",
    "seqfield.index_reads": "count", "seqfield.index_evals": "count",
    "seqfield.memo_hit_ratio": "ratio", "seqfield.scan.self_ms": "ms",
    "seqfield.shadow.ms": "ms",
    "wattenberg.dd_cmp.calls": "count", "wattenberg.dd_cmp.ms": "ms",
    "wattenberg.idem_cmp.calls": "count", "wattenberg.self_ms": "ms",
    "wattenberg.wst.ms": "ms",
    "extsum.flat_sum.ms": "ms", "extsum.term_evals": "count",
    "goldbach.partial_sum.ms": "ms", "goldbach.euler_sieve.ms": "ms",
    "goldbach.perfect_powers.ms": "ms",
    "hermite.hermite_M.calls": "count", "hermite.hermite_M.ms": "ms",
    "hermite.primes_tried": "count", "hermite.e_interval.calls": "count",
    "hermite.nonvanish_certificate.ms": "ms",
    "hermite.verify_certificate.ms": "ms", "hermite.cf_convergents.ms": "ms",
    "cli.import_ms": "ms", "cli.run.ms": "ms", "cli.stdout_bytes": "bytes",
    "cli.interp_start_ms": "ms",
    "trace.ops_per_s": "1/s",
}


class Tracer:
    def __init__(self):
        self.spans: list = []
        self.stack: list = []
        self.open_names: Counter = Counter()
        self.counts: Counter = Counter()
        self.op = None
        self.enabled = False
        self._in_interval = False
        self._undo: list = []

    # -- spans -------------------------------------------------------------
    def begin(self, name):
        parent = self.stack[-1] if self.stack else -1
        span = [name, perf_counter(), 0.0, parent, self.op, 0.0,
                self.open_names[name] == 0]
        self.open_names[name] += 1
        self.stack.append(len(self.spans))
        self.spans.append(span)
        return span

    def end(self, span):
        span[2] = perf_counter()
        self.stack.pop()
        self.open_names[span[0]] -= 1
        if span[3] >= 0:
            self.spans[span[3]][5] += span[2] - span[1]

    def _charge_parent(self, seconds):
        if self.stack:
            self.spans[self.stack[-1]][5] += seconds

    # -- installation --------------------------------------------------------
    def _rebind(self, original, replacement):
        for name, module in list(sys.modules.items()):
            if not name.startswith("hyperline") or module is None:
                continue
            for attr, value in list(vars(module).items()):
                if value is original:
                    setattr(module, attr, replacement)
                    self._undo.append((module, attr, original))

    def _span_wrapper(self, name, fn):
        tracer = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if not tracer.enabled:
                return fn(*args, **kwargs)
            span = tracer.begin(name)
            try:
                return fn(*args, **kwargs)
            finally:
                tracer.end(span)

        return wrapper

    def _patch(self, cls, attr, replacement):
        self._undo.append((cls, attr, cls.__dict__[attr]))
        setattr(cls, attr, replacement)

    def install(self):
        import hyperline  # noqa: F401  (loads every module to rebind in)
        from hyperline import extsum, seqfield
        from hyperline.intervals import Interval

        for module, names in WRAPPED.items():
            mod = sys.modules[f"hyperline.{module}"]
            for attr in names:
                original = getattr(mod, attr)
                self._rebind(original, self._span_wrapper(f"{module}.{attr}", original))

        tracer, counts = self, self.counts
        at, limit = seqfield.Hyperreal.at, seqfield._CACHE_LIMIT

        def counted_at(seq, n):
            if not tracer.enabled:
                return at(seq, n)
            counts["seqfield.index_reads"] += 1
            before = len(seq._cache)
            if n < before:
                counts["seqfield.index_hits"] += 1
                return at(seq, n)
            value = at(seq, n)
            counts["seqfield.index_evals"] += (len(seq._cache) - before
                                               if n < limit else 1)
            return value

        self._patch(seqfield.Hyperreal, "at", counted_at)

        term_at = extsum.SeriesSpec.term_at

        def counted_term_at(spec, n):
            if tracer.enabled:
                counts["extsum.term_evals"] += 1
            return term_at(spec, n)

        self._patch(extsum.SeriesSpec, "term_at", counted_term_at)

        for attr in INTERVAL_OPS:
            self._patch(Interval, attr, self._interval_wrapper(Interval.__dict__[attr]))

    def _interval_wrapper(self, fn):
        tracer, counts = self, self.counts

        @functools.wraps(fn)
        def wrapper(*args):
            if not tracer.enabled:
                return fn(*args)
            counts["intervals.ops"] += 1
            if tracer._in_interval:  # nested operator: timed by the outer one
                return fn(*args)
            tracer._in_interval = True
            start = perf_counter()
            try:
                result = fn(*args)
            finally:
                elapsed = perf_counter() - start
                tracer._in_interval = False
                counts["intervals.self_s"] += elapsed
                tracer._charge_parent(elapsed)
            bits = max(result.lo.numerator.bit_length(), result.lo.denominator.bit_length(),
                       result.hi.numerator.bit_length(), result.hi.denominator.bit_length())
            if bits > counts["intervals.max_endpoint_bits"]:
                counts["intervals.max_endpoint_bits"] = bits
            return result

        return wrapper

    def uninstall(self):
        self.enabled = False
        for owner, attr, original in reversed(self._undo):
            setattr(owner, attr, original)
        self._undo.clear()

    # -- results -------------------------------------------------------------
    def totals(self) -> dict:
        """Raw sums over every span and counter (seconds, not per pass)."""
        out = Counter(self.counts)
        for name, start, end, parent, _op, child, outermost in self.spans:
            duration = end - start
            layer = name.split(".")[0]
            out[f"{name}.calls"] += 1
            out[f"{layer}.self_s"] += duration - child
            if name in SCANS:
                out["seqfield.scan.self_s"] += duration - child
            if outermost:
                out[f"{name}.s"] += duration
            if (name == "hermite._certify_eps" and parent >= 0
                    and self.spans[parent][0] == "hermite.nonvanish_certificate"):
                out["hermite.primes_tried"] += 1
        return dict(out)

    def write(self, path):
        with open(path, "w") as fh:
            json.dump({"fields": ["name", "start", "end", "parent", "op",
                                  "child_s", "outermost"],
                       "spans": self.spans}, fh)


def merge(total: Counter, part: dict):
    for key, value in part.items():
        if key == "intervals.max_endpoint_bits":
            total[key] = max(total[key], value)
        else:
            total[key] += value


def layer_metrics(totals: dict, ops: int) -> dict:
    """The per-layer metrics from raw totals: counts and times are means per
    operation; the ratio, the bit size and the interpreter start are not."""
    t = Counter(totals)
    ms = lambda key: 1000 * t[key] / ops
    per = lambda key: t[key] / ops
    return {
        "intervals.ops": per("intervals.ops"),
        "intervals.self_ms": ms("intervals.self_s"),
        "intervals.max_endpoint_bits": t["intervals.max_endpoint_bits"],
        "seqfield.index_reads": per("seqfield.index_reads"),
        "seqfield.index_evals": per("seqfield.index_evals"),
        "seqfield.memo_hit_ratio": (t["seqfield.index_hits"] / t["seqfield.index_reads"]
                                    if t["seqfield.index_reads"] else 0.0),
        "seqfield.scan.self_ms": ms("seqfield.scan.self_s"),
        "seqfield.shadow.ms": ms("seqfield.shadow.s"),
        "wattenberg.dd_cmp.calls": per("wattenberg.dd_cmp.calls"),
        "wattenberg.dd_cmp.ms": ms("wattenberg.dd_cmp.s"),
        "wattenberg.idem_cmp.calls": per("wattenberg.idem_cmp.calls"),
        "wattenberg.self_ms": ms("wattenberg.self_s"),
        "wattenberg.wst.ms": ms("wattenberg.wst.s"),
        "extsum.flat_sum.ms": ms("extsum.flat_sum.s"),
        "extsum.term_evals": per("extsum.term_evals"),
        "goldbach.partial_sum.ms": ms("goldbach.partial_sum.s"),
        "goldbach.euler_sieve.ms": ms("goldbach.euler_sieve.s"),
        "goldbach.perfect_powers.ms": ms("goldbach.perfect_powers.s"),
        "hermite.hermite_M.calls": per("hermite.hermite_M.calls"),
        "hermite.hermite_M.ms": ms("hermite.hermite_M.s"),
        "hermite.primes_tried": per("hermite.primes_tried"),
        "hermite.e_interval.calls": per("hermite.e_interval.calls"),
        "hermite.nonvanish_certificate.ms": ms("hermite.nonvanish_certificate.s"),
        "hermite.verify_certificate.ms": ms("hermite.verify_certificate.s"),
        "hermite.cf_convergents.ms": ms("hermite.cf_convergents.s"),
        "cli.import_ms": ms("cli.import_s"),
        "cli.run.ms": ms("cli.run_s"),
        "cli.stdout_bytes": per("cli.stdout_bytes"),
        "cli.interp_start_ms": 1000 * t["cli.interp_start_s"],
    }
