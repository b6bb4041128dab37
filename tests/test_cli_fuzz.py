"""Grammar-driven fuzz of the command line (Zeller et al., *The Fuzzing
Book*, "Fuzzing with Grammars").

Hypothesis draws argv for each subcommand from a small grammar seeded with
inputs that once broke the CLI: huge integers, odd rationals, decimal
exponents, nested ``alt(...)``, empty strings and ``geom`` ratios near 1.
Each argv runs ``python -m hyperline.cli`` in a child process, one at a time,
which caps its own address space and CPU time in ``preexec_fn``.  Every run
must exit 0, 2, 3 or 4, print no ``Traceback`` and no hint to raise
CPython's int/str digit limit, and keep stdout under ``STDOUT_LIMIT``.  The example count is fixed and the draws derandomized, so
the suite runs the same argvs every time.

``hermite cert`` is drawn only up to degree 3, since its degree bound is
still open: the CLI bounds the Hermite integers at the search's first prime,
but not the number of primes a search walks, which grows with the degree
(``--coeffs 13,1,-2,1,1,-1,1,1``, degree 7, walks about 266 primes in
161 s).
"""

import os
import resource
import subprocess
import sys
from pathlib import Path

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

SRC = Path(__file__).resolve().parents[1] / "src"
STDOUT_LIMIT = 1 << 20
ADDRESS_SPACE = 1 << 30
CPU_SECONDS = 30

HUGE = ["9" * 4400, "1" + "0" * 400, str(10 ** 18 + 1), str(2 ** 64), "-" + "9" * 40,
        "7" * 5000, "0" * 5000 + "3"]
ODD = ["", " ", "-0", "1.5", "1e3", "0x10", "1_000", "nan", "inf", "1/0", "x"]

integers = st.one_of(st.integers(-3, 40).map(str), st.sampled_from(HUGE + ODD))
rationals = st.one_of(
    integers,
    st.tuples(st.integers(-99, 99), st.integers(-9, 99)).map(lambda pq: f"{pq[0]}/{pq[1]}"),
    st.sampled_from(["1e-20000", "1e-100000", "1e400", "9999e4300", "0.5", "-1/2",
                     "1/" + "7" * 4301]))
near_one = st.sampled_from(["1", "-1", "99/100", "999/1000", "-99999/100000",
                            "9999999999/10000000000",
                            "99999999999999999999/100000000000000000000"])
leaves = st.one_of(
    near_one.map(lambda r: f"geom({r})"),
    rationals.map(lambda r: f"geom({r})"),
    integers.map(lambda k: f"pser({k})"),
    st.sampled_from(["harmonic", "powers_recip", "", "geom", "pser()", "harmonic(3)",
                     "alt()", "nope(1)"]))
series = st.recursive(leaves, lambda inner: inner.map(lambda s: f"alt({s})"), max_leaves=3)
depths = st.one_of(integers, st.sampled_from(["50000", "50001", "20000", "4096", "1048576",
                                             "1048577", "7" * 5000, "0" * 5000 + "3"]))


def _command(name, required, optional):
    """argv of ``name`` with ``--key value`` for each required key and each
    drawn optional one (``_`` in a key is written ``-``)."""
    return st.fixed_dictionaries(required, optional=optional).map(
        lambda flags: [*name.split(), *[piece for key, value in flags.items()
                                        for piece in (f"--{key.replace('_', '-')}", value)]])


cert_coefficients = st.lists(
    st.tuples(st.sampled_from([str(b) for b in range(-12, 13)] + ["5000", "1e400", "9" * 60]),
              st.sampled_from(["", "", "", "", "", "/2", "/3", "/7", "/11", "/13", "/0"]))
    .map("".join),
    min_size=1, max_size=4).map(",".join)
wat_expressions = st.lists(
    st.sampled_from(["1#", "-3/4#", "eps_d", "DELTA_d", "+", "-", "1/0#", "bogus",
                     "9" * 50 + "#", "9" * 5000 + "#", ""]), max_size=6).map(" ".join)

COMMANDS = {
    "sieve": _command("sieve", {"steps": integers},
                      {"depth": st.one_of(depths, st.just(str(10 ** 18)))}),
    "goldbach": _command("goldbach", {"limit": st.one_of(integers, st.just("1000000"))}, {}),
    "hermite m": _command("hermite m", {"n": integers, "p": integers}, {"k": integers}),
    "hermite cert": _command("hermite cert", {"coeffs": cert_coefficients},
                             {"p_cap": st.one_of(integers, st.just("100"))}),
    "dirichlet": _command("dirichlet", {"alpha": st.one_of(st.sampled_from(["pi", "e"]),
                                                           rationals),
                                        "count": integers}, {}),
    "liouville": _command("liouville", {"m": integers, "n": integers}, {}),
    "wat": _command("wat", {"expr": wat_expressions}, {"depth": depths}),
}
EXTSUM = _command("extsum", {"series": series},
                  {"depth": depths, "tolerance": rationals, "format": st.just("csv")})


def _limit_child():
    resource.setrlimit(resource.RLIMIT_AS, (ADDRESS_SPACE, ADDRESS_SPACE))
    resource.setrlimit(resource.RLIMIT_CPU, (CPU_SECONDS, CPU_SECONDS))


def check_run(argv):
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), env.get("PYTHONPATH")]))
    proc = subprocess.run([sys.executable, "-m", "hyperline.cli", *argv], env=env,
                          capture_output=True, preexec_fn=_limit_child, timeout=120)
    err = proc.stderr.decode(errors="replace")
    shown = [a if len(a) < 80 else a[:40] + f"...({len(a)} chars)" for a in argv]
    assert proc.returncode in (0, 2, 3, 4), (shown, proc.returncode, err[-2000:])
    assert "Traceback" not in err, (shown, err[-2000:])
    assert "set_int_max_str_digits" not in err, (shown, err[-2000:])
    assert len(proc.stdout) < STDOUT_LIMIT, (shown, len(proc.stdout))


FUZZ = dict(derandomize=True, deadline=None, database=None,
            suppress_health_check=[HealthCheck.too_slow, HealthCheck.data_too_large])


@settings(max_examples=30, **FUZZ)
@given(EXTSUM)
def test_extsum_exits_cleanly(argv):
    check_run(argv)


# numbers of 5000 digits that once reached int() or Fraction() unguarded and
# exited 2 with CPython's hint; the draws above need not reach them
LONG_NUMBERS = [
    ["wat", "--expr", "9" * 5000 + "#"],
    ["wat", "--expr", "1/" + "7" * 5000 + "#"],
    ["dirichlet", "--alpha", "1/" + "7" * 5000, "--count", "3"],
    ["extsum", "--series", "geom(1/2)", "--tolerance", "1/" + "7" * 5000],
    ["extsum", "--series", "pser(" + "0" * 5000 + "3)"],
    ["extsum", "--series", "pser(-" + "7" * 5000 + ")"],
    ["wat", "--expr", "1#+eps_d", "--depth", "7" * 5000],
    ["extsum", "--series", "geom(1/2)", "--depth", "7" * 5000],
]


@pytest.mark.parametrize("argv", LONG_NUMBERS, ids=lambda v: " ".join(a[:12] for a in v))
def test_long_numbers_exit_cleanly(argv):
    check_run(argv)


@pytest.mark.parametrize("command", sorted(COMMANDS))
@settings(max_examples=6, **FUZZ)
@given(data=st.data())
def test_command_exits_cleanly(command, data):
    check_run(data.draw(COMMANDS[command], label="argv"))
