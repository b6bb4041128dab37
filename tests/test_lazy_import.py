"""The package registers its six submodules lazily: each command runs only
the modules it needs.  Every test runs in a fresh interpreter, since the
test session itself has loaded every module long ago."""

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parents[1] / "src"
ENGINES = ("extsum", "goldbach", "hermite", "seqfield", "wattenberg")

# The hyperline modules whose code has run, read without loading any: a
# registered module stays a subclass of ModuleType until its first read.
EXECUTED = ("import json, sys, types; print(json.dumps(sorted("
            "n for n, m in list(sys.modules.items()) "
            "if n.startswith('hyperline') and type(m) is types.ModuleType)))")


def python(code, *args):
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), env.get("PYTHONPATH")]))
    proc = subprocess.run([sys.executable, "-c", code, *args], env=env,
                          capture_output=True, text=True, timeout=60)
    assert proc.returncode == 0, proc.stderr
    return proc.stdout


BASE = ["hyperline", "hyperline.cli", "hyperline.errors", "hyperline.intervals"]


@pytest.mark.parametrize("argv,engines", [
    (["hermite", "m", "--n", "1", "--p", "3"], ["hermite"]),
    (["hermite", "cert", "--coeffs", "3,-1"], ["hermite"]),
    (["dirichlet", "--alpha", "pi", "--count", "3"], ["hermite"]),
    (["liouville", "--m", "2", "--n", "2"], ["hermite"]),
    (["goldbach", "--limit", "1000"], ["goldbach"]),
    (["sieve", "--steps", "2", "--depth", "100"], ["goldbach"]),
    (["wat", "--expr", "1# + eps_d - eps_d"], ["seqfield", "wattenberg"]),
    (["extsum", "--series", "geom(1/2)", "--depth", "64"],
     ["extsum", "seqfield", "wattenberg"]),
], ids=" ".join)
def test_command_executes_only_its_engines(argv, engines):
    script = ("import contextlib, io, sys\n"
              "from hyperline import cli\n"
              "with contextlib.redirect_stdout(io.StringIO()):\n"
              "    assert cli.run(sys.argv[1:]) == 0\n" + EXECUTED)
    executed = json.loads(python(script, *argv))
    assert executed == sorted(BASE + [f"hyperline.{name}" for name in engines])


def test_importing_the_cli_executes_no_engine():
    assert json.loads(python("import hyperline.cli\n" + EXECUTED)) == BASE


# Without a lock, a thread's first read can make the module plain before its
# code has run, and another thread then reads a half-run module.
THREADS = """
import sys, threading
import hyperline
sys.setswitchinterval(1e-6)
barrier = threading.Barrier(8)
results, failures = [], []

def first_read():
    barrier.wait()
    try:
        results.append(hyperline.seqfield.compare(1, 2, 8).verdict.name)
    except Exception as exc:
        failures.append(repr(exc))

threads = [threading.Thread(target=first_read) for _ in range(8)]
for thread in threads:
    thread.start()
for thread in threads:
    thread.join(timeout=30)
assert not any(thread.is_alive() for thread in threads)
assert not failures, failures
assert results == ["LESS"] * 8, results
"""


@pytest.mark.parametrize("run", range(10))
def test_concurrent_first_reads_see_a_loaded_module(run):
    python(THREADS)


def test_public_names_resolve():
    script = """
import types
import hyperline
from hyperline import *
assert hyperline.__version__ == "0.1.0"
assert hyperline.Interval is hyperline.intervals.Interval
for name in hyperline.__all__:
    assert getattr(hyperline, name) is globals()[name]
for name in ("errors",) + %r:
    module = getattr(hyperline, name)
    assert module.__name__ == "hyperline." + name
    assert type(module) is types.ModuleType
assert callable(hyperline.hermite.hermite_M)
assert hyperline.seqfield.DEFAULT_DEPTH == 4096
""" % (ENGINES,)
    python(script)


def test_engine_modules_are_registered_and_load_on_vars():
    # perfbench/tracing.py reads sys.modules right after `import hyperline`
    # and rebinds functions found through vars() of every hyperline module
    script = """
import sys, types
import hyperline
wanted = {"seqfield": "compare", "wattenberg": "dd_cmp", "extsum": "flat_sum",
          "goldbach": "euler_sieve", "hermite": "hermite_M"}
for name, function in wanted.items():
    module = sys.modules["hyperline." + name]
    assert module is getattr(hyperline, name)
    assert callable(vars(module)[function]), name
    assert type(module) is types.ModuleType
"""
    python(script)
