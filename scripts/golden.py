#!/usr/bin/env python3
"""Replay the golden CLI corpus, or rewrite it.

Usage:
    python scripts/golden.py                      # replay through hyperline.cli.run
    python scripts/golden.py --command hyperline  # replay through a console script
    python scripts/golden.py --write              # rewrite the corpus in process

`tests/golden/cli.jsonl` holds one JSON object per line: the run's `argv`,
its `exit` code, its exact `stdout`, and its exact `stderr`, except for an
argparse refusal, which pins `stderr_last_line` instead: argparse's usage
text differs between Python versions, its final `error:` line does not.

A replay prints each entry that differs and exits 1 if any does.  `--write`
runs every entry's argv (a line may hold only `argv`, to add a run), rewrites
the file and prints each entry whose record changed.
"""

import argparse
import contextlib
import io
import json
import subprocess
import sys
from pathlib import Path

CORPUS = Path(__file__).resolve().parents[1] / "tests" / "golden" / "cli.jsonl"


def run_in_process(argv):
    """``(exit, stdout, stderr)`` of ``hyperline.cli.run(argv)``."""
    from hyperline import cli

    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = cli.run(argv)
    return code, out.getvalue(), err.getvalue()


def console_script(command):
    """A runner that starts ``command`` with the argv and reads its bytes."""
    def run(argv):
        proc = subprocess.run([command, *argv], capture_output=True, timeout=120)
        return proc.returncode, proc.stdout.decode(), proc.stderr.decode()

    return run


def record(argv, runner):
    """The corpus entry of one run of ``argv``."""
    code, out, err = runner(argv)
    entry = {"argv": argv, "exit": code, "stdout": out}
    if err.startswith("usage: "):
        entry["stderr_last_line"] = err.splitlines()[-1]
    else:
        entry["stderr"] = err
    return entry


def _matches(entry, code, out, err):
    if "stderr" in entry:
        return (code, out, err) == (entry["exit"], entry["stdout"], entry["stderr"])
    lines = err.splitlines()
    return ((code, out) == (entry["exit"], entry["stdout"])
            and err.startswith("usage: ") and lines[-1] == entry["stderr_last_line"])


def replay(runner, path=CORPUS):
    """The argv of every corpus entry whose run differs from its record."""
    differing = []
    for line in Path(path).read_text().splitlines():
        entry = json.loads(line)
        if not _matches(entry, *runner(entry["argv"])):
            differing.append(entry["argv"])
    return differing


def write(runner, path=CORPUS):
    """Rewrite the corpus from fresh runs; the argv of each changed entry."""
    old = [json.loads(line) for line in Path(path).read_text().splitlines()]
    new = [record(entry["argv"], runner) for entry in old]
    Path(path).write_text("".join(json.dumps(entry) + "\n" for entry in new))
    return [entry["argv"] for entry, was in zip(new, old) if entry != was]


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    mode = parser.add_mutually_exclusive_group()
    mode.add_argument("--command", help="replay through this console script")
    mode.add_argument("--write", action="store_true",
                      help="rewrite the corpus from in-process runs")
    args = parser.parse_args()
    if args.write:
        for argv in write(run_in_process):
            print("changed:", json.dumps(argv))
        return 0
    runner = console_script(args.command) if args.command else run_in_process
    differing = replay(runner)
    for argv in differing:
        print("differs:", json.dumps(argv))
    return 1 if differing else 0


if __name__ == "__main__":
    sys.exit(main())
