"""Run one hyperline command in this fresh interpreter, as the `hyperline`
console script does, and time the import of hyperline.cli and cli.run.

    python3 perfbench/child.py [--trace] -- <hyperline arguments>

The command's stdout and exit code are the CLI's own.  One line starting
"perfbench-child " goes to stderr last: a JSON object with the times, the
process's peak RSS and, with --trace, the per-layer totals of `tracing`.
"""

import json
import resource
import sys
from time import perf_counter


def main() -> int:
    argv = sys.argv[1:]
    trace = argv[:1] == ["--trace"]
    argv = argv[1:] if trace else argv
    argv = argv[1:] if argv[:1] == ["--"] else argv
    start = perf_counter()
    from hyperline import cli
    imported = perf_counter()
    tracer = None
    if trace:
        from tracing import Tracer
        tracer = Tracer()
        tracer.install()
        tracer.enabled = True
    run_start = perf_counter()
    code = cli.run(argv)
    done = perf_counter()
    sys.stdout.flush()
    stats = {"import_s": imported - start, "run_s": done - run_start,
             "maxrss_kb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss}
    if tracer is not None:
        tracer.uninstall()
        stats["layers"] = tracer.totals()
    sys.stderr.write("perfbench-child " + json.dumps(stats) + "\n")
    return code


if __name__ == "__main__":
    sys.exit(main())
