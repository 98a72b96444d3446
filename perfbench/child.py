"""One CLI invocation in a fresh interpreter, spawned by run.py.

Takes one JSON argument: {"src": dir holding the cavityent package,
"argv": CLI arguments or null for an import-only set-up probe,
"trace": bool, "spans": path for the span dump}.  Prints one JSON line:
the CLOCK_MONOTONIC instant at which `import cavityent.cli` finished (the
parent subtracts its spawn instant to get set-up time), and for a real
invocation the CLI exit code, the wall time of `cli.main`, the process's
peak RSS and, when traced, the per-layer aggregates.
"""

import json
import resource
import sys
import time


def main():
    request = json.loads(sys.argv[1])
    sys.path.insert(0, request["src"])
    import cavityent.cli

    result = {"imported_at": time.clock_gettime(time.CLOCK_MONOTONIC)}
    if request["argv"] is not None:
        tracer = None
        if request["trace"]:
            import tracing

            tracer = tracing.Tracer()
            tracer.install()
        start = time.perf_counter()
        exit_code = cavityent.cli.main(request["argv"])
        result["wall_s"] = time.perf_counter() - start
        result["exit_code"] = exit_code
        result["maxrss_kb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
        if tracer is not None:
            result["trace"] = tracer.summary()
            tracer.write_spans(request["spans"])
    sys.stdout.write(json.dumps(result) + "\n")


if __name__ == "__main__":
    main()
