"""Fresh-process entry points of the benchmark.

    python3 bench/shim.py cli SPAN_FILE OP -- ARGV...
        One traced CLI command: time ``import holofrft``, install the span
        wrappers, call ``holofrft.cli.main(ARGV)``, restore the wrapped
        attributes and write the spans (op id OP) to SPAN_FILE as JSON.
    python3 bench/shim.py setup WORKLOAD SEED WORKDIR
        One set-up repetition: import holofrft, build the warm-up inputs of
        WORKLOAD for SEED and run its warm-up ops.

Both expect ``src`` on PYTHONPATH and BLAS pinned, as ``run.py`` arranges.
"""

import json
import sys
import time


def traced_cli(span_file: str, op: int, argv: list[str]) -> int:
    start = time.monotonic_ns()
    import holofrft  # noqa: F401  (timed: the proc.import span)
    end = time.monotonic_ns()
    import holofrft.cli
    import spans

    tracer = spans.Tracer()
    tracer.op = op
    tracer.add("proc.import", start, end, None)
    patches = spans.Patches(tracer)
    patches.apply()
    try:
        return holofrft.cli.main(argv)
    finally:
        patches.restore()
        with open(span_file, "w", encoding="utf-8") as fh:
            json.dump(tracer.spans, fh)


def setup(name: str, seed: int, workdir: str) -> int:
    import workloads
    workloads.warm_up(workloads.WORKLOADS[name], seed, workdir)
    return 0


def main(argv: list[str]) -> int:
    if argv[:1] == ["cli"] and len(argv) >= 4 and argv[3] == "--":
        return traced_cli(argv[1], int(argv[2]), argv[4:])
    if argv[:1] == ["setup"] and len(argv) == 4:
        return setup(argv[1], int(argv[2]), argv[3])
    print(__doc__, file=sys.stderr)
    return 2


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
