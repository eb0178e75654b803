"""holofrft benchmark: one workload, one seed, one run.

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 bench/run.py --workload all --seed N --seconds S [--trace 0|1]

Run it from a checkout of the repository: the program is imported from
``src/`` next to this directory, never from an installed copy. Workloads are
described in ``workloads.py``. A run sets up (five fresh processes that
import holofrft and run the warm-up ops), then runs ops one after another
until S seconds of op time have passed, checking every output outside the
timed region.

With ``--trace 0`` the run reports the end-to-end metrics; with
``--trace 1`` the per-layer metrics. A traced run alternates plain ops with
traced ones (wrappers installed in process, or the CLI run through
``shim.py``), so ``trace.overhead_ms`` compares the two halves of one run.
Every metric is printed by name with its unit, and the last line of stdout
is one JSON object with the keys ``correct``, ``attempted``, ``failed`` and
``metrics``. The run record (environment, per-op draws, latencies, reference
times, gate margins and output digests) and, when traced, the span file are
written to ``.bench_out/``.

Times are taken relative to a reference. On a shared 2-core Xeon VM the host
switches between a fast and a slow state, from several times a second to
once in minutes; the slow state makes a fixed op 1.25 to 1.6 times slower,
in CPU time as in wall time, so whole runs of the same code differed by up
to 45%. So the run also times a fixed reference, matrix products and an
interpreter loop that never touch holofrft, run the way the timed work runs:
in process before each in-process op, and as a fresh process that first
imports numpy before each CLI op and each set-up process. The slow state
slows it by a like factor, so it cancels in the ratio, while a change to
holofrft moves only the numerator.

- ``op_p50_rel`` is the median over ops of op latency / reference time.
- ``setup_s`` is the median over set-up processes of set-up time /
  reference time, times ``REF_NOMINAL_MS``, the reference process's time on
  that VM in its fast state: set-up seconds at that speed.

The raw ``setup_raw_s``, ``op_p50_ms`` and ``ref_p50_ms`` are printed and
recorded, not gated.

``--workload all`` runs every workload in turn, each in its own process,
and prints every metric by name and unit per workload.
"""

import os
import sys

# BLAS pools are sized when numpy loads; pin them first, for this process
# and every child. HOLOFRFT_THREADS is not used.
BLAS_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
for _var in BLAS_VARS:
    os.environ[_var] = "1"
os.environ.pop("HOLOFRFT_THREADS", None)

import argparse  # noqa: E402
import json  # noqa: E402
import math  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import textwrap  # noqa: E402
import threading  # noqa: E402
import time  # noqa: E402
import traceback  # noqa: E402
from dataclasses import dataclass  # noqa: E402
from pathlib import Path  # noqa: E402

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
OUT = ROOT / ".bench_out"
SHIM = str(BENCH / "shim.py")
CLI_BOOT = "import sys; from holofrft.cli import main; sys.exit(main(sys.argv[1:]))"
SETUP_REPS = 5
CHILD_TIMEOUT_S = 60
TAIL_BEYOND = 10
# The reference kernel: fixed work, independent of holofrft (two real
# 300 x 300 matrix products and a 20 000-step interpreter loop); about 6 ms
# on a 2-core Xeon VM in its fast state. Elementwise array work, text
# formatting and complex exp are left out: the slow state slows them by 1.6
# to 1.8, more than any workload's op.
REF_SETUP = "m = np.arange(90_000, dtype=float).reshape(300, 300) % 7"
REF_KERNEL = """
z = (m @ m).sum() + (m.T @ m).sum()
for i in range(20_000):
    z += i * i
"""
REF_IN_PROCESS = compile(REF_KERNEL, "<reference>", "exec")
# CLI ops and set-up: a fresh process imports numpy and runs the kernel six
# times; on that VM in its fast state it takes about REF_NOMINAL_MS.
REF_CHILD = (f"import numpy as np\n{REF_SETUP}\nfor _ in range(6):\n"
             + textwrap.indent(REF_KERNEL.strip(), "    "))
REF_NOMINAL_MS = 200.0


# ------------------------------------------------------------ processes

@dataclass
class Child:
    code: int
    start_ns: int
    end_ns: int
    maxrss_kb: int

    @property
    def ms(self) -> float:
        return (self.end_ns - self.start_ns) / 1e6


def child_env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(SRC)] + [p for p in [env.get("PYTHONPATH")] if p])
    return env


def run_child(cmd: list[str], log_path: Path) -> Child:
    """Run one child to completion; its own peak RSS comes from wait4."""
    with open(log_path, "ab") as log:
        start = time.monotonic_ns()
        proc = subprocess.Popen(cmd, stdout=subprocess.DEVNULL, stderr=log,
                                env=child_env(), cwd=ROOT)
        timer = threading.Timer(CHILD_TIMEOUT_S, proc.kill)
        timer.start()
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        except BaseException:
            proc.kill()
            proc.wait()
            raise
        finally:
            timer.cancel()
        end = time.monotonic_ns()
    proc.returncode = os.waitstatus_to_exitcode(status)
    return Child(proc.returncode, start, end, usage.ru_maxrss)


# ------------------------------------------------------------------ ops

def lib_op(wl, d, tracer, patches):
    """Time one in-process op; returns (ms, output, error, extra)."""
    if tracer is not None:
        patches.apply()
        tracer.begin(d.i)
    start = time.perf_counter()
    try:
        out, error = wl.execute(d), None
    except Exception:
        out, error = None, traceback.format_exc()
    ms = (time.perf_counter() - start) * 1e3
    if tracer is not None:
        tracer.end()
        patches.restore()
    return ms, out, error, {}


def cli_op(wl, d, workdir, tracer, log_path):
    """Run one op's commands, each in a fresh process (the shim when traced)."""
    steps = wl.prepare(d, workdir)
    step_ms, rss, children, error = {}, 0, [], None
    for step, argv in steps:
        if tracer is not None:
            span_file = os.path.join(workdir, f"{step}-spans.json")
            cmd = [sys.executable, SHIM, "cli", span_file, str(d.i), "--", *argv]
        else:
            cmd = [sys.executable, "-c", CLI_BOOT, *argv]
        child = run_child(cmd, log_path)
        children.append((step, child))
        step_ms[step] = child.ms
        rss = max(rss, child.maxrss_kb)
        if child.code != 0:
            error = f"{step} exited with {child.code}; see {log_path}"
            break
    ms = (children[-1][1].end_ns - children[0][1].start_ns) / 1e6
    if tracer is not None:
        merge_cli_spans(tracer, d.i, children, workdir)
    return ms, workdir, error, {"steps": step_ms, "maxrss_kb": rss}


def merge_cli_spans(tracer, op, children, workdir) -> None:
    """Root span per op, one proc.interpreter span per process, shim spans below."""
    tracer.op = op
    root = tracer.add("bench.op", children[0][1].start_ns, children[-1][1].end_ns,
                      None)
    for step, child in children:
        proc = tracer.add("proc.interpreter", child.start_ns, child.end_ns, root)
        path = os.path.join(workdir, f"{step}-spans.json")
        if not os.path.exists(path):
            continue
        with open(path, encoding="utf-8") as fh:
            spans_of_child = json.load(fh)
        prefix = f"{op}.{step}."
        for s in spans_of_child:
            s["parent"] = prefix + s["parent"] if s["parent"] else proc
            s["id"] = prefix + s["id"]
            s["process"] = prefix
            tracer.spans.append(s)
    tracer.op = None


def reference(cli: bool, log_path: Path) -> float:
    """Wall ms of the reference; see the module docstring."""
    if not cli:
        import numpy as np
        scope = {"np": np}
        exec(REF_SETUP, scope)
        start = time.perf_counter()
        exec(REF_IN_PROCESS, scope)
        return (time.perf_counter() - start) * 1e3
    child = run_child([sys.executable, "-c", REF_CHILD], log_path)
    if child.code != 0:
        raise RuntimeError(f"reference process exited with {child.code}; "
                           f"see {log_path}")
    return child.ms


def measure(wl, seed: int, seconds: float, trace: bool, workdir: Path,
            tracer, patches) -> tuple[list[dict], float, list[float]]:
    """Closed loop, one client: ops until ``seconds`` of op time have passed.

    Untraced runs time the reference just before each op, outside the op's
    timed region.
    """
    import workloads

    log_path = workdir / "children.log"
    records, busy, i, refs = [], 0.0, 0, []
    while busy < seconds:
        d = wl.draw(seed, workloads.MEASURED, i)
        traced = trace and i % 2 == 1
        rec = {"draw": d.describe(), "traced": traced, "ok": False}
        if not trace:
            refs.append(reference(wl.cli, log_path))
            rec["ref_ms"] = refs[-1]
        opdir = workdir / f"op{i}"
        opdir.mkdir()
        started = time.perf_counter()
        try:
            if wl.cli:
                ms, out, error, extra = cli_op(wl, d, str(opdir),
                                               tracer if traced else None, log_path)
            else:
                ms, out, error, extra = lib_op(wl, d, tracer if traced else None,
                                               patches)
            rec.update(ms=ms, **extra)
            busy += ms / 1e3
            if error is None:
                outcome = wl.check(d, out)
                rec.update(margin=outcome.margin, digests=outcome.digests,
                           ok=outcome.passed)
                if not outcome.passed:
                    error = f"gate failed: error / tolerance = {outcome.margin}"
        except Exception:
            error = traceback.format_exc()
            if "ms" not in rec:   # failed before the op ran: still uses up time
                busy += time.perf_counter() - started
        if error is not None:
            rec["error"] = error
        records.append(rec)
        shutil.rmtree(opdir)
        i += 1
    return records, busy, refs


def setup_times(wl, seed: int, workdir: Path) -> tuple[list[float], list[float]]:
    """Wall seconds of fresh processes that import holofrft and warm up, and
    the ms of the reference process timed just before each."""
    times, refs = [], []
    for rep in range(SETUP_REPS):
        refs.append(reference(True, workdir / "children.log"))
        repdir = workdir / f"setup{rep}"
        repdir.mkdir()
        child = run_child([sys.executable, SHIM, "setup", wl.name, str(seed),
                           str(repdir)], workdir / "children.log")
        if child.code != 0:
            raise RuntimeError(f"set-up process exited with {child.code}; "
                               f"see {workdir / 'children.log'}")
        times.append(child.ms / 1e3)
        shutil.rmtree(repdir)
    return times, refs


# -------------------------------------------------------------- metrics

def tail(latencies: list[float]) -> dict:
    """Highest percentile with at least TAIL_BEYOND samples beyond it."""
    ordered = sorted(latencies, reverse=True)
    n = len(ordered)
    beyond = min(TAIL_BEYOND, n - 1)
    return {"value": ordered[beyond], "percentile": 100 * (1 - beyond / n),
            "samples": n, "beyond": beyond}


def median(values) -> float:
    return float(statistics.median(values)) if values else 0.0


def end_to_end(wl, records, busy, setups, setup_refs, refs) -> tuple[dict, dict]:
    """Gated metrics, and the raw latencies and throughput, reported but not gated.

    On a shared 2-core machine the raw median latency of whole runs spread
    by up to 45% of its median over ten runs, and the tail and throughput
    by as much, more than any bound the benchmark may set; the gated
    latency and set-up time are taken relative to the reference timed just
    before each op or set-up process (see the module docstring).
    """
    ok = [r for r in records if r["ok"]]
    lat = [r["ms"] for r in ok]
    if wl.cli:
        peak_kb = max((r["maxrss_kb"] for r in ok), default=0)
    else:
        peak_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    op_ms = median(lat) if lat else math.nan
    values = {"setup_s": REF_NOMINAL_MS * median(
                  [t / r for t, r in zip(setups, setup_refs)]),
              "op_p50_rel": median([r["ms"] / r["ref_ms"] for r in ok])
              if ok else math.nan,
              "peak_rss_mb": peak_kb * 1024 / 1e6}
    ungated = {"setup_raw_s": median(setups),
               "op_p50_ms": op_ms, "ref_p50_ms": median(refs),
               "references": len(refs),
               "op_tail_ms": tail(lat) if lat else None,
               "ops_per_s": len(ok) / busy}
    return values, ungated


def per_layer(seed, records, tracer) -> dict:
    import numpy as np
    import spans
    import workloads

    traced_ops = {r["draw"]["i"] for r in records if r["traced"] and r["ok"]}
    values = spans.layer_metrics([s for s in tracer.spans if s["op"] in traced_ops])
    plain = [r for r in records if r["ok"] and not r["traced"]]
    traced = [r for r in records if r["ok"] and r["traced"]]
    values["trace.overhead_ms"] = (median([r["ms"] for r in traced])
                                   - median([r["ms"] for r in plain]))
    for step in ("transform", "inverse"):
        values[f"{step}_p50_ms"] = median(
            [r["steps"][step] for r in plain if step in r.get("steps", {})])
    margins = [r["margin"] for r in records if "margin" in r]
    values["check.err_margin"] = float(np.max(margins)) if margins else math.nan
    values["check.spectral_err_t1_2"] = workloads.spectral_error_t1_2(seed)
    values["check.failed_frac"] = sum(not r["ok"] for r in records) / len(records)
    return values


def environment() -> dict:
    import numpy as np

    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = f"{blas.get('name')} {blas.get('version')}"
    except (TypeError, KeyError):
        blas = "unknown"
    cpu = "unknown"
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            cpu = next((ln.split(":", 1)[1].strip() for ln in fh
                        if ln.startswith("model name")), cpu)
    except OSError:
        pass
    caches = {}
    for index in sorted(Path("/sys/devices/system/cpu/cpu0/cache").glob("index*")):
        try:
            level, kind, size = ((index / f).read_text().strip()
                                 for f in ("level", "type", "size"))
        except OSError:
            continue
        caches[f"L{level} {kind}"] = size
    return {"python": platform.python_version(), "numpy": np.__version__,
            "blas": blas, "nproc": os.cpu_count(),
            "usable_cpus": len(os.sched_getaffinity(0)), "cpu_model": cpu,
            "caches": caches, "blas_threads": {v: os.environ[v] for v in BLAS_VARS}}


def load_units() -> dict:
    with open(ROOT / "BENCHMARK.json", encoding="utf-8") as fh:
        spec = json.load(fh)
    return {m["name"]: m["unit"] for m in spec["end_to_end"] + spec["per_layer"]}


# ------------------------------------------------------------------ main

def run_one(name: str, seed: int, seconds: float, trace: bool) -> int:
    import holofrft
    import spans
    import workloads

    if Path(holofrft.__file__).resolve().parent != SRC / "holofrft":
        print(f"error: holofrft was imported from {holofrft.__file__}, "
              f"not from {SRC}", file=sys.stderr)
        return 2
    wl = workloads.WORKLOADS[name]
    OUT.mkdir(exist_ok=True)
    workdir = OUT / f"work-{name}-{os.getpid()}"
    workdir.mkdir()
    tracer = spans.Tracer() if trace else None
    patches = spans.Patches(tracer) if trace and not wl.cli else None
    try:
        setups, setup_refs = setup_times(wl, seed, workdir)
        if not wl.cli:
            workloads.warm_up(wl, seed, str(workdir))
        records, busy, refs = measure(wl, seed, seconds, trace, workdir,
                                      tracer, patches)
        if trace:
            metrics, ungated = per_layer(seed, records, tracer), {}
        else:
            metrics, ungated = end_to_end(wl, records, busy, setups,
                                          setup_refs, refs)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    failed = sum(not r["ok"] for r in records)
    units = load_units()
    result = {"correct": failed == 0, "attempted": len(records), "failed": failed,
              "metrics": {k: {"value": v, "unit": units[k]}
                          for k, v in metrics.items()}}
    record = {"workload": name, "seed": seed, "seconds": seconds, "trace": trace,
              "environment": environment(), "setup_s": setups,
              "setup_reference_ms": setup_refs,
              "measured_s": busy, "reference_ms": refs, "ungated": ungated,
              "ops": records, "result": result}
    stem = OUT / f"{name}-seed{seed}-trace{int(trace)}"
    with open(f"{stem}.json", "w", encoding="utf-8") as fh:
        json.dump(record, fh, indent=1)
    if trace:
        with open(OUT / f"{name}-seed{seed}-spans.json", "w", encoding="utf-8") as fh:
            json.dump(tracer.spans, fh)

    env = record["environment"]
    print(f"{name} seed={seed} trace={int(trace)}: python {env['python']}, "
          f"numpy {env['numpy']}, {env['blas']}, {env['nproc']} cpus, "
          f"{env['cpu_model']}")
    for k, m in result["metrics"].items():
        print(f"  {k} = {m['value']:.6g} {m['unit']}")
    if "op_p50_ms" in ungated:
        print(f"  setup_raw_s = {ungated['setup_raw_s']:.6g} s (not gated)")
        print(f"  op_p50_ms = {ungated['op_p50_ms']:.6g} ms (not gated), "
              f"ref_p50_ms = {ungated['ref_p50_ms']:.6g} ms over "
              f"{ungated['references']} references")
    op_tail = ungated.get("op_tail_ms")
    if op_tail:
        print(f"  op_tail_ms = {op_tail['value']:.6g} ms (not gated): "
              f"p{op_tail['percentile']:.1f} of {op_tail['samples']} ops, "
              f"{op_tail['beyond']} beyond")
    if "ops_per_s" in ungated:
        print(f"  ops_per_s = {ungated['ops_per_s']:.6g} 1/s (not gated)")
    for r in records:
        if "error" in r:
            print(f"  op {r['draw']['i']} failed: {r['error'].strip().splitlines()[-1]}")
    print(f"  record: {os.path.relpath(stem, ROOT)}.json")
    print(json.dumps(result))
    return 0


def run_all(seed: int, seconds: float, trace: bool) -> int:
    import workloads

    status = 0
    rows = []
    for name in workloads.WORKLOADS:
        proc = subprocess.run(
            [sys.executable, __file__, "--workload", name, "--seed", str(seed),
             "--seconds", str(seconds), "--trace", str(int(trace))],
            capture_output=True, text=True, cwd=ROOT)
        lines = proc.stdout.strip().splitlines()
        if proc.returncode != 0 or not lines:
            print(f"{name}: exit {proc.returncode}\n{proc.stderr}", file=sys.stderr)
            status = 1
            continue
        result = json.loads(lines[-1])
        status |= not result["correct"]
        rows.append(f"{name}: attempted {result['attempted']}, failed "
                    f"{result['failed']}, correct {result['correct']}")
        rows += [f"  {k} = {m['value']:.6g} {m['unit']}"
                 for k, m in result["metrics"].items()]
    print("\n".join(rows))
    return status


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n", 1)[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (SRC / "holofrft" / "__init__.py").is_file():
        print(f"error: no holofrft sources at {SRC}; run from a checkout of "
              f"the repository", file=sys.stderr)
        return 2
    if args.seconds <= 0:
        parser.error("--seconds must be positive")
    sys.path.insert(0, str(SRC))
    import workloads
    if args.workload == "all":
        return run_all(args.seed, args.seconds, bool(args.trace))
    if args.workload not in workloads.WORKLOADS:
        parser.error(f"unknown workload {args.workload!r}; choose from "
                     f"{', '.join(workloads.WORKLOADS)} or all")
    return run_one(args.workload, args.seed, args.seconds, bool(args.trace))


if __name__ == "__main__":
    sys.exit(main())
