"""Span recorder for traced runs, and the wrappers that feed it.

Spans are recorded from the benchmark's own files: ``Patches`` replaces
every module attribute through which a traced public function of holofrft
is called (``engine.hermite_basis`` as well as ``hermite.hermite_basis``,
the package-level re-exports, ``verification.CRITERIA``, and class
attributes such as ``QuadratureRule.gauss_hermite``) with a wrapper, and
``restore`` puts every original back. Nothing under ``src/`` changes.

A span records name, start, end, parent span, op id and a few attributes
(grid shape, rule order, bytes written) that the per-layer counts need.
Spans stay in memory until the run ends. A span's self time is its
duration minus the time its direct child spans cover.

This module imports nothing heavy at import time, so the CLI shim can load
it after timing ``import holofrft``.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import os
import statistics
import time
from collections import defaultdict

MODULES = ("holofrft", "holofrft.cli", "holofrft.engine", "holofrft.quadrature",
           "holofrft.hermite", "holofrft.closedform", "holofrft.core",
           "holofrft.verification")

# Traced functions per layer. ``Class.method`` entries are patched on the
# class. ``closedform.coherent_state`` and ``core.gauge_factor`` stay
# unwrapped on purpose: their cost is the work of the callers measured here
# (signal evaluation, gauge conversion).
TARGETS = {
    "cli": ("main", "read_signal", "write_field", "read_field", "write_signal"),
    "engine": ("suggest_grid", "hfrft_apply", "sb_field", "endpoint_apply",
               "sb_inverse", "sb_kernel_apply", "build_basis_images",
               "sb_spectral_apply", "unitarity_report"),
    "quadrature": ("QuadratureRule.gauss_hermite", "QuadratureRule.trapezoid"),
    "hermite": ("hermite_basis", "hermite_analyze"),
    "closedform": ("coherent_sum_values", "hfrft_coherent"),
    "core": ("PlaneField.to_gauge",),
    "verification": ("run",),
}
N_CRITERIA = 13

MARKER = "__bench_span__"


def _grid_attrs(bound, result):
    shape = bound.arguments["grid"].shape
    return {"nx": shape[0], "np": shape[1]}


def _order_attrs(bound, result):
    return {"order": result.order}


def _basis_attrs(bound, result):
    return {"points": int(result.points.size), "order": result.order,
            "degrees": result.n_max + 1}


def _file_attrs(key):
    def attrs(bound, result):
        return {"bytes": os.path.getsize(bound.arguments[key])}
    return attrs


# Span name -> hook computing attributes from the bound call and its result.
ATTRS = {
    "engine.hfrft_apply": _grid_attrs,
    "engine.sb_field": _grid_attrs,
    "engine.endpoint_apply": _grid_attrs,
    "quadrature.gauss_hermite": _order_attrs,
    "quadrature.trapezoid": _order_attrs,
    "engine.build_basis_images": _basis_attrs,
    "cli.write_field": _file_attrs("path"),
    "cli.read_field": _file_attrs("path"),
}


def criterion_span(fn) -> str:
    """``c04_kernel_vs_oracle`` -> ``verification.c04``."""
    return "verification." + fn.__name__.split("_", 1)[0]


class Tracer:
    """In-memory span list; records only while an op id is set."""

    def __init__(self):
        self.spans: list[dict] = []
        self.op: int | None = None
        self._stack: list[str] = []
        self._next = 0
        self._root_start = 0

    def _id(self) -> str:
        self._next += 1
        return str(self._next)

    def add(self, name: str, start: int, end: int, parent: str | None,
            attrs: dict | None = None, span_id: str | None = None) -> str:
        span_id = span_id or self._id()
        self.spans.append({"name": name, "start": start, "end": end,
                           "parent": parent, "op": self.op, "id": span_id,
                           "attrs": attrs or {}})
        return span_id

    def begin(self, op: int) -> None:
        """Open the root span of op ``op``; every wrapped call nests under it."""
        self.op = op
        self._root_start = time.monotonic_ns()
        self._stack = [self._id()]

    def end(self) -> None:
        root = self._stack[0]
        self.add("bench.op", self._root_start, time.monotonic_ns(), None,
                 span_id=root)
        self._stack = []
        self.op = None

    def wrap(self, name: str, fn):
        hook = ATTRS.get(name)
        signature = inspect.signature(fn) if hook else None
        tracer = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if tracer.op is None:
                return fn(*args, **kwargs)
            span_id = tracer._id()
            parent = tracer._stack[-1] if tracer._stack else None
            tracer._stack.append(span_id)
            start = time.monotonic_ns()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = time.monotonic_ns()
                tracer._stack.pop()
            attrs = hook(signature.bind(*args, **kwargs), result) if hook else None
            tracer.add(name, start, end, parent, attrs, span_id)
            return result

        setattr(wrapper, MARKER, name)
        return wrapper


class Patches:
    """Every attribute replacement needed to trace one process."""

    def __init__(self, tracer: Tracer):
        mods = [importlib.import_module(m) for m in MODULES]
        by_name = {m.__name__.rsplit(".", 1)[-1]: m for m in mods}
        self.entries: list[tuple[object, str, object, object]] = []
        wrapped: dict[int, tuple[object, object]] = {}  # id -> (original, wrapper)
        for layer, names in TARGETS.items():
            mod = by_name[layer]
            for name in names:
                if "." in name:
                    cls_name, attr = name.split(".")
                    cls = getattr(mod, cls_name)
                    raw = cls.__dict__[attr]
                    func = raw.__func__ if isinstance(raw, classmethod) else raw
                    repl = tracer.wrap(f"{layer}.{attr}", func)
                    if isinstance(raw, classmethod):
                        repl = classmethod(repl)
                    self.entries.append((cls, attr, raw, repl))
                else:
                    fn = getattr(mod, name)
                    wrapped[id(fn)] = (fn, tracer.wrap(f"{layer}.{name}", fn))
        for fn in by_name["verification"].CRITERIA:
            wrapped[id(fn)] = (fn, tracer.wrap(criterion_span(fn), fn))

        def replacement(value):
            hit = wrapped.get(id(value))
            return hit[1] if hit is not None and hit[0] is value else None

        for mod in mods:
            for attr, value in list(vars(mod).items()):
                repl = replacement(value)
                if repl is None and isinstance(value, tuple) and any(
                        replacement(v) is not None for v in value):
                    repl = tuple(replacement(v) or v for v in value)
                if repl is not None:
                    self.entries.append((mod, attr, value, repl))

    def apply(self) -> None:
        for owner, attr, _, repl in self.entries:
            setattr(owner, attr, repl)

    def restore(self) -> None:
        for owner, attr, orig, _ in self.entries:
            setattr(owner, attr, orig)


# ---------------------------------------------------------------- metrics

def time_metric_spans() -> list[str]:
    """Span names reported as ``<name>_ms`` self times."""
    names = ["proc.import", "proc.interpreter"]
    for layer, targets in TARGETS.items():
        names += [f"{layer}.{t.rsplit('.', 1)[-1]}" for t in targets]
    names += [f"verification.c{k:02d}" for k in range(1, N_CRITERIA + 1)]
    return names


def _median(values) -> float:
    return float(statistics.median(values)) if values else 0.0


def self_times(spans: list[dict]) -> dict[str, int]:
    """Span id -> self time in ns."""
    child = defaultdict(int)
    for s in spans:
        if s["parent"] is not None:
            child[s["parent"]] += s["end"] - s["start"]
    return {s["id"]: s["end"] - s["start"] - child[s["id"]] for s in spans}


def layer_metrics(spans: list[dict]) -> dict[str, float]:
    """Per-layer metrics of traced ops.

    Times are self times in ms, summed per op, then the median over the ops
    in which the span occurs (0 if it never occurs). Counts are per op,
    median over all traced ops. Rule orders are counted per process: the
    run process for in-process workloads, each CLI process otherwise.
    """
    own = self_times(spans)
    ops = sorted({s["op"] for s in spans})
    per_op = {op: defaultdict(float) for op in ops}
    children = defaultdict(list)
    for s in spans:
        children[s["parent"]].append(s)
    builds = ("engine.hfrft_apply", "engine.sb_field", "engine.endpoint_apply")
    rates = {"cli.write_field": [], "cli.read_field": []}
    orders = defaultdict(list)       # process -> rule orders in call order
    for s in spans:
        acc = per_op[s["op"]]
        name, attrs = s["name"], s["attrs"]
        acc[name + "_ms"] += own[s["id"]] / 1e6
        if name in rates:
            rates[name].append(attrs["bytes"] / 1e6 / (max(own[s["id"]], 1) / 1e9))
        if name == "cli.write_field":
            acc["cli.field_bytes"] += attrs["bytes"]
        elif name == "quadrature.gauss_hermite":
            acc["quadrature.rule_builds"] += 1
            orders[s.get("process", "run")].append(attrs["order"])
        elif name == "closedform.hfrft_coherent":
            acc["closedform.hfrft_coherent_calls"] += 1
        elif name == "engine.build_basis_images":
            acc["engine.basis_node_evals"] += (
                attrs["points"] * attrs["order"] * attrs["degrees"])
        elif name in builds and not any(c["name"] in builds
                                        for c in children[s["id"]]):
            acc["engine.grid_cells"] += attrs["nx"] * attrs["np"]
            rule = next((c for c in children[s["id"]] if c["name"] in (
                "quadrature.gauss_hermite", "quadrature.trapezoid")), None)
            if rule is not None:
                # kernel route: an (nx, order) x (order, np) complex product;
                # the endpoint contracts a vector, so nx counts as 1 there
                nx = 1 if name == "engine.endpoint_apply" else attrs["nx"]
                acc["engine.kernel_gflop"] += (
                    8 * nx * attrs["np"] * rule["attrs"]["order"] / 1e9)

    out = {}
    for name in time_metric_spans():
        key = name + "_ms"
        out[key] = _median([acc[key] for acc in per_op.values() if key in acc])
    for key in ("quadrature.rule_builds", "closedform.hfrft_coherent_calls",
                "engine.basis_node_evals", "engine.grid_cells",
                "engine.kernel_gflop"):
        out[key] = _median([acc.get(key, 0.0) for acc in per_op.values()])
    out["cli.field_bytes"] = _median(
        [acc["cli.field_bytes"] for acc in per_op.values()
         if "cli.field_bytes" in acc])
    out["cli.write_field_mb_per_s"] = _median(rates["cli.write_field"])
    out["cli.read_field_mb_per_s"] = _median(rates["cli.read_field"])
    distinct = [len(set(v)) for v in orders.values()]
    total = [len(v) for v in orders.values()]
    out["quadrature.distinct_orders"] = _median(distinct)
    out["quadrature.repeat_order_ratio"] = (
        1 - sum(distinct) / sum(total) if total else 0.0)
    return out
