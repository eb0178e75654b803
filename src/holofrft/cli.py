"""Command-line front end: job configuration, signal ingestion, field emission.

Formats are CSV and JSON only. The signal CSV header is exactly ``x,re,im``;
the field CSV header is exactly ``x,p,re,im,gauge,param`` with rows x-major
(p inner) and numbers printed at 17 significant digits, so identical jobs
produce byte-identical files. The angle parameter is accepted as either
``--t <radians>`` or ``--s <tan t>`` and is printed in both forms. Exit
codes: 0 success, 1 verification failure, 2 usage or parse error,
3 numerical-support error.
"""

from __future__ import annotations

import argparse
import io
import json
import math
import os
import re
import sys
from dataclasses import dataclass

import numpy as np

from . import engine, verification
from .core import (
    CoherentLabel,
    CoherentSum,
    Gauge,
    PlaneField,
    PlaneGrid,
    Samples,
    TransformParameter,
)
from .errors import DegenerateCoordinateError, SupportError

SIGNAL_HEADER = "x,re,im"
FIELD_HEADER = "x,p,re,im,gauge,param"
BASIS_HEADER = "n,z_re,z_im,re,im,provenance"
NUM = "%.16e"  # 17 significant digits, for one number or a %-template


class ParseError(Exception):
    """Malformed input file (bad header, column count, non-finite value)."""


class UsageError(Exception):
    """Contradictory or incomplete job configuration."""


@dataclass
class JobConfig:
    """One CLI job; see the subcommand help strings for field meanings."""

    command: str
    kind: str = "hfrft"
    t: float | None = None
    s: float | None = None
    method: str = "kernel"
    spectral_order: int = engine.DEFAULT_SPECTRAL_ORDER
    order: int | None = None
    xmax: float | None = None
    pmax: float | None = None
    nx: int | None = None
    np_: int | None = None
    gauge: str | None = None
    signal_path: str | None = None
    field_path: str | None = None
    out_path: str | None = None
    out_dir: str | None = None
    t_list: tuple[float, ...] = ()
    count: int | None = None
    R: float = 8.0
    n_max: int = 12
    tolerance: float | None = None
    criteria: tuple[int, ...] = ()

    def parameter(self) -> TransformParameter:
        if self.t is not None:
            return TransformParameter.from_t(self.t)
        if self.s is not None:
            return TransformParameter.from_s(self.s)
        raise UsageError("one of --t or --s is required")


# ---------------------------------------------------------------- file I/O
#
# Every CSV is written by one row formatter, and signal and field CSVs are
# read by one parser; neither runs Python code per cell. Writing fills one
# %-template per block of lines and streams it to the open file. Reading hands
# the numeric columns to numpy's C CSV reader and checks the column counts,
# finiteness and the repeated text columns in bulk; only a file that fails a
# bulk check is scanned line by line, to name the first faulty line.

def _line_templates(heads: list[str], ncols: int, tail: str = "") -> list[str]:
    """One %-template per line: a head, ``ncols`` NUM numbers, a tail.

    Heads and tail are written verbatim and must not contain ``%``.
    """
    body = ",".join([NUM] * ncols) + tail + "\n"
    return [head + body for head in heads]


def _write_lines(fh, templates: list[str], numbers: np.ndarray,
                 lead: str = "") -> None:
    """Write ``lead + templates[k]`` filled from row k of ``numbers``, for every k."""
    fh.write((lead + lead.join(templates)) % tuple(numbers.ravel().tolist()))


def _open_out(path: str):
    return open(path, "w", encoding="utf-8", newline="\n")


def write_signal(path: str, xs: np.ndarray, values: np.ndarray) -> None:
    with _open_out(path) as fh:
        fh.write(SIGNAL_HEADER + "\n")
        _write_lines(fh, _line_templates([""] * len(xs), 3),
                     np.column_stack((xs, values.real, values.imag)))


def write_field(path: str, field: PlaneField) -> None:
    templates = _line_templates(
        [NUM % p + "," for p in field.grid.ps], 2,
        f",{field.gauge.value},{field.param.describe()}")
    pairs = np.stack((field.values.real, field.values.imag), axis=-1)
    with _open_out(path) as fh:
        fh.write(FIELD_HEADER + "\n")
        for x, row in zip(field.grid.xs, pairs):
            _write_lines(fh, templates, row, lead=NUM % x + ",")


def _read_bytes(path: str) -> bytes:
    """File contents with universal newlines, checked to be nonempty UTF-8."""
    try:
        with open(path, "rb") as fh:
            data = fh.read()
    except OSError as exc:
        raise ParseError(f"{path}: {exc.strerror or exc}") from None
    if b"\r" in data:  # the line ends a text-mode read would see
        data = data.replace(b"\r\n", b"\n").replace(b"\r", b"\n")
    if not data.isascii():
        try:
            data.decode("utf-8")
        except UnicodeDecodeError as exc:
            line = data.count(b"\n", 0, exc.start) + 1
            raise ParseError(f"{path}:{line}: not valid UTF-8") from None
    # No valid file holds a NUL, and fixed-width bytes drop trailing NULs.
    if b"\0" in data:
        line = data.count(b"\n", 0, data.index(b"\0")) + 1
        raise ParseError(f"{path}:{line}: NUL byte")
    if not data or data.isspace():
        raise ParseError(f"{path}: empty file")
    return data


# Whitespace-only lines, which the readers skip; numpy's reader skips only
# empty ones, so they are emptied first (keeping the line numbering).
_BLANK_LINE = re.compile(rb"\n[ \t\x0b\x0c\x1c-\x1f]+(?=\n)")
_TEXT_LINE = re.compile(rb"[^\n]+")
# Least bytes kept per label: any "%.16e" number fits. Trailing text columns
# keep the first row's width. A file with a longer text in some row is read
# once more with texts as wide as its lines.
_LABEL_WIDTH = 25


def _table_bytes(data: bytes) -> bytes:
    """``data`` ending in a newline, with whitespace-only lines emptied."""
    if not data.endswith(b"\n"):
        data += b"\n"
    return _BLANK_LINE.sub(b"\n", data)


def _read_table(path: str, data: bytes, header: str, labels: int,
                numbers: int) -> tuple[np.ndarray, list[str]]:
    """Rows of the CSV table ``data`` under ``header``.

    Each row has the header's columns: ``labels`` numbers kept as their text,
    ``numbers`` finite numbers, then text columns equal to the first row's.
    Labels are grid coordinates that repeat from row to row, so the caller
    parses each distinct one once. Returns the rows, as a structured array
    with one field per column named as in the header, and the first row's
    trailing text columns.
    """
    data = _table_bytes(data)
    end = data.index(b"\n")
    if data[:end].decode("utf-8").strip() != header:
        raise ParseError(f"{path}:1: header must be exactly '{header}'")
    first = _TEXT_LINE.search(data, end)
    if first is None:
        raise ParseError(f"{path}: no data rows")
    names = header.split(",")
    numeric = labels + numbers
    tokens = dict(zip(names, first.group().split(b",")))
    widths = {name: len(tokens.get(name, b"")) + 1 for name in names[numeric:]}
    for name in names[:labels]:
        widths[name] = max(len(tokens.get(name, b"")) + 1, _LABEL_WIDTH)
    try:
        while True:
            # Latin-1 keeps every byte, so text columns hold the file's bytes.
            rows = np.loadtxt(
                io.TextIOWrapper(io.BytesIO(data), encoding="latin-1"),
                dtype=[(name, f"S{widths[name]}" if name in widths else float)
                       for name in names],
                delimiter=",", comments=None, skiprows=1, ndmin=1)
            if all(np.char.str_len(rows[name]).max() < width
                   for name, width in widths.items()):
                break
            widths = dict.fromkeys(widths, max(map(len, data.split(b"\n"))) + 1)
        # numpy has checked the column count of every row.
        faulty = np.zeros(rows.size, dtype=bool)
        for name in names[labels:numeric]:
            faulty |= ~np.isfinite(rows[name])
        for name in names[numeric:]:
            faulty |= rows[name] != rows[name][0]
        if faulty.any():
            raise ValueError("a row breaks the table's format")
    except ValueError as exc:
        raise _faulty_line(path, data, header, numeric, str(exc)) from None
    return rows, [rows[name][0].decode("utf-8") for name in names[numeric:]]


def _faulty_line(path: str, data: bytes, header: str, numeric: int,
                 problem: str, row: int | None = None) -> ParseError:
    """The error naming the first line of a rejected table that breaks its format.

    Runs only after a bulk check has failed. ``problem`` says which; it is
    reported at data row ``row`` if no earlier line breaks the format, and
    for the whole file if no line does.
    """
    ncols = header.count(",") + 1
    what = "/".join(header.split(",")[numeric:])
    text = None
    data_row = -1
    for lineno, raw in enumerate(io.BytesIO(_table_bytes(data)), start=1):
        line = raw.decode("utf-8").rstrip("\n")
        if lineno == 1 or not line:
            continue
        data_row += 1
        parts = line.split(",")
        if len(parts) != ncols:
            return ParseError(
                f"{path}:{lineno}: expected {ncols} columns, got {len(parts)}")
        try:
            values = [_number(part) for part in parts[:numeric]]
        except ValueError:
            return ParseError(f"{path}:{lineno}: non-numeric value")
        if not all(math.isfinite(v) for v in values):
            return ParseError(f"{path}:{lineno}: non-finite value")
        if text is None:
            text = parts[numeric:]
        elif parts[numeric:] != text:
            return ParseError(
                f"{path}:{lineno}: {what} differs from earlier rows")
        if data_row == row:
            return ParseError(f"{path}:{lineno}: {problem}")
    return ParseError(f"{path}: {problem}")


def _number(token: str) -> float:
    """``float(token)`` restricted to the syntax numpy's CSV reader accepts."""
    if not token.isascii() or "_" in token:
        raise ValueError(f"not a number: {token!r}")
    return float(token)


def _parse_labels(tokens: np.ndarray) -> np.ndarray:
    """Finite numbers from label bytes, as the line scan would parse them."""
    values = np.array([_number(token.decode("utf-8")) for token in tokens])
    if not np.isfinite(values).all():
        raise ValueError("non-finite label")
    return values


def _complex(re: np.ndarray, im: np.ndarray) -> np.ndarray:
    """Complex values with the exact bits of re and im (-0.0 included)."""
    values = np.empty(re.shape, dtype=complex)
    values.real, values.imag = re, im
    return values


def read_signal(path: str):
    """Signal from a coherent-sum JSON or a sampled CSV file."""
    data = _read_bytes(path)
    if path.endswith(".json") or data.lstrip()[:1] in (b"{", b"["):
        return _coherent_from_json(path, data.decode("utf-8"))
    rows, _ = _read_table(path, data, SIGNAL_HEADER, 0, 3)
    try:
        return Samples(rows["x"], _complex(rows["re"], rows["im"]))
    except ValueError as exc:
        raise ParseError(f"{path}: {exc}") from None


def _coherent_from_json(path: str, text: str) -> CoherentSum:
    try:
        obj = json.loads(text)
    except json.JSONDecodeError as exc:
        raise ParseError(f"{path}: invalid JSON: {exc}") from None
    if not isinstance(obj, dict) or "weights" not in obj or "labels" not in obj:
        raise ParseError(f"{path}: expected an object with 'weights' and 'labels'")
    weights, labels = obj["weights"], obj["labels"]
    if not isinstance(weights, list) or not isinstance(labels, list) \
            or len(weights) != len(labels) or not weights:
        raise ParseError(
            f"{path}: 'weights' and 'labels' must be nonempty lists of equal length")
    ws, ls = [], []
    for k, (w, lab) in enumerate(zip(weights, labels)):
        for name, pair in (("weights", w), ("labels", lab)):
            # bool is an int subclass, but JSON true/false are not numbers.
            if (not isinstance(pair, list) or len(pair) != 2
                    or not all(isinstance(v, (int, float))
                               and not isinstance(v, bool) for v in pair)
                    or not all(math.isfinite(v) for v in pair)):
                raise ParseError(
                    f"{path}: {name}[{k}] must be a pair of finite numbers")
        ws.append(complex(w[0], w[1]))
        ls.append(CoherentLabel(float(lab[0]), float(lab[1])))
    return CoherentSum(tuple(ws), tuple(ls))


def read_field(path: str) -> PlaneField:
    data = _read_bytes(path)
    rows, meta = _read_table(path, data, FIELD_HEADER, 2, 2)
    x_txt, p_txt = rows["x"], rows["p"]
    # Row r must repeat the x of its block's first row and the p of row
    # r % np_count; np_count is the length of the first run of equal x, and
    # at least 2. A short last block puts its last row off the grid.
    changes = np.flatnonzero(x_txt != x_txt[0])
    np_count = max(int(changes[0]) if changes.size else rows.size, 2)
    r = np.arange(rows.size)
    off_grid = (x_txt != x_txt[r - r % np_count]) | (p_txt != p_txt[r % np_count])
    off_grid[-1] |= rows.size % np_count != 0
    if off_grid.any():
        raise _faulty_line(path, data, FIELD_HEADER, 4,
                           "rows do not form an x-major grid",
                           row=int(np.argmax(off_grid)))
    nx = rows.size // np_count
    try:
        xs, ps = _parse_labels(x_txt[::np_count]), _parse_labels(p_txt[:np_count])
    except ValueError as exc:
        raise _faulty_line(path, data, FIELD_HEADER, 4, str(exc)) from None
    try:
        grid = PlaneGrid(xs, ps)
        gauge = Gauge(meta[0])
        param = _parse_param(meta[1])
    except ValueError as exc:
        raise ParseError(f"{path}: {exc}") from None
    values = _complex(rows["re"], rows["im"]).reshape(nx, np_count)
    return PlaneField(grid, values, gauge, param)


def _parse_param(text: str) -> TransformParameter:
    match = re.fullmatch(r"t=([^;]*);s=([^;]*)", text)
    if match is None:
        raise ValueError(f"bad param string {text!r}")
    t_txt, s_part = match.groups()
    try:
        probe = TransformParameter.from_t(float(t_txt))
    except ValueError:
        raise ValueError(f"bad param string {text!r}") from None
    if s_part == "inf":
        if not probe.is_endpoint:
            raise ValueError(f"inconsistent param string {text!r}")
        return probe
    s = float(s_part)
    if not (math.isfinite(probe.s) and abs(probe.s - s) <= 1e-12 * max(1.0, s)):
        raise ValueError(f"inconsistent param string {text!r}")
    # Keep both stored values bit-exact (tan/atan round trips can move the
    # last ulp) so that rewriting a parsed field reproduces the file bytes.
    return TransformParameter(t=probe.t, s=s)


def _write_json(path: str, obj: dict) -> None:
    with _open_out(path) as fh:
        fh.write(json.dumps(obj, indent=2, sort_keys=True) + "\n")


# ------------------------------------------------------------ job plumbing

def _resolve_grid(cfg: JobConfig, signal, param: TransformParameter) -> PlaneGrid:
    given = (cfg.xmax, cfg.pmax, cfg.nx, cfg.np_)
    if all(v is None for v in given):
        sizing = param if 0.0 < param.t < math.pi / 2 \
            else TransformParameter.from_t(math.pi / 4)
        return engine.suggest_grid(sizing, signal)
    if any(v is None for v in given):
        raise UsageError("give all of --xmax/--pmax/--nx/--np, or none for auto")
    return PlaneGrid.regular(cfg.xmax, cfg.pmax, cfg.nx, cfg.np_)


def _describe_line(param: TransformParameter) -> str:
    s_txt = "inf" if math.isinf(param.s) else f"{param.s:.6g}"
    return f"t={param.t:.6g} rad (s=tan t={s_txt})"


def _build_field(cfg: JobConfig, signal, param: TransformParameter,
                 grid: PlaneGrid) -> PlaneField:
    if cfg.kind == "fourier":
        return engine.endpoint_apply(signal, grid, cfg.order)
    if cfg.kind == "hfrft":
        field = engine.hfrft_apply(param, signal, grid, method=cfg.method,
                                   order=cfg.order,
                                   spectral_order=cfg.spectral_order)
    elif cfg.kind == "sb":
        if cfg.method == "kernel":
            field = engine.sb_field(param.s, signal, grid, cfg.order)
        else:
            coeffs = engine.hermite_analyze(signal, param.s, cfg.spectral_order,
                                            cfg.order)
            cache = engine.build_basis_images(
                param.s, cfg.spectral_order, grid.z_values(param.s).ravel())
            raw = engine.sb_spectral_apply(param.s, coeffs, cache)
            field = PlaneField(grid, raw.reshape(grid.shape),
                               Gauge.HOLOMORPHIC, param)
    else:
        raise UsageError(f"unknown transform kind {cfg.kind!r}")
    if cfg.gauge is not None:
        field = field.to_gauge(Gauge(cfg.gauge))
    return field


def _cmd_transform(cfg: JobConfig) -> int:
    if cfg.kind == "fourier":
        if cfg.t is not None or cfg.s is not None:
            raise UsageError("the fourier kind is the fixed endpoint; drop --t/--s")
        param = TransformParameter.from_t(math.pi / 2)
    else:
        param = cfg.parameter()
    signal = read_signal(cfg.signal_path)
    grid = _resolve_grid(cfg, signal, param)
    field = _build_field(cfg, signal, param, grid)
    write_field(cfg.out_path, field)
    print(f"{cfg.kind} field at {_describe_line(field.param)}, "
          f"{field.gauge.value} gauge, grid {grid.shape[0]}x{grid.shape[1]} "
          f"-> {cfg.out_path}")
    return 0


def _cmd_endpoint(cfg: JobConfig) -> int:
    cfg.kind = "fourier"
    return _cmd_transform(cfg)


def _cmd_inverse(cfg: JobConfig) -> int:
    field = read_field(cfg.field_path)
    param = field.param
    if not (0.0 < param.s < math.inf):
        raise UsageError("field parameter is degenerate; nothing to invert")
    if cfg.s is not None and abs(cfg.s - param.s) > 1e-9 * max(1.0, param.s):
        raise UsageError(
            f"--s {cfg.s!r} contradicts the field file (s={param.s!r})")
    xs = field.grid.xs
    values, estimate = engine.sb_inverse(param.s, field, xs, cfg.R)
    write_signal(cfg.out_path, xs, values)
    print(f"inverse at {_describe_line(param)}, R={cfg.R:g}, "
          f"truncation estimate {estimate:.3e} -> {cfg.out_path}")
    if cfg.tolerance is not None and estimate > cfg.tolerance:
        raise SupportError(
            f"truncation estimate {estimate:.3e} exceeds --tol "
            f"{cfg.tolerance:.3e}; raise R or enlarge the field grid")
    return 0


def _cmd_sweep(cfg: JobConfig) -> int:
    if cfg.t_list and cfg.count is not None:
        raise UsageError("--t and --count contradict each other")
    if cfg.t_list:
        ts = cfg.t_list
    elif cfg.count is not None:
        if cfg.count < 1:
            raise UsageError("--count must be >= 1")
        ts = tuple(np.linspace(0.0, math.pi / 2, cfg.count))
    else:
        raise UsageError("sweep needs --t t1,t2,... or --count N")
    for t in ts:
        TransformParameter.from_t(t)  # validate before any file is written
    signal = read_signal(cfg.signal_path)
    os.makedirs(cfg.out_dir, exist_ok=True)
    entries = []
    for i, t in enumerate(ts):
        param = TransformParameter.from_t(t)
        # Each t gets the grid sized for its own field: one shared grid wide
        # enough for small t puts large-t evaluation points far outside the
        # kernel's oscillation budget, where the true values are negligible
        # anyway. Explicit --xmax/--pmax/--nx/--np still force a common grid.
        grid = _resolve_grid(cfg, signal, param)
        field = engine.hfrft_apply(param, signal, grid, method=cfg.method,
                                   order=cfg.order,
                                   spectral_order=cfg.spectral_order)
        name = f"field_{i:02d}.csv"
        write_field(os.path.join(cfg.out_dir, name), field)
        entries.append({"index": i, "t": t,
                        "s": "inf" if math.isinf(param.s) else param.s,
                        "file": name,
                        "grid": {"nx": grid.shape[0], "np": grid.shape[1],
                                 "x_extent": float(grid.xs[-1]),
                                 "p_extent": float(grid.ps[-1])}})
        print(f"[{i + 1}/{len(ts)}] {_describe_line(param)} -> {name}")
    index = {
        "kind": "hfrft",
        "signal": cfg.signal_path,
        "gauge": Gauge.WEIGHTED.value,
        "entries": entries,
    }
    _write_json(os.path.join(cfg.out_dir, "index.json"), index)
    print(f"index -> {os.path.join(cfg.out_dir, 'index.json')}")
    return 0


def _cmd_verify(cfg: JobConfig) -> int:
    report = verification.run(list(cfg.criteria) or None)
    for line in report.summary_lines():
        print(line)
    if cfg.out_path:
        _write_json(cfg.out_path, report.to_dict())
        print(f"report -> {cfg.out_path}")
    return 0 if report.all_passed else 1


def _cmd_basis(cfg: JobConfig) -> int:
    param = cfg.parameter()
    if not (0.0 < param.s < math.inf):
        raise UsageError("basis images need 0 < s < inf")
    z0 = 0.6 + 0.45j
    zs = np.array([z0, -z0, 1j * z0, 0.5 * z0, 0.0], dtype=complex)
    table = engine.basis_image_table(param.s, cfg.n_max, zs)
    columns = (zs.real, zs.imag)
    with _open_out(cfg.out_path) as fh:
        fh.write(BASIS_HEADER + "\n")
        for provenance, images in table.items():
            templates = _line_templates([""] * zs.size, 4, "," + provenance)
            for n, image in enumerate(images):
                _write_lines(fh, templates,
                             np.column_stack((*columns, image.real, image.imag)),
                             lead=f"{n},")
    print(f"basis images for s={param.s:.6g}, n <= {cfg.n_max} "
          f"(quadrature + claimed closed form) -> {cfg.out_path}")
    return 0


# ----------------------------------------------------------------- parser

def _add_param_flags(sub: argparse.ArgumentParser) -> None:
    group = sub.add_mutually_exclusive_group()
    group.add_argument("--t", type=float, help="angle parameter in radians")
    group.add_argument("--s", type=float, help="scale parameter s = tan t")


def _add_grid_flags(sub: argparse.ArgumentParser) -> None:
    sub.add_argument("--xmax", type=float, help="grid half-width in x")
    sub.add_argument("--pmax", type=float, help="grid half-width in p")
    sub.add_argument("--nx", type=int, help="grid points along x")
    sub.add_argument("--np", type=int, dest="np_", help="grid points along p")


def _add_method_flags(sub: argparse.ArgumentParser) -> None:
    sub.add_argument("--method", choices=("kernel", "spectral"),
                     default="kernel", help="quadrature kernel or basis images")
    sub.add_argument("--spectral-order", type=int,
                     default=engine.DEFAULT_SPECTRAL_ORDER,
                     help="basis truncation degree for --method spectral")
    sub.add_argument("--order", type=int,
                     help="quadrature rule order override (for --method "
                          "spectral: the projection rule)")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="holofrft",
        description="Holomorphic fractional Fourier transforms of 1-D signals.",
        epilog="Set HOLOFRFT_THREADS to cap BLAS threads (0 = library default).")
    subs = parser.add_subparsers(dest="command", required=True)

    tr = subs.add_parser("transform", help="transform a signal to a plane field")
    tr.add_argument("--kind", choices=("hfrft", "sb", "fourier"),
                    default="hfrft", help="transform family member")
    _add_param_flags(tr)
    tr.add_argument("--signal", required=True, dest="signal_path",
                    help="coherent-sum JSON or sampled CSV")
    tr.add_argument("--out", required=True, dest="out_path", help="field CSV")
    tr.add_argument("--gauge", choices=("weighted", "holomorphic"),
                    help="convert the output gauge (defaults: hfrft/fourier "
                         "weighted, sb holomorphic)")
    _add_grid_flags(tr)
    _add_method_flags(tr)

    ep = subs.add_parser("endpoint", help="Fourier endpoint field (t = pi/2)")
    ep.add_argument("--signal", required=True, dest="signal_path")
    ep.add_argument("--out", required=True, dest="out_path")
    _add_grid_flags(ep)
    ep.add_argument("--order", type=int, help="quadrature rule order override")

    inv = subs.add_parser("inverse", help="reconstruct a signal from a field CSV")
    inv.add_argument("--field", required=True, dest="field_path",
                     help="holomorphic-gauge field CSV (weighted is converted)")
    inv.add_argument("--s", type=float, help="cross-check against the file's s")
    inv.add_argument("--R", type=float, default=8.0,
                     help="p-truncation radius of the slice integral")
    inv.add_argument("--tol", type=float, dest="tolerance",
                     help="fail (exit 3) if the truncation estimate exceeds this")
    inv.add_argument("--out", required=True, dest="out_path", help="signal CSV")

    sw = subs.add_parser("sweep", help="fields for a list of t values + index")
    sw.add_argument("--t", dest="t_list", type=_t_list, default=(),
                    help="comma-separated t values in [0, pi/2]")
    sw.add_argument("--count", type=int,
                    help="alternatively: N equally spaced t values")
    sw.add_argument("--signal", required=True, dest="signal_path")
    sw.add_argument("--out-dir", required=True, dest="out_dir")
    _add_grid_flags(sw)
    _add_method_flags(sw)

    ver = subs.add_parser("verify", help="run the self-contained criteria battery")
    ver.add_argument("--out", dest="out_path", help="also write a JSON report")
    ver.add_argument("--criteria", type=_int_list, default=(),
                     help="comma-separated subset, e.g. 1,4,7 (default: all)")

    ba = subs.add_parser("basis", help="basis images at probe points, both provenances")
    _add_param_flags(ba)
    ba.add_argument("--n-max", type=int, default=12, dest="n_max",
                    help="highest basis degree")
    ba.add_argument("--out", required=True, dest="out_path", help="CSV path")
    return parser


def _t_list(text: str) -> tuple[float, ...]:
    try:
        values = tuple(float(part) for part in text.split(","))
    except ValueError:
        raise argparse.ArgumentTypeError(f"bad t list {text!r}") from None
    if not values:
        raise argparse.ArgumentTypeError("empty t list")
    return values


def _int_list(text: str) -> tuple[int, ...]:
    try:
        return tuple(int(part) for part in text.split(","))
    except ValueError:
        raise argparse.ArgumentTypeError(f"bad integer list {text!r}") from None


_COMMANDS = {
    "transform": _cmd_transform,
    "endpoint": _cmd_endpoint,
    "inverse": _cmd_inverse,
    "sweep": _cmd_sweep,
    "verify": _cmd_verify,
    "basis": _cmd_basis,
}


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    try:
        ns = parser.parse_args(argv)
    except SystemExit as exc:  # argparse: 2 on usage error, 0 on --help
        return int(exc.code or 0)
    cfg = JobConfig(**{k: v for k, v in vars(ns).items()})
    try:
        return _COMMANDS[cfg.command](cfg)
    except (ParseError, UsageError, ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except (SupportError, DegenerateCoordinateError) as exc:
        print(f"numerical-support error: {exc}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
