"""Self-tests of the benchmark: seeded inputs, gates, tracing, output format.

    python3 -m pytest bench/test_bench.py -q
"""

import importlib
import json
import os
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

import run

sys.path.insert(0, str(run.SRC))

import numpy as np  # noqa: E402

import spans  # noqa: E402
import workloads  # noqa: E402
from holofrft import cli  # noqa: E402

SEEDED = ("cli-sampled", "lib-packets", "lib-spectral")


def installed_wrappers() -> list[str]:
    """Names of holofrft attributes that currently hold a benchmark wrapper."""
    found = []
    for name in spans.MODULES:
        mod = importlib.import_module(name)
        for attr, value in vars(mod).items():
            values = value if isinstance(value, tuple) else (value,)
            if isinstance(value, type):
                values = tuple(getattr(v, "__func__", v)
                               for v in vars(value).values())
            if any(hasattr(v, spans.MARKER) for v in values):
                found.append(f"{name}.{attr}")
    return found


def spec() -> dict:
    with open(run.ROOT / "BENCHMARK.json", encoding="utf-8") as fh:
        return json.load(fh)


# ------------------------------------------------------------ seeded inputs

@pytest.mark.parametrize("name", SEEDED)
def test_same_seed_same_inputs_and_other_seed_other_inputs(name):
    wl = workloads.WORKLOADS[name]
    first = [wl.draw(7, workloads.MEASURED, i) for i in range(6)]
    again = [wl.draw(7, workloads.MEASURED, i) for i in range(6)]
    other = [wl.draw(8, workloads.MEASURED, i) for i in range(6)]
    assert first == again
    assert all(a != b for a, b in zip(first, other))


@pytest.mark.parametrize("name", SEEDED)
def test_warm_up_draws_differ_from_measured_draws(name):
    wl = workloads.WORKLOADS[name]
    for i in range(3):
        assert wl.draw(7, workloads.WARMUP, i) != wl.draw(7, workloads.MEASURED, i)


def test_sampled_signal_file_is_a_function_of_the_seed(tmp_path):
    wl = workloads.WORKLOADS["cli-sampled"]
    contents = []
    for seed, sub in ((3, "a"), (3, "b"), (4, "c")):
        (tmp_path / sub).mkdir()
        wl.prepare(wl.draw(seed, workloads.MEASURED, 0), str(tmp_path / sub))
        contents.append((tmp_path / sub / "op0-signal.csv").read_bytes())
    assert contents[0] == contents[1] != contents[2]


# -------------------------------------------------------------------- gates

def perturbed(field, delta=1e-6):
    values = field.values.copy()
    values[values.shape[0] // 2, values.shape[1] // 2] += delta
    return type(field)(field.grid, values, field.gauge, field.param)


@pytest.mark.parametrize("name,i", [("lib-packets", 0), ("lib-packets", 7),
                                    ("lib-packets", 9), ("lib-spectral", 0)])
def test_in_process_gate_rejects_one_perturbed_cell(name, i):
    wl = workloads.WORKLOADS[name]
    d = wl.draw(5, workloads.MEASURED, i)
    field = wl.execute(d)
    assert wl.check(d, field).passed
    assert not wl.check(d, perturbed(field)).passed


def perturb_csv_cell(path, row, column):
    lines = Path(path).read_text().splitlines()
    parts = lines[row].split(",")
    parts[column] = repr(float(parts[column]) + 1e-5)
    lines[row] = ",".join(parts)
    Path(path).write_text("\n".join(lines) + "\n")


def test_cli_sampled_gates_reject_one_perturbed_cell(tmp_path):
    wl = workloads.WORKLOADS["cli-sampled"]
    d = wl.draw(5, workloads.MEASURED, 0)
    for _, argv in wl.prepare(d, str(tmp_path)):
        assert cli.main(argv) == 0
    assert wl.check(d, str(tmp_path)).passed
    files = wl.files(d, str(tmp_path))
    for key, column in (("field", 2), ("inverse", 1)):   # the "re" column
        saved = Path(files[key]).read_bytes()
        perturb_csv_cell(files[key], len(saved.splitlines()) // 2, column)
        assert not wl.check(d, str(tmp_path)).passed, key
        Path(files[key]).write_bytes(saved)


def test_cli_verify_gate_rejects_a_failed_report(tmp_path):
    wl = workloads.WORKLOADS["cli-verify"]
    d = wl.draw(5, workloads.MEASURED, 0)
    for _, argv in wl.prepare(d, str(tmp_path)):
        assert cli.main(argv) == 0
    assert wl.check(d, str(tmp_path)).passed
    path = wl.report(d, str(tmp_path))
    report = json.loads(Path(path).read_text())
    report["all_passed"] = False
    Path(path).write_text(json.dumps(report))
    assert not wl.check(d, str(tmp_path)).passed


def test_field_margin_propagates_nan():
    assert np.isnan(workloads.field_margin([np.nan], [0.0], 1.0))
    assert not workloads.Outcome(np.nan, {}).passed


# ------------------------------------------------------------------ tracing

def snapshot(patches):
    return [vars(owner)[attr] for owner, attr, _, _ in patches.entries]


def test_patches_cover_every_call_path_and_restore_them():
    patches = spans.Patches(spans.Tracer())
    before = snapshot(patches)
    patches.apply()
    try:
        wrapped = set(installed_wrappers())
    finally:
        patches.restore()
    for attr in ("holofrft.hermite.hermite_basis", "holofrft.engine.hermite_basis",
                 "holofrft.hermite_basis", "holofrft.verification.CRITERIA",
                 "holofrft.quadrature.QuadratureRule", "holofrft.core.PlaneField",
                 "holofrft.cli.write_field", "holofrft.hfrft_apply"):
        assert attr in wrapped
    assert installed_wrappers() == []
    assert all(now is then for now, then in zip(snapshot(patches), before))


def test_self_time_subtracts_direct_children():
    s = [{"id": "1", "parent": None, "start": 0, "end": 100},
         {"id": "2", "parent": "1", "start": 10, "end": 40},
         {"id": "3", "parent": "2", "start": 15, "end": 25},
         {"id": "4", "parent": "1", "start": 50, "end": 60}]
    assert spans.self_times(s) == {"1": 60, "2": 20, "3": 10, "4": 10}


def test_tail_is_the_highest_percentile_with_ten_beyond():
    t = run.tail([float(v) for v in range(1, 41)])
    assert (t["value"], t["percentile"], t["beyond"]) == (30.0, 75.0, 10)


# ------------------------------------------------------------------ runs

@pytest.fixture
def out_dir(tmp_path, monkeypatch):
    monkeypatch.setattr(run, "OUT", tmp_path)
    return tmp_path


def test_untraced_run_installs_no_wrappers(out_dir, monkeypatch, capsys):
    def refuse(self):
        raise AssertionError("wrappers installed in an untraced run")
    monkeypatch.setattr(spans.Patches, "apply", refuse)
    assert run.run_one("lib-packets", 1, 0.3, False) == 0
    result = json.loads(capsys.readouterr().out.strip().splitlines()[-1])
    assert result["correct"] and result["failed"] == 0
    assert list(result["metrics"]) == [m["name"] for m in spec()["end_to_end"]]
    assert installed_wrappers() == []


@pytest.mark.parametrize("name", ["lib-packets", "cli-verify"])
def test_latency_and_setup_are_relative_to_the_reference(name, out_dir, capsys):
    assert run.run_one(name, 1, 0.5, False) == 0
    result = json.loads(capsys.readouterr().out.strip().splitlines()[-1])
    with open(out_dir / f"{name}-seed1-trace0.json", encoding="utf-8") as fh:
        record = json.load(fh)
    ops = record["ops"]
    assert all(op["ref_ms"] > 0 for op in ops)
    assert result["metrics"]["op_p50_rel"]["value"] == pytest.approx(
        np.median([op["ms"] / op["ref_ms"] for op in ops]))
    setup = zip(record["setup_s"], record["setup_reference_ms"], strict=True)
    assert result["metrics"]["setup_s"]["value"] == pytest.approx(
        run.REF_NOMINAL_MS * np.median([t / r for t, r in setup]))


def test_reference_does_not_touch_the_program():
    assert "holofrft" not in run.REF_KERNEL and "holofrft" not in run.REF_CHILD
    assert subprocess.run([sys.executable, "-c", run.REF_CHILD],
                          timeout=60).returncode == 0


@pytest.mark.parametrize("name", ["lib-spectral", "cli-sampled"])
def test_traced_run_reports_every_layer_metric_and_restores(name, out_dir, capsys):
    assert run.run_one(name, 1, 1.5, True) == 0
    result = json.loads(capsys.readouterr().out.strip().splitlines()[-1])
    assert result["correct"]
    assert sorted(result["metrics"]) == sorted(m["name"] for m in spec()["per_layer"])
    assert installed_wrappers() == []
    assert (out_dir / f"{name}-seed1-spans.json").is_file()
    assert not list(out_dir.glob("work-*"))


def test_benchmark_spec_keys_names_and_bounds():
    """Workloads match the code; bounds lie in (0, 0.25], set-up time's is largest."""
    s = spec()
    assert set(s) == {"command", "paths", "run_seconds", "workloads",
                      "end_to_end", "per_layer"}
    assert [w["name"] for w in s["workloads"]] == list(workloads.WORKLOADS)
    assert all(len(w["why"]) <= 200 for w in s["workloads"])
    assert all(0 < m["bound"] <= 0.25 for m in s["end_to_end"])
    setup = next(m for m in s["end_to_end"] if m["name"] == "setup_s")
    assert setup["bound"] == max(m["bound"] for m in s["end_to_end"])


def test_fails_without_the_program_sources(tmp_path):
    shutil.copytree(run.BENCH, tmp_path / "bench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(run.ROOT / "BENCHMARK.json", tmp_path)
    proc = subprocess.run(
        [sys.executable, "bench/run.py", "--workload", "lib-packets", "--seed",
         "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
        env={k: v for k, v in os.environ.items() if k != "PYTHONPATH"})
    assert proc.returncode != 0
    assert proc.stdout == ""
