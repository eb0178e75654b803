"""Command-line interface: file formats, determinism, exit codes, round trips."""

import json
import math
import os
import subprocess
import sys

import numpy as np
import pytest

from holofrft import cli, closedform, engine
from holofrft.cli import FIELD_HEADER, SIGNAL_HEADER, main, read_field, \
    read_signal, write_field, write_signal
from holofrft.core import CoherentLabel, Gauge, Samples, TransformParameter

PACKET_JSON = json.dumps({"weights": [[1.0, 0.0]], "labels": [[0.0, 0.0]]})
PAIR_JSON = json.dumps({
    "weights": [[0.8, 0.0], [0.0, 0.6]],
    "labels": [[0.5, 1.2], [-0.4, -0.9]],
})


@pytest.fixture
def packet_file(tmp_path):
    path = tmp_path / "packet.json"
    path.write_text(PACKET_JSON)
    return str(path)


@pytest.fixture
def pair_file(tmp_path):
    path = tmp_path / "pair.json"
    path.write_text(PAIR_JSON)
    return str(path)


class TestSignalIO:
    def test_json_signal_round_trips_labels_and_weights(self, pair_file):
        signal = read_signal(pair_file)
        assert signal.weights == (0.8 + 0.0j, 0.6j)
        assert signal.labels == (CoherentLabel(0.5, 1.2),
                                 CoherentLabel(-0.4, -0.9))

    def test_csv_signal_round_trips_bytes(self, tmp_path):
        xs = np.linspace(-2, 2, 11)
        values = np.exp(-xs * xs) * (1 + 0.5j)
        path = tmp_path / "sig.csv"
        write_signal(str(path), xs, values)
        first = path.read_bytes()
        assert first.decode().splitlines()[0] == SIGNAL_HEADER
        sig = read_signal(str(path))
        assert isinstance(sig, Samples)
        write_signal(str(path), sig.xs, sig.values)
        assert path.read_bytes() == first

    @pytest.mark.parametrize("body,needle", [
        ("x,re,im\n0,1,2\n1,3\n", ":3:"),
        ("x,re,im\n0,1,two\n", ":2:"),
        ("x,re,im\n0,1,inf\n", "non-finite"),
        ("p,re,im\n0,1,2\n", "header"),
        ("x,re,im\n", "no data rows"),
        ("", "empty file"),
        (b"x,re,im\n0,1,2\n\xff\xfe,1,2\n", ":3: not valid UTF-8"),
        (b"x,re,im\n0,1,2\n1,3\x00,2\n", ":3: NUL byte"),
    ])
    def test_malformed_csv_reports_location(self, tmp_path, body, needle):
        path = tmp_path / "bad.csv"
        if isinstance(body, bytes):
            path.write_bytes(body)
        else:
            path.write_text(body)
        with pytest.raises(cli.ParseError) as exc:
            read_signal(str(path))
        assert needle in str(exc.value)
        assert "bad.csv" in str(exc.value)

    @pytest.mark.parametrize("body", [
        "not json {",
        json.dumps({"weights": [[1, 0]]}),
        json.dumps({"weights": [[1, 0], [2, 0]], "labels": [[0, 0]]}),
        json.dumps({"weights": [[1, 0]], "labels": [["a", 0]]}),
        json.dumps({"weights": [[True, False]], "labels": [[0, 0]]}),
    ])
    def test_malformed_json_rejected(self, tmp_path, body):
        path = tmp_path / "bad.json"
        path.write_text(body)
        with pytest.raises(cli.ParseError):
            read_signal(str(path))

    def test_missing_file_is_a_parse_error(self, tmp_path):
        with pytest.raises(cli.ParseError):
            read_signal(str(tmp_path / "nope.json"))


class TestFieldIO:
    def make_field_file(self, tmp_path, packet_file, args=()):
        out = str(tmp_path / "field.csv")
        code = main(["transform", "--kind", "sb", "--s", "1", "--signal",
                     packet_file, "--out", out, *args])
        assert code == 0
        return out

    def test_field_header_and_x_major_order(self, tmp_path, packet_file):
        out = self.make_field_file(tmp_path, packet_file)
        lines = open(out).read().splitlines()
        assert lines[0] == FIELD_HEADER
        first = lines[1].split(",")
        second = lines[2].split(",")
        assert first[0] == second[0]  # same x, p advances fastest
        assert float(first[1]) < float(second[1])
        assert first[4] == "holomorphic"
        assert first[5].startswith("t=")

    def test_field_read_write_round_trip_is_byte_identical(
            self, tmp_path, packet_file):
        out = self.make_field_file(tmp_path, packet_file)
        field = read_field(out)
        copy = str(tmp_path / "copy.csv")
        write_field(copy, field)
        assert open(copy, "rb").read() == open(out, "rb").read()

    def test_angle_parameterized_field_also_round_trips(
            self, tmp_path, packet_file):
        out = str(tmp_path / "field_t.csv")
        assert main(["transform", "--kind", "hfrft", "--t", "0.7",
                     "--signal", packet_file, "--out", out]) == 0
        field = read_field(out)
        assert field.param.t == 0.7
        copy = str(tmp_path / "copy_t.csv")
        write_field(copy, field)
        assert open(copy, "rb").read() == open(out, "rb").read()

    def test_repeated_runs_are_byte_identical(self, tmp_path, packet_file):
        a = self.make_field_file(tmp_path, packet_file)
        b_dir = tmp_path / "again"
        b_dir.mkdir()
        b = str(b_dir / "field.csv")
        assert main(["transform", "--kind", "sb", "--s", "1", "--signal",
                     packet_file, "--out", b]) == 0
        assert open(a, "rb").read() == open(b, "rb").read()

    def test_corrupted_field_file_rejected(self, tmp_path, packet_file):
        out = self.make_field_file(tmp_path, packet_file)
        lines = open(out).read().splitlines()
        lines[5] = lines[5].replace(",", ";", 1)
        bad = tmp_path / "bad_field.csv"
        bad.write_text("\n".join(lines) + "\n")
        with pytest.raises(cli.ParseError, match=":6:"):
            read_field(str(bad))

    def test_non_utf8_field_file_rejected(self, tmp_path, packet_file):
        out = self.make_field_file(tmp_path, packet_file)
        lines = open(out, "rb").read().split(b"\n")
        lines[4] = lines[4][:10] + b"\xff\xfe" + lines[4][10:]
        bad = tmp_path / "bad_field.csv"
        bad.write_bytes(b"\n".join(lines))
        with pytest.raises(cli.ParseError, match="bad_field.csv:5: not valid UTF-8"):
            read_field(str(bad))


class TestTransformCommands:
    def test_weighted_field_matches_closed_form(self, tmp_path, packet_file):
        out = str(tmp_path / "w.csv")
        assert main(["transform", "--kind", "hfrft", "--t", "0.7",
                     "--signal", packet_file, "--out", out]) == 0
        field = read_field(out)
        X, P = field.grid.meshes()
        oracle = closedform.hfrft_coherent(X, P, field.param,
                                           CoherentLabel(0.0, 0.0))
        assert float(np.max(np.abs(field.values - oracle))) < 1e-9

    def test_gauge_flag_converts_the_output(self, tmp_path, packet_file):
        hol = str(tmp_path / "hol.csv")
        wei = str(tmp_path / "wei.csv")
        common = ["transform", "--kind", "sb", "--s", "0.8", "--signal",
                  packet_file, "--xmax", "3", "--pmax", "3", "--nx", "21",
                  "--np", "21"]
        assert main(common + ["--out", hol]) == 0
        assert main(common + ["--gauge", "weighted", "--out", wei]) == 0
        converted = read_field(hol).to_gauge(Gauge.WEIGHTED)
        direct = read_field(wei)
        assert float(np.max(np.abs(converted.values - direct.values))) < 1e-12

    def test_endpoint_equals_fourier_kind_byte_for_byte(
            self, tmp_path, packet_file):
        a = str(tmp_path / "endpoint.csv")
        b = str(tmp_path / "fourier.csv")
        assert main(["endpoint", "--signal", packet_file, "--out", a]) == 0
        assert main(["transform", "--kind", "fourier", "--signal",
                     packet_file, "--out", b]) == 0
        assert open(a, "rb").read() == open(b, "rb").read()
        field = read_field(a)
        assert field.param.is_endpoint

    def test_identity_member_embeds_the_signal(self, tmp_path, packet_file):
        out = str(tmp_path / "id.csv")
        assert main(["transform", "--kind", "hfrft", "--t", "0", "--signal",
                     packet_file, "--out", out, "--xmax", "3", "--pmax", "2",
                     "--nx", "31", "--np", "5"]) == 0
        field = read_field(out)
        column = closedform.coherent_state(field.grid.xs,
                                           CoherentLabel(0.0, 0.0))
        for j in range(field.grid.ps.size):
            np.testing.assert_allclose(field.values[:, j], column,
                                       atol=1e-15)

    def test_spectral_method_matches_kernel_method(self, tmp_path,
                                                   pair_file):
        common = ["transform", "--kind", "sb", "--s", "1", "--signal",
                  pair_file, "--xmax", "3", "--pmax", "3", "--nx", "17",
                  "--np", "17"]
        k_out = str(tmp_path / "k.csv")
        s_out = str(tmp_path / "s.csv")
        assert main(common + ["--out", k_out]) == 0
        assert main(common + ["--method", "spectral", "--spectral-order",
                              "40", "--out", s_out]) == 0
        kernel = read_field(k_out)
        spectral = read_field(s_out)
        assert float(np.max(np.abs(kernel.values - spectral.values))) < 2e-8

    def test_order_sets_the_spectral_projection_rule(self, tmp_path,
                                                     pair_file, capsys):
        # a 24-node projection rule cannot hold degree 40
        args = ["transform", "--kind", "sb", "--s", "1", "--signal",
                pair_file, "--xmax", "3", "--pmax", "3", "--nx", "17",
                "--np", "17", "--method", "spectral", "--out",
                str(tmp_path / "o.csv")]
        assert main(args + ["--order", "24"]) == 3
        assert "projection integrand" in capsys.readouterr().err
        assert main(args + ["--order", "64"]) == 0

    def test_inverse_round_trips_the_signal(self, tmp_path, packet_file):
        field_path = str(tmp_path / "f.csv")
        sig_path = str(tmp_path / "back.csv")
        assert main(["transform", "--kind", "sb", "--s", "1", "--signal",
                     packet_file, "--out", field_path]) == 0
        assert main(["inverse", "--field", field_path, "--R", "8",
                     "--out", sig_path]) == 0
        back = read_signal(sig_path)
        expected = closedform.coherent_state(back.xs, CoherentLabel(0.0, 0.0))
        assert float(np.max(np.abs(back.values - expected))) < 1e-6

    def test_inverse_tolerance_breach_exits_3(self, tmp_path, packet_file,
                                              capsys):
        field_path = str(tmp_path / "f.csv")
        assert main(["transform", "--kind", "sb", "--s", "1", "--signal",
                     packet_file, "--out", field_path]) == 0
        code = main(["inverse", "--field", field_path, "--R", "8", "--tol",
                     "1e-15", "--out", str(tmp_path / "b.csv")])
        assert code == 3
        assert "numerical-support error:" in capsys.readouterr().err

    def test_inverse_scale_contradiction_exits_2(self, tmp_path, packet_file,
                                                 capsys):
        field_path = str(tmp_path / "f.csv")
        assert main(["transform", "--kind", "sb", "--s", "1", "--signal",
                     packet_file, "--out", field_path]) == 0
        code = main(["inverse", "--field", field_path, "--s", "2",
                     "--out", str(tmp_path / "b.csv")])
        assert code == 2
        assert "contradicts" in capsys.readouterr().err


class TestSweep:
    def test_sweep_writes_fields_and_index(self, tmp_path, packet_file):
        out_dir = str(tmp_path / "sweepdir")
        assert main(["sweep", "--t", "0.1,0.5,1.0,1.4", "--signal",
                     packet_file, "--out-dir", out_dir]) == 0
        index = json.loads(open(os.path.join(out_dir, "index.json")).read())
        assert index["kind"] == "hfrft"
        assert index["gauge"] == "weighted"
        assert [e["t"] for e in index["entries"]] == [0.1, 0.5, 1.0, 1.4]
        for entry in index["entries"]:
            path = os.path.join(out_dir, entry["file"])
            assert os.path.exists(path)
            field = read_field(path)
            assert field.param.t == pytest.approx(entry["t"], abs=1e-15)
            assert field.grid.shape == (entry["grid"]["nx"],
                                        entry["grid"]["np"])

    def test_sweep_count_spans_the_closed_interval(self, tmp_path,
                                                   packet_file):
        out_dir = str(tmp_path / "sweepcount")
        assert main(["sweep", "--count", "3", "--signal", packet_file,
                     "--out-dir", out_dir]) == 0
        index = json.loads(open(os.path.join(out_dir, "index.json")).read())
        ts = [e["t"] for e in index["entries"]]
        assert ts[0] == 0.0
        assert ts[-1] == pytest.approx(math.pi / 2)
        assert index["entries"][-1]["s"] == "inf"

    def test_sweep_flag_contradiction_exits_2(self, tmp_path, packet_file,
                                              capsys):
        code = main(["sweep", "--t", "0.5", "--count", "3", "--signal",
                     packet_file, "--out-dir", str(tmp_path / "d")])
        assert code == 2
        assert "contradict" in capsys.readouterr().err

    def test_sweep_rejects_out_of_range_angle_before_writing(
            self, tmp_path, packet_file, capsys):
        out_dir = tmp_path / "never"
        code = main(["sweep", "--t", "0.5,2.0", "--signal", packet_file,
                     "--out-dir", str(out_dir)])
        assert code == 2
        assert not out_dir.exists()


class TestUsageErrors:
    def test_fourier_kind_rejects_parameters(self, tmp_path, packet_file,
                                             capsys):
        code = main(["transform", "--kind", "fourier", "--t", "0.5",
                     "--signal", packet_file,
                     "--out", str(tmp_path / "o.csv")])
        assert code == 2
        assert "error:" in capsys.readouterr().err

    def test_parameter_is_required(self, tmp_path, packet_file, capsys):
        code = main(["transform", "--kind", "sb", "--signal", packet_file,
                     "--out", str(tmp_path / "o.csv")])
        assert code == 2
        assert "--t or --s" in capsys.readouterr().err

    def test_mutually_exclusive_parameters(self, tmp_path, packet_file):
        code = main(["transform", "--kind", "sb", "--t", "0.5", "--s", "1",
                     "--signal", packet_file,
                     "--out", str(tmp_path / "o.csv")])
        assert code == 2  # argparse usage error

    def test_partial_grid_flags_rejected(self, tmp_path, packet_file,
                                         capsys):
        code = main(["transform", "--kind", "sb", "--s", "1", "--signal",
                     packet_file, "--out", str(tmp_path / "o.csv"),
                     "--xmax", "3"])
        assert code == 2
        assert "--xmax/--pmax/--nx/--np" in capsys.readouterr().err

    def test_missing_signal_file_exits_2(self, tmp_path, capsys):
        code = main(["transform", "--kind", "sb", "--s", "1", "--signal",
                     str(tmp_path / "missing.json"),
                     "--out", str(tmp_path / "o.csv")])
        assert code == 2

    def test_oscillation_budget_breach_exits_3(self, tmp_path, packet_file,
                                               capsys):
        code = main(["transform", "--kind", "hfrft", "--t", "1.4",
                     "--signal", packet_file, "--out",
                     str(tmp_path / "o.csv"), "--xmax", "3", "--pmax", "50",
                     "--nx", "9", "--np", "9"])
        assert code == 3
        assert "numerical-support error:" in capsys.readouterr().err

    def test_unknown_criteria_index_exits_2(self, capsys):
        assert main(["verify", "--criteria", "99"]) == 2
        assert "unknown criteria" in capsys.readouterr().err


class TestVerifyAndBasis:
    def test_verify_passes_and_report_is_deterministic(self, tmp_path,
                                                       capsys):
        report_a = str(tmp_path / "a.json")
        report_b = str(tmp_path / "b.json")
        assert main(["verify", "--out", report_a]) == 0
        out = capsys.readouterr().out
        assert "ALL PASSED" in out
        assert out.count("[PASS]") == 13
        assert main(["verify", "--out", report_b]) == 0
        assert open(report_a, "rb").read() == open(report_b, "rb").read()
        payload = json.loads(open(report_a).read())
        assert payload["all_passed"] is True
        assert len(payload["criteria"]) == 13

    def test_verify_subset_runs_only_requested_criteria(self, capsys):
        assert main(["verify", "--criteria", "1,5"]) == 0
        out = capsys.readouterr().out
        assert "criterion  1" in out and "criterion  5" in out
        assert "criterion  2" not in out

    def test_basis_command_writes_both_provenances(self, tmp_path, capsys):
        out = str(tmp_path / "basis.csv")
        assert main(["basis", "--s", "0.7", "--n-max", "3", "--out",
                     out]) == 0
        lines = open(out).read().splitlines()
        assert lines[0] == "n,z_re,z_im,re,im,provenance"
        provenances = {line.rsplit(",", 1)[1] for line in lines[1:]}
        assert provenances == {"quadrature", "claimed-closed-form"}
        degrees = {int(line.split(",", 1)[0]) for line in lines[1:]}
        assert degrees == {0, 1, 2, 3}


class TestThreadEnvironment:
    def run_import(self, value):
        env = dict(os.environ)
        env["HOLOFRFT_THREADS"] = value
        proc = subprocess.run(
            [sys.executable, "-c", "import holofrft"],
            capture_output=True, text=True, env=env)
        return proc

    def test_invalid_thread_count_exits_cleanly(self):
        proc = self.run_import("bogus")
        assert proc.returncode == 2
        assert "HOLOFRFT_THREADS" in proc.stderr
        assert "Traceback" not in proc.stderr

    def test_valid_thread_count_accepted(self):
        assert self.run_import("2").returncode == 0
        assert self.run_import("0").returncode == 0
