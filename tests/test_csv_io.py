"""Property tests of the CSV readers and writers.

Any single-row corruption of a valid file must end in a ``ParseError`` that
names the file, and, where one line is at fault, that line. Written fields and
signals must match the per-cell ``"{:.16e}"`` reference byte for byte and
read back bit for bit.
"""

import math

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from holofrft import cli
from holofrft.core import Gauge, PlaneField, PlaneGrid, TransformParameter

NUM = "{:.16e}".format


def reference_field_text(field: PlaneField) -> str:
    """The field CSV formatted one cell at a time: the writer's oracle."""
    meta = f"{field.gauge.value},{field.param.describe()}"
    lines = [cli.FIELD_HEADER]
    for i, x in enumerate(field.grid.xs):
        for j, p in enumerate(field.grid.ps):
            v = field.values[i, j]
            lines.append(f"{NUM(x)},{NUM(p)},{NUM(v.real)},{NUM(v.imag)},{meta}")
    return "\n".join(lines) + "\n"


def reference_signal_text(xs: np.ndarray, values: np.ndarray) -> str:
    lines = [cli.SIGNAL_HEADER]
    lines += [f"{NUM(x)},{NUM(v.real)},{NUM(v.imag)}" for x, v in zip(xs, values)]
    return "\n".join(lines) + "\n"


def complex_array(re: list[float], im: list[float]) -> np.ndarray:
    """Complex values with the exact bits of re and im (keeps -0.0)."""
    out = np.empty(len(re), dtype=complex)
    out.real, out.imag = re, im
    return out


def same_bits(a: np.ndarray, b: np.ndarray) -> bool:
    return a.shape == b.shape and a.tobytes() == b.tobytes()


@pytest.fixture(scope="module")
def workdir(tmp_path_factory):
    return tmp_path_factory.mktemp("csv_io")


finite = st.floats(allow_nan=False, allow_infinity=False) | st.sampled_from(
    [-0.0, 5e-324, -2.5e-310, 1e-300, -1e-300, 1e300, -1e300])


def finite_lists(n: int):
    return st.lists(finite, min_size=n, max_size=n)


class TestWriterMatchesReference:
    @given(nx=st.integers(2, 4), np_=st.integers(2, 4),
           extents=st.tuples(st.floats(0.1, 50), st.floats(0.1, 50)),
           gauge=st.sampled_from(list(Gauge)),
           t=st.floats(0.0, math.pi / 2), data=st.data())
    def test_field_bytes_and_bits_round_trip(self, workdir, nx, np_, extents,
                                             gauge, t, data):
        values = complex_array(data.draw(finite_lists(nx * np_)),
                               data.draw(finite_lists(nx * np_)))
        grid = PlaneGrid.regular(extents[0], extents[1], nx, np_)
        field = PlaneField(grid, values.reshape(nx, np_), gauge,
                           TransformParameter.from_t(t))
        path = workdir / "field.csv"
        cli.write_field(str(path), field)
        written = path.read_bytes()
        assert written == reference_field_text(field).encode()
        back = cli.read_field(str(path))
        assert same_bits(back.values, field.values)
        assert same_bits(back.grid.xs, grid.xs)
        assert same_bits(back.grid.ps, grid.ps)
        assert back.gauge is gauge and back.param == field.param
        cli.write_field(str(path), back)
        assert path.read_bytes() == written

    @given(n=st.integers(2, 9), step=st.floats(1e-3, 10), data=st.data())
    def test_signal_bytes_and_bits_round_trip(self, workdir, n, step, data):
        xs = step * np.arange(n) - 1.0
        values = complex_array(data.draw(finite_lists(n)),
                               data.draw(finite_lists(n)))
        path = workdir / "signal.csv"
        cli.write_signal(str(path), xs, values)
        written = path.read_bytes()
        assert written == reference_signal_text(xs, values).encode()
        back = cli.read_signal(str(path))
        assert same_bits(back.xs, xs) and same_bits(back.values, values)
        cli.write_signal(str(path), back.xs, back.values)
        assert path.read_bytes() == written


@pytest.fixture(scope="module")
def valid_files(workdir) -> dict[str, tuple[bytes, int]]:
    """Bytes of one small valid file per kind, and its count of number columns."""
    field = PlaneField(PlaneGrid.regular(2.0, 3.0, 3, 4),
                       np.arange(12).reshape(3, 4) * (0.25 - 0.5j),
                       Gauge.HOLOMORPHIC, TransformParameter.from_t(0.7))
    cli.write_field(str(workdir / "valid_field.csv"), field)
    xs = np.linspace(-1.0, 1.0, 6)
    cli.write_signal(str(workdir / "valid_signal.csv"), xs,
                     np.exp(-xs * xs) * 1j)
    return {"field": ((workdir / "valid_field.csv").read_bytes(), 4),
            "signal": ((workdir / "valid_signal.csv").read_bytes(), 3)}


def _is_float(token: str) -> bool:
    try:
        float(token)
    except ValueError:
        return False
    return True


non_numeric = st.text(alphabet="abcxyz.+-eE0123456789 ", max_size=6) \
    .filter(lambda tok: not _is_float(tok))
non_finite = st.sampled_from(["nan", "-nan", "inf", "-inf", "NaN", "Infinity",
                              "1e999"])
# Corruptions confined to one line: the error must name that line.
LINE_LOCAL = ("drop column", "extra column", "non-numeric", "non-finite",
              "bad bytes")


class TestCorruptionIsAParseError:
    @given(kind=st.sampled_from(["field", "signal"]), data=st.data())
    def test_single_row_corruption(self, workdir, valid_files, kind, data):
        valid, numeric = valid_files[kind]
        lines = valid.split(b"\n")[:-1]
        corruptions = LINE_LOCAL + ("shuffled row",)
        if kind == "field":
            corruptions += ("gauge/param", "param prefixes")
        corruption = data.draw(st.sampled_from(corruptions))
        # Value corruptions go to data rows; the header has no values.
        first = 1 if corruption in ("non-numeric", "non-finite",
                                    "gauge/param", "param prefixes") else 0
        row = data.draw(st.integers(first, len(lines) - 1))
        parts = lines[row].split(b",")
        if corruption == "drop column":
            del parts[data.draw(st.integers(0, len(parts) - 1))]
        elif corruption == "extra column":
            parts.insert(data.draw(st.integers(0, len(parts))),
                         data.draw(st.sampled_from([b"", b"1", b"x"])))
        elif corruption in ("non-numeric", "non-finite"):
            token = data.draw(non_numeric if corruption == "non-numeric"
                              else non_finite)
            parts[data.draw(st.integers(0, numeric - 1))] = token.encode()
        elif corruption == "bad bytes":
            at = data.draw(st.integers(0, len(parts) - 1))
            cut = data.draw(st.integers(0, len(parts[at])))
            parts[at] = parts[at][:cut] + b"\xff\xfe" + parts[at][cut:]
        elif corruption == "gauge/param":
            if data.draw(st.booleans()):
                parts[4] = b"weighted" if parts[4] == b"holomorphic" \
                    else b"holomorphic"
            else:
                parts[5] += b"0"
        elif corruption == "param prefixes":
            # every row alike, so only the param parser can reject it
            for k in range(1, len(lines)):
                lines[k] = lines[k].replace(b"t=", b"").replace(b";s=", b";")
            parts = lines[row].split(b",")
        else:
            other = data.draw(st.integers(0, len(lines) - 1)
                              .filter(lambda j: j != row))
            lines[other], parts = lines[row], lines[other].split(b",")
        lines[row] = b",".join(parts)
        path = workdir / f"corrupt_{kind}.csv"
        path.write_bytes(b"\n".join(lines) + b"\n")
        reader = cli.read_field if kind == "field" else cli.read_signal
        with pytest.raises(cli.ParseError) as exc:
            reader(str(path))
        message = str(exc.value)
        assert f"corrupt_{kind}.csv" in message
        if corruption in LINE_LOCAL:
            assert f"corrupt_{kind}.csv:{row + 1}:" in message


class TestLayout:
    def field_file(self, workdir, body: bytes) -> str:
        path = workdir / "layout_field.csv"
        path.write_bytes(body)
        return str(path)

    @pytest.mark.parametrize("variant", ["crlf", "blank lines", "no final newline"])
    def test_line_layout_does_not_change_the_field(self, workdir, valid_files,
                                                   variant):
        valid = valid_files["field"][0]
        body = {
            "crlf": valid.replace(b"\n", b"\r\n"),
            "blank lines": valid.replace(b"\n", b"\n\n \t\n", 3),
            "no final newline": valid.rstrip(b"\n"),
        }[variant]
        expected = cli.read_field(self.field_file(workdir, valid))
        field = cli.read_field(self.field_file(workdir, body))
        assert same_bits(field.values, expected.values)
        assert same_bits(field.grid.xs, expected.grid.xs)
        assert field.param == expected.param

    def test_labels_longer_than_the_fixed_width_are_read_in_full(
            self, workdir, valid_files):
        valid = valid_files["field"][0]
        long_zero = b"0." + b"0" * 40 + b"e+00"
        body = valid.replace(b"\n0.0000000000000000e+00,", b"\n" + long_zero + b",")
        field = cli.read_field(self.field_file(workdir, body))
        expected = cli.read_field(self.field_file(workdir, valid))
        assert same_bits(field.grid.xs, expected.grid.xs)
        # The same label, different only past the fixed width, breaks the grid.
        lines = body.split(b"\n")
        lines[7] = lines[7].replace(long_zero, long_zero[:-5] + b"1e+00", 1)
        with pytest.raises(cli.ParseError,
                           match="layout_field.csv:8: rows do not form"):
            cli.read_field(self.field_file(workdir, b"\n".join(lines)))

    @pytest.mark.parametrize("blank", [b"", b" \t\n"],
                             ids=["no blank line", "whitespace line"])
    def test_grid_break_names_its_line(self, workdir, valid_files, blank):
        # A whitespace-only line is skipped but still counts in the numbering.
        lines = valid_files["field"][0].replace(b"\n", b"\n" + blank, 1) \
            .split(b"\n")
        at = 10 + blank.count(b"\n")
        swapped = lines[:at] + [lines[at + 1], lines[at]] + lines[at + 2:]
        with pytest.raises(cli.ParseError,
                           match=f"layout_field.csv:{at + 1}: rows do not form"):
            cli.read_field(self.field_file(workdir, b"\n".join(swapped)))
        lines = valid_files["field"][0].split(b"\n")
        # A short last block: the file ends inside it.
        with pytest.raises(cli.ParseError,
                           match="layout_field.csv:12: rows do not form"):
            cli.read_field(self.field_file(workdir, b"\n".join(lines[:12]) + b"\n"))

    @pytest.mark.parametrize("short, long, tail", [
        (b"-1.0,-1.0,0,0", b"-1.0,1.0,0,0,a,b,c,d",
         b",holomorphic,t=0.0000000000000000e+00;s=0.0000000000000000e+00"),
        (b"-1.0,-1.0,0,0,holomorphic", b"-1.0,1.0,0,0,a,b,holomorphic",
         b",a,holomorphic"),
    ], ids=["gauge and param dropped", "param dropped"])
    def test_short_row_balanced_by_a_long_one(self, workdir, short, long, tail):
        # The file has as many commas as a valid one, and every row ends in
        # the first row's text columns; each row's column count still counts.
        body = b"\n".join([cli.FIELD_HEADER.encode(), short, long,
                           b"1.0,-1.0,0,0" + tail, b"1.0,1.0,0,0" + tail]) + b"\n"
        with pytest.raises(cli.ParseError,
                           match="layout_field.csv:2: expected 6 columns, got "):
            cli.read_field(self.field_file(workdir, body))
