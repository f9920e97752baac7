import os
import pathlib
import stat
import subprocess
import sys
import warnings

import numpy as np
import pytest

from nslct import (
    BadParam,
    DimensionError,
    Gram,
    Grid,
    GridMismatch,
    SampledSignal,
    Spectrum,
    WindowSpec,
    norm_l2,
    nslct_fast,
    nslct_inverse,
    preset,
    stnslct_gram,
    stnslct_reconstruct,
    synthesize,
)
from nslct import grids
from nslct import io as nio
from nslct.cli import main

from helpers import gaussian_1d, grid1, grid2


def run_cli(*args):
    proc = subprocess.run(
        [sys.executable, "-m", "nslct.cli", *[str(a) for a in args]],
        capture_output=True,
        text=True,
    )
    return proc.returncode, proc.stdout, proc.stderr


@pytest.fixture()
def workdir(tmp_path):
    g = grid1()
    f = synthesize("chirp", g, freq=0.9, rate=0.3)
    w = gaussian_1d(g, sigma=1.2)
    nio.write_signal(tmp_path / "f.txt", f)
    nio.write_signal(tmp_path / "w.txt", w)
    (tmp_path / "m.txt").write_text("n=1; preset=frft; alpha=0.7\n")
    return tmp_path, g, f, w


def read_bytes(path):
    return pathlib.Path(path).read_bytes()


# ---------------------------------------------------------------------------
# file formats


def test_signal_round_trip_bit_exact(tmp_path):
    f = synthesize("noise", grid2(), seed=3)
    p1, p2 = tmp_path / "a.txt", tmp_path / "b.txt"
    nio.write_signal(p1, f)
    back = nio.read_signal(p1)
    assert np.array_equal(back.values, f.values)
    assert back.grid == f.grid
    nio.write_signal(p2, back)
    assert read_bytes(p1) == read_bytes(p2)


def test_spectrum_round_trip_bit_exact(tmp_path):
    f = synthesize("noise", grid1(), seed=4)
    spec = nslct_fast(f, preset("fresnel", 1, b=1.5))
    p1, p2 = tmp_path / "a.txt", tmp_path / "b.txt"
    nio.write_spectrum(p1, spec)
    back = nio.read_spectrum(p1)
    assert np.array_equal(back.values, spec.values)
    assert np.array_equal(back.wgrid.warp, spec.wgrid.warp)
    nio.write_spectrum(p2, back)
    assert read_bytes(p1) == read_bytes(p2)


def test_gram_round_trip_bit_exact(tmp_path):
    g = grid1()
    f = synthesize("noise", g, seed=5)
    m = preset("frft", 1, alpha=0.6)
    wspec = WindowSpec(gaussian_1d(g, sigma=1.1), stride=8)
    gram = stnslct_gram(f, wspec, m)
    p1, p2 = tmp_path / "a.txt", tmp_path / "b.txt"
    nio.write_gram(p1, gram, g, 8, m, "w")
    back, label = nio.read_gram(p1)
    assert np.array_equal(back.values, gram.values)
    assert back.stride == 8
    assert np.array_equal(back.matrix.as_matrix(), m.as_matrix())
    assert label == "w"
    nio.write_gram(p2, back, back.signal_grid, back.stride, back.matrix, label)
    assert read_bytes(p1) == read_bytes(p2)


def write_binary(workdir, kind):
    """A spectrum or gram file of the workdir signal, its reader and the
    extra `invert` options it needs."""
    d, g, f, w = workdir
    m = preset("frft", 1, alpha=0.7)
    path = d / f"{kind}.bin"
    if kind == "spectrum":
        nio.write_spectrum(path, nslct_fast(f, m))
        return path, nio.read_spectrum, []
    wspec = WindowSpec(w, stride=4)
    nio.write_gram(path, stnslct_gram(f, wspec, m), g, 4, m, "w.txt")
    return path, nio.read_gram, ["--window", d / "w.txt"]


@pytest.mark.parametrize("kind", ["spectrum", "gram"])
@pytest.mark.parametrize("delta", [-1, 1])
def test_payload_off_by_one_byte_is_refused(workdir, kind, delta):
    d = workdir[0]
    path, read, extra = write_binary(workdir, kind)
    data = read_bytes(path)
    path.write_bytes(data[:-1] if delta < 0 else data + b"\0")
    with pytest.raises(nio.ParseError, match="payload"):
        read(path)
    rc, _, err = run_cli("invert", "--input", path, "--matrix", d / "m.txt",
                         *extra, "--out", d / "x.txt")
    assert rc == 2
    assert err.startswith("ParseError")


@pytest.mark.parametrize("kind", ["spectrum", "gram"])
@pytest.mark.parametrize("bad", [np.nan, np.inf])
def test_non_finite_payload_is_refused(workdir, kind, bad):
    d = workdir[0]
    path, read, extra = write_binary(workdir, kind)
    data = read_bytes(path)
    start = data.index(b"\n") + 1 + 5 * 16  # the sixth value
    path.write_bytes(data[:start] + np.array([bad], dtype="<c16").tobytes() + data[start + 16:])
    with pytest.raises(nio.ParseError, match="non-finite"):
        read(path)
    rc, _, err = run_cli("invert", "--input", path, "--matrix", d / "m.txt",
                         *extra, "--out", d / "x.txt")
    assert rc == 2
    assert err.startswith("ParseError")
    assert not (d / "x.txt").exists()


def test_text_era_gram_is_refused(tmp_path):
    g = grid1()
    m = preset("frft", 1, alpha=0.6)
    gram = stnslct_gram(synthesize("noise", g, seed=5),
                        WindowSpec(gaussian_1d(g, sigma=1.1), stride=8), m)

    def fl(a):
        return ",".join(repr(float(x)) for x in np.ravel(a))

    rows = [
        f"kind=gram; n=1; counts=256; spacing={fl(g.spacing)}; origin={fl(g.origin)}; "
        f"stride=8; warp={fl(m.b)}; matrix={fl(m.as_matrix())}; window=w"
    ]
    flat = gram.values.reshape(gram.ugrid.size, g.size)
    rows += [f"{u},{k},{v.real!r},{v.imag!r}" for u in range(flat.shape[0])
             for k, v in enumerate(flat[u])]
    path = tmp_path / "old.txt"
    path.write_text("\n".join(rows) + "\n")
    with pytest.raises(nio.ParseError):
        nio.read_gram(path)


def test_inverses_refuse_a_matrix_sharing_only_b(tmp_path):
    g = grid1()
    f = synthesize("noise", g, seed=6)
    made, other = preset("fresnel", 1, b=1.5), preset("separable", 1, a=1, b=1.5, c=0.4, d=1.6)
    assert np.array_equal(made.b, other.b)
    with pytest.raises(GridMismatch):
        nslct_inverse(nslct_fast(f, made), other)
    wspec = WindowSpec(gaussian_1d(g, sigma=1.1), stride=4)
    with pytest.raises(GridMismatch):
        stnslct_reconstruct(stnslct_gram(f, wspec, made), wspec, other)


def test_cli_invert_refuses_a_matrix_sharing_only_b(workdir):
    d, g, f, w = workdir
    (d / "fr.txt").write_text("n=1; preset=fresnel; b=1.5\n")
    (d / "sep.txt").write_text("n=1; preset=separable; a=1; b=1.5; c=0.4; d=1.6\n")
    rc, _, err = run_cli("transform", "--signal", d / "f.txt", "--matrix", d / "fr.txt",
                         "--out", d / "F.bin")
    assert rc == 0, err
    rc, _, err = run_cli("gram", "--signal", d / "f.txt", "--window", d / "w.txt",
                         "--matrix", d / "fr.txt", "--stride", 4, "--out", d / "V.bin")
    assert rc == 0, err
    for extra in ([], ["--window", d / "w.txt"]):
        inp = d / ("V.bin" if extra else "F.bin")
        rc, _, err = run_cli("invert", "--input", inp, "--matrix", d / "sep.txt",
                             *extra, "--out", d / "x.txt")
        assert rc == 3
        assert err.startswith("GridMismatch")
        assert not (d / "x.txt").exists()


@pytest.mark.parametrize("label", ["w;1.txt", "w\n1.txt", "w\r1.txt"])
def test_write_gram_refuses_a_label_that_breaks_the_header(tmp_path, label):
    g = grid1()
    m = preset("frft", 1, alpha=0.6)
    gram = stnslct_gram(synthesize("noise", g, seed=5),
                        WindowSpec(gaussian_1d(g, sigma=1.1), stride=8), m)
    path = tmp_path / "V.bin"
    with pytest.raises(BadParam):
        nio.write_gram(path, gram, g, 8, m, label)
    assert list(tmp_path.iterdir()) == []


def test_cli_gram_refuses_a_window_name_with_a_separator(workdir):
    d, g, f, w = workdir
    nio.write_signal(d / "w;1.txt", w)
    rc, _, err = run_cli("gram", "--signal", d / "f.txt", "--window", d / "w;1.txt",
                         "--matrix", d / "m.txt", "--stride", 4, "--out", d / "V.bin")
    assert rc == 3
    assert err.startswith("BadParam")
    assert not (d / "V.bin").exists()


def test_matrix_file_forms(tmp_path):
    p = tmp_path / "m.txt"
    p.write_text("n=1; preset=separable; a=1; b=2; c=0; d=1\n")
    m = nio.read_matrix(p)
    assert m.b[0, 0] == 2.0
    blocks = tmp_path / "blocks.txt"
    blocks.write_text(
        "n=2\nA=1,0,0,1\nB=1.5,0,0,1.5\nC=0,0,0,0\nD=1,0,0,1\n"
    )
    m2 = nio.read_matrix(blocks)
    assert np.array_equal(m2.b, 1.5 * np.eye(2))


@pytest.mark.parametrize("text", [
    "n=-1; preset=fourier\n",
    "n=-1; A=1; B=1; C=0; D=1\n",
    "n=0; A=1; B=1; C=0; D=1\n",
    "n=3; A=1; B=1; C=0; D=1\n",
])
def test_matrix_file_dimension_is_checked_before_any_block(tmp_path, text):
    p = tmp_path / "m.txt"
    p.write_text(text)
    with pytest.raises(DimensionError, match="unsupported"):
        nio.read_matrix(p)


def test_written_files_keep_the_umask(tmp_path):
    f = gaussian_1d(grid1())
    spec = nslct_fast(f, preset("frft", 1, alpha=0.7))
    old = os.umask(0o027)
    try:
        nio.write_signal(tmp_path / "f.txt", f)
        nio.write_spectrum(tmp_path / "F.bin", spec)
        (tmp_path / "dir").mkdir()
        with pytest.raises(OSError):  # the rename fails; the temp file goes
            nio.write_signal(tmp_path / "dir", f)
    finally:
        os.umask(old)
    assert sorted(p.name for p in tmp_path.iterdir()) == ["F.bin", "dir", "f.txt"]
    for name in ("f.txt", "F.bin"):
        assert stat.S_IMODE(os.stat(tmp_path / name).st_mode) == 0o640


def test_parse_errors_carry_line_numbers(tmp_path):
    p = tmp_path / "bad.txt"
    p.write_text("n=1; preset\n")
    with pytest.raises(nio.ParseError) as exc:
        nio.read_matrix(p)
    assert exc.value.line == 1
    sig = tmp_path / "sig.txt"
    sig.write_text("kind=signal; n=1; counts=8; spacing=0.1; origin=-0.4\n1,0\nnope,0\n")
    with pytest.raises(nio.ParseError) as exc:
        nio.read_signal(sig)
    assert exc.value.line == 3
    # a non-finite sample is refused at its own line
    sig.write_text("kind=signal; n=1; counts=8; spacing=0.1; origin=-0.4\n"
                   + "0,0\n" * 5 + "0,nan\n" + "0,0\n" * 2)
    with pytest.raises(nio.ParseError, match="non-finite") as exc:
        nio.read_signal(sig)
    assert exc.value.line == 7


def test_signal_row_count_enforced(tmp_path):
    sig = tmp_path / "sig.txt"
    rows = "\n".join("1,0" for _ in range(7))
    sig.write_text(f"kind=signal; n=1; counts=8; spacing=0.1; origin=-0.4\n{rows}\n")
    with pytest.raises(nio.ParseError):
        nio.read_signal(sig)


def per_line_table(path, columns: int, skip: int):
    """A text table read one line at a time through io._floats, the path the
    readers fall back to: the table's bytes, or the ParseError's text and line."""
    lines = nio._lines(path)[skip:]
    try:
        table = np.array([nio._floats(text, no, columns) for no, text in lines])
    except nio.ParseError as exc:
        return str(exc), exc.line
    bad = np.flatnonzero(~np.all(np.isfinite(table), axis=1))
    if bad.size:
        return "non-finite", lines[bad[0]][0]
    return table.tobytes()


def verdict(read):
    try:
        return read()
    except nio.ParseError as exc:
        return ("non-finite", exc.line) if "non-finite" in str(exc) else (str(exc), exc.line)


ODD_ROWS = {  # body rows that replace rows 2.. of an 8-row table, with what they test
    "underscore": ["1_000,0"], "padded": [" 1.5 , 2 "], "bare sign": ["+.5,-.5"],
    "fullwidth": ["１.５,0"], "overflow": ["1e400,0"], "nan": ["nan,0"],
    "trailing comma": ["1.0,2.0,"], "empty token": ["1.0,,2.0"], "empty column": [" ,2.0"],
    "word": ["1.0,two"], "3 then 1": ["1,2,3", "4"], "1 then 3": ["4", "1,2,3"],
    "blank and comment": ["", "  # note", "0.25,-0.5"],
}


@pytest.mark.parametrize("name", list(ODD_ROWS))
@pytest.mark.parametrize("newline", ["\n", "\r\n"])
def test_bulk_parse_keeps_the_per_line_verdict(tmp_path, name, newline):
    rows = ["0.5,-0.25"] + ODD_ROWS[name]
    rows += ["1.5,2.5"] * (8 - len([r for r in rows if r.strip() and "#" not in r]))  # 8 data rows
    sig = tmp_path / "sig.txt"
    head = "kind=signal; n=1; counts=8; spacing=0.1; origin=-0.4"
    sig.write_bytes(newline.join([head] + rows).encode() + newline.encode())

    def read_table():
        values = nio.read_signal(sig).values.ravel()
        return np.stack([values.real, values.imag], axis=-1).tobytes()

    assert verdict(read_table) == per_line_table(sig, 2, 1)
    for n, text in ((1, newline.join(r.split(",")[0] for r in rows)),
                    (2, newline.join(rows))):
        pts = tmp_path / f"pts{n}.txt"
        pts.write_bytes(text.encode() + newline.encode())
        assert verdict(lambda: nio.read_wpoints(pts, n).tobytes()) == per_line_table(pts, n, 0)


def test_bulk_parse_verdicts_are_pinned(tmp_path):
    """A few of the verdicts above, spelled out."""
    pts = tmp_path / "pts.txt"
    for text, want in (("1_000, 1.5 \n+.5,１\n", [[1000.0, 1.5], [0.5, 1.0]]),
                       ("1.0,2.0,\n1.0,,2.0\n", [[1.0, 2.0], [1.0, 2.0]])):
        pts.write_text(text, encoding="utf-8")
        assert nio.read_wpoints(pts, 2).tolist() == want
    pts.write_text("1,2,3\n4\n")  # four numbers for a 2 x 2 table, split wrongly
    with pytest.raises(nio.ParseError, match="expected 2 numbers, got 3") as exc:
        nio.read_wpoints(pts, 2)
    assert exc.value.line == 1
    pts.write_text("0,0\n1e400,0\n")
    with pytest.raises(nio.ParseError, match="non-finite") as exc:
        nio.read_wpoints(pts, 2)
    assert exc.value.line == 2


def test_signal_round_trip_keeps_extreme_doubles(tmp_path):
    rng = np.random.default_rng(48)
    bits = rng.integers(0, 2**64, size=2 * 256, dtype=np.uint64).view(float)
    vals = np.where(np.isfinite(bits), bits, 1.0)
    vals[:6] = [-0.0, 5e-324, -5e-324, 1.7976931348623157e308, -1.7976931348623157e308, 0.0]
    f = SampledSignal(grid1(), nio._complex_col(vals[0::2], vals[1::2]))
    p1, p2 = tmp_path / "a.txt", tmp_path / "b.txt"
    nio.write_signal(p1, f)
    back = nio.read_signal(p1)
    assert back.values.tobytes() == f.values.tobytes()
    nio.write_signal(p2, back)
    assert read_bytes(p1) == read_bytes(p2)


def test_signal_rows_are_the_repr_of_each_part(tmp_path):
    """Each row of a written signal is f"{x.real!r},{x.imag!r}" of its
    sample as a Python complex, the shortest text that reads back to the
    same double, extremes and signed zeros included."""
    parts = [-0.0, 5e-324, 1e-5, 0.1, 1e16, 1.7976931348623157e308, -1.7976931348623157e308, 0.0]
    f = SampledSignal(grid1(8, 0.5), nio._complex_col(np.array(parts), np.array(parts[::-1])))
    nio.write_signal(tmp_path / "s.txt", f)
    rows = (tmp_path / "s.txt").read_text().split("\n")
    assert rows[1:] == [f"{x.real!r},{x.imag!r}" for x in f.values.tolist()] + [""]
    assert rows[1] == "-0.0,0.0" and rows[7] == "-1.7976931348623157e+308,5e-324"


def test_report_schema(tmp_path):
    from nslct import run_suite

    records, floors = run_suite("pitt", seed=3)
    out = tmp_path / "r.csv"
    nio.write_report(out, records, floors)
    lines = out.read_text().splitlines()
    assert lines[0] == "suite,name,params,lhs,rhs,constant,margin,tol,passed"
    body = [ln for ln in lines[1:] if not ln.startswith("#")]
    assert len(body) == len(records)
    assert any(ln.startswith("# floor suite=pitt") for ln in lines)


# ---------------------------------------------------------------------------
# CLI behaviour


def test_transform_fast_and_invert_round_trip(workdir, tmp_path):
    d, g, f, w = workdir
    rc, out, err = run_cli(
        "transform", "--signal", d / "f.txt", "--matrix", d / "m.txt",
        "--method", "fast", "--out", d / "F.txt",
    )
    assert rc == 0, err
    rc, out, err = run_cli(
        "invert", "--input", d / "F.txt", "--matrix", d / "m.txt",
        "--out", d / "back.txt", "--reference", d / "f.txt",
    )
    assert rc == 0, err
    residual = float(out.split("=")[1])
    assert residual <= 1e-10
    back = nio.read_signal(d / "back.txt")
    assert np.max(np.abs(back.values - f.values)) <= 1e-10


def test_transform_direct_matches_fast_through_files(workdir):
    d, g, f, w = workdir
    run_cli("transform", "--signal", d / "f.txt", "--matrix", d / "m.txt",
            "--method", "fast", "--out", d / "A.txt")
    run_cli("transform", "--signal", d / "f.txt", "--matrix", d / "m.txt",
            "--method", "direct", "--out", d / "B.txt")
    a = nio.read_spectrum(d / "A.txt")
    b = nio.read_spectrum(d / "B.txt")
    assert np.max(np.abs(a.values - b.values)) <= 1e-10


def test_direct_with_explicit_points(workdir):
    d, g, f, w = workdir
    pts = d / "pts.txt"
    pts.write_text("0.0\n0.5\n-1.25\n")
    rc, out, err = run_cli(
        "transform", "--signal", d / "f.txt", "--matrix", d / "m.txt",
        "--method", "direct", "--wpoints", pts, "--out", d / "vals.txt",
    )
    assert rc == 0, err
    lines = (d / "vals.txt").read_text().splitlines()
    assert lines[0] == "kind=points; n=1"
    assert len(lines) == 4


@pytest.mark.parametrize("bad", ["nan", "inf", "-inf"])
def test_direct_refuses_non_finite_points(workdir, bad):
    d, g, f, w = workdir
    pts = d / "pts.txt"
    pts.write_text(f"0.0\n# a comment\n{bad}\n0.5\n")
    with pytest.raises(nio.ParseError, match="line 3"):
        nio.read_wpoints(pts, 1)
    rc, _, err = run_cli(
        "transform", "--signal", d / "f.txt", "--matrix", d / "m.txt",
        "--method", "direct", "--wpoints", pts, "--out", d / "vals.txt",
    )
    assert rc == 2
    assert err.startswith("ParseError: line 3")
    assert not (d / "vals.txt").exists()


@pytest.mark.parametrize("counts,spacing", [(512, 0.1), (256, 0.2)])
def test_invert_refuses_a_reference_on_another_grid(workdir, counts, spacing):
    d, g, f, w = workdir
    ref = d / "ref.txt"
    nio.write_signal(ref, gaussian_1d(grid1(counts, spacing)))
    rc, _, err = run_cli("transform", "--signal", d / "f.txt", "--matrix", d / "m.txt",
                         "--out", d / "F.bin")
    assert rc == 0, err
    rc, out, err = run_cli("invert", "--input", d / "F.bin", "--matrix", d / "m.txt",
                           "--reference", ref, "--out", d / "back.txt")
    assert rc == 3
    assert err.startswith("GridMismatch")
    assert "residual" not in out


def test_invert_refuses_an_all_zero_reference(workdir):
    d, g, f, w = workdir
    ref = d / "ref.txt"
    nio.write_signal(ref, SampledSignal(g, np.zeros(g.counts)))
    rc, _, err = run_cli("transform", "--signal", d / "f.txt", "--matrix", d / "m.txt",
                         "--out", d / "F.bin")
    assert rc == 0, err
    rc, out, err = run_cli("invert", "--input", d / "F.bin", "--matrix", d / "m.txt",
                           "--reference", ref, "--out", d / "back.txt")
    assert rc == 4
    assert err.startswith("ZeroSignal") and "reference" in err
    assert "residual" not in out


def test_gram_then_invert_round_trip(workdir):
    d, g, f, w = workdir
    rc, _, err = run_cli(
        "gram", "--signal", d / "f.txt", "--window", d / "w.txt",
        "--matrix", d / "m.txt", "--stride", 4, "--out", d / "V.txt",
    )
    assert rc == 0, err
    rc, out, err = run_cli(
        "invert", "--input", d / "V.txt", "--matrix", d / "m.txt",
        "--window", d / "w.txt", "--out", d / "rec.txt",
        "--reference", d / "f.txt",
    )
    assert rc == 0, err
    assert float(out.split("=")[1]) <= 1e-3


def test_exit_codes(workdir):
    d, g, f, w = workdir
    bad = d / "bad.txt"
    bad.write_text("n=1; preset\n")
    rc, _, err = run_cli("transform", "--signal", d / "f.txt",
                         "--matrix", bad, "--out", d / "x.txt")
    assert rc == 2
    assert "ParseError" in err and "line 1" in err

    # a fresnel b that is neither a scalar nor n x n
    fres = d / "fres.txt"
    fres.write_text("n=2; preset=fresnel; b=1,2,3\n")
    rc, _, err = run_cli("transform", "--signal", d / "f.txt",
                         "--matrix", fres, "--out", d / "x.txt")
    assert rc == 2
    assert err.startswith("ParseError: line 1")

    # a missing preset field is a parse error for every preset, not only separable
    for text, field in (("n=1; preset=frft\n", "alpha"), ("n=1; preset=fresnel\n", "b")):
        short = d / "short.txt"
        short.write_text(text)
        rc, _, err = run_cli("transform", "--signal", d / "f.txt",
                             "--matrix", short, "--out", d / "x.txt")
        assert rc == 2
        assert err.startswith("ParseError: line 1") and repr(field) in err

    # a dimension outside {1, 2} is a validation error, whatever the form
    for text in ("n=-1; preset=fourier\n", "n=-1; A=1; B=1; C=0; D=1\n"):
        neg = d / "neg.txt"
        neg.write_text(text)
        rc, _, err = run_cli("transform", "--signal", d / "f.txt",
                             "--matrix", neg, "--out", d / "x.txt")
        assert rc == 3
        assert err.startswith("DimensionError: dimension n=-1 unsupported")

    sing = d / "sing.txt"
    sing.write_text("n=1; preset=frft; alpha=0.0\n")
    rc, _, err = run_cli("transform", "--signal", d / "f.txt",
                         "--matrix", sing, "--out", d / "x.txt")
    assert rc == 3
    assert "SingularB" in err

    zero = d / "zero.txt"
    zvals = SampledSignal(g, np.zeros(256))
    nio.write_signal(zero, zvals)
    rc, _, err = run_cli("gram", "--signal", d / "f.txt", "--window", zero,
                         "--matrix", d / "m.txt", "--stride", 4,
                         "--out", d / "x.txt")
    assert rc == 4
    assert "ZeroSignal" in err

    # usage errors: the stride rule is the library's, the message names the class
    for stride in (3, 0):
        rc, _, err = run_cli("gram", "--signal", d / "f.txt", "--window", d / "w.txt",
                             "--matrix", d / "m.txt", "--stride", stride,
                             "--out", d / "x.txt")
        assert rc == 2
        assert err.startswith("UsageError: ") and "stride" in err
    assert not (d / "x.txt").exists()

    # a negative seed is the library's verdict on --seed; no report is written
    rc, out, err = run_cli("verify", "--seed", -1, "--out", d / "report.csv")
    assert rc == 2
    assert err.startswith("UsageError: ") and "seed" in err
    assert out == "" and not (d / "report.csv").exists()

    # separable scalars apply to every axis; a list of another length names n
    sig2 = d / "f2.txt"
    nio.write_signal(sig2, synthesize("gaussian", Grid.centered((16, 16), 0.5)))
    sep = d / "sep.txt"
    sep.write_text("n=2; preset=separable; a=1; b=2; c=0; d=1\n")
    rc, _, err = run_cli("transform", "--signal", sig2, "--matrix", sep, "--out", d / "F2.bin")
    assert rc == 0, err
    sep.write_text("n=2; preset=separable; a=1,1,1; b=2,2,2; c=0,0,0; d=1,1,1\n")
    rc, _, err = run_cli("transform", "--signal", sig2, "--matrix", sep, "--out", d / "x.txt")
    assert rc == 3
    assert err.startswith("DimensionError: ") and "n=2" in err

    pts = d / "pts.txt"
    pts.write_text("0.5\n")
    rc, _, err = run_cli("transform", "--signal", d / "f.txt", "--matrix", d / "m.txt",
                         "--wpoints", pts, "--out", d / "x.txt")
    assert rc == 2
    assert err.startswith("UsageError: --wpoints requires --method direct")

    # a spectrum inverts without a window, so gram-only options are refused
    nio.write_spectrum(d / "F.bin", nslct_fast(f, preset("frft", 1, alpha=0.7)))
    for extra in (("--window", d / "w.txt"), ("--denominator", "constant")):
        rc, _, err = run_cli("invert", "--input", d / "F.bin", "--matrix", d / "m.txt",
                             *extra, "--out", d / "x.txt")
        assert rc == 2, extra
        assert err.startswith("UsageError: --window and --denominator apply to gram input only")
    assert not (d / "x.txt").exists()

    rc, _, err = run_cli("invert", "--input", d / "f.txt", "--matrix", d / "m.txt",
                         "--out", d / "x.txt")
    assert rc == 2
    assert err.startswith("UsageError: cannot invert a file of kind 'signal'")

    # the suite list is the library's: run_suite refuses the name, not argparse
    rc, out, err = run_cli("verify", "--suite", "nonsense")
    assert rc == 2
    assert err.startswith("UsageError: unknown suite 'nonsense'") and out == ""

    rc, _, err = run_cli("transform", "--signal", d / "missing.txt",
                         "--matrix", d / "m.txt", "--out", d / "x.txt")
    assert rc == 2


def test_text_readers_refuse_a_binary_file(workdir):
    d, g, f, w = workdir
    spec = d / "F.bin"
    nio.write_spectrum(spec, nslct_fast(f, preset("frft", 1, alpha=0.7)))
    for args in (
        ("transform", "--signal", spec, "--matrix", d / "m.txt"),
        ("transform", "--signal", d / "f.txt", "--matrix", spec),
        ("gram", "--signal", d / "f.txt", "--window", spec, "--matrix", d / "m.txt"),
        ("invert", "--input", spec, "--matrix", d / "m.txt", "--reference", spec),
        ("transform", "--signal", d / "f.txt", "--matrix", d / "m.txt",
         "--method", "direct", "--wpoints", spec),
    ):
        rc, _, err = run_cli(*args, "--out", d / "x.txt")
        assert rc == 2, args
        assert err.startswith("ParseError: "), (args, err)

    # the message names the line of the first byte that is not UTF-8
    bad = d / "bad.txt"
    bad.write_bytes(b"n=1\n# comment\npreset=\xff\n")
    with pytest.raises(nio.ParseError) as exc:
        nio.read_matrix(bad)
    assert exc.value.line == 3


def test_coverage_failure_maps_to_numeric_exit(workdir):
    d, g, f, w = workdir
    narrow = d / "narrow.txt"
    nio.write_signal(narrow, gaussian_1d(g, sigma=0.05))
    run_cli("gram", "--signal", d / "f.txt", "--window", narrow,
            "--matrix", d / "m.txt", "--stride", 32, "--out", d / "V.txt")
    rc, _, err = run_cli("invert", "--input", d / "V.txt",
                         "--matrix", d / "m.txt", "--window", narrow,
                         "--out", d / "x.txt")
    assert rc == 4
    assert "CoverageError" in err


@pytest.mark.parametrize("command", ["transform", "direct", "gram", "invert-spectrum", "invert-gram"])
def test_non_finite_output_maps_to_numeric_exit_and_writes_nothing(tmp_path, command):
    """A finite signal of 1e307 overflows every transform of it, and a finite
    spectrum or gram of 1e307 overflows its inverse: the CLI exits 4 and
    leaves no file, where it used to write one that its own reader refuses."""
    g = Grid.centered(64, 0.1)
    m = preset("frft", 1, alpha=0.7)
    big = np.full(64, 1e307, dtype=complex)
    nio.write_signal(tmp_path / "big.txt", SampledSignal(g, big))
    nio.write_signal(tmp_path / "w.txt", SampledSignal(g, np.ones(64, dtype=complex)))
    nio.write_spectrum(tmp_path / "S.bin", Spectrum(m, big, g))
    nio.write_gram(tmp_path / "V.bin", Gram(m, g, 1, np.full((64, 64), 1e307, dtype=complex)), g, 1, m, "w.txt")
    (tmp_path / "m.txt").write_text("n=1; preset=frft; alpha=0.7\n")
    (tmp_path / "pts.txt").write_text("0.0\n0.5\n")
    signal = ("--signal", tmp_path / "big.txt")
    args = {
        "transform": ("transform", *signal),
        "direct": ("transform", *signal, "--method", "direct", "--wpoints", tmp_path / "pts.txt"),
        "gram": ("gram", *signal, "--window", tmp_path / "w.txt", "--stride", 2),
        "invert-spectrum": ("invert", "--input", tmp_path / "S.bin"),
        "invert-gram": ("invert", "--input", tmp_path / "V.bin", "--window", tmp_path / "w.txt"),
    }[command]
    before = set(os.listdir(tmp_path))
    rc, _, err = run_cli(*args, "--matrix", tmp_path / "m.txt", "--out", tmp_path / "out.bin")
    assert rc == 4, err
    assert len(err.splitlines()) == 1 and err.startswith("NonFiniteOutput: "), err
    assert set(os.listdir(tmp_path)) == before


def test_non_finite_gram_on_threads_prints_one_error_line(tmp_path, monkeypatch, capsys):
    """A 256-point stride-1 gram is two chunks, made on two threads, whose
    overflow warnings np.errstate would not silence: main prints the one
    error line and leaves the warning filters as it found them."""
    g = Grid.centered(256, 0.1)
    nio.write_signal(tmp_path / "big.txt", SampledSignal(g, np.full(256, 1e307, dtype=complex)))
    nio.write_signal(tmp_path / "w.txt", SampledSignal(g, np.ones(256, dtype=complex)))
    (tmp_path / "m.txt").write_text("n=1; preset=frft; alpha=0.7\n")
    assert len(grids._chunks((256,), 256)) == 2
    monkeypatch.setattr(grids, "_WORKERS", 2)
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        filters = list(warnings.filters)
        rc = main(["gram", "--signal", str(tmp_path / "big.txt"), "--window", str(tmp_path / "w.txt"),
                   "--matrix", str(tmp_path / "m.txt"), "--stride", "1", "--out", str(tmp_path / "V.bin")])
        assert warnings.filters == filters
    assert rc == 4 and caught == []
    err = capsys.readouterr().err
    assert len(err.splitlines()) == 1 and err.startswith("NonFiniteOutput: "), err
    assert not (tmp_path / "V.bin").exists()


def test_inprocess_main_matches_subprocess(workdir, capsys):
    d, g, f, w = workdir
    rc = main(["transform", "--signal", str(d / "f.txt"),
               "--matrix", str(d / "m.txt"), "--out", str(d / "F2.txt")])
    assert rc == 0
    spec = nio.read_spectrum(d / "F2.txt")
    want = nslct_fast(f, preset("frft", 1, alpha=0.7))
    assert np.array_equal(spec.values, want.values)


def test_verify_cli_deterministic_and_exit_zero(tmp_path):
    args = ["verify", "--suite", "lieb", "--seed", "2", "--out"]
    rc1, out1, _ = run_cli(*args, tmp_path / "r1.csv")
    rc2, out2, _ = run_cli(*args, tmp_path / "r2.csv")
    assert rc1 == rc2 == 0
    assert read_bytes(tmp_path / "r1.csv") == read_bytes(tmp_path / "r2.csv")
    assert "lieb" in out1


def test_missing_window_for_gram_inversion(workdir):
    d, g, f, w = workdir
    run_cli("gram", "--signal", d / "f.txt", "--window", d / "w.txt",
            "--matrix", d / "m.txt", "--stride", 4, "--out", d / "V.txt")
    rc, _, err = run_cli("invert", "--input", d / "V.txt",
                         "--matrix", d / "m.txt", "--out", d / "x.txt")
    assert rc == 2
    assert err.startswith("UsageError: gram inversion needs --window")
