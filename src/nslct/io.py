"""File formats for matrices, signals, spectra, grams and reports.

Text floats are serialized with Python's shortest round-trip repr (17
significant digits when needed), and binary payloads are the raw bytes of
the values, so write -> read -> write is byte identical.  Writers go
through a temp file in the target directory and a rename, so readers never
observe a half-written file.  Readers refuse non-finite numbers, so the
writers of computed values refuse them too (NonFiniteOutput), before any
file is made.

    matrix    text key=value pairs: n plus either preset=... with its
              parameters, or explicit row-major A=, B=, C=, D= arrays
    signal    text header "kind=signal; n=..; counts=..; spacing=..; origin=.."
              then one "re,im" line per sample, row-major
    spectrum  one header line like signal's (grid fields describe the
              *source* grid) plus matrix=<row-major 2n x 2n> and
              payload=<c16, then the samples over the ascending lattice
              as raw little-endian complex128, row-major
    gram      spectrum's header plus stride= and window=<label>; the
              payload runs over (shift u, frequency w), row-major
    report    CSV with one verification record per line, trailing
              "# floor ..." comment lines carry the per-suite margin floors
"""
from __future__ import annotations

import math
import os

import numpy as np

from .errors import BadParam, NonFiniteOutput, NSLCTError
from .grids import Grid, Gram, SampledSignal, Spectrum, check_gram, shift_lattice
from .symplectic import PRESET_FIELDS, FreeSymplecticMatrix, _split, check_n, preset, validate

# dtype of spectrum and gram payloads, on every host
PAYLOAD = "<c16"


class ParseError(Exception):
    """Malformed input file; carries the offending line number when known."""

    def __init__(self, msg: str, line: int | None = None):
        self.line = line
        super().__init__(f"line {line}: {msg}" if line is not None else msg)


def _fmt(x: float) -> str:
    return repr(float(x))


def _fmt_list(values) -> str:
    return ",".join(_fmt(v) for v in np.asarray(values, dtype=float).ravel())


def _atomic_write(path: str, *parts):
    """Write str (as UTF-8) and bytes-like parts, in order, then rename."""
    directory = os.path.dirname(os.path.abspath(path)) or "."
    tmp = os.path.join(directory, f".tmp-{os.urandom(8).hex()}.part")
    fd = os.open(tmp, os.O_WRONLY | os.O_CREAT | os.O_EXCL, 0o666)  # less the umask, as from open()
    try:
        with os.fdopen(fd, "wb") as fh:
            for part in parts:
                fh.write(part.encode() if isinstance(part, str) else part)
        os.replace(tmp, path)
    except BaseException:
        if os.path.exists(tmp):
            os.unlink(tmp)
        raise


def _finite(values: np.ndarray, kind: str) -> np.ndarray:
    """values, unless they hold a NaN or an infinity, which the readers refuse."""
    if not np.all(np.isfinite(values)):
        raise NonFiniteOutput(f"{kind} holds non-finite values; not written")
    return values


def _parse_pairs(text: str, line_no: int) -> dict[str, str]:
    out = {}
    for chunk in text.split(";"):
        chunk = chunk.strip()
        if not chunk:
            continue
        if "=" not in chunk:
            raise ParseError(f"expected key=value, got {chunk!r}", line_no)
        key, _, val = chunk.partition("=")
        out[key.strip().lower()] = val.strip()
    return out


def _floats(text: str, line_no: int, count: int | None = None) -> np.ndarray:
    try:
        vals = np.array([float(tok) for tok in text.split(",") if tok.strip() != ""])
    except ValueError:
        raise ParseError(f"bad float list {text!r}", line_no) from None
    if count is not None and vals.size != count:
        raise ParseError(f"expected {count} numbers, got {vals.size}", line_no)
    return vals


def _int(fields: dict, key: str, line_no: int) -> int:
    try:
        return int(fields[key])
    except KeyError:
        raise ParseError(f"missing field {key!r}", line_no) from None
    except ValueError:
        raise ParseError(f"field {key!r} is not an integer", line_no) from None


def _lines(path: str) -> list[tuple[int, str]]:
    """Numbered non-blank, non-comment lines of a UTF-8 text file."""
    with open(path, "rb") as fh:
        data = fh.read()
    try:
        raw = data.decode().splitlines()
    except UnicodeDecodeError as exc:
        # "." stands in for the bad byte, so its line is numbered as above
        line = len((data[:exc.start].decode() + ".").splitlines())
        raise ParseError("file is not UTF-8 text", line) from None
    return [(i, ln) for i, ln in enumerate(raw, 1) if (head := ln.lstrip()) and head[0] != "#"]


# ---------------------------------------------------------------------------
# matrices


def read_matrix(path: str) -> FreeSymplecticMatrix:
    """Parse a matrix file; malformed text raises ParseError, constraint
    failures propagate as the usual validation errors."""
    lines = _lines(path)
    if not lines:
        raise ParseError("empty matrix file", 1)
    fields: dict[str, str] = {}
    last_line = lines[0][0]
    for line_no, text in lines:
        last_line = line_no
        fields.update(_parse_pairs(text, line_no))
    n = _int(fields, "n", last_line)
    check_n(n)
    if "preset" in fields:
        kind = fields.pop("preset").lower()
        params = {}
        for key in PRESET_FIELDS.get(kind, ()):  # an unknown kind is preset's to refuse
            if key not in fields:
                raise ParseError(f"{kind} needs field {key!r}", last_line)
            params[key] = _floats(fields[key], last_line, 1 if key == "alpha" else None)
        if kind == "frft":
            params["alpha"] = float(params["alpha"][0])
        if kind == "fresnel":
            vals = params["b"]
            if vals.size not in (1, n * n):
                raise ParseError(f"b needs 1 or {n * n} numbers, got {vals.size}", last_line)
            params["b"] = float(vals[0]) if vals.size == 1 else vals.reshape(n, n)
        return preset(kind, n, **params)
    blocks = []
    for key in ("a", "b", "c", "d"):
        if key not in fields:
            raise ParseError(f"matrix file needs preset= or block {key.upper()}=", last_line)
        blocks.append(_floats(fields[key], last_line, n * n).reshape(n, n))
    return validate(*blocks)


# ---------------------------------------------------------------------------
# grids and value tables


def _grid_header(grid: Grid) -> str:
    return (
        f"n={grid.n}; counts={','.join(str(c) for c in grid.counts)}; "
        f"spacing={_fmt_list(grid.spacing)}; origin={_fmt_list(grid.origin)}"
    )


def _grid_from(fields: dict, line_no: int) -> Grid:
    n = _int(fields, "n", line_no)
    try:
        counts = tuple(int(tok) for tok in fields["counts"].split(","))
    except (KeyError, ValueError):
        raise ParseError("bad or missing counts", line_no) from None
    spacing = tuple(_floats(fields.get("spacing", ""), line_no, n))
    origin = tuple(_floats(fields.get("origin", ""), line_no, n))
    if len(counts) != n:
        raise ParseError(f"counts must list {n} axes", line_no)
    try:
        return Grid(counts, spacing, origin)
    except NSLCTError as exc:
        raise ParseError(str(exc), line_no) from None


def _read_rows(lines, expected: int, columns: int, path_kind: str) -> np.ndarray:
    if len(lines) != expected:
        got_line = lines[-1][0] if lines else 1
        raise ParseError(
            f"{path_kind} needs {expected} sample lines, found {len(lines)}", got_line
        )
    flat = None
    if all(text.count(",") == columns - 1 for _, text in lines):
        try:  # one parse of the whole table; np.array reads each token as float() does
            flat = np.array(",".join(text for _, text in lines).split(","), dtype=float)
        except ValueError:
            pass
    if flat is not None:
        out = flat.reshape(expected, columns)
    else:  # line by line: names the first bad line, and keeps the verdict on "1,2," or "1,,2"
        out = np.empty((expected, columns))
        for row, (line_no, text) in enumerate(lines):
            out[row] = _floats(text, line_no, columns)
    bad = np.flatnonzero(~np.all(np.isfinite(out), axis=1))
    if bad.size:
        raise ParseError(f"{path_kind} holds a non-finite number", lines[bad[0]][0])
    return out


def write_signal(path: str, sig: SampledSignal):
    # tolist() gives Python floats, whose %r is _fmt's repr, in one format call
    parts = _finite(sig.values, "signal").reshape(-1).view(np.float64).tolist()
    _atomic_write(path, f"kind=signal; {_grid_header(sig.grid)}\n", "%r,%r\n" * sig.grid.size % tuple(parts))


def read_signal(path: str) -> SampledSignal:
    lines = _lines(path)
    if not lines:
        raise ParseError("empty signal file", 1)
    head_no, head = lines[0]
    fields = _parse_pairs(head, head_no)
    if fields.get("kind") != "signal":
        raise ParseError("not a signal file (kind=signal missing)", head_no)
    grid = _grid_from(fields, head_no)
    table = _read_rows(lines[1:], grid.size, 2, "signal")
    # write_signal's float view read back; it keeps a -0.0 imaginary part
    return SampledSignal(grid, table.view(np.complex128).reshape(grid.counts))


def _write_binary(path: str, head: str, m: FreeSymplecticMatrix, values: np.ndarray):
    head += f"; matrix={_fmt_list(m.as_matrix())}; payload={PAYLOAD}\n"
    _atomic_write(path, head, np.ascontiguousarray(values, dtype=PAYLOAD))


def _header(head: bytes, what: str) -> dict[str, str]:
    """Fields of a spectrum or gram header: the first line of the file."""
    try:
        return _parse_pairs(head.decode(), 1)
    except UnicodeDecodeError:
        raise ParseError(f"{what} is not text", 1) from None


def read_kind(path: str) -> str:
    """The kind= field of a file's first line; "" when it has none."""
    with open(path, "rb") as fh:
        head = fh.readline()
    if not head:
        raise ParseError("empty file", 1)
    return _header(head, "header").get("kind", "")


def _read_binary(path: str, kind: str) -> tuple[dict, Grid, FreeSymplecticMatrix, bytes]:
    """Header fields, source grid and matrix of a spectrum or gram file,
    plus its undecoded payload."""
    with open(path, "rb") as fh:
        head = fh.readline()
        payload = fh.read()
    fields = _header(head, f"{kind} header")
    if fields.get("kind") != kind:
        raise ParseError(f"not a {kind} file (kind={kind} missing)", 1)
    if fields.get("payload") != PAYLOAD:
        raise ParseError(f"{kind} file has no payload={PAYLOAD} field", 1)
    grid = _grid_from(fields, 1)
    n = grid.n
    full = _floats(fields.get("matrix", ""), 1, 4 * n * n).reshape(2 * n, 2 * n)
    m = validate(*_split(full))
    return fields, grid, m, payload


def _values(payload: bytes, shape: tuple[int, ...], kind: str) -> np.ndarray:
    want = math.prod(shape) * np.dtype(PAYLOAD).itemsize
    if len(payload) != want:
        raise ParseError(f"{kind} payload holds {len(payload)} bytes, expected {want}")
    values = np.frombuffer(payload, dtype=PAYLOAD).reshape(shape)
    if not np.all(np.isfinite(values)):
        raise ParseError(f"{kind} payload holds non-finite values")
    return values


def write_spectrum(path: str, spec: Spectrum):
    head = f"kind=spectrum; {_grid_header(spec.signal_grid)}"
    _write_binary(path, head, spec.matrix, _finite(spec.values, "spectrum"))


def read_spectrum(path: str) -> Spectrum:
    _, grid, m, payload = _read_binary(path, "spectrum")
    return Spectrum(m, _values(payload, grid.counts, "spectrum"), grid)


def write_gram(path: str, gram: Gram, signal_grid: Grid, stride: int,
               m: FreeSymplecticMatrix, window_label: str):
    """Write a gram; the grid, stride and matrix must be the gram's own.

    The window label goes into the one-line `;`-separated header, so it may
    hold no `;` and no line break.
    """
    if any(ch in window_label for ch in ";\n\r"):
        raise BadParam(f"window label {window_label!r} may not contain ';' or a line break")
    check_gram(gram, signal_grid, m, stride)
    head = f"kind=gram; {_grid_header(signal_grid)}; stride={stride}; window={window_label}"
    _write_binary(path, head, gram.matrix, _finite(gram.values, "gram"))


def read_gram(path: str) -> tuple[Gram, str]:
    """The gram in a file and the label of the window it was made with."""
    fields, grid, m, payload = _read_binary(path, "gram")
    stride = _int(fields, "stride", 1)
    try:
        ugrid = shift_lattice(grid, stride)
    except NSLCTError as exc:
        raise ParseError(str(exc), 1) from None
    gram = Gram(m, grid, stride, _values(payload, ugrid.counts + grid.counts, "gram"))
    return gram, fields.get("window", "")


# ---------------------------------------------------------------------------
# point lists and reports


def read_wpoints(path: str, n: int) -> np.ndarray:
    lines = _lines(path)
    if not lines:
        raise ParseError("empty point list", 1)
    return _read_rows(lines, len(lines), n, "point list")


def write_points(path: str, points: np.ndarray, values: np.ndarray, n: int):
    rows = [f"kind=points; n={n}"]
    for pt, v in zip(np.asarray(points).reshape(-1, n), _finite(values, "point list")):
        rows.append(f"{_fmt_list(pt)},{_fmt(v.real)},{_fmt(v.imag)}")
    _atomic_write(path, "\n".join(rows) + "\n")


def write_report(path: str, records, floors: dict[str, float]):
    rows = ["suite,name,params,lhs,rhs,constant,margin,tol,passed"]
    for r in records:
        rows.append(
            f"{r.suite},{r.name},{r.params},{_fmt(r.lhs)},{_fmt(r.rhs)},"
            f"{_fmt(r.constant)},{_fmt(r.margin)},{_fmt(r.tol)},{int(r.passed)}"
        )
    for suite in sorted(floors):
        rows.append(f"# floor suite={suite} min_relative_margin={_fmt(floors[suite])}")
    _atomic_write(path, "\n".join(rows) + "\n")
