"""The three workloads: inputs, one round of operations, and their checks.

Each workload is a closed loop with one client: an operation is issued
only after the previous one returned and its output was checked.  A round
is a fixed list of operations, so a run attempts whole rounds and its
share of failed operations does not depend on the run length or the seed.

    cli-files     the real CLI as subprocesses over text files
    lib-1d-calls  many small in-process calls on fresh 1-D inputs
    lib-2d-bulk   in-process calls on large 2-D arrays
"""
from __future__ import annotations

import contextlib
import functools
import hashlib
import os
import re
import subprocess
import sys
import time
import traceback
from dataclasses import dataclass, field
from io import StringIO

import numpy as np

import checks
import inputs
import oracle
from inputs import GridSpec
from pace import Pace, StartupPace
from spans import NO_TRACE

from nslct import (
    Grid,
    WindowSpec,
    nslct_direct,
    nslct_fast,
    nslct_inverse,
    run_suite,
    stnslct_gram,
    stnslct_reconstruct,
    synthesize,
    validate,
)
from nslct import cli as ncli
from nslct import errors as nerrors
from nslct import io as nio

JOB_TIMEOUT_S = 170


def grid_of(spec: GridSpec) -> Grid:
    return Grid.centered(spec.counts, spec.spacing)


FFT_CALLS = ("transform.nslct_fast", "transform.nslct_inverse",
             "shorttime.stnslct_gram", "shorttime.stnslct_reconstruct")


def count_fft(tr, span: str, arg, out):
    """FFT points of one call: the larger of its input and output arrays."""
    if span in FFT_CALLS:
        tr.count("transform.fft_points", max(arg.values.size, out.values.size))


def traced_call(tr, span: str, fn, *args, **kwargs):
    """fn inside its span, with the FFT points it transforms counted."""
    with tr.span(span):
        out = fn(*args, **kwargs)
    count_fft(tr, span, args[0], out)
    return out


def run_op(led, tr, kind: str, span: str, fn, *args):
    """One timed operation inside its span; an exception counts as failed.

    The bytes of what the operation returns are added to the ledger."""
    try:
        with tr.span(span):
            out = led.attempt(kind, fn, *args)
    except Exception as exc:  # the loop must go on and count the failure
        led.fail(f"{kind}: {type(exc).__name__}: {exc}")
        return None
    led.out_bytes += nbytes(out)
    count_fft(tr, span, args[0], out)
    return out


def make_signal(tr, grid: Grid, spec: inputs.ChirpSpec):
    with tr.span("grids.synthesize"):
        return synthesize("chirp", grid, **spec.kwargs())


def make_window(tr, grid: Grid, sigma: float):
    with tr.span("grids.synthesize"):
        return synthesize("gaussian", grid, sigma=sigma)


def make_matrix(tr, blocks):
    with tr.span("symplectic.validate"):
        return validate(*blocks)


def check_inputs(led, what, got, gspec: GridSpec, p_mat, q_vec):
    """The synthesized samples equal the closed form the oracle is told."""
    want, scale = inputs.unit_samples(gspec, p_mat, q_vec)
    err = float(np.max(np.abs(np.asarray(got) - want))) / float(np.max(np.abs(want)))
    led.expect(err <= checks.TOL_EXACT, f"{what}: input differs from its closed form by {err:.3e}")
    return scale


def check_suite(led, what, records, first):
    bad = [f"{r.suite}/{r.name}" for r in records if not r.passed]
    led.expect(not bad, f"{what}: failed records {bad[:5]}")
    if first is not None:
        led.expect(records == first, f"{what}: rerun at the same seed gave other records")


@dataclass
class Gaussian:
    """A synthesized input with everything the checks need to know about it."""

    gspec: GridSpec
    signal: object
    closed: tuple  # (P, q, scale) for oracle.gaussian
    weights: np.ndarray  # |transform| on the lattice of its matrix, to pick check points

    @property
    def values(self):
        return self.signal.values


def gaussian_input(led, tr, gspec: GridSpec, spec: inputs.ChirpSpec, blocks, what: str) -> Gaussian:
    """The program's synthesized chirp, checked against its closed form, for
    transforms under the matrix with these blocks."""
    sig = make_signal(tr, grid_of(gspec), spec)
    scale = check_inputs(led, what, sig.values, gspec, spec.p_mat(), spec.q_vec())
    weights = oracle.lattice_magnitude(sig.values, gspec.triple, blocks)
    return Gaussian(gspec, sig, (spec.p_mat(), spec.q_vec(), scale), weights)


def window_input(led, tr, gspec: GridSpec, sigma: float, stride: int, what: str):
    win = make_window(tr, grid_of(gspec), sigma)
    check_inputs(led, what, win.values, gspec, inputs.window_p(sigma, gspec.n), np.zeros(gspec.n))
    return WindowSpec(win, stride=stride)


# ---------------------------------------------------------------------------
# shapes shared by the workloads and the per-layer probes


G256 = GridSpec((256,), (0.1,))
R256 = ((0.8, 1.4), (-1.0, 1.0), (-2.0, 2.0), (-0.5, 0.5))
G2048 = GridSpec((2048,), (0.05,))
R2048 = ((1.5, 3.0), (-5.0, 5.0), (-3.0, 3.0), (-0.5, 0.5))
W2048 = 1.0

G512 = GridSpec((512, 512), (0.05, 0.05))
R512 = ((0.9, 1.4), (-1.0, 1.0), (-3.0, 3.0), (-1.0, 1.0))
G64 = GridSpec((64, 64), (0.35, 0.35))  # the 2-D shape of the verify suite
R64 = ((0.9, 1.3), (-0.8, 0.8), (-1.0, 1.0), (-0.3, 0.3))
W64 = 1.4

G128 = GridSpec((128, 128), (0.2, 0.2))
R128 = ((0.9, 1.4), (-1.0, 1.0), (-1.0, 1.0), (-0.3, 0.3))
G32 = GridSpec((32, 32), (0.4, 0.4))
R32 = ((0.75, 0.9), (-0.3, 0.3), (-0.4, 0.4), (-0.1, 0.1))
W32 = 1.6
T_FINE, T_32 = 18.0, 16.0  # decay gates; 32 points cannot reach exp(-18) on both sides


@dataclass
class GramCase:
    f: Gaussian
    wspec: WindowSpec
    blocks: tuple
    m: object

    @property
    def rows(self) -> int:
        return int(np.prod([c // self.wspec.stride for c in self.f.gspec.counts]))


def verify_shape_case(led, tr, rng) -> GramCase:
    """A 2-D 64^2, stride-2 gram input: the shape that dominates `verify`."""
    blocks, (spec,) = inputs.draw_case(rng, [(G64, T_FINE)], 2, [R64])
    f = gaussian_input(led, tr, G64, spec, blocks, "gram signal 64^2")
    return GramCase(f, window_input(led, tr, G64, W64, 2, "window 64^2"), blocks,
                    make_matrix(tr, blocks))


def do_gram(led, tr, case: GramCase, rng, what: str):
    g = run_op(led, tr, "gram", "shorttime.stnslct_gram", stnslct_gram, case.f.signal, case.wspec, case.m)
    if g is not None:
        checks.check_gram(led, what, g.values, case.f.values, case.wspec.window.values,
                          case.f.gspec.triple, case.wspec.stride, case.blocks, rng)
        rec = run_op(led, tr, "reconstruct", "shorttime.stnslct_reconstruct",
                     stnslct_reconstruct, g, case.wspec, case.m)
        if rec is not None:
            checks.check_roundtrip(led, what + " reconstruction", rec.values, case.f.values)
    return g


def do_pair(led, tr, f: Gaussian, blocks, m, rng, what: str):
    """nslct_fast then nslct_inverse, each checked."""
    spec = run_op(led, tr, "transform", "transform.nslct_fast", nslct_fast, f.signal, m)
    if spec is not None:
        idx = checks.pick(rng, f.weights, checks.POINTS)
        checks.check_spectrum(led, what, spec.values, f.values, f.gspec.triple, blocks, idx, f.closed)
        back = run_op(led, tr, "inverse", "transform.nslct_inverse", nslct_inverse, spec, m)
        if back is not None:
            checks.check_roundtrip(led, what + " inverse", back.values, f.values)


def lattice_of(f: Gaussian, blocks) -> np.ndarray:
    return oracle.lattice_points(f.gspec.counts, f.gspec.spacing, blocks[1])


def do_direct(led, tr, f: Gaussian, blocks, m, sel, rng, what: str):
    """nslct_direct at the lattice points sel (an index into the lattice), checked."""
    wpoints = lattice_of(f, blocks)[sel]
    vals = run_op(led, tr, "direct", "transform.nslct_direct", nslct_direct, f.signal, m, wpoints)
    if vals is not None:
        idx = checks.pick(rng, f.weights[sel], checks.POINTS)
        checks.check_points(led, what, vals[idx], f.values, f.gspec.triple, blocks, wpoints[idx], f.closed)


def do_suite(led, tr, st, suite: str):
    out = run_op(led, tr, "verify", "verify.run_suite", run_suite, suite, st.seed)
    if out is not None:
        check_suite(led, f"run_suite({suite!r})", out[0], st.first_records)
        if st.first_records is None:
            st.first_records = out[0]
        st.records = len(out[0])


# ---------------------------------------------------------------------------
# lib-1d-calls


PAIRS_1D = 64
DIRECTS_1D = 4


@dataclass
class Lib1DState:
    seed: int
    gram: GramCase
    pair_rng: np.random.Generator
    check_rng: np.random.Generator
    first_records: list | None = None
    records: int = 0


class Lib1DCalls:
    """Fresh 1-D 256-point (signal, matrix) pairs, a 2048-point gram, direct sums."""

    name = "lib-1d-calls"
    suite = "parseval"

    def make_pace(self, workdir):
        return Pace()

    def setup(self, seed, workdir, led, tr):
        rng = np.random.default_rng([seed, 1])
        blocks, (spec,) = inputs.draw_case(rng, [(G2048, T_FINE)], 1, [R2048])
        f = gaussian_input(led, tr, G2048, spec, blocks, "gram signal 2048")
        gram = GramCase(f, window_input(led, tr, G2048, W2048, 1, "window 2048"), blocks,
                        make_matrix(tr, blocks))
        st = Lib1DState(seed, gram, np.random.default_rng([seed, 1, 1]),
                        np.random.default_rng([seed, 1, 2]))
        warm = checks.Ledger()
        self.pairs(st, warm, tr, 1, 1)
        do_gram(warm, tr, st.gram, st.check_rng, "warm-up gram 2048")
        do_suite(warm, tr, st, self.suite)
        led.problems.extend(warm.problems)
        return st

    def pairs(self, st, led, tr, count, directs):
        for i in range(count):
            blocks, (spec,) = inputs.draw_case(st.pair_rng, [(G256, T_FINE)], 1, [R256])
            f = gaussian_input(led, tr, G256, spec, blocks, "pair signal 256")
            m = make_matrix(tr, blocks)
            do_pair(led, tr, f, blocks, m, st.check_rng, "fast 256")
            if i < directs:
                do_direct(led, tr, f, blocks, m, slice(None), st.check_rng, "direct 256")

    def run_round(self, st, led, tr):
        self.pairs(st, led, tr, PAIRS_1D, DIRECTS_1D)
        do_gram(led, tr, st.gram, st.check_rng, "gram 2048")
        do_suite(led, tr, st, self.suite)

    def layer_shapes(self, st):
        # pairs are drawn fresh, so the kernel probe borrows the gram's 1-D matrix
        lattice = oracle.lattice_points(G256.counts, G256.spacing, st.gram.blocks[1])
        return {"transform": G256, "gram": st.gram, "kernel": (G256, st.gram.m, lattice[:64]),
                "direct_points": G256.size}


# ---------------------------------------------------------------------------
# lib-2d-bulk


SIGNALS_2D = 4
DIRECT_BLOCK = 32  # the centre 32 x 32 block of the 64^2 lattice


@dataclass
class Lib2DState:
    seed: int
    blocks: tuple
    m: object
    signals: list
    gram: GramCase
    direct_sel: np.ndarray  # flat lattice indices of the centre block
    check_rng: np.random.Generator
    first_records: list | None = None
    records: int = 0


class Lib2DBulk:
    """512^2 transforms under one shared matrix, a 64^2 stride-2 gram, direct sums."""

    name = "lib-2d-bulk"
    suite = "parseval"

    def make_pace(self, workdir):
        return Pace()

    def setup(self, seed, workdir, led, tr):
        rng = np.random.default_rng([seed, 2])
        grids_t = [(G512, T_FINE)] * SIGNALS_2D + [(G64, T_FINE)]
        blocks, specs = inputs.draw_case(rng, grids_t, 2, [R512] * SIGNALS_2D + [R64])
        m = make_matrix(tr, blocks)
        signals = [gaussian_input(led, tr, G512, s, blocks, f"signal 512^2 #{i}")
                   for i, s in enumerate(specs[:-1])]
        f64 = gaussian_input(led, tr, G64, specs[-1], blocks, "gram signal 64^2")
        gram = GramCase(f64, window_input(led, tr, G64, W64, 2, "window 64^2"), blocks, m)
        lo = (64 - DIRECT_BLOCK) // 2
        sel = np.arange(G64.size).reshape(64, 64)[lo:lo + DIRECT_BLOCK, lo:lo + DIRECT_BLOCK].ravel()
        st = Lib2DState(seed, blocks, m, signals, gram, sel, np.random.default_rng([seed, 2, 2]))
        warm = checks.Ledger()
        do_pair(warm, tr, signals[0], blocks, m, st.check_rng, "warm-up fast 512^2")
        do_gram(warm, tr, gram, st.check_rng, "warm-up gram 64^2")
        do_direct(warm, tr, f64, blocks, m, sel, st.check_rng, "warm-up direct 64^2")
        do_suite(warm, tr, st, self.suite)
        led.problems.extend(warm.problems)
        return st

    def run_round(self, st, led, tr):
        for i, f in enumerate(st.signals):
            do_pair(led, tr, f, st.blocks, st.m, st.check_rng, f"fast 512^2 #{i}")
        do_gram(led, tr, st.gram, st.check_rng, "gram 64^2")
        do_direct(led, tr, st.gram.f, st.blocks, st.m, st.direct_sel, st.check_rng, "direct 64^2")
        do_suite(led, tr, st, self.suite)

    def layer_shapes(self, st):
        points = lattice_of(st.gram.f, st.blocks)[st.direct_sel]
        return {"transform": G512, "gram": st.gram, "kernel": (G64, st.m, points[:64]),
                "direct_points": points.shape[0]}


# ---------------------------------------------------------------------------
# cli-files


ERROR_CLASSES = {n for n, o in vars(nerrors).items() if isinstance(o, type)} | {"ParseError"}
SHEAR = np.array([[0.5, 0.2], [0.2, -0.3]])  # the S of the mismatched matrix M (I, 0 : S, I)
G16 = GridSpec((16, 16), (0.5, 0.5))
W16 = 2.0


@dataclass
class CliState:
    seed: int
    workdir: str
    env: dict
    blocks: tuple
    f128: Gaussian
    f32: Gaussian
    w32: WindowSpec
    m: object
    check_rng: np.random.Generator
    inprocess: bool = False
    checked: dict = field(default_factory=dict)  # output name -> sha256 of a checked copy
    reports: list = field(default_factory=list)
    first_records: list | None = None
    records: int = 0

    def path(self, name: str) -> str:
        return os.path.join(self.workdir, name)


def cli_env(src: str) -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = src
    return env


def sha256(path: str) -> str:
    h = hashlib.sha256()
    with open(path, "rb") as fh:
        for block in iter(lambda: fh.read(1 << 20), b""):
            h.update(block)
    return h.hexdigest()


class CliFiles:
    """The CLI over text files: transform, invert, direct, gram, invert, verify."""

    name = "cli-files"
    suite = "all"
    # Each file job runs three times a round: the host's speed drifts within
    # seconds, so each median needs six samples from a run of two rounds.
    FILE_JOBS = ("transform", "inverse", "direct", "gram", "reconstruct")
    JOBS = FILE_JOBS + ("verify",) + FILE_JOBS + FILE_JOBS + ("mismatch",)

    def __init__(self, src: str):
        self.src = src

    def make_pace(self, workdir):
        return StartupPace()

    def setup(self, seed, workdir, led, tr):
        rng = np.random.default_rng([seed, 3])
        blocks, (s128, s32) = inputs.draw_case(rng, [(G128, T_FINE), (G32, T_32)], 2, [R128, R32])
        f128 = gaussian_input(led, tr, G128, s128, blocks, "signal 128^2")
        f32 = gaussian_input(led, tr, G32, s32, blocks, "signal 32^2")
        w32 = window_input(led, tr, G32, W32, 2, "window 32^2")
        m = make_matrix(tr, blocks)
        st = CliState(seed, workdir, cli_env(self.src), blocks, f128, f32, w32, m,
                      np.random.default_rng([seed, 3, 2]))
        self.write_inputs(st)
        self.write_mismatch_inputs(st, tr)
        subprocess.run([sys.executable, "-c", "import nslct.cli"], env=st.env, check=True,
                       timeout=JOB_TIMEOUT_S)
        return st

    def write_inputs(self, st):
        nio.write_signal(st.path("f128.txt"), st.f128.signal)
        nio.write_signal(st.path("f32.txt"), st.f32.signal)
        nio.write_signal(st.path("w32.txt"), st.w32.window)
        with open(st.path("m.txt"), "w") as fh:
            fh.write(inputs.matrix_text(st.blocks))

    def write_mismatch_inputs(self, st, tr):
        """A fixed 16^2 gram made under M0, and M0 (I, 0 : S, I) to invert it with.

        The inputs do not depend on the seed: this operation fails on every
        run for as long as `invert` does not compare the gram's matrix with
        --matrix, so its share of failures is the same in every run.
        """
        blocks = inputs.draw_blocks(np.random.default_rng(0), 2)
        g16 = grid_of(G16)
        f = synthesize("gaussian", g16, sigma=1.0)
        wspec = WindowSpec(synthesize("gaussian", g16, sigma=W16), stride=2)
        m0 = make_matrix(tr, blocks)
        make_matrix(tr, inputs.sheared(blocks, SHEAR))
        nio.write_signal(st.path("w16.txt"), wspec.window)
        nio.write_gram(st.path("g16.txt"), stnslct_gram(f, wspec, m0), g16, 2, m0, "w16.txt")
        with open(st.path("m16s.txt"), "w") as fh:
            fh.write(inputs.matrix_text(inputs.sheared(blocks, SHEAR)))

    def argv(self, st, job: str) -> list[str]:
        p = st.path
        return {
            "transform": ["transform", "--signal", p("f128.txt"), "--matrix", p("m.txt"),
                          "--out", p("F128.txt")],
            "inverse": ["invert", "--input", p("F128.txt"), "--matrix", p("m.txt"),
                        "--reference", p("f128.txt"), "--out", p("back128.txt")],
            "direct": ["transform", "--signal", p("f32.txt"), "--matrix", p("m.txt"),
                       "--method", "direct", "--out", p("D32.txt")],
            "gram": ["gram", "--signal", p("f32.txt"), "--window", p("w32.txt"),
                     "--matrix", p("m.txt"), "--stride", "2", "--out", p("V32.txt")],
            "reconstruct": ["invert", "--input", p("V32.txt"), "--matrix", p("m.txt"),
                            "--window", p("w32.txt"), "--reference", p("f32.txt"),
                            "--out", p("back32.txt")],
            "verify": ["verify", "--seed", str(st.seed), "--out", p("report.csv")],
            "mismatch": ["invert", "--input", p("g16.txt"), "--matrix", p("m16s.txt"),
                         "--window", p("w16.txt"), "--out", p("back16.txt")],
        }[job]

    OUTPUT = {"transform": "F128.txt", "inverse": "back128.txt", "direct": "D32.txt",
              "gram": "V32.txt", "reconstruct": "back32.txt", "verify": "report.csv",
              "mismatch": "back16.txt"}

    def run_round(self, st, led, tr):
        for job in self.JOBS:
            out = st.path(self.OUTPUT[job])
            if os.path.exists(out):
                os.unlink(out)
            if st.inprocess:
                ok, err = self.inprocess_job(st, led, tr, job)
            else:
                ok, err = self.subprocess_job(st, led, job)
            if os.path.exists(out):
                led.out_bytes += os.path.getsize(out)
            if job == "mismatch":
                # succeeds once `invert` refuses the matrix and names the error class
                if ok:
                    led.fail("mismatch: invert accepted a gram made under another matrix")
                elif not re.match(r"^(%s)\b" % "|".join(sorted(ERROR_CLASSES)), err):
                    led.fail(f"mismatch: refused without naming an error class: {err[:200]!r}")
                continue
            if not ok:
                led.fail(f"{job}: {err[:500]}")
                continue
            self.check(st, led, job, out)

    def subprocess_job(self, st, led, job):
        cmd = [sys.executable, "-m", "nslct.cli"] + self.argv(st, job)
        led.attempted += 1
        scale = led.pace.refresh() if led.pace else 1.0
        t0 = time.perf_counter()
        proc = subprocess.run(cmd, env=st.env, capture_output=True, text=True,
                              timeout=JOB_TIMEOUT_S)
        dt = time.perf_counter() - t0
        if led.pace:
            scale = (scale + led.pace.refresh()) / 2.0
        if job != "mismatch" and proc.returncode == 0:
            led.record(job, dt, scale)
        return proc.returncode == 0, proc.stderr

    def inprocess_job(self, st, led, tr, job):
        """The job through `nslct.cli.main` in this process; under a tracer,
        with spans around the calls it makes into the other layers."""
        led.attempted += 1
        err = StringIO()
        spans = contextlib.nullcontext() if tr is NO_TRACE else cli_spans(tr)
        try:
            with spans, contextlib.redirect_stdout(StringIO()), contextlib.redirect_stderr(err):
                with tr.span(f"job.{job}"):
                    code = ncli.main(self.argv(st, job))
        except Exception:  # what an uncaught error would print from a subprocess
            return False, traceback.format_exc()
        return code == 0, err.getvalue()

    # -- checks -------------------------------------------------------------

    def check(self, st, led, job, out):
        if job == "verify":
            self.check_report(st, led, out)
            return
        digest = sha256(out)
        if st.checked.get(job) == digest:
            return  # byte-identical to an output of the same job already checked
        rng = st.check_rng
        if job in ("transform", "direct"):
            f = st.f128 if job == "transform" else st.f32
            spec = nio.read_spectrum(out)
            idx = checks.pick(rng, f.weights, checks.POINTS)
            checks.check_spectrum(led, f"cli {job}", spec.values, f.values, f.gspec.triple,
                                  st.blocks, idx, f.closed)
        elif job == "gram":
            gram, _ = nio.read_gram(out)
            checks.check_gram(led, "cli gram", gram.values, st.f32.values, st.w32.window.values,
                              G32.triple, 2, st.blocks, rng)
        else:
            f = st.f128 if job == "inverse" else st.f32
            checks.check_roundtrip(led, f"cli {job}", nio.read_signal(out).values, f.values)
        st.checked[job] = digest

    def check_report(self, st, led, out):
        with open(out, "rb") as fh:
            data = fh.read()
        rows = [ln.split(",") for ln in data.decode().splitlines() if ln and not ln.startswith("#")]
        led.expect(len(rows) > 1 and rows[0][-1] == "passed", "cli verify: report has no records")
        bad = [r[0] + "/" + r[1] for r in rows[1:] if r[-1] != "1"]
        led.expect(not bad, f"cli verify: failed records {bad[:5]}")
        st.records = len(rows) - 1
        if st.reports:
            led.expect(data == st.reports[0], "cli verify: rerun at the same seed changed the report")
        st.reports.append(data)

    def layer_shapes(self, st):
        lattice = oracle.lattice_points(G32.counts, G32.spacing, st.blocks[1])
        gram = GramCase(st.f32, st.w32, st.blocks, st.m)
        return {"transform": G128, "gram": gram, "kernel": (G32, st.m, lattice[:64]),
                "direct_points": G32.size}


def nbytes(obj) -> int:
    """Bytes of the arrays in a call's arguments or result, from array sizes."""
    if isinstance(obj, tuple):
        return sum(nbytes(o) for o in obj)
    if isinstance(obj, np.ndarray):
        return int(obj.nbytes)
    if isinstance(getattr(obj, "values", None), np.ndarray):
        return int(obj.values.nbytes)
    if hasattr(obj, "as_matrix"):
        return int(obj.as_matrix().nbytes)
    if isinstance(obj, list):  # verify records: five floats each
        return 40 * len(obj)
    return 0


def io_call(tr, name: str, fn, *args, **kwargs):
    """An nslct.io call inside its span, with the bytes it moves counted."""
    with tr.span("io." + name):
        out = fn(*args, **kwargs)
    if name.startswith("read"):
        tr.count("io.bytes_read", nbytes(out))
    else:
        tr.count("io.bytes_written", nbytes(args[1:] + tuple(kwargs.values())))
    return out


IO_CALLS = ("read_signal", "read_matrix", "read_spectrum", "read_gram",
            "write_signal", "write_spectrum", "write_gram", "write_report")
CLI_CALLS = {"nslct_fast": "transform", "nslct_inverse": "transform", "nslct_direct": "transform",
             "stnslct_gram": "shorttime", "stnslct_reconstruct": "shorttime", "run_suite": "verify"}


@contextlib.contextmanager
def cli_spans(tr):
    """Span-recording wrappers around the names `nslct.cli` calls.

    The io functions are wrapped in `nslct.io`, where the CLI looks them up,
    and the transform, shorttime and verify entry points in `nslct.cli`'s
    own namespace; every name is restored when the block ends.
    """
    saved = [(nio, n, getattr(nio, n)) for n in IO_CALLS]
    saved += [(ncli, n, getattr(ncli, n)) for n in CLI_CALLS]
    for n in IO_CALLS:
        setattr(nio, n, functools.partial(io_call, tr, n, getattr(nio, n)))
    for n, layer in CLI_CALLS.items():
        setattr(ncli, n, functools.partial(traced_call, tr, f"{layer}.{n}", getattr(ncli, n)))
    try:
        yield
    finally:
        for mod, n, fn in saved:
            setattr(mod, n, fn)


def make(name: str, src: str):
    if name == "cli-files":
        return CliFiles(src)
    return {"lib-1d-calls": Lib1DCalls, "lib-2d-bulk": Lib2DBulk}[name]()


NAMES = ("cli-files", "lib-1d-calls", "lib-2d-bulk")
