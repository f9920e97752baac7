"""Benchmark for nslct: one workload, one seed, one run.

    python3 perfbench/run.py --workload cli-files --seed 1 --seconds 30 --trace 0

Run from the repository root; the program is imported from ./src and the CLI
runs as `python -m nslct.cli` with that directory on PYTHONPATH.  The run
sets up five times, then issues whole rounds of the workload's operations
until --seconds have passed and at least two rounds are done, checking
every output.

On a shared host the speed of CPU-bound work drifts by up to 1.8x over
seconds to minutes, the memory system drifts on its own, and a whole run can
sit in one state.  So each latency, and setup_s, is the median over the run
of the times scaled by the workload's pace (pace.py): a fixed task timed
next to the operation, which slows in step with it.
The last stdout line is one JSON object with `correct`, `attempted`,
`failed` and `metrics`; the line before it records the environment and,
for every timing, the sample count and quartiles as measured and as paced.

--trace 0 reports the end-to-end metrics.  --trace 1 reports the per-layer
metrics instead: after one warm round it runs pairs of rounds, one untraced
and one with spans around every call into the program, for --seconds, then
the layer probes, and writes the spans to perfbench/.out/.
"""
from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
OUT = os.path.join(HERE, ".out")
SETUP_REPEATS = 5
# Two rounds give every cli-files median six samples and `verify` a same-seed
# rerun to compare bytes with; a lib-workload round takes well under a second.
MIN_ROUNDS = 2
# Both CPUs stay free for the measured process and its children; numpy's
# FFT is single-threaded, these keep any BLAS pool to one thread as well.
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS", "NSLCT_THREADS")


def parse_args(argv):
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return p.parse_args(argv)


def source_digest() -> str:
    h = hashlib.sha256()
    pkg = os.path.join(SRC, "nslct")
    for name in sorted(os.listdir(pkg)):
        if name.endswith(".py"):
            with open(os.path.join(pkg, name), "rb") as fh:
                h.update(name.encode() + b"\0" + fh.read())
    return h.hexdigest()[:16]


def git_sha() -> str | None:
    """HEAD of the checkout when it is a git work tree, read without git."""
    head = os.path.join(ROOT, ".git", "HEAD")
    if not os.path.isfile(head):
        return None
    with open(head) as fh:
        ref = fh.read().strip()
    if not ref.startswith("ref: "):
        return ref
    name = ref[5:]
    path = os.path.join(ROOT, ".git", name)
    if os.path.isfile(path):
        with open(path) as fh:
            return fh.read().strip()
    packed = os.path.join(ROOT, ".git", "packed-refs")
    if os.path.isfile(packed):
        with open(packed) as fh:
            for line in fh:
                if line.rstrip().endswith(" " + name):
                    return line.split()[0]
    return None


def run_rounds(wl, st, led, tr, seconds=None, rounds=None):
    """Whole rounds until `seconds` have passed and at least MIN_ROUNDS are
    done, or exactly `rounds`; (count, wall s)."""
    done = 0
    t0 = time.perf_counter()
    while True:
        if rounds is not None and done >= rounds:
            break
        if rounds is None and done >= MIN_ROUNDS and time.perf_counter() - t0 >= seconds:
            break
        wl.run_round(st, led, tr)
        done += 1
    return done, time.perf_counter() - t0


def peak_rss_mb(children: bool) -> float:
    who = resource.RUSAGE_CHILDREN if children else resource.RUSAGE_SELF
    return resource.getrusage(who).ru_maxrss / 1024.0  # Linux reports KiB


def untraced(wl, args, workdir):
    from checks import Ledger
    from spans import NO_TRACE

    led = Ledger(wl.make_pace(workdir))
    for _ in range(SETUP_REPEATS):
        before = led.pace.refresh()
        t0 = time.perf_counter()
        st = wl.setup(args.seed, workdir, led, NO_TRACE)
        dt = time.perf_counter() - t0
        led.record("setup", dt, (before + led.pace.refresh()) / 2.0)
    rounds, wall = run_rounds(wl, st, led, NO_TRACE, seconds=args.seconds)
    is_cli = wl.name == "cli-files"
    metrics = {}
    for name, kind, scale, unit in (
        ("setup_s", "setup", 1.0, "s"),
        ("transform_ms", "transform", 1e3, "ms"),
        ("inverse_ms", "inverse", 1e3, "ms"),
        ("direct_ms", "direct", 1e3, "ms"),
        ("gram_ms", "gram", 1e3, "ms"),
        ("reconstruct_ms", "reconstruct", 1e3, "ms"),
        ("verify_s", "verify", 1.0, "s"),
    ):
        if kind in led.paced:
            metrics[name] = (statistics.median(led.paced[kind]) * scale, unit)
        else:
            led.expect(False, f"no {kind} operation succeeded")
    metrics["peak_rss_mb"] = (peak_rss_mb(children=is_cli), "MB")
    metrics["file_mb"] = (led.out_bytes / rounds / 1e6, "MB")
    return led, metrics, {
        "rounds": rounds, "wall_s": round(wall, 3),
        "measured": {k: quartiles(v) for k, v in led.samples.items()},
        "paced": {k: quartiles(v) for k, v in led.paced.items()},
        "pace_task": quartiles(led.pace.task_s),
    }


def quartiles(values) -> dict:
    """Sample count, quartiles and mean, in seconds, of one kind of operation."""
    q = statistics.quantiles(values, n=4, method="inclusive") if len(values) > 1 else values * 3
    return {"n": len(values), "q1": q[0], "median": q[1], "q3": q[2], "mean": statistics.fmean(values)}


def layer_probes(wl, st, seed, tr):
    """Per-layer figures the workload's own calls cannot give.

    FFT floors, grid helpers and the kernel on the workload's shapes;
    interpreter start-up; the gram pairings and every uncertainty report on
    one 64^2 stride-2 gram (verify's 2-D shape); on the lib workloads, the
    nslct.io readers and writers at the cli-files sizes.
    """
    import numpy as np

    import checks
    import workloads as W
    from spans import NO_TRACE
    from nslct import (
        boundedness_margin, concentration, frequency_grid, hausdorff_young_report,
        heisenberg_report, kernel_eval, lieb_report, log_report, moyal, pitt_report,
        stnslct_gram,
    )

    shapes = wl.layer_shapes(st)
    led = checks.Ledger()
    rng = np.random.default_rng([seed, 9])

    grid = W.grid_of(shapes["transform"])
    arr = rng.standard_normal(grid.counts) + 0j
    reps = max(3, int(0.3 / max(1e-6, grid.size * 4e-8)))
    for _ in range(min(reps, 200)):
        with tr.span("floor.fftn"):
            np.fft.fftn(arr)
        with tr.span("grids.mesh"):
            grid.mesh()
        with tr.span("grids.frequency_grid"):
            frequency_grid(grid)

    case = shapes["gram"]
    shape = case.f.gspec.counts
    rows = case.rows
    block = rng.standard_normal(shape) + 0j
    for _ in range(3):
        with tr.span("floor.gram_fftn"):
            for _ in range(rows):
                np.fft.fftn(block)
        with tr.span("floor.reconstruct_ifftn"):
            for _ in range(rows):
                np.fft.ifftn(block)

    kgrid, km, kpoints = shapes["kernel"]
    xs = W.oracle.sample_points(*kgrid.triple)
    for _ in range(5):
        with tr.span("transform.kernel_eval"):
            kernel_eval(km, xs[:, None, :], kpoints[None, :, :])

    for _ in range(5):
        with tr.span("cli.startup"):
            subprocess.run([sys.executable, "-c", "import nslct.cli"],
                           env=W.cli_env(SRC), check=True, timeout=W.JOB_TIMEOUT_S)

    vcase = W.verify_shape_case(led, NO_TRACE, rng)
    with tr.span("probe.gram"):
        g = stnslct_gram(vcase.f.signal, vcase.wspec, vcase.m)
    f, ws, m = vcase.f.signal, vcase.wspec, vcase.m
    box = [(-2.0, 2.0), (-2.0, 2.0)]
    calls = (
        ("shorttime.moyal", lambda: moyal(g, g)),
        ("shorttime.boundedness_margin", lambda: boundedness_margin(g, f, ws, m)),
        ("uncertainty.heisenberg_report", lambda: heisenberg_report(f, ws, m, gram=g)),
        ("uncertainty.pitt_report", lambda: pitt_report(f, ws, m, 0.5, gram=g)),
        ("uncertainty.lieb_report", lambda: lieb_report(f, ws, m, 4.0, gram=g)),
        ("uncertainty.hausdorff_young_report", lambda: hausdorff_young_report(f, ws, m, 1.5, gram=g)),
        ("uncertainty.log_report", lambda: log_report(f, ws, m, gram=g)),
        ("uncertainty.concentration", lambda: concentration(f, g, box, box, m)),
    )
    for _ in range(3):
        for name, call in calls:
            with tr.span(name):
                call()

    if wl.name != "cli-files":
        io_probe(wl, seed, tr, led)
    return led


def io_probe(wl, seed, tr, led):
    """One cli-files cycle's worth of nslct.io calls, on cli-files inputs."""
    import checks
    import workloads as W
    from nslct import io as nio
    from nslct import run_suite
    from spans import NO_TRACE

    cli = W.CliFiles(SRC)
    workdir = os.path.join(OUT, f"work-{os.getpid()}", "io")
    os.makedirs(workdir, exist_ok=True)
    cst = cli.setup(seed, workdir, led, NO_TRACE)
    cst.inprocess = True
    jobs = checks.Ledger()  # the probe's jobs are not workload operations
    for job in cli.JOBS:
        if job != "verify":  # its run_suite("all") is not io; write_report follows
            cli.inprocess_job(cst, jobs, _IoOnly(tr), job)
    records, floors = run_suite(wl.suite, seed=seed)
    W.io_call(tr, "write_report", nio.write_report, cst.path("report.csv"), records, floors)


class _IoOnly:
    """Passes on io spans and counts only, so the transforms the io probe
    runs do not mix with the workload's own transform spans."""

    def __init__(self, tr):
        self.tr = tr

    def span(self, name):
        from spans import NO_TRACE
        return self.tr.span(name) if name.startswith("io.") else NO_TRACE.span(name)

    def count(self, name, amount):
        if name.startswith("io."):
            self.tr.count(name, amount)


def traced(wl, args, workdir):
    from checks import Ledger
    from spans import NO_TRACE, Tracer

    tr = Tracer()
    led = Ledger()
    st = wl.setup(args.seed, workdir, led, tr)
    if wl.name == "cli-files":
        st.inprocess = True  # each job through nslct.cli.main, in this process
    # A warm round first, so one-off work (first reads, first checks) is in
    # neither side; then pairs of an untraced and a traced round.
    led_a = Ledger()
    run_rounds(wl, st, led_a, NO_TRACE, rounds=1)
    tr.counts.clear()  # counts are per traced round
    deltas = []
    t0 = time.perf_counter()
    while not deltas or time.perf_counter() - t0 < args.seconds:
        _, wall_a = run_rounds(wl, st, led_a, NO_TRACE, rounds=1)
        _, wall_b = run_rounds(wl, st, led, tr, rounds=1)
        deltas.append(wall_b - wall_a)
    rounds = len(deltas)
    cycle_counts = {k: v // rounds if v % rounds == 0 else v / rounds for k, v in tr.counts.items()}
    probe_led = layer_probes(wl, st, args.seed, tr)
    for part in (led_a, probe_led):
        led.problems.extend(part.problems)
        led.attempted += part.attempted
        led.failed += part.failed
    if wl.name != "cli-files":  # the io probe stands for one cli-files cycle
        for k in ("io.bytes_read", "io.bytes_written"):
            cycle_counts[k] = tr.counts.get(k, 0)

    ms, us = 1e3, 1e6
    med = tr.median
    shapes = wl.layer_shapes(st)
    rows = shapes["gram"].rows
    fast, floor = med("transform.nslct_fast"), med("floor.fftn")
    gram, gfloor = med("shorttime.stnslct_gram"), med("floor.gram_fftn")
    rec, rfloor = med("shorttime.stnslct_reconstruct"), med("floor.reconstruct_ifftn")
    kpoints = shapes["kernel"][2].shape[0]
    direct_points = shapes["direct_points"]
    m = {
        "cli.startup_ms": (med("cli.startup") * ms, "ms"),
        "io.write_spectrum_ms": (med("io.write_spectrum") * ms, "ms"),
        "io.read_spectrum_ms": (med("io.read_spectrum") * ms, "ms"),
        "io.write_gram_ms": (med("io.write_gram") * ms, "ms"),
        "io.read_gram_ms": (med("io.read_gram") * ms, "ms"),
        "io.read_signal_ms": (med("io.read_signal") * ms, "ms"),
        "io.write_signal_ms": (med("io.write_signal") * ms, "ms"),
        "io.read_matrix_ms": (med("io.read_matrix") * ms, "ms"),
        "io.write_report_ms": (med("io.write_report") * ms, "ms"),
        "io.bytes_written": (cycle_counts.get("io.bytes_written", 0), "bytes"),
        "io.bytes_read": (cycle_counts.get("io.bytes_read", 0), "bytes"),
        "symplectic.validate_us": (med("symplectic.validate") * us, "us"),
        "grids.synthesize_ms": (med("grids.synthesize") * ms, "ms"),
        "grids.mesh_us": (med("grids.mesh") * us, "us"),
        "grids.frequency_grid_us": (med("grids.frequency_grid") * us, "us"),
        "transform.fast_ms": (fast * ms, "ms"),
        "transform.inverse_ms": (med("transform.nslct_inverse") * ms, "ms"),
        "transform.fft_floor_ms": (floor * ms, "ms"),
        "transform.fast_over_fft": (fast / floor, "ratio"),
        "transform.fft_points": (cycle_counts.get("transform.fft_points", 0), "count"),
        "transform.direct_us_per_point": (med("transform.nslct_direct") / direct_points * us, "us"),
        "transform.kernel_eval_us_per_point": (med("transform.kernel_eval") / kpoints * us, "us"),
        "shorttime.rows": (rows, "count"),
        "shorttime.gram_row_us": (gram / rows * us, "us"),
        "shorttime.gram_fft_floor_ms": (gfloor * ms, "ms"),
        "shorttime.gram_over_fft": (gram / gfloor, "ratio"),
        "shorttime.reconstruct_row_us": (rec / rows * us, "us"),
        "shorttime.reconstruct_ifft_floor_ms": (rfloor * ms, "ms"),
        "shorttime.reconstruct_over_ifft": (rec / rfloor, "ratio"),
        "shorttime.moyal_ms": (med("shorttime.moyal") * ms, "ms"),
        "shorttime.boundedness_ms": (med("shorttime.boundedness_margin") * ms, "ms"),
        "uncertainty.heisenberg_ms": (med("uncertainty.heisenberg_report") * ms, "ms"),
        "uncertainty.pitt_ms": (med("uncertainty.pitt_report") * ms, "ms"),
        "uncertainty.lieb_ms": (med("uncertainty.lieb_report") * ms, "ms"),
        "uncertainty.hy_ms": (med("uncertainty.hausdorff_young_report") * ms, "ms"),
        "uncertainty.log_ms": (med("uncertainty.log_report") * ms, "ms"),
        "uncertainty.concentration_ms": (med("uncertainty.concentration") * ms, "ms"),
        "verify.run_suite_ms": (med("verify.run_suite") * ms, "ms"),
        "verify.records": (st.records, "count"),
        "trace.overhead_ms": (statistics.median(deltas) * ms, "ms"),
    }
    os.makedirs(OUT, exist_ok=True)
    path = os.path.join(OUT, f"trace-{wl.name}-seed{args.seed}.json")
    tr.dump(path, {"workload": wl.name, "seed": args.seed, "traced_rounds": rounds,
                   "traced_minus_untraced_s": deltas,
                   "counts_per_round": cycle_counts,
                   "note": "io.bytes_* are computed from array sizes, not measured disk traffic"})
    return led, m, {"rounds": rounds, "trace_file": os.path.relpath(path, ROOT)}


def main(argv=None) -> int:
    args = parse_args(argv)
    if args.seed < 0 or args.seconds <= 0:
        print("error: --seed must be >= 0 and --seconds > 0", file=sys.stderr)
        return 2
    if not os.path.isfile(os.path.join(SRC, "nslct", "__init__.py")):
        print(f"error: no nslct package under {SRC}; run from a full checkout", file=sys.stderr)
        return 2
    for var in THREAD_VARS:
        os.environ[var] = "1"
    sys.path.insert(0, SRC)
    import numpy as np
    import nslct

    if not os.path.abspath(nslct.__file__).startswith(SRC + os.sep):
        print(f"error: imported nslct from {nslct.__file__}, not {SRC}", file=sys.stderr)
        return 2
    import workloads

    if args.workload not in workloads.NAMES:
        print(f"error: unknown workload {args.workload!r}; one of {workloads.NAMES}", file=sys.stderr)
        return 2
    wl = workloads.make(args.workload, SRC)
    workdir = os.path.join(OUT, f"work-{os.getpid()}")
    os.makedirs(workdir, exist_ok=True)
    try:
        led, metrics, extra = (traced if args.trace else untraced)(wl, args, workdir)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    info = {
        "workload": wl.name, "seed": args.seed, "seconds": args.seconds, "trace": args.trace,
        "numpy": np.__version__, "python": platform.python_version(), "cpus": os.cpu_count(),
        "threads": {v: os.environ[v] for v in THREAD_VARS}, "git_sha": git_sha(),
        "src_sha256": source_digest(), **extra,
    }
    print(json.dumps({"info": info}))
    for problem in led.problems[:20]:
        print(f"problem: {problem}", file=sys.stderr)
    print(json.dumps({
        "correct": led.correct,
        "attempted": led.attempted,
        "failed": led.failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
