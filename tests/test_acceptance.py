"""End-to-end acceptance battery.

Each numbered test prints one `[acceptance NN] ... PASS/FAIL (...)` line with
the measured figure next to its tolerance (run pytest with -s or -rA to see
the lines for passing tests), then asserts.
"""
import math
import subprocess
import sys

import numpy as np
import pytest

from nslct import (
    Grid,
    SampledSignal,
    WindowSpec,
    compose,
    inner,
    lp_norm,
    moyal,
    norm_l2,
    nslct_direct,
    nslct_fast,
    nslct_inverse,
    preset,
    random_free_matrix,
    run_suite,
    spectrum_as_signal,
    stnslct_gram,
    stnslct_reconstruct,
    synthesize,
)
from nslct import io as nio
from nslct.uncertainty import log_report, pitt_constant

from helpers import align_phase, gaussian_1d, grid1, grid2, reference_nslct, reference_stft

TWO_PI = 2.0 * math.pi


def _line(num: int, name: str, ok: bool, detail: str):
    print(f"[acceptance {num:02d}] {name}: {'PASS' if ok else 'FAIL'} ({detail})")
    assert ok, f"acceptance check {num}: {detail}"


def preset_battery(n: int):
    if n == 1:
        return [
            preset("fourier", 1),
            preset("frft", 1, alpha=0.7),
            preset("fresnel", 1, b=1.5),
            preset("separable", 1, a=1.0, b=2.0, c=0.0, d=1.0),
        ]
    return [
        preset("fourier", 2),
        preset("frft", 2, alpha=0.7),
        preset("fresnel", 2, b=1.5),
        preset("separable", 2, a=(1.0, 1.0), b=(2.0, 1.5), c=(0.0, 0.2), d=(1.0, 1.3)),
    ]


def test_01_oracle_equivalence():
    rng = np.random.default_rng(101)
    worst = 0.0
    for n in (1, 2):
        grid = grid1() if n == 1 else grid2()
        signals = [
            synthesize("gaussian", grid, sigma=1.0),
            synthesize("chirp", grid, freq=1.1, rate=0.4),
        ]
        matrices = preset_battery(n) + [random_free_matrix(rng, n) for _ in range(5)]
        for m in matrices:
            for f in signals:
                spec = nslct_fast(f, m)
                pts = spec.wgrid.flat_points()
                vals = spec.values.ravel()
                if n == 2:
                    keep = rng.choice(pts.shape[0], size=512, replace=False)
                    pts, vals = pts[keep], vals[keep]
                direct = nslct_direct(f, m, pts)
                err = np.max(np.abs(direct - vals)) / np.max(np.abs(spec.values))
                worst = max(worst, float(err))
    _line(1, "fast/direct oracle equivalence", worst <= 1e-8,
          f"max rel err {worst:.3e} <= 1e-8")


def test_02_parseval():
    records, floors = run_suite("parseval", seed=1)
    ok = len(records) >= 20 and all(r.passed for r in records)
    _line(2, "Parseval on 20 seeded signals", ok,
          f"{len(records)} records, min margin/scale {floors['parseval']:.3e}, tol 1e-8")


def test_03_inversion():
    rng = np.random.default_rng(103)
    worst_rt, worst_rec = 0.0, 0.0
    for n in (1, 2):
        grid = grid1() if n == 1 else grid2()
        f = synthesize("chirp", grid, freq=0.9, rate=0.35)
        window = synthesize("gaussian", grid, sigma=1.2)
        wspec = WindowSpec(window, stride=1)
        for m in preset_battery(n):
            back = nslct_inverse(nslct_fast(f, m), m)
            rt = norm_l2(SampledSignal(grid, back.values - f.values)) / norm_l2(f)
            worst_rt = max(worst_rt, rt)
            rec = stnslct_reconstruct(stnslct_gram(f, wspec, m), wspec, m)
            rr = norm_l2(SampledSignal(grid, rec.values - f.values)) / norm_l2(f)
            worst_rec = max(worst_rec, rr)
    ok = worst_rt <= 1e-8 and worst_rec <= 1e-3
    _line(3, "inversion round trips", ok,
          f"plain {worst_rt:.3e} <= 1e-8, short-time stride-1 {worst_rec:.3e} <= 1e-3")


def test_04_moyal():
    records, _ = run_suite("moyal", seed=1)
    energy = [r for r in records if "orthogonal" not in r.name]
    cross = [r for r in records if "orthogonal" in r.name]
    worst_energy = max(abs(r.margin) / abs(r.rhs) for r in energy)
    worst_cross = max(abs(r.lhs) / r.rhs for r in cross)
    ok = all(r.passed for r in records) and worst_energy <= 1e-6 and worst_cross <= 1e-8
    _line(4, "Moyal energy and orthogonality", ok,
          f"energy rel {worst_energy:.3e} <= 1e-6, cross {worst_cross:.3e} <= 1e-8")


def test_05_boundedness():
    records, _ = run_suite("bounded", seed=1)
    sup_ok = all(r.passed for r in records)
    g = grid1()
    f = gaussian_1d(g, sigma=1.0)
    wspec = WindowSpec(gaussian_1d(g, sigma=1.0), stride=1)
    m = preset("fourier", 1)
    gram = stnslct_gram(f, wspec, m)
    bound = TWO_PI**-0.5 * norm_l2(f) * math.sqrt(wspec.norm2)
    gap = bound - float(np.max(np.abs(gram.values)))
    ok = sup_ok and 0.0 <= gap / bound + 1e-12 and gap <= 1e-6 * bound
    _line(5, "sup bound with matched equality", ok,
          f"{len(records)} sup checks pass, equality gap {gap:.3e} <= {1e-6 * bound:.1e}")


def test_06_special_case_collapse():
    g = grid1()
    f = synthesize("chirp", g, freq=1.0, rate=0.3)
    window = gaussian_1d(g, sigma=1.4)
    gram = stnslct_gram(f, WindowSpec(window, stride=4), preset("fourier", 1))
    stft = reference_stft(f, window, 4)
    err_stft = float(np.max(np.abs(gram.values - stft)))
    a = nslct_fast(f, preset("frft", 1, alpha=math.pi / 2.0))
    b = nslct_fast(f, preset("fourier", 1))
    err_frft = float(np.max(np.abs(a.values - b.values)))
    ok = err_stft <= 1e-10 and err_frft <= 1e-14
    _line(6, "STFT and quarter-turn collapse", ok,
          f"stft {err_stft:.3e} <= 1e-10, frft(pi/2) {err_frft:.3e} <= 1e-14")


def test_07_composition():
    rng = np.random.default_rng(107)
    g = grid1()
    f = synthesize("gaussian", g, sigma=1.1)
    worst = 0.0
    for k in range(5):
        # inner matrix with diagonal B so the intermediate lattice is uniform
        alpha = 0.4 + 0.35 * k
        inner_m = preset("frft", 1, alpha=alpha)
        outer = random_free_matrix(rng, 1)
        chained = nslct_fast(spectrum_as_signal(nslct_fast(f, inner_m)), outer)
        combined = compose(outer, inner_m)
        pts = chained.wgrid.flat_points()
        want = nslct_direct(f, combined, pts)
        got = align_phase(chained.values.ravel(), want)
        err = float(np.max(np.abs(got - want)) / np.max(np.abs(want)))
        worst = max(worst, err)
    _line(7, "composition up to global phase", worst <= 1e-6,
          f"max rel err {worst:.3e} <= 1e-6 over 5 chained pairs")


def test_08_inequality_suites():
    details = []
    ok = True
    for suite in ("heisenberg", "pitt", "lieb", "hy", "log"):
        records, floors = run_suite(suite, seed=1)
        ok &= len(records) >= 20 and all(r.passed for r in records)
        endpoints = [r for r in records if r.name.endswith(":equality")]
        if suite in ("pitt", "lieb", "hy"):
            ok &= bool(endpoints)
            worst_end = max(
                abs(r.margin) / max(abs(r.rhs), 1e-30) for r in endpoints
            )
            ok &= worst_end <= 1e-6
        details.append(f"{suite}:{len(records)}@{floors[suite]:.1e}")
    _line(8, "inequality suites", ok, "; ".join(details) + "; endpoints <= 1e-6")


def test_09_heisenberg_spot_check():
    g = grid1()
    f = gaussian_1d(g, sigma=1.0)
    wspec = WindowSpec(gaussian_1d(g, sigma=1.0), stride=4)
    m = preset("fourier", 1)
    from nslct import heisenberg_report

    rep = heisenberg_report(f, wspec, m, gram=stnslct_gram(f, wspec, m))
    nphi = math.sqrt(wspec.norm2)
    rhs_exact = nphi / (4.0 * math.pi)
    # independent oracle: direct quadrature of every shifted-window row
    x = g.axis(0)
    wpts = (TWO_PI / (256 * 0.1)) * np.arange(-128, 128)
    blocks = (m.a, m.b, m.c, m.d)
    rows = []
    for i in range(64):
        shift = 4 * i - 128
        shifted = np.roll(wspec.window.values, shift)
        rows.append(reference_nslct(SampledSignal(g, f.values * np.conj(shifted)), blocks, wpts))
    v = np.array(rows)
    wcell = TWO_PI / (256 * 0.1)
    ucell = 0.4
    disp_w = np.sum(np.abs(v) ** 2 * wpts[None, :] ** 2) * wcell * ucell
    disp_x = g.vol * np.sum(x**2 * np.abs(f.values) ** 2)
    lhs_oracle = math.sqrt(disp_w) * math.sqrt(disp_x)
    rel = abs(rep.lhs - lhs_oracle) / lhs_oracle
    ok = rel <= 1e-6 and rep.rhs == pytest.approx(rhs_exact, rel=1e-14)
    _line(9, "Heisenberg quantitative spot check", ok,
          f"lhs vs oracle rel {rel:.3e} <= 1e-6, rhs == ||phi||/(4 pi)")


# 40-digit mpmath values of pi^(1/2) (Gamma((n - 1/2)/4) / Gamma((n + 1/2)/4))^2
# and psi(n/2) - ln pi, the Pitt (alpha = 1/2) and log constants in n = 1, 2
PITT_HALF_REF = {1: 17.904528926373966916, 2: 4.8397057164232750072}
LOG_REF = {1: -3.1082399118708236536, 2: -1.7219455507509330347}


def test_10_special_functions():
    worst = 0.0
    for n in (1, 2):
        g = Grid.centered((8,) * n, 0.5)
        f = synthesize("gaussian", g)
        m = preset("fourier", n)
        wspec = WindowSpec(f, stride=1)
        log_c = log_report(f, wspec, m, gram=stnslct_gram(f, wspec, m)).constant
        for got, want in ((pitt_constant(n, 0.5), PITT_HALF_REF[n]), (log_c, LOG_REF[n])):
            worst = max(worst, abs(got - want) / abs(want))
    _line(10, "special function values", worst <= 1e-15,
          f"pitt alpha=1/2 and log constants, n = 1, 2: worst relative {worst:.2e} <= 1e-15")


def test_11_cli(tmp_path):
    g = grid1()
    f = synthesize("noise", g, seed=11)
    nio.write_signal(tmp_path / "f.txt", f)
    (tmp_path / "m.txt").write_text("n=1; preset=fresnel; b=1.5\n")

    def run(*args):
        proc = subprocess.run(
            [sys.executable, "-m", "nslct.cli", *[str(a) for a in args]],
            capture_output=True, text=True,
        )
        return proc.returncode, proc.stdout, proc.stderr

    checks = []
    # bit-exact round trips through the CLI formats
    rt = nio.read_signal(tmp_path / "f.txt")
    nio.write_signal(tmp_path / "f2.txt", rt)
    checks.append((tmp_path / "f.txt").read_bytes() == (tmp_path / "f2.txt").read_bytes())
    rc, _, _ = run("transform", "--signal", tmp_path / "f.txt",
                   "--matrix", tmp_path / "m.txt", "--out", tmp_path / "F.txt")
    checks.append(rc == 0)
    nio.write_spectrum(tmp_path / "F2.txt", nio.read_spectrum(tmp_path / "F.txt"))
    checks.append((tmp_path / "F.txt").read_bytes() == (tmp_path / "F2.txt").read_bytes())
    # deterministic full verification run, exit 0
    rc1, _, _ = run("verify", "--suite", "all", "--seed", "1", "--out", tmp_path / "r1.csv")
    rc2, _, _ = run("verify", "--suite", "all", "--seed", "1", "--out", tmp_path / "r2.csv")
    checks.append(rc1 == 0 and rc2 == 0)
    checks.append((tmp_path / "r1.csv").read_bytes() == (tmp_path / "r2.csv").read_bytes())
    # documented exit codes
    (tmp_path / "bad.txt").write_text("n=1; preset\n")
    checks.append(run("transform", "--signal", tmp_path / "f.txt",
                      "--matrix", tmp_path / "bad.txt", "--out", tmp_path / "x.txt")[0] == 2)
    (tmp_path / "sing.txt").write_text("n=1; preset=frft; alpha=0.0\n")
    checks.append(run("transform", "--signal", tmp_path / "f.txt",
                      "--matrix", tmp_path / "sing.txt", "--out", tmp_path / "x.txt")[0] == 3)
    nio.write_signal(tmp_path / "zero.txt", SampledSignal(g, np.zeros(256)))
    checks.append(run("gram", "--signal", tmp_path / "f.txt",
                      "--window", tmp_path / "zero.txt",
                      "--matrix", tmp_path / "m.txt", "--stride", "4",
                      "--out", tmp_path / "x.txt")[0] == 4)
    ok = all(checks)
    _line(11, "CLI round trips, determinism, exit codes", ok,
          f"{sum(checks)}/{len(checks)} checks")
