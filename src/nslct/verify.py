"""Seeded verification battery for the identities and inequality families.

Each suite produces flat records (both sides, constant, margin, tolerance,
pass flag) so a run can be serialized, diffed and re-run bit-identically
from the same seed.  The battery's two grids (_grid1, _grid2) and its
fixed matrices (_preset) are built once per process, so the matrices'
plans are kept from call to call; every seeded input is drawn per call,
in one rng order.  Each (signal, window, matrix)
combination's reports are finished from sums that one pass takes from the
combination's gram chunk by chunk, as the chunks are made, for every
wanted suite at once, so a run never holds a combination gram.
"""
from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache, partial

import numpy as np

from .errors import BadParam
from .grids import Grid, SampledSignal, check_seed, lp_norm, norm_l2, synthesize
from .shorttime import WindowSpec, _gram_sums, moyal, stnslct_gram
from .symplectic import (
    FreeSymplecticMatrix,
    fourier,
    frft,
    fresnel,
    random_free_matrix,
    separable,
)
from .transform import nslct_fast
from .uncertainty import (
    TOL_INEQUALITY,
    UPReport,
    _boundedness,
    _hausdorff_young,
    _heisenberg,
    _lieb,
    _log,
    _pitt,
    boundedness_report,
    margin_scale,
)

SUITE_NAMES = ("parseval", "moyal", "bounded", "heisenberg", "pitt", "lieb", "hy", "log")

TOL_EQUALITY = 1e-6    # |margin| <= tol * |rhs| at equality endpoints
TOL_PARSEVAL = 1e-8
TOL_MOYAL = 1e-6
TOL_CROSS = 1e-8


@dataclass(frozen=True)
class Record:
    suite: str
    name: str
    params: str
    lhs: float
    rhs: float
    constant: float
    margin: float
    tol: float
    passed: bool


def _ineq(suite: str, rep: UPReport, params: str) -> Record:
    return Record(suite, rep.name, params, rep.lhs, rep.rhs, rep.constant,
                  rep.margin, TOL_INEQUALITY, rep.passed())


def _equality(suite: str, rep: UPReport, params: str) -> Record:
    ok = abs(rep.margin) <= TOL_EQUALITY * margin_scale(rep.lhs, rep.rhs) and rep.passed()
    return Record(suite, rep.name + ":equality", params, rep.lhs, rep.rhs,
                  rep.constant, rep.margin, TOL_EQUALITY, ok)


def _identity_report(name: str, lhs: float, rhs: float) -> UPReport:
    """An identity lhs = rhs as a report: constant 1, margin -|lhs - rhs|."""
    return UPReport(name, lhs, rhs, 1.0, -abs(lhs - rhs))


def _identity(suite: str, rep: UPReport, params: str, tol: float) -> Record:
    """An identity report, passing when |lhs - rhs| <= tol * rhs."""
    return Record(suite, rep.name, params, rep.lhs, rep.rhs, rep.constant,
                  rep.margin, tol, -rep.margin <= tol * rep.rhs)


@dataclass(frozen=True, eq=False)
class _Combo:
    """One (signal, window, matrix) instance; its gram is built when visited."""

    params: str
    f: SampledSignal
    wspec: WindowSpec
    m: FreeSymplecticMatrix


@lru_cache(maxsize=None)
def _grid1() -> Grid:
    return Grid.centered(256, 0.1)


@lru_cache(maxsize=None)
def _grid2() -> Grid:
    return Grid.centered((64, 64), 0.35)


def _signal(i: int, grid: Grid, rng: np.random.Generator) -> SampledSignal:
    kind = i % 3
    if kind == 0:
        return synthesize(
            "gaussian", grid,
            sigma=rng.uniform(0.8, 1.4, size=grid.n),
            center=rng.uniform(-1.2, 1.2, size=grid.n),
        )
    if kind == 1:
        return synthesize(
            "chirp", grid,
            freq=rng.uniform(-2.5, 2.5, size=grid.n),
            rate=rng.uniform(-0.7, 0.7, size=grid.n),
            sigma=rng.uniform(1.0, 1.7),
        )
    return synthesize("noise", grid, seed=int(rng.integers(1 << 30)), band=0.4)


@lru_cache(maxsize=None)
def _preset(cycle: int, n: int) -> tuple[FreeSymplecticMatrix, str]:
    """The fixed matrix of cycle 0-3 in n dimensions, and its tag: built
    once per process, so that every later call reuses its plans on the
    battery's grids (transform._plan keys them by matrix object).  At most
    8 matrices, and their plans on the 256-point and 64^2 grids, about
    0.6 MB in all."""
    if cycle == 0:
        return fourier(n), "fourier"
    if cycle == 1:
        return frft(0.7 if n == 1 else 0.9, n), "frft"
    if cycle == 2:
        if n == 1:
            return fresnel(1.5), "fresnel"
        return fresnel(np.array([[1.2, 0.2], [0.2, 0.9]])), "fresnel"
    if n == 1:
        return separable(1.0, 2.0, 0.0, 1.0), "separable"
    return separable((1.0, 0.8), (2.0, 1.2), (0.0, 0.3), (1.0, (1.0 + 1.2 * 0.3) / 0.8)), "separable"


def _matrix(i: int, n: int, rng: np.random.Generator):
    """Cycle i % 6 of the battery's matrices: the fixed presets (_preset),
    then two seeded random draws, which alone read rng."""
    cycle = i % 6
    if cycle < 4:
        return _preset(cycle, n)
    return random_free_matrix(rng, n), "random"


def _combos(seed: int) -> list[_Combo]:
    """Every combo's inputs, drawn in one rng order; building a gram draws none."""
    rng = np.random.default_rng(seed)
    combos = []
    for i in range(20):
        grid = _grid1()
        f = _signal(i, grid, rng)
        m, tag = _matrix(i, 1, rng)
        sigma_w = 1.0 if i % 2 == 0 else 1.5
        wspec = WindowSpec(synthesize("gaussian", grid, sigma=sigma_w), stride=4)
        combos.append(_Combo(f"combo=n1-{i:02d}-{tag};n=1", f, wspec, m))
    for i in range(4):
        grid = _grid2()
        f = _signal(i, grid, rng)
        m, tag = _matrix(i if i < 3 else 4, 2, rng)
        wspec = WindowSpec(synthesize("gaussian", grid, sigma=1.4), stride=2)
        combos.append(_Combo(f"combo=n2-{i:02d}-{tag};n=2", f, wspec, m))
    return combos


def _odd_partner(f: SampledSignal) -> SampledSignal:
    """Multiply by the first coordinate: flips parity, stays enveloped."""
    vals = f.values * f.grid.mesh()[0]
    sig = SampledSignal(f.grid, vals)
    return SampledSignal(f.grid, vals / norm_l2(sig))


def _suite_parseval(seed: int) -> list[Record]:
    rng = np.random.default_rng(seed + 1)
    out = []
    for i in range(20):
        n = 2 if i % 5 == 4 else 1
        grid = _grid1() if n == 1 else _grid2()
        f = _signal(i, grid, rng)
        m, tag = _matrix(i, n, rng)
        rep = _identity_report("parseval", lp_norm(nslct_fast(f, m), 2), norm_l2(f))
        out.append(_identity("parseval", rep, f"i={i};n={n};matrix={tag}", TOL_PARSEVAL))
    return out


def _moyal_energy(f: SampledSignal, wspec: WindowSpec, m: FreeSymplecticMatrix):
    """Moyal's formula on the diagonal: <gram, gram> = ||f||^2 ||phi||^2, as a
    report build (uncertainty._on_gram).  The pairing of a gram with itself
    is its energy, the sum of |V|^2 that other reports need too."""
    rhs = norm_l2(f) ** 2 * wspec.norm2
    return [(2.0, None)], lambda energy: _identity_report("moyal-energy", energy, rhs)


def _moyal_pairs(seed: int) -> list[Record]:
    """Cross pairings of orthogonal signals or windows, which must vanish."""
    grid = _grid1()
    even = synthesize("gaussian", grid, sigma=1.0)
    odd = _odd_partner(even)
    window = WindowSpec(synthesize("gaussian", grid, sigma=1.2), stride=2)
    rng = np.random.default_rng(seed + 2)
    out = []
    for i, m in enumerate([_preset(cycle, 1)[0] for cycle in range(3)] + [random_free_matrix(rng, 1)]):
        g1 = stnslct_gram(even, window, m)
        if i % 2 == 0:
            g2 = stnslct_gram(odd, window, m)
            label = "orthogonal-signals"
        else:
            g2 = stnslct_gram(even, WindowSpec(_odd_partner(window.window), stride=2), m)
            label = "orthogonal-windows"
        lhs = abs(moyal(g1, g2))
        rhs = lp_norm(g1, 2) * lp_norm(g2, 2)
        ok = lhs <= TOL_CROSS * rhs
        out.append(Record("moyal", f"moyal-{label}", f"pair={i}", lhs, rhs, 1.0,
                          TOL_CROSS * rhs - lhs, TOL_CROSS, ok))
    return out


def _matched_gaussian() -> list[Record]:
    """Matched Gaussians meet the bound at (w, u) = (0, 0) under the plain
    Fourier matrix; the sup then sits on the bound itself."""
    f = synthesize("gaussian", _grid1(), sigma=1.0)
    wspec, m = WindowSpec(f, stride=1), _preset(0, 1)[0]
    rep = boundedness_report(f, wspec, m, stnslct_gram(f, wspec, m))
    return [_equality("bounded", rep, "matched-gaussian")]


# per combo suite: (report build, keyword arguments, params suffix, record
# rule), applied in this order to each combo's gram (uncertainty._on_gram);
# the suffixes are written out because reports carry them verbatim
_FAMILIES = {
    "moyal": ((_moyal_energy, {}, "", partial(_identity, tol=TOL_MOYAL)),),
    "bounded": ((_boundedness, {}, "", _ineq),),
    "heisenberg": ((_heisenberg, {}, "", _ineq),),
    "pitt": (
        (_pitt, {"alpha": 0.0}, ";alpha=0", _equality),
        (_pitt, {"alpha": 0.5}, ";alpha=0.5", _ineq),
    ),
    "lieb": (
        (_lieb, {"p": 2.0}, ";p=2", _equality),
        (_lieb, {"p": 4.0}, ";p=4", _ineq),
    ),
    "hy": (
        (_hausdorff_young, {"p": 1.0}, ";p=1.0", _ineq),
        (_hausdorff_young, {"p": 1.5}, ";p=1.5", _ineq),
        (_hausdorff_young, {"p": 2.0}, ";p=2.0", _equality),
    ),
    "log": ((_log, {}, "", _ineq),),
}


def run_suite(suite: str, seed: int = 1) -> tuple[list[Record], dict[str, float]]:
    """Run one suite (or "all"); returns records and per-suite margin floors.

    Each combo is visited once: one pass takes every sum that the reports
    of the wanted suites need from the combo's gram chunks as they are made
    (shorttime._gram_sums), so the gram is never held, and each report is
    finished from its sums.  The floors are min(margin / scale) across a
    suite's records: the empirical slack the printed constants leave on
    this seeded family.
    """
    wanted = SUITE_NAMES if suite == "all" else (suite,)
    for name in wanted:
        if name not in SUITE_NAMES:
            raise BadParam(f"unknown suite {name!r}")
    seed = check_seed(seed)

    on_combos = [name for name in wanted if name != "parseval"]
    by_suite: dict[str, list[Record]] = {name: [] for name in wanted}
    if "parseval" in wanted:
        by_suite["parseval"] = _suite_parseval(seed)
    for c in _combos(seed) if on_combos else ():
        rows = [(name, rule, c.params + suffix, *build(c.f, c.wspec, c.m, **kwargs))
                for name in on_combos for build, kwargs, suffix, rule in _FAMILIES[name]]
        sums = iter(_gram_sums(c.f, c.wspec, c.m, [n for *_, needs, _ in rows for n in needs]))
        for name, rule, params, needs, finish in rows:
            by_suite[name].append(rule(name, finish(*[next(sums) for _ in needs]), params))
    if "moyal" in wanted:
        by_suite["moyal"].extend(_moyal_pairs(seed))
    if "bounded" in wanted:
        by_suite["bounded"].extend(_matched_gaussian())
    records = [rec for name in wanted for rec in by_suite[name]]

    floors: dict[str, float] = {}
    for rec in records:
        rel = rec.margin / margin_scale(rec.lhs, rec.rhs)
        if rec.suite not in floors or rel < floors[rec.suite]:
            floors[rec.suite] = rel
    return records, floors
