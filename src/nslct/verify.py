"""Seeded verification battery for the identities and inequality families.

Each suite produces flat records (both sides, constant, margin, tolerance,
pass flag) so a run can be serialized, diffed and re-run bit-identically
from the same seed.  Each (signal, window, matrix) combination's gram is
built once, shared by every wanted suite, and dropped before the next one,
so a run holds one combination gram at a time.
"""
from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import BadParam
from .grids import Grid, Gram, SampledSignal, check_seed, lp_norm, norm_l2, synthesize
from .shorttime import WindowSpec, _bound_and_sup, moyal, stnslct_gram
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
    hausdorff_young_report,
    heisenberg_report,
    lieb_report,
    log_report,
    margin_scale,
    pitt_report,
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


def _identity(suite: str, name: str, params: str, lhs: float, rhs: float, tol: float) -> Record:
    """An identity lhs = rhs: margin -|lhs - rhs|, passing within tol * rhs."""
    gap = abs(lhs - rhs)
    return Record(suite, name, params, lhs, rhs, 1.0, -gap, tol, gap <= tol * rhs)


@dataclass(frozen=True, eq=False)
class _Combo:
    """One (signal, window, matrix) instance; its gram is built when visited."""

    params: str
    f: SampledSignal
    wspec: WindowSpec
    m: FreeSymplecticMatrix


def _grid1() -> Grid:
    return Grid.centered(256, 0.1)


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


def _matrix(i: int, n: int, rng: np.random.Generator):
    cycle = i % 6
    if cycle == 0:
        return fourier(n), "fourier"
    if cycle == 1:
        return frft(0.7 if n == 1 else 0.9, n), "frft"
    if cycle == 2:
        if n == 1:
            return fresnel(1.5), "fresnel"
        return fresnel(np.array([[1.2, 0.2], [0.2, 0.9]])), "fresnel"
    if cycle == 3:
        if n == 1:
            return separable(1.0, 2.0, 0.0, 1.0), "separable"
        return separable((1.0, 0.8), (2.0, 1.2), (0.0, 0.3), (1.0, (1.0 + 1.2 * 0.3) / 0.8)), "separable"
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
        out.append(_identity("parseval", "parseval", f"i={i};n={n};matrix={tag}",
                             lp_norm(nslct_fast(f, m), 2), norm_l2(f), TOL_PARSEVAL))
    return out


def _moyal_energy(c: _Combo, gram: Gram) -> Record:
    return _identity("moyal", "moyal-energy", c.params, moyal(gram, gram).real,
                     norm_l2(c.f) ** 2 * c.wspec.norm2, TOL_MOYAL)


def _moyal_pairs(seed: int) -> list[Record]:
    """Cross pairings of orthogonal signals or windows, which must vanish."""
    grid = _grid1()
    even = synthesize("gaussian", grid, sigma=1.0)
    odd = _odd_partner(even)
    window = WindowSpec(synthesize("gaussian", grid, sigma=1.2), stride=2)
    rng = np.random.default_rng(seed + 2)
    out = []
    for i, m in enumerate((fourier(1), frft(0.7), fresnel(1.5), random_free_matrix(rng, 1))):
        if i % 2 == 0:
            g1 = stnslct_gram(even, window, m)
            g2 = stnslct_gram(odd, window, m)
            label = "orthogonal-signals"
        else:
            wodd = WindowSpec(_odd_partner(window.window), stride=2)
            g1 = stnslct_gram(even, window, m)
            g2 = stnslct_gram(even, wodd, m)
            label = "orthogonal-windows"
        lhs = abs(moyal(g1, g2))
        rhs = lp_norm(g1, 2) * lp_norm(g2, 2)
        ok = lhs <= TOL_CROSS * rhs
        out.append(Record("moyal", f"moyal-{label}", f"pair={i}", lhs, rhs, 1.0,
                          TOL_CROSS * rhs - lhs, TOL_CROSS, ok))
    return out


def _boundedness(c: _Combo, gram: Gram) -> UPReport:
    """sup |gram| against the bound of boundedness_margin, one pass over the gram."""
    bound, sup = _bound_and_sup(gram, c.f, c.wspec, c.m)
    margin = bound - sup
    return UPReport("boundedness", sup, sup + margin, (2.0 * math.pi) ** (-c.m.n / 2.0), margin)


def _matched_gaussian() -> list[Record]:
    """Matched Gaussians meet the bound at (w, u) = (0, 0) under the plain
    Fourier matrix; the sup then sits on the bound itself."""
    f = synthesize("gaussian", _grid1(), sigma=1.0)
    c = _Combo("matched-gaussian", f, WindowSpec(f, stride=1), fourier(1))
    rep = _boundedness(c, stnslct_gram(c.f, c.wspec, c.m))
    return [_equality("bounded", rep, c.params)]


# per inequality family: (report, keyword arguments, params suffix, record
# rule), applied in this order to each combo's shared gram; the suffixes are
# written out because reports carry them verbatim
_FAMILIES = {
    "heisenberg": ((heisenberg_report, {}, "", _ineq),),
    "pitt": (
        (pitt_report, {"alpha": 0.0}, ";alpha=0", _equality),
        (pitt_report, {"alpha": 0.5}, ";alpha=0.5", _ineq),
    ),
    "lieb": (
        (lieb_report, {"p": 2.0}, ";p=2", _equality),
        (lieb_report, {"p": 4.0}, ";p=4", _ineq),
    ),
    "hy": (
        (hausdorff_young_report, {"p": 1.0}, ";p=1.0", _ineq),
        (hausdorff_young_report, {"p": 1.5}, ";p=1.5", _ineq),
        (hausdorff_young_report, {"p": 2.0}, ";p=2.0", _equality),
    ),
    "log": ((log_report, {}, "", _ineq),),
}


def _on_combo(name: str, c: _Combo, gram: Gram) -> list[Record]:
    """One suite's records on one combo and its gram."""
    if name == "moyal":
        return [_moyal_energy(c, gram)]
    if name == "bounded":
        return [_ineq("bounded", _boundedness(c, gram), c.params)]
    return [rule(name, report(c.f, c.wspec, c.m, gram=gram, **kwargs), c.params + suffix)
            for report, kwargs, suffix, rule in _FAMILIES[name]]


def run_suite(suite: str, seed: int = 1) -> tuple[list[Record], dict[str, float]]:
    """Run one suite (or "all"); returns records and per-suite margin floors.

    Each combo is visited once: its gram is built, every wanted suite takes
    its records from it, and it is dropped before the next one is built.
    The floors are min(margin / scale) across a suite's records: the
    empirical slack the printed constants leave on this seeded family.
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
        gram = stnslct_gram(c.f, c.wspec, c.m)
        for name in on_combos:
            by_suite[name].extend(_on_combo(name, c, gram))
        del gram  # freed before the next combo's gram is built
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
