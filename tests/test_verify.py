import json
import pathlib
import subprocess
import sys

import numpy as np
import pytest

import nslct.verify
from nslct import (
    SUITE_NAMES, BadParam, Grid, WindowSpec, grids, preset, random_free_matrix, run_suite, shorttime,
    stnslct_gram, synthesize,
)
from nslct import io as nio
from nslct import transform
from nslct.uncertainty import TOL_INEQUALITY
from nslct.verify import TOL_CROSS, TOL_EQUALITY, TOL_MOYAL, TOL_PARSEVAL

from helpers import host_fingerprint, read_report, report_diff

DATA = pathlib.Path(__file__).parent / "data"

CYCLE = ("fourier", "frft", "fresnel", "separable", "random", "random")
COMBOS = [f"combo=n1-{i:02d}-{CYCLE[i % 6]};n=1" for i in range(20)] + [
    f"combo=n2-{i:02d}-{tag};n=2" for i, tag in enumerate(("fourier", "frft", "fresnel", "random"))
]


def expected_labels() -> dict[str, list[tuple[str, str]]]:
    """(name, params) per suite, in record order, written out by hand."""
    pairs = [("orthogonal-signals", 0), ("orthogonal-windows", 1),
             ("orthogonal-signals", 2), ("orthogonal-windows", 3)]
    per_combo = {
        "heisenberg": [("heisenberg", "")],
        "pitt": [("pitt:equality", ";alpha=0"), ("pitt", ";alpha=0.5")],
        "lieb": [("lieb:equality", ";p=2"), ("lieb", ";p=4")],
        "hy": [("hausdorff-young", ";p=1.0"), ("hausdorff-young", ";p=1.5"),
               ("hausdorff-young:equality", ";p=2.0")],
        "log": [("logarithmic", "")],
    }
    out = {
        "parseval": [("parseval", f"i={i};n={2 if i % 5 == 4 else 1};matrix={CYCLE[i % 6]}")
                     for i in range(20)],
        "moyal": [("moyal-energy", c) for c in COMBOS]
        + [(f"moyal-{label}", f"pair={i}") for label, i in pairs],
        "bounded": [("boundedness", c) for c in COMBOS]
        + [("boundedness:equality", "matched-gaussian")],
    }
    for suite, entries in per_combo.items():
        out[suite] = [(name, c + suffix) for c in COMBOS for name, suffix in entries]
    return out


def test_run_suite_all_pins_record_labels_and_order():
    records, floors = run_suite("all", seed=1)
    want = expected_labels()
    got = [(r.suite, r.name, r.params) for r in records]
    assert got == [(s, name, params) for s in SUITE_NAMES for name, params in want[s]]
    assert {s: sum(r.suite == s for r in records) for s in SUITE_NAMES} == {
        "parseval": 20, "moyal": 28, "bounded": 25, "heisenberg": 24,
        "pitt": 48, "lieb": 48, "hy": 72, "log": 24,
    }
    assert sorted(floors) == sorted(SUITE_NAMES)

    # each record's verdict is the rule its tol names, from its own columns
    for r in records:
        scale = max(abs(r.lhs), abs(r.rhs), 1e-300)
        if r.name.startswith("moyal-orthogonal"):
            assert r.tol == TOL_CROSS and r.margin == TOL_CROSS * r.rhs - r.lhs
            rule = r.lhs <= TOL_CROSS * r.rhs
        elif r.name in ("parseval", "moyal-energy"):
            assert r.tol == (TOL_PARSEVAL if r.suite == "parseval" else TOL_MOYAL)
            assert r.margin == -abs(r.lhs - r.rhs)
            rule = abs(r.lhs - r.rhs) <= r.tol * r.rhs
        elif r.name.endswith(":equality"):
            assert r.tol == TOL_EQUALITY
            rule = abs(r.margin) <= TOL_EQUALITY * scale and r.margin >= -TOL_INEQUALITY * scale
        else:
            assert r.tol == TOL_INEQUALITY
            rule = r.margin >= -TOL_INEQUALITY * scale
        assert r.passed == rule, r


def test_negative_seeds_are_refused_before_any_work(monkeypatch):
    def no_work(*args):
        raise AssertionError("the seed check must come first")

    monkeypatch.setattr(nslct.verify, "_combos", no_work)
    monkeypatch.setattr(nslct.verify, "_suite_parseval", no_work)
    for suite in ("all",) + SUITE_NAMES:
        for seed in (-1, -2, 1.5):
            with pytest.raises(BadParam, match="seed"):
                run_suite(suite, seed=seed)
    for seed in (-1, 1.5):
        with pytest.raises(BadParam, match="seed"):
            synthesize("noise", Grid.centered(16, 0.5), seed=seed)


@pytest.mark.parametrize("seed", [1, 2, 3, 4])
def test_run_suite_matches_its_golden_report(seed, tmp_path):
    """The report of `nslct verify --suite all --seed k --out` against
    tests/data/verify_seed<k>.csv: labels, order and verdicts exactly,
    numbers within 1e-12 of margin_scale, and bytes exactly on a host with
    the numpy version and SIMD features recorded in verify_host.json."""
    golden = (DATA / f"verify_seed{seed}.csv").read_text()
    nio.write_report(str(tmp_path / "report.csv"), *run_suite("all", seed))
    report = (tmp_path / "report.csv").read_text()
    (want, want_floors), (got, got_floors) = read_report(golden), read_report(report)
    assert [(k, ok) for k, (_, ok) in got.items()] == [(k, ok) for k, (_, ok) in want.items()]
    assert list(got_floors) == list(want_floors)
    moved = report_diff(golden, report)["moved"]
    assert all(top <= 1e-12 for _, top in moved.values()), moved
    if host_fingerprint() == json.loads((DATA / "verify_host.json").read_text()):
        assert report == golden, moved


@pytest.mark.parametrize("seed", [1, 2])
def test_all_equals_each_suite_run_alone(seed):
    records, floors = run_suite("all", seed)
    alone = [run_suite(name, seed) for name in SUITE_NAMES]
    assert records == [r for recs, _ in alone for r in recs]
    assert floors == {k: v for _, fl in alone for k, v in fl.items()}


def test_parseval_alone_builds_no_gram(monkeypatch):
    def no_gram(*args):
        raise AssertionError("parseval needs no gram")

    monkeypatch.setattr(nslct.verify, "stnslct_gram", no_gram)
    records, _ = run_suite("parseval", 1)
    assert len(records) == 20 and all(r.suite == "parseval" for r in records)


def test_parseval_keeps_the_fixed_matrices_and_draws_the_random_ones_per_call(monkeypatch):
    """Over two calls the preset cycles (0-3) hand nslct_fast the same
    matrix objects and the random cycles new ones; the records equal those
    of a call that builds every matrix afresh, and the fixed matrices keep
    at most 8 plans on the battery's grids."""
    seen = []
    fast = nslct.verify.nslct_fast
    monkeypatch.setattr(nslct.verify, "nslct_fast", lambda f, m: seen.append(m) or fast(f, m))
    nslct.verify._preset.cache_clear()
    cold = run_suite("parseval", 5)
    runs = [run_suite("parseval", 5), run_suite("parseval", 6)]
    assert runs[0] == cold and runs[1][0] != cold[0]
    calls = [seen[k:k + 20] for k in (0, 20, 40)]
    for i in range(20):
        ms = [call[i] for call in calls]
        if i % 6 < 4:
            assert ms[0] is ms[1] is ms[2]
        else:
            assert len({id(m) for m in ms}) == 3  # all alive in seen, so ids differ
    fixed = {id(nslct.verify._preset(cycle, n)[0]) for cycle in range(4) for n in (1, 2)}
    assert nslct.verify._preset.cache_info().currsize == 8
    plans = [m for g in (nslct.verify._grid1(), nslct.verify._grid2())
             for m in transform._grid_axes(g).plans.keys() if id(m) in fixed]
    assert 0 < len(plans) <= 8


def _bytes(x) -> bytes:
    return np.array(x).tobytes()


def _sum_cases():
    """(f, wspec, m, chunks of the gram's fill), where chunks and blocks differ or not."""
    combos = nslct.verify._combos(1)
    g = Grid.centered((256, 256), 0.1)
    matched = synthesize("gaussian", Grid.centered(256, 0.1), sigma=1.0)
    return [
        (combos[0].f, combos[0].wspec, combos[0].m, 1),  # 1-D 64 x 256: one chunk, one block
        (combos[-1].f, combos[-1].wspec, combos[-1].m, 128),  # 2-D 32^2 x 64^2: chunk = block
        # 2-D 8^2 x 256^2: each chunk one shift, two blocks
        (synthesize("noise", g, seed=5, band=0.4), WindowSpec(synthesize("gaussian", g, sigma=1.3), stride=32),
         random_free_matrix(np.random.default_rng(5), 2), 64),
        (matched, WindowSpec(matched, stride=1), preset("fourier", 1), 2),  # 1-D 256 x 256: two chunks, two blocks
    ]


@pytest.mark.parametrize("workers", [1, 2, 8])
def test_report_sums_keep_the_bytes_of_one_sum_over_the_whole_table(workers, monkeypatch):
    """Every sum that every family row needs, taken in one pass from a gram's
    chunks as they are made and from the kept gram, against the formulas over
    the whole table: cell * np.sum(powers * weight), the powers |V|,
    sq = |V|**2, sq * |V| and sq * sq; and np.max(|V|)."""
    monkeypatch.setattr(grids, "_WORKERS", workers)
    for f, wspec, m, chunks in _sum_cases():
        assert len(shorttime._gram_source(f, wspec, m)[1]) == chunks
        gram = stnslct_gram(f, wspec, m)
        needs = [need for rows in nslct.verify._FAMILIES.values() for build, kwargs, _, _ in rows
                 for need in build(f, wspec, m, **kwargs)[0]]
        assert {p for p, _ in needs} == {np.inf, 2.0, 3.0, 4.0}
        assert sum(w is not None for p, w in needs if p == 2.0) == 3
        streamed = shorttime._gram_sums(f, wspec, m, needs)
        assert _bytes(streamed) == _bytes(grids._table_sums(gram, needs))
        mags = np.abs(gram.values)
        sq = mags**2
        for (p, w), got in zip(needs, streamed):
            if p == np.inf:
                want = float(np.max(mags))
            else:
                powers = {1.0: mags, 2.0: sq, 3.0: sq * mags, 4.0: sq * sq}[p]
                want = float(gram.cell * np.sum(powers if w is None else powers * w))
            assert _bytes(got) == _bytes(want), (chunks, p)
        del gram, mags, sq


def test_run_suite_sum_pass_calls_no_power(monkeypatch):
    """|V|^3 and |V|^4 are products of |V|^2 and |V|, and the Moyal energy is
    the sum of |V|^2, so the pass over the combo grams calls no np.power.
    (The Hausdorff-Young right sides take ||f||_1.5 of the signal outside it.)"""
    in_pass = []
    power, gram_sums = np.power, nslct.verify._gram_sums

    def no_power(*args, **kwargs):
        if in_pass:
            raise AssertionError("np.power in the sum pass")
        return power(*args, **kwargs)

    def watched(*args):
        in_pass.append(True)
        try:
            return gram_sums(*args)
        finally:
            in_pass.pop()

    monkeypatch.setattr(np, "power", no_power)
    monkeypatch.setattr(nslct.verify, "_gram_sums", watched)
    records, _ = run_suite("all", 1)
    assert len(records) == 289 and all(r.passed for r in records)


def test_run_suite_builds_no_combo_gram(monkeypatch):
    combos, grams = [], []
    make_combos, make_gram = nslct.verify._combos, nslct.verify.stnslct_gram
    monkeypatch.setattr(nslct.verify, "_combos", lambda seed: combos.extend(make_combos(seed)) or combos)
    monkeypatch.setattr(nslct.verify, "stnslct_gram",
                        lambda f, wspec, m: grams.append((f, m)) or make_gram(f, wspec, m))
    run_suite("all", 1)
    assert len(combos) == 24
    # only the Moyal cross pairs (two grams each) and the matched Gaussian
    assert len(grams) == 9
    assert not any(f is c.f or m is c.m for f, m in grams for c in combos)


def test_run_suite_records_do_not_depend_on_the_thread_count(monkeypatch):
    runs = []
    for workers in (1, 2):
        monkeypatch.setattr(grids, "_WORKERS", workers)
        runs.append(repr(run_suite("all", 1)))
    assert runs[0] == runs[1]


@pytest.mark.skipif(sys.platform != "linux", reason="reads ru_maxrss in Linux's KiB")
def test_verify_cli_peak_memory_stays_under_100_mb(tmp_path):
    """A held 2-D combo gram with its |V| and |V|^2 tables took the job to
    170 MB; streamed, it stays near the interpreter's own 40-odd MB."""
    code = ("import resource, subprocess, sys; subprocess.run(sys.argv[1:], check=True); "
            "print(resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss, file=sys.stderr)")
    job = [sys.executable, "-m", "nslct.cli", "verify", "--suite", "all", "--seed", "1",
           "--out", str(tmp_path / "report.csv")]
    proc = subprocess.run([sys.executable, "-c", code, *job], capture_output=True, text=True, check=True)
    assert int(proc.stderr.split()[-1]) < 100 * 1024
