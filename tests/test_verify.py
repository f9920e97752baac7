import numpy as np
import pytest

import nslct.verify
from nslct import SUITE_NAMES, BadParam, Grid, grids, run_suite, stnslct_gram, synthesize, uncertainty
from nslct.uncertainty import TOL_INEQUALITY
from nslct.verify import TOL_CROSS, TOL_EQUALITY, TOL_MOYAL, TOL_PARSEVAL

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


def _bytes(x) -> bytes:
    return np.array(x).tobytes()


@pytest.mark.parametrize("workers", [1, 2, 8])
def test_report_sums_keep_the_bytes_of_one_sum_over_the_whole_table(workers, monkeypatch):
    """Every family row's power sums and Moyal pairings against the formulas
    they replaced: cell * np.sum(powers * weight) and
    np.sum(g1.values * np.conj(g2.values)), each over the whole table."""
    monkeypatch.setattr(grids, "_WORKERS", workers)
    sums, pairings = [], []
    power_sum, pairing = grids._power_sum, nslct.verify.moyal

    def recorded_sum(obj, p, weight=None):
        sums.append((obj, p, weight, power_sum(obj, p, weight)))
        return sums[-1][-1]

    def recorded_pairing(g1, g2):
        pairings.append((g1, g2, pairing(g1, g2)))
        return pairings[-1][-1]

    monkeypatch.setattr(grids, "_power_sum", recorded_sum)
    monkeypatch.setattr(uncertainty, "_power_sum", recorded_sum)
    monkeypatch.setattr(nslct.verify, "moyal", recorded_pairing)
    combos = nslct.verify._combos(1)
    for c, blocks in ((combos[0], 1), (combos[-1], 128)):  # 1-D 64 x 256; 2-D 32^2 x 64^2
        gram = stnslct_gram(c.f, c.wspec, c.m)
        assert gram.values.size // min(gram.values.size, grids._CHUNK_POINTS) == blocks
        for report, kwargs, _, _ in (row for rows in nslct.verify._FAMILIES.values() for row in rows):
            report(c.f, c.wspec, c.m, gram=gram, **kwargs)
        assert any(obj is gram and p == 4.0 for obj, p, _, _ in sums)
        assert any(obj is gram and weight is not None for obj, _, weight, _ in sums)
        other = stnslct_gram(nslct.verify._odd_partner(c.f), c.wspec, c.m)
        recorded_pairing(gram, other)
        assert [g1 is gram and g2 is gram for g1, g2, _ in pairings] == [True, False]
        for obj, p, weight, got in sums:
            mags = np.abs(obj.values)
            powers = mags if p == 1.0 else mags**2 if p == 2.0 else mags**p
            want = float(obj.cell * np.sum(powers if weight is None else powers * weight))
            assert _bytes(got) == _bytes(want), (c.params, p)
        for g1, g2, got in pairings:
            want = complex(np.sum(g1.values * np.conj(g2.values)) * g1.cell)
            assert _bytes(got.real) == _bytes(want.real) and _bytes(got.imag) == _bytes(want.imag)
        sums.clear()
        pairings.clear()


def test_run_suite_records_do_not_depend_on_the_thread_count(monkeypatch):
    runs = []
    for workers in (1, 2):
        monkeypatch.setattr(grids, "_WORKERS", workers)
        runs.append(repr(run_suite("all", 1)))
    assert runs[0] == runs[1]
