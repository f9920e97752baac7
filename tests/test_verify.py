import pytest

import nslct.verify
from nslct import SUITE_NAMES, BadParam, Grid, run_suite, synthesize
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
