import ast
import importlib
import pathlib
import subprocess
import sys
import threading

import pytest

import nslct
import nslct.cli
import nslct.io
from nslct import (
    Grid, WindowSpec, grids, moyal, preset, shorttime, stnslct_gram, synthesize, uncertainty, verify,
)
from nslct.cli import main
from nslct.transform import _FastPlan

ROOT = pathlib.Path(__file__).resolve().parents[1]
PERFBENCH = ROOT / "perfbench"

EXPORTS = [
    "BadAlpha", "BadBox", "BadP", "BadParam", "ConcentrationSets",
    "CoverageError", "DimensionError", "FreeSymplecticMatrix",
    "Gram", "Grid", "GridMismatch", "NonFiniteOutput", "NSLCTError", "Record", "SampledSignal",
    "SingularB", "Spectrum", "SUITE_NAMES", "SymplecticViolation", "UPReport",
    "WarpedGrid", "WindowSpec", "ZeroSignal", "boundedness_margin",
    "boundedness_report", "compose",
    "concentration", "dispersion_spatial",
    "frequency_grid", "hausdorff_young_report", "heisenberg_report", "inner",
    "inverse", "kernel_eval", "lieb_report", "log_report", "lp_norm", "moyal",
    "norm_l2", "nslct_direct", "nslct_fast", "nslct_inverse", "output_lattice",
    "pitt_constant", "pitt_report", "preset", "random_free_matrix", "run_suite", "same_matrix",
    "spectrum_as_signal", "stnslct_gram", "stnslct_reconstruct", "synthesize",
    "validate",
]


def test_cli_import_leaves_verify_and_uncertainty_unloaded():
    code = "import sys, nslct.cli; print(*(m for m in sys.modules if m.startswith('nslct.')))"
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, check=True)
    loaded = proc.stdout.split()
    assert "nslct.cli" in loaded and "nslct.io" in loaded
    assert "nslct.verify" not in loaded and "nslct.uncertainty" not in loaded


def test_cli_import_loads_no_thread_pool():
    # concurrent.futures costs 4-5 ms on every CLI job even after numpy; the
    # chunk runner imports queue only when it starts threads
    code = "import sys, nslct.cli; print(*(m in sys.modules for m in ('concurrent.futures', 'queue')))"
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, check=True)
    assert proc.stdout.split() == ["False", "False"]


def test_a_one_chunk_gram_starts_no_thread(monkeypatch):
    """A chunked call starts only the slot threads that are missing, a
    repeated call starts none, and a one-chunk pass runs on the calling
    thread alone."""
    started, ran_on = [], set()
    thread, forward = threading.Thread, _FastPlan.forward_chirped
    monkeypatch.setattr(grids, "_WORKERS", 2)
    monkeypatch.setattr(grids, "_slots", [])  # a process that has started no slot thread yet
    monkeypatch.setattr(threading, "Thread", lambda *a, **k: started.append(1) or thread(*a, **k))
    monkeypatch.setattr(_FastPlan, "forward_chirped",
                        lambda self, rows: ran_on.add(threading.get_ident()) or forward(self, rows))
    g = Grid.centered((256,), (0.1,))
    m = preset("frft", 1, alpha=0.7)
    f = synthesize("noise", g, seed=3)
    # 256 rows, two chunks: both slots start on the first call, none on the
    # second; a `verify` 1-D combo: 64 rows, one chunk, on this thread
    for stride, threads in ((1, 2), (1, 0), (4, 0)):
        started.clear()
        ran_on.clear()
        wspec = WindowSpec(synthesize("gaussian", g, sigma=1.0), stride=stride)
        gram = stnslct_gram(f, wspec, m)
        assert len(started) == threads, stride
        me = threading.get_ident()
        assert ran_on == {me} if stride == 4 else ran_on and me not in ran_on, stride
    # every report on the 64 x 256-cell combo gram sums one block, on this
    # thread, whether the gram is kept or streamed as `verify` does
    needs = []
    for build, kwargs, _, _ in (row for rows in verify._FAMILIES.values() for row in rows):
        uncertainty._on_gram(build, f, wspec, m, gram, **kwargs)
        needs += build(f, wspec, m, **kwargs)[0]
    shorttime._gram_sums(f, wspec, m, needs)
    moyal(gram, stnslct_gram(synthesize("noise", g, seed=4), wspec, m))
    assert started == []


def test_exports_resolve_lazily_to_their_modules():
    assert nslct.__all__ == EXPORTS
    namespace = {}
    exec("from nslct import *", namespace)
    assert set(namespace) - {"__builtins__"} == set(EXPORTS)
    from nslct import BadBox, io, uncertainty  # submodules import as before

    assert BadBox is nslct.errors.BadBox and io is nslct.io
    assert nslct.heisenberg_report is uncertainty.heisenberg_report
    assert "run_suite" in dir(nslct)
    with pytest.raises(AttributeError, match="no_such_name"):
        nslct.no_such_name
    assert not hasattr(nslct, "verify_suite")


def test_every_error_class_is_exported():
    classes = {name for name, obj in vars(nslct.errors).items()
               if isinstance(obj, type) and issubclass(obj, nslct.errors.NSLCTError)}
    assert "NonFiniteOutput" in classes
    assert classes <= set(nslct.__all__)


def test_the_library_imports_no_test_or_benchmark_module():
    """No module of the package imports tests/ or perfbench/, or a module
    that either puts on sys.path (helpers, checks, workloads, ...)."""
    banned = {"tests", "perfbench"} | {p.stem for d in ("tests", "perfbench") for p in (ROOT / d).glob("*.py")}
    sources = sorted((ROOT / "src" / "nslct").glob("*.py"))
    assert len(sources) >= 9 and "helpers" in banned and "workloads" in banned
    for path in sources:
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.Import):
                names = [alias.name for alias in node.names]
            elif isinstance(node, ast.ImportFrom) and node.level == 0:
                names = [node.module]
            else:
                continue
            for name in names:
                assert name.split(".")[0] not in banned, (path.name, name)


def test_cli_verify_calls_the_run_suite_bound_in_the_cli_module(monkeypatch, capsys):
    from nslct.verify import run_suite

    assert nslct.cli.run_suite is run_suite
    calls = []

    def fake(suite, seed):
        calls.append((suite, seed))
        return [], {"lieb": 0.5}

    monkeypatch.setattr(nslct.cli, "run_suite", fake)
    assert main(["verify", "--suite", "lieb", "--seed", "3"]) == 0
    assert calls == [("lieb", 3)]
    assert capsys.readouterr().out == "lieb: 0 records, min relative margin 5.000e-01, ok\n"
    with pytest.raises(AttributeError):
        nslct.cli.no_such_name


def _resolve(name: str):
    """What `from nslct import name` binds: an attribute, else a submodule."""
    try:
        return getattr(nslct, name)
    except AttributeError:
        return importlib.import_module(f"nslct.{name}")


def _assigned(tree: ast.Module, name: str):
    for node in tree.body:
        if isinstance(node, ast.Assign) and any(getattr(t, "id", None) == name for t in node.targets):
            return ast.literal_eval(node.value)
    raise AssertionError(f"{name} is not assigned at module level")


def test_benchmark_reads_only_names_the_package_has():
    """The benchmark's gate runs untraced, so a name read only by its traced
    layer probes would break unseen: every `from nslct import` in its run
    and workload modules, nested ones included, and every nslct.io and
    nslct.cli name its CLI tracer wraps must resolve."""
    trees = {name: ast.parse((PERFBENCH / name).read_text()) for name in ("run.py", "workloads.py")}
    names = {alias.name for tree in trees.values() for node in ast.walk(tree)
             if isinstance(node, ast.ImportFrom) and node.module == "nslct" for alias in node.names}
    assert {"concentration", "cli", "io", "run_suite"} <= names  # nested and submodule imports seen
    for name in sorted(names):
        _resolve(name)
    io_calls, cli_calls = (_assigned(trees["workloads.py"], n) for n in ("IO_CALLS", "CLI_CALLS"))
    assert io_calls and cli_calls
    for mod, calls in ((nslct.io, io_calls), (nslct.cli, cli_calls)):
        for name in calls:
            assert callable(getattr(mod, name)), f"{mod.__name__}.{name}"
