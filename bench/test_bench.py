"""Self-tests of the benchmark itself.

    python3 -m pytest -q bench/test_bench.py
"""

import copy
import json
import shutil
import subprocess
import sys
import threading
from pathlib import Path

import pytest

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
sys.path[:0] = [str(ROOT / "src"), str(BENCH_DIR)]

import icaprobe  # noqa: E402
import run  # noqa: E402
import tracer  # noqa: E402
from tracer import LAYER_METRICS, Span, Tracer  # noqa: E402
from workloads import WORKLOADS, Figures, Tally  # noqa: E402

REFS = json.loads((BENCH_DIR / "references.json").read_text(encoding="utf-8"))


def _bindings():
    """Every module global of the icaprobe package, by (module, name)."""
    return {
        (name, attr): value
        for name, module in list(sys.modules.items())
        if name == "icaprobe" or name.startswith("icaprobe.")
        for attr, value in vars(module).items()
    }


def _wrapped(bindings):
    return sorted(key for key, v in bindings.items() if hasattr(v, "__bench_original__"))


@pytest.fixture
def quick(monkeypatch):
    monkeypatch.setattr(run, "SETUP_REPEATS", 1)


def test_names_match_benchmark_json():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    assert [w["name"] for w in spec["workloads"]] == list(WORKLOADS)
    assert [(m["name"], m["unit"]) for m in spec["end_to_end"]] == list(run.END_TO_END)
    assert [(m["name"], m["unit"]) for m in spec["per_layer"]] == [m[:2] for m in LAYER_METRICS]
    assert spec["command"][1:] == [str(Path(run.__file__).relative_to(ROOT))]


def test_tracer_rebinds_every_copy_and_restores_them():
    before = _bindings()
    whiten_module = sys.modules["icaprobe.whiten"]
    with Tracer() as t:
        assert t.bindings > len(tracer.TARGETS)
        for holder in (icaprobe, icaprobe.maxent, icaprobe.projsearch, icaprobe.cli):
            assert hasattr(holder.solve_f0, "__bench_original__")
        for holder in (icaprobe, whiten_module, icaprobe.cli, icaprobe.datagen):
            assert hasattr(holder.whiten, "__bench_original__")
    assert _bindings() == before
    assert _wrapped(before) == []


def test_pool_thread_spans_attach_to_the_sweep():
    data = icaprobe.whiten(
        icaprobe.gen_banded_gaussian(icaprobe.GenConfig(n=300, seed=1))
    )
    with Tracer() as t:
        icaprobe.projsearch.sweep(data, grid_size=16, threads=2)
    (sweep_idx,) = [i for i, s in enumerate(t.spans) if s.name == "projsearch.sweep"]
    solves = [s for s in t.spans if s.name == "maxent.solve"]
    assert len(solves) == 16
    assert all(s.parent == sweep_idx for s in solves)


def test_self_time_subtracts_the_union_of_children():
    t = Tracer()
    t.spans = [
        Span("parent", 0.0, None, end=10.0),
        Span("a", 1.0, 0, end=4.0),
        Span("b", 2.0, 0, end=5.0),  # overlaps a, as on another pool thread
        Span("c", 7.0, 0, end=8.0),
        Span("grandchild", 7.2, 3, end=7.8),
    ]
    assert t.self_time(0) == pytest.approx(10.0 - 4.0 - 1.0)


def test_untraced_run_installs_no_wrappers_and_traced_run_restores(quick, monkeypatch):
    installs = []
    real_install = Tracer.install
    monkeypatch.setattr(Tracer, "install", lambda self: (installs.append(1), real_install(self)))
    before = _bindings()

    result = run.run("figures", 42, 0.1, False, REFS)
    assert installs == []
    assert result["correct"] and result["failed"] == 0
    assert [n for n, _ in run.END_TO_END] == list(result["metrics"])

    result = run.run("figures", 42, 0.2, True, REFS)
    assert installs == [1]
    assert [m[0] for m in LAYER_METRICS] == list(result["metrics"])
    assert result["metrics"]["maxent.solve_calls"]["value"] > 0
    assert result["metrics"]["projsearch.directions"]["value"] == 360
    assert result["metrics"]["entropy.kde_alloc_peak_mb"]["value"] > 10
    assert _bindings() == before


def test_wrong_reference_fails_the_check(quick, tmp_path):
    good = Figures(42, tmp_path, REFS)
    good.run_pass(Tally())
    tally = Tally()
    good.check(tally)
    assert tally.failed == 0

    bad_refs = copy.deepcopy(REFS)
    bad_refs["figures"]["seeds"]["42"]["argmax_deg"]["j_hat_star"] = 90.0
    tally = Tally()
    Figures(42, tmp_path, bad_refs).check(tally)
    assert tally.failed == 1
    assert "j_hat_star argmax" in tally.problems[0]

    result = run.run("figures", 42, 0.1, False, bad_refs)
    assert not result["correct"]
    assert result["failed"] / result["attempted"] > 0


def test_exits_nonzero_without_the_sources(tmp_path):
    shutil.copytree(BENCH_DIR, tmp_path / "bench", ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    proc = subprocess.run(
        [sys.executable, "bench/run.py", "--workload", "figures", "--seconds", "1"],
        cwd=tmp_path, capture_output=True, text=True, timeout=120,
    )
    assert proc.returncode != 0
    assert "{" not in proc.stdout


def test_tracer_is_thread_safe_under_a_pool():
    # every span closes and each thread's stack empties
    with Tracer() as t:
        threads = [
            threading.Thread(target=lambda: [icaprobe.kurtosis_contrast([1.0, 2.0, 3.0])
                                             for _ in range(200)])
            for _ in range(4)
        ]
        for th in threads:
            th.start()
        for th in threads:
            th.join(timeout=30)
    assert not any(th.is_alive() for th in threads)
    spans = [s for s in t.spans if s.name == "contrast.kurtosis"]
    assert len(spans) == 800 and all(s.end >= s.start for s in spans)
