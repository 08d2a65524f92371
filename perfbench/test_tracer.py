"""Tests of the benchmark's tracer and checks.

    python3 -m pytest perfbench/test_tracer.py -q
"""

import json
import sys
import time
import types
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path[:0] = [str(HERE), str(ROOT / "src")]

from tracer import TARGETS, Target, Tracer, metric_units, per_layer_metrics  # noqa: E402
import workloads  # noqa: E402


@pytest.fixture
def fake_package(monkeypatch):
    """``fakepkg.mod`` whose ``outer`` calls the module-level ``inner`` twice."""
    mod = types.ModuleType("fakepkg.mod")

    def inner(n):
        time.sleep(0.002)
        return n

    def outer():
        time.sleep(0.003)
        return mod.inner(10) + mod.inner(20)

    def boom():
        raise KeyError("boom")

    mod.inner, mod.outer, mod.boom = inner, outer, boom
    monkeypatch.setitem(sys.modules, "fakepkg", types.ModuleType("fakepkg"))
    monkeypatch.setitem(sys.modules, "fakepkg.mod", mod)
    return mod


FAKE_TARGETS = (
    Target("mod.outer", "outer", ("mod",)),
    Target("mod.inner", "inner", ("mod",), per_step=True,
           split=lambda args, kwargs: args[0], splits=(10, 20),
           observe=lambda result: result / 10, observe_name="mod.tenths"),
    Target("mod.boom", "boom", ("mod",)),
)


def test_nested_spans_give_self_time(fake_package):
    tracer = Tracer()
    with tracer.installed(FAKE_TARGETS, package="fakepkg"):
        assert fake_package.outer() == 30
    outer, inner = tracer.stats["mod.outer"], tracer.stats["mod.inner"]
    assert (outer.calls, inner.calls) == (1, 2)
    assert tracer.stats["mod.inner.n10"].calls == tracer.stats["mod.inner.n20"].calls == 1
    assert outer.self_s == pytest.approx(outer.durations[0] - sum(inner.durations), abs=1e-9)
    assert inner.self_s == pytest.approx(sum(inner.durations), abs=1e-9)
    for stat in tracer.stats.values():
        assert 0 <= stat.self_s <= sum(stat.durations)
    assert tracer.top_level_s == pytest.approx(outer.durations[0], abs=1e-9)
    assert tracer.observed["mod.tenths"] == [1.0, 2.0]


def test_originals_restored_also_on_error(fake_package):
    originals = (fake_package.outer, fake_package.inner, fake_package.boom)
    tracer = Tracer()
    with pytest.raises(KeyError):
        with tracer.installed(FAKE_TARGETS, package="fakepkg"):
            assert fake_package.inner is not originals[1]
            fake_package.boom()
    assert (fake_package.outer, fake_package.inner, fake_package.boom) == originals
    assert tracer.stats["mod.boom"].calls == 1


def test_missing_targets_report_zero_calls(fake_package):
    del fake_package.inner  # renamed or deleted by a later change
    targets = (*FAKE_TARGETS, Target("gone.fn", "fn", ("no_such_module",)))
    tracer = Tracer()
    with tracer.installed(targets, package="fakepkg"):
        pass
    values = per_layer_metrics([tracer], [1.0], [1.0], targets)
    assert values["mod.inner.calls"] == 0
    assert values["mod.inner.n10.p99_us"] == 0.0
    assert values["gone.fn.calls"] == 0
    assert values["mod.tenths"] == 0.0
    assert not hasattr(fake_package, "inner")


def test_per_layer_metrics_over_passes(fake_package):
    tracers = []
    for _ in range(3):
        tracer = Tracer()
        with tracer.installed(FAKE_TARGETS, package="fakepkg"):
            fake_package.outer()
        tracers.append(tracer)
    values = per_layer_metrics(tracers, [1.1, 1.2, 1.3], [1.0, 1.0, 1.0], FAKE_TARGETS)
    assert set(values) == set(metric_units(FAKE_TARGETS))
    assert values["mod.inner.calls"] == 2
    assert 2000 <= values["mod.inner.n10.p50_us"] <= values["mod.inner.n10.p99_us"]
    assert values["trace.overhead_frac"] == pytest.approx(0.2)
    assert values["mod.tenths"] == pytest.approx(1.5)


def test_real_package_isolation_and_restore(tmp_path):
    import smcm.cli as cli
    import smcm.qsim as qsim

    original = qsim.sample_shots
    tracer = Tracer()
    with tracer.installed():
        assert cli.main(["run", "--mode", "quantum", "--shots", "1000", "--t-end", "0.5",
                         "--out", str(tmp_path / "q.csv")]) == 0
    assert qsim.sample_shots is original
    assert tracer.stats["qsim.sample_shots.n1000"].calls == 5
    assert tracer.stats["qsim.apply_gate"].calls == 45
    assert "montecarlo.mc_step" not in tracer.stats
    assert tracer.stats["cli.main"].calls == 1


def test_benchmark_json_names_every_metric():
    import run

    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == metric_units(TARGETS)
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == run.END_TO_END_UNITS
    assert [w["name"] for w in spec["workloads"]] == list(workloads.WORKLOADS)
    assert [w["why"] for w in spec["workloads"]] == [w.why for w in workloads.WORKLOADS.values()]


def test_checks_fail_on_missing_or_corrupt_output(tmp_path):
    assert all(not passed for _, passed, _ in workloads.check_outputs(workloads.SCAN_MC, tmp_path))
    call = workloads.run_call("deterministic", None, "det.csv", t_end=0.2)
    rows = ["time_h,sigma_cs,sigma_c,sigma_d,sigma_s", "0,0.25,0.25,0.25,0.25",
            "0.1,0.3,0.25,0.25,0.25", "0.2,0.25,0.25,0.25,0.25"]
    (tmp_path / "det.csv").write_text("\n".join(rows) + "\n")
    from smcm.experiments import read_timeseries

    passed, detail = workloads._on_simplex(read_timeseries(tmp_path / "det.csv"), call)
    assert not passed, detail
