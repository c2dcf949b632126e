"""The benchmark's own tests.

Run from the repository root::

    PYTHONPATH=src:. python -m pytest perfbench -q

They show that the output checks catch a wrong answer (a planted wrong
expectation fails the run), that the edits the workloads make keep the
verdicts they rely on, that tracing measures self time and puts every
original back, that ``BENCHMARK.json`` names exactly the metrics a run
reports, and that the command refuses to run without the checker's
sources.
"""

from __future__ import annotations

import json
import os
import shutil
import subprocess
import sys
import time

import pytest

from perfbench import common, fig9, fuzz_dual, recheck, run, service
from perfbench.common import (
    Context, Expectation, Meter, Outcome, result_problems,
)
from perfbench.layers import TARGETS, Tracing, layer_metrics, per_layer_units

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))

#: The end-to-end metrics every untraced run reports, with their units.
END_TO_END = {"setup_s": "s", "checks_per_s": "1/s",
              "verdict_s.gmean": "s", "peak_rss_mb": "MB"}


def _context(tmp_path, workload: str, seconds: float) -> Context:
    return Context(workload=workload, seed=7, seconds=seconds,
                   trace=False, spawned_at=time.monotonic(),
                   setup_only=False, root=str(tmp_path))


def _program(name: str):
    from repro.programs import all_programs
    return next(p for p in all_programs() if p.name == name)


def test_true_expectations_pass_and_planted_ones_fail():
    paging = _program("paging-policy")
    _, result = fig9.check_cold(paging.name, paging.program(),
                                paging.spec())
    assert result_problems(Expectation.of(paging), paging.name,
                           result) == []
    for planted in (Expectation(safe=True),
                    Expectation(False, (7,), ("null-pointer",)),
                    Expectation(False, (7, 12), ("array-bounds",))):
        assert result_problems(planted, paging.name, result)


def test_planted_wrong_expectation_fails_a_service_run(tmp_path,
                                                       monkeypatch):
    """End to end: the off-by-one program is planted as safe, and the
    run reports it as incorrect."""
    monkeypatch.setattr(service, "BUGGY_EXPECTATION",
                        Expectation(safe=True))
    out = Outcome()
    service.run(_context(tmp_path, "service", 1.0), out)
    assert out.attempted > 0
    assert any("buggy-sparc" in text for text in out.problems)
    detail, result = run.summarize(
        {"setup_s": 1.0, "refs": out.refs, "scaled": out.scaled,
         "attempted": out.attempted,
         "failed": out.failed, "problems": out.problems,
         "metrics": {name: list(v) for name, v in out.metrics.items()},
         "layers": {}, "detail": out.detail}, [], False)
    assert result["correct"] is False
    assert detail["problems"]


def test_service_run_with_true_expectations_is_correct(tmp_path):
    out = Outcome()
    service.run(_context(tmp_path, "service", 1.0), out)
    assert out.attempted == service.ROUND_ITEMS and out.failed == 0
    assert out.problems == []
    assert set(out.metrics) == set(END_TO_END) - {"setup_s"}


def test_service_rounds_have_a_fixed_make_up():
    bases = service.base_programs()
    for index in range(3):
        draws = service.round_draws(5, index, bases)
        items = [item for draw in draws for item in draw]
        assert len(draws) == service.ROUND_DRAWS
        assert len(items) == service.ROUND_ITEMS
        assert items[0].kind != "resubmit"
        for kind, count in (("resubmit", service.RESUBMIT),
                            ("near-duplicate", service.NEAR_DUPLICATE),
                            ("fresh", service.FRESH)):
            assert sum(item.kind == kind for item in items) == count
    assert service.round_draws(5, 0, bases) \
        == service.round_draws(5, 0, bases)


@pytest.mark.parametrize("name", sorted(service.FRESH_EDITS))
def test_fresh_service_programs_keep_their_verdict(name):
    from repro.analysis.checker import check_assembly
    base = next(b for b in service.base_programs() if b.name == name)
    old, new = service.FRESH_EDITS[name]
    assert base.code.count(old) == 1
    result = check_assembly(base.code.replace(old, new.format(k=2345)),
                            base.spec, name=name, arch=base.arch)
    assert result_problems(base.expect, name, result) == []


@pytest.mark.parametrize("name", sorted(recheck.EDITS))
def test_recheck_edits_apply_once(name):
    entry = next(e for e in recheck.sources() if e[0] == name)
    assert recheck.edited(entry[1], name, 99) != entry[1]


@pytest.mark.parametrize("name,replayed", [("btree2", 0), ("chain", 2)])
def test_recheck_edit_keeps_the_verdict_and_replays(name, replayed,
                                                    tmp_path):
    """A re-check of an edited program against a primed store agrees
    with a cache-free check and replays the untouched functions' units
    (btree2 has one unit, the edited one)."""
    _, source, spec, expectation = next(
        e for e in recheck.sources() if e[0] == name)
    store = str(tmp_path / "store.sqlite")
    recheck.check(name, source, spec, store)
    variant = recheck.edited(source, name, 1234)
    _, warm, projection = recheck.check(name, variant, spec, store)
    _, cold, reference = recheck.check(name, variant, spec, None)
    assert projection == reference
    assert result_problems(expectation, name, cold) == []
    assert warm.prover_stats["unit_hits"] == replayed
    assert warm.prover_stats["unit_misses"] == 1


def test_a_check_apart_gets_the_verdict_it_gets_in_process():
    from repro.fuzz.generator import generate_sketch
    sketch = generate_sketch(3)
    for arch in fuzz_dual.ARCHS:
        common.cold_reset()
        _, timed_out, safe, counts = fuzz_dual.check(sketch, arch)
        common.cold_reset()
        seconds, *apart = fuzz_dual.check_apart(sketch, arch)
        assert seconds > 0
        assert apart[:2] == [timed_out, safe] and not timed_out
        assert apart[2]["obligations"] == counts["obligations"]


def test_tracing_measures_self_time_and_restores_originals():
    import repro.analysis.checker as checker
    import repro.cfg.builder as builder
    originals = (builder.build_cfg, checker.build_cfg,
                 vars(checker.SafetyChecker)["check"])
    program = _program("sum")
    tracing = Tracing()
    with tracing:
        assert checker.build_cfg is builder.build_cfg
        assert checker.build_cfg is not originals[0]
        fig9.check_cold(program.name, program.program(), program.spec())
    assert (builder.build_cfg, checker.build_cfg,
            vars(checker.SafetyChecker)["check"]) == originals
    totals = tracing.totals()
    assert totals["check.calls"] == 1
    assert totals["cfg.calls"] >= 1 and totals["prover.calls"] >= 1
    layers = sum(totals[layer + ".self"]
                 for layer in {t[0] for t in TARGETS})
    # Self times partition the root spans (lowering runs when the
    # checker is built, the rest inside check()).
    assert layers == pytest.approx(
        totals["check.incl"] + totals["frontend.incl"], rel=1e-6)
    metrics = layer_metrics(totals)
    assert metrics["obligations.count"][0] > 0
    assert 0.0 <= metrics["induction.success_ratio"][0] <= 1.0


def test_meter_samples_at_checkpoints_in_proportion_to_time(monkeypatch):
    samples = iter([0.01] * 4 + [0.03, 0.01, 0.03, 0.01] + [0.02] * 40)
    monkeypatch.setattr(common, "host_ref_once", lambda: next(samples))
    meter = Meter(every_s=0.5)
    meter.checkpoint()      # the first: MIN_SAMPLES
    assert meter.refs == [0.01] * Meter.MIN_SAMPLES
    meter.op(0.6, "a")
    meter.op(0.6, "b")
    meter.checkpoint()      # 1.2 s recorded: three samples
    meter.checkpoint()      # nothing recorded: none
    meter.op(0.3, "a")
    meter.checkpoint()      # one at least
    meter.sample("c", 0.2)
    assert len(meter.refs) == 8
    # Fewer samples than the window: every operation is scaled by the
    # median of all of them.
    factor = (common.REF_NOMINAL_S / 0.01) ** common.REF_ELASTICITY
    assert meter.total_s == pytest.approx(1.5 * factor)
    assert meter.samples["a"] == pytest.approx([0.6 * factor,
                                                0.3 * factor])
    assert meter.samples["c"] == pytest.approx([0.2 * factor])
    meter.op(100.0)
    meter.checkpoint()
    assert len(meter.refs) == 8 + Meter.MAX_SAMPLES


def test_meter_scales_each_operation_by_the_samples_around_it(
        monkeypatch):
    samples = iter([0.01] * 6 + [0.04] * 40)
    monkeypatch.setattr(common, "host_ref_once", lambda: next(samples))
    monkeypatch.setattr(Meter, "WINDOW", 2)
    meter = Meter(every_s=0.25)
    meter.checkpoint()      # refs 0-3: 0.01
    meter.op(0.5, "a")      # window: refs 2-5, all 0.01
    meter.checkpoint()      # refs 4-5: 0.01
    meter.op(5.0)           # window: refs 4-7, half 0.01, half 0.04
    meter.checkpoint()      # refs 6-25: 0.04
    meter.op(0.5, "b")      # window: refs 24-27, all 0.04
    meter.checkpoint()      # refs 26-27: 0.04

    def scaled(ref):
        return (common.REF_NOMINAL_S / ref) ** common.REF_ELASTICITY

    assert meter.samples["a"] == pytest.approx([0.5 * scaled(0.01)])
    assert meter.samples["b"] == pytest.approx([0.5 * scaled(0.04)])
    assert meter.total_s == pytest.approx(
        0.5 * scaled(0.01) + 5.0 * scaled(0.025) + 0.5 * scaled(0.04))


def test_checks_ignore_the_checkers_environment(tmp_path, monkeypatch):
    """REPRO_JOBS, REPRO_CACHE and REPRO_TRACE would give a default
    check a proof pool, a store and a trace file; the benchmark's checks
    stay serial and touch no store but the one they name."""
    store, trace = tmp_path / "env.sqlite", tmp_path / "env.jsonl"
    monkeypatch.setenv("REPRO_JOBS", "2")
    monkeypatch.setenv("REPRO_CACHE", str(store))
    monkeypatch.setenv("REPRO_TRACE", str(trace))
    program = _program("sum")
    _, cold = fig9.check_cold(program.name, program.program(),
                              program.spec())
    _, warm, _ = recheck.check(program.name, program.source,
                               program.spec_text, None)
    for result in (cold, warm):
        assert "pool_jobs" not in result.prover_stats
        assert result.prover_stats.get("persistent_cache_stores", 0) == 0
    assert not store.exists() and not trace.exists()
    env = common.clean_env(PYTHONHASHSEED="0")
    assert not set(common.CHECKER_ENV) & set(env)
    assert env["PYTHONHASHSEED"] == "0"


def test_benchmark_json_names_what_the_runs_report():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as handle:
        bench = json.load(handle)
    assert {m["name"]: m["unit"] for m in bench["per_layer"]} \
        == per_layer_units()
    assert {m["name"]: m["unit"] for m in bench["end_to_end"]} \
        == END_TO_END
    assert [w["name"] for w in bench["workloads"]] == list(run.WORKLOADS)


def test_run_refuses_without_checker_sources(tmp_path):
    shutil.copytree(os.path.join(ROOT, "perfbench"),
                    str(tmp_path / "perfbench"),
                    ignore=shutil.ignore_patterns("__pycache__"))
    done = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "fig9",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=str(tmp_path), capture_output=True, text=True, timeout=60)
    assert done.returncode != 0
    assert '"correct"' not in done.stdout
