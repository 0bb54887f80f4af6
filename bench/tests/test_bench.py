"""Tests of the benchmark itself: its checks reject wrong output, and every
workload passes a short run at reduced sizes, untraced and traced.

Run from the repository root:  python -m pytest bench/tests -q
"""

from __future__ import annotations

import sys
import time
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parents[1]
SRC = BENCH.parent / "src"
sys.path.insert(0, str(BENCH))

import checks  # noqa: E402
import run  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402

IRREFLEXIVE = lambda m: all(a != b for a, b in m.rels["E"])  # noqa: E731


def test_count_off_by_one_is_rejected():
    check = checks.count_is(checks.ex1_t1_count(3))
    assert check(0, "1023\n", "") is None
    assert check(0, "1022\n", "") is not None


def test_los_failure_is_rejected():
    factor = "size 2 rel E { (0,1) }"
    check = checks.ultra_is(factor, 3, checks.los_formula_count(3, [2]))
    good = f"{factor}\nlos depth=3 formulas=140 failures=0\n"
    assert check(0, good, "") is None
    assert check(0, good.replace("failures=0", "failures=1"), "") is not None


def test_repeated_image_is_rejected():
    check = checks.bijection_is({2: 4}, IRREFLEXIVE, IRREFLEXIVE, verify=False)
    models = ["size 2 rel E { }", "size 2 rel E { (0,1) }",
              "size 2 rel E { (1,0) }", "size 2 rel E { (0,1) (1,0) }"]
    pairs = [f"{m} => {m}" for m in models]
    assert check(0, "\n".join(pairs) + "\n", "") is None
    pairs[2] = f"{models[2]} => {models[1]}"
    assert "repeated" in check(0, "\n".join(pairs) + "\n", "")


def test_bijection_must_preserve_automorphisms():
    check = checks.bijection_is({2: 2}, IRREFLEXIVE, IRREFLEXIVE, verify=False)
    swapped = "size 2 rel E { } => size 2 rel E { (0,1) }\n" \
              "size 2 rel E { (0,1) } => size 2 rel E { }\n"
    assert "Aut" in check(0, swapped, "")


def test_closed_forms():
    assert checks.ex1_t2_count(3) == 538
    assert [checks.los_formula_count(d, [2]) for d in (2, 3)] == [4, 140]


def test_definition_check_uses_its_own_evaluator():
    defines = lambda m, x: any((x, y) in m.rels["G"] and (y, x) in m.rels["G"]  # noqa: E731
                               and x != y for y in range(m.size))
    check = checks.definition_is(7, 3, "G", "x1", defines)
    assert check(0, "!(A v0. G(x1,v0) -> G(v0,x1) -> x1=v0)\n", "") is None
    assert check(0, "!(A v0. G(x1,v0) -> x1=v0)\n", "") is not None
    assert "bound" in checks.definition_is(6, 3, "G", "x1", defines)(
        0, "!(A v0. G(x1,v0) -> G(v0,x1) -> x1=v0)\n", "")


def test_nested_input_accepts_only_documented_outcomes():
    assert checks.nested_parse(2, "", "defeq: line 2: nesting too deep\n") is None
    assert checks.nested_parse(0, "1\n", "") is None
    assert checks.nested_parse(2, "", "Traceback\n  ...\nRecursionError\n") is not None


def test_seed_changes_names_but_not_commands(tmp_path):
    a = workloads.build("census", 1, tmp_path / "a", workloads.SMALL)
    b = workloads.build("census", 2, tmp_path / "b", workloads.SMALL)
    assert [c.argv[0] for c in a] == [c.argv[0] for c in b]
    assert (tmp_path / "a" / "irreflexive.thy").read_text() \
        != (tmp_path / "b" / "irreflexive.thy").read_text()


def _short_run(workload: str, tmp_path: Path, trace: bool):
    commands = workloads.build(workload, 7, tmp_path, workloads.SMALL)
    execute = run.traced if trace else run.untraced
    rounds, metrics, _ = execute(commands, 0.0, SRC, tmp_path, time.monotonic() + 120)
    correct, attempted, failed, records = run.tally(rounds)
    assert correct, [r for r in records if r["problem"]]
    assert attempted == len(commands)
    # Only the deeply nested input may fail, and only by its exit code.
    assert all("nested.thy" in " ".join(r["argv"]) for r in records if r["problem"])
    return metrics


@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_short_untraced_run_passes(workload, tmp_path):
    metrics = _short_run(workload, tmp_path, trace=False)
    assert set(metrics) == {"wall_s", "cmd_p50_s", "peak_rss_mb", "setup_s"}
    assert all(value > 0 for value, _ in metrics.values())


@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_short_traced_run_reports_every_layer_metric(workload, tmp_path):
    metrics = _short_run(workload, tmp_path, trace=True)
    assert list(metrics) == [name for name, _ in tracing.METRICS]
    busy = {"enumerate": "models.enumerate_models.calls",
            "census": "groups.automorphism_group.calls",
            "formulas": "ultra.los_check.calls"}[workload]
    assert metrics[busy][0] > 0
    assert metrics["trace.wall_s"][0] > 0


def test_tracer_uninstall_restores_the_package(tmp_path):
    sys.path.insert(0, str(SRC))
    from defeq import folang, models, spectra
    before = (models.enumerate_models, spectra.enumerate_models, folang.eval_formula)
    tracer = tracing.Tracer()
    tracer.install()
    assert spectra.enumerate_models is models.enumerate_models is not before[0]
    tracer.uninstall()
    assert (models.enumerate_models, spectra.enumerate_models, folang.eval_formula) == before
