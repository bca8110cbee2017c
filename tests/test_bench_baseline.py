"""The engine benchmark gate: one rule table over one baseline file.

``benchmarks/check_engine_baseline.py`` is what CI runs against
``benchmarks/baseline.json``.  These tests import it unchanged and pin
its verdicts at every kind of bound, without measuring anything.
"""

import copy
import importlib
import json
import sys
from pathlib import Path

import numpy as np
import pytest

BENCHMARKS = Path(__file__).resolve().parent.parent / "benchmarks"


@pytest.fixture
def check(monkeypatch):
    """The benchmark gate module, imported as is."""
    monkeypatch.syspath_prepend(str(BENCHMARKS))
    monkeypatch.delitem(sys.modules, "check_engine_baseline", raising=False)
    yield importlib.import_module("check_engine_baseline")
    sys.modules.pop("check_engine_baseline", None)


@pytest.fixture
def baseline(check):
    return json.loads(check.BASELINE.read_text())


def rules(check, kind):
    found = [rule for rule in check.RULES if rule.kind == kind]
    assert found
    return found


def below(value):
    """The largest float under ``value``."""
    return float(np.nextafter(value, -np.inf))


def test_baseline_holds_every_figure_a_rule_reads(check, baseline):
    assert set(baseline) == {rule.scenario for rule in check.RULES}
    for rule in check.RULES:
        section = baseline[rule.scenario]
        assert "trace" in section
        assert rule.figure in section, rule
        assert rule.normaliser is None or rule.normaliser in section, rule


def test_committed_baseline_passes_against_itself(check, baseline):
    for scenario, section in baseline.items():
        assert check.compare(scenario, section, copy.deepcopy(section))


def test_relative_bound_is_inclusive(check, baseline):
    for rule in rules(check, "relative"):
        base = baseline[rule.scenario]
        now = dict(base, **{rule.figure: base[rule.figure] * rule.bound})
        assert rule.check(base, now)[2], rule
        now[rule.figure] = below(now[rule.figure])
        assert not rule.check(base, now)[2], rule


def test_envelope_bound_is_inclusive(check):
    for rule in rules(check, "envelope"):
        base = {rule.figure: 100.0, rule.normaliser: 100.0}
        now = {rule.figure: 100.0 * (1.0 - rule.bound),
               rule.normaliser: 100.0}
        assert rule.check(base, now)[2], rule
        now[rule.figure] = below(now[rule.figure])
        assert not rule.check(base, now)[2], rule


def test_floor_bound_is_inclusive(check, baseline):
    for rule in rules(check, "floor"):
        base = baseline[rule.scenario]
        assert rule.check(base, dict(base, **{rule.figure: rule.bound}))[2]
        assert not rule.check(
            base, dict(base, **{rule.figure: below(rule.bound)}))[2]


def test_envelope_takes_the_kinder_ratio(check):
    base = {"x": 100.0, "n": 100.0}
    # A uniformly slower runner: the normalised ratio passes.
    assert check.envelope(base, {"x": 60.0, "n": 50.0}, "x", "n") == 1.2
    # A faster normaliser alone: the direct ratio passes.
    assert check.envelope(base, {"x": 100.0, "n": 200.0}, "x", "n") == 1.0
    # A slowdown the normaliser does not share fails both.
    assert check.envelope(base, {"x": 60.0, "n": 100.0}, "x", "n") == 0.6
    for rule in rules(check, "envelope"):
        slow_runner = {rule.figure: 60.0, rule.normaliser: 50.0}
        assert rule.check({rule.figure: 100.0, rule.normaliser: 100.0},
                          slow_runner)[2]


def test_trace_mismatch_fails(check, baseline):
    for scenario, section in baseline.items():
        now = copy.deepcopy(section)
        now["trace"]["seed"] += 1
        assert not check.compare(scenario, section, now)


def test_missing_baseline_figure_fails(check, baseline):
    for rule in check.RULES:
        base = copy.deepcopy(baseline[rule.scenario])
        now = copy.deepcopy(base)
        del base[rule.figure]
        assert not check.compare(rule.scenario, base, now), rule


def test_two_vcpu_warm_reading_fails_the_warm_floor(check, baseline):
    assert check.floor("cache", "warm_speedup") == 20.0
    now = dict(baseline["cache"], warm_speedup=6.6)
    assert not check.compare("cache", baseline["cache"], now)


def test_main_writes_one_report_in_the_baseline_shape(check, baseline,
                                                      monkeypatch,
                                                      tmp_path):
    monkeypatch.setattr(check, "_measure",
                        lambda scenario: copy.deepcopy(baseline[scenario]))
    assert check.main(["--report-dir", str(tmp_path)]) == 0
    assert [p.name for p in tmp_path.iterdir()] == ["report.json"]
    assert json.loads((tmp_path / "report.json").read_text()) == baseline

    slow = dict(baseline["cache"], warm_speedup=6.6)
    monkeypatch.setattr(check, "_measure", lambda scenario: slow)
    assert check.main(["cache"]) == 1

    copied = tmp_path / "baseline.json"
    copied.write_text(check.BASELINE.read_text())
    monkeypatch.setattr(check, "BASELINE", copied)
    assert check.main(["cache", "--update"]) == 0
    assert json.loads(copied.read_text()) == dict(baseline, cache=slow)


def test_unknown_scenario_is_rejected(check):
    with pytest.raises(SystemExit):
        check.main(["engine", "fleets"])
