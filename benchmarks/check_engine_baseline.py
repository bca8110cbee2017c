"""Compare fresh engine benchmark measurements against ``baseline.json``.

Usage (from the repository root, with ``PYTHONPATH=src:benchmarks``)::

    python benchmarks/check_engine_baseline.py              # every scenario
    python benchmarks/check_engine_baseline.py fleet cache  # two of them
    python benchmarks/check_engine_baseline.py --update     # re-baseline

The script measures the named scenarios (every one when none is
named), prints each figure beside its committed baseline and fails
(exit 1) when a row of :data:`RULES` does not hold.  With ``--update``
it writes the fresh measurement into ``baseline.json`` instead of
checking it.  ``--report-dir DIR`` also writes the measurement as
``DIR/report.json``, in the baseline's shape, so CI can archive the
numbers (the ``bench-history`` artifact) without touching the
committed baseline.

``baseline.json`` holds one section per scenario:

* ``engine``: kernel and serial-loop throughput on the pinned
  1,000-step x 200-server trace (``test_bench_engine.py``);
* ``fleet``: the sharded and unsharded kernel on the 12,500-server x
  8,900-step fleet trace (``test_bench_fleet_scale.py``);
* ``cache``: the result cache on the same fleet trace
  (``test_bench_cache.py``);
* ``pipeline``: the kernel's decide phase with the batched decision
  path on and forced off (``test_bench_pipeline.py``).

Every measurement asserts its own bit-parity before it returns a
number, so a fast but wrong path never posts a good figure.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path
from typing import NamedTuple

#: The committed baselines, one section per scenario.
BASELINE = Path(__file__).parent / "baseline.json"

#: A ``relative`` figure fails below this fraction of its baseline.
#: Deliberately generous: CI runners are noisy and heterogeneous, and
#: the check exists to catch large, real regressions (an accidentally
#: quadratic loop, a lost fast path), not scheduling jitter.
TOLERANCE = 0.25

#: An ``envelope`` figure may fall at most this fraction below its
#: baseline, after :func:`envelope` has normalised it.
ENVELOPE = 0.03


def envelope(base: dict, now: dict, figure: str, normaliser: str) -> float:
    """The kinder of ``figure``'s now/baseline ratio and that ratio
    divided by ``normaliser``'s.

    The direct ratio is right on the machine that wrote the baseline;
    the normalised one cancels a uniformly slower runner.  A slowdown
    of the figure's own path, which the normaliser does not share,
    fails both.
    """
    direct = now[figure] / base[figure]
    return max(direct, direct / (now[normaliser] / base[normaliser]))


class Rule(NamedTuple):
    """One bound on one figure of one scenario's measurement.

    ``relative``: the figure is at least ``bound`` x its baseline.
    ``envelope``: :func:`envelope` of the figure over ``normaliser`` is
    at least ``1 - bound``.  ``floor``: the figure is at least
    ``bound``.
    """

    scenario: str
    figure: str
    kind: str
    bound: float
    normaliser: str | None = None

    def check(self, base: dict, now: dict) -> tuple[float, float, bool]:
        """``(reading, least, reading >= least)`` for one measurement."""
        if self.kind == "relative":
            reading, least = now[self.figure], base[self.figure] * self.bound
        elif self.kind == "envelope":
            reading = envelope(base, now, self.figure, self.normaliser)
            least = 1.0 - self.bound
        else:
            reading, least = now[self.figure], self.bound
        return reading, least, reading >= least


#: Every bound the engine benchmarks are held to, in scenario order.
RULES = (
    # The serial cached loop, the kernel with telemetry off, and the
    # kernel under a live repro.obs session (so a telemetry-hook
    # regression is caught although the default path runs without).
    Rule("engine", "loop_steps_per_s", "relative", TOLERANCE),
    Rule("engine", "kernel_steps_per_s", "relative", TOLERANCE),
    Rule("engine", "kernel_telemetry_steps_per_s", "relative", TOLERANCE),
    Rule("fleet", "sharded_cells_per_s", "relative", TOLERANCE),
    Rule("fleet", "unsharded_cells_per_s", "relative", TOLERANCE),
    # With no checkpoint directory the sharded path stays within the
    # envelope.  The unsharded kernel carries no checkpoint plumbing,
    # so only a slowdown in the checkpoint branches can trip it.
    Rule("fleet", "sharded_cells_per_s", "envelope", ENVELOPE,
         "unsharded_cells_per_s"),
    Rule("cache", "direct_cells_per_s", "relative", TOLERANCE),
    Rule("cache", "kernel_cells_per_s", "relative", TOLERANCE),
    Rule("cache", "warm_cells_per_s", "relative", TOLERANCE),
    # The same envelope with the result cache off (``result_cache=
    # False``); the kernel carries no cache plumbing either.
    Rule("cache", "direct_cells_per_s", "envelope", ENVELOPE,
         "kernel_cells_per_s"),
    # A fleet run answered from the cache (a ~1 MB entry) is at least
    # this many times faster than recomputing its ~111 M plane cells.
    Rule("cache", "warm_speedup", "floor", 20.0),
    Rule("pipeline", "batched_decide_steps_per_s", "relative", TOLERANCE),
    Rule("pipeline", "scalar_decide_steps_per_s", "relative", TOLERANCE),
    # The batched decide phase is at least this many times faster than
    # the scalar loop, with room for slow CI runners; both phase times
    # come from one run, so runner speed cancels out.
    Rule("pipeline", "decide_speedup", "floor", 3.0),
)


def floor(scenario: str, figure: str) -> float:
    """The bound of the ``floor`` rule on ``scenario``'s ``figure``."""
    return next(rule.bound for rule in RULES
                if rule[:3] == (scenario, figure, "floor"))


def _measure(scenario: str) -> dict:
    if scenario == "fleet":
        from test_bench_fleet_scale import measure_fleet_throughput

        # Best-of-two: the checkpoint-off envelope is tight (3 %), and
        # single-shot wall times at this scale carry that much jitter.
        return measure_fleet_throughput(rounds=2)
    if scenario == "cache":
        from test_bench_cache import measure_cache_throughput

        return measure_cache_throughput(rounds=2)
    if scenario == "pipeline":
        from test_bench_pipeline import measure_pipeline_throughput

        return measure_pipeline_throughput()
    from test_bench_engine import measure_kernel_throughput

    return measure_kernel_throughput()


def _figures(section: dict, prefix: str = ""):
    """``(dotted name, value)`` of every figure in ``section``."""
    for name, value in sorted(section.items()):
        if isinstance(value, dict):
            yield from _figures(value, f"{prefix}{name}.")
        else:
            yield prefix + name, value


def compare(scenario: str, base: dict, now: dict) -> bool:
    """Print ``now`` beside ``base``; return whether every rule holds."""
    print(f"--- {scenario} ---")
    if base.get("trace") != now["trace"]:
        print(f"baseline trace {base.get('trace')} does not match the "
              f"measured {now['trace']}; re-run with --update")
        return False
    committed = dict(_figures(base))
    for name, value in _figures(now):
        print(f"{name:<32} baseline {committed.get(name, '-')!s:>14}  "
              f"now {value!s:>14}")
    ok = True
    for rule in RULES:
        if rule.scenario != scenario:
            continue
        missing = [name for name in (rule.figure, rule.normaliser)
                   if name and name not in base]
        if missing:
            print(f"{rule.kind} {rule.figure}: {', '.join(missing)} "
                  f"missing from the baseline; re-run with --update")
            ok = False
            continue
        reading, least, holds = rule.check(base, now)
        ok = ok and holds
        print(f"{rule.kind:<9} {rule.figure:<32} {reading:>14.6g} >= "
              f"{least:<14.6g} [{'ok' if holds else 'REGRESSION'}]")
    return ok


def _write(path: Path, data: dict) -> None:
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text(json.dumps(data, indent=2, sort_keys=True) + "\n")
    print(f"measurement written to {path}")


def main(argv: list[str] | None = None) -> int:
    names = list(dict.fromkeys(rule.scenario for rule in RULES))
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("scenarios", nargs="*", metavar="SCENARIO",
                        help=f"scenarios to measure, of {', '.join(names)} "
                             f"(default: every one)")
    parser.add_argument("--update", action="store_true",
                        help="write the measurement into baseline.json "
                             "instead of checking it")
    parser.add_argument("--report-dir", type=Path, default=None,
                        metavar="DIR",
                        help="also write the measurement as "
                             "DIR/report.json (for the CI bench-history "
                             "artifact)")
    args = parser.parse_args(argv)
    unknown = sorted(set(args.scenarios) - set(names))
    if unknown:
        parser.error(f"unknown scenario(s) {', '.join(unknown)}; "
                     f"choose from {', '.join(names)}")
    baseline = json.loads(BASELINE.read_text())
    report = {}
    ok = True
    for scenario in args.scenarios or names:
        report[scenario] = _measure(scenario)
        if not args.update:
            ok = compare(scenario, baseline.get(scenario, {}),
                         report[scenario]) and ok
    if args.report_dir is not None:
        _write(args.report_dir / "report.json", report)
    if args.update:
        _write(BASELINE, baseline | report)
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
