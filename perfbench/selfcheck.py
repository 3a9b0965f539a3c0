"""Self-check for the benchmark itself; runs in well under a second.

    python3 perfbench/selfcheck.py

Checks that every metric the benchmark can report has a valid name and is
declared in BENCHMARK.json with the same unit, that the span arithmetic
(self time, outermost time, layer entry time, parent-child edges) is right on
a hand-built span tree, and that the speed probe averages the right samples.
Exits 1 and names the failure otherwise.
"""

from __future__ import annotations

import json
import re
import sys

import run
from spans import Spans, Summary
from speed import REF_STEP_S, SpeedProbe, reference_step

NAME = re.compile(r"[A-Za-z0-9_.-]+")


def check_names() -> list[str]:
    declared = json.loads((run.ROOT / "BENCHMARK.json").read_text())
    errors = []
    for key, reported in (("end_to_end", run.END_TO_END), ("per_layer", run.PER_LAYER)):
        units = {m["name"]: m["unit"] for m in declared[key]}
        for name, unit in reported.items():
            if not NAME.fullmatch(name):
                errors.append(f"{key}: bad metric name {name!r}")
            if units.get(name) != unit:
                errors.append(f"{key}: {name!r} with unit {unit!r} is not declared as such")
        for name in units.keys() - reported.keys():
            errors.append(f"{key}: {name!r} is declared but never reported")
    for workload in declared["workloads"]:
        if workload["name"] not in run.WORKLOADS:
            errors.append(f"workload {workload['name']!r} has no plan")
    return errors


def hand_built_tree() -> Spans:
    """bench.run [0,10]
         cli.main [1,9]
           enumeration.tightness_search [2,8]
             enumeration.canonical_languages [2.5,4]
               minimize.minimize [3,3.5]
             shortest.intersection_lss [5,6]
             shortest.intersection_lss [6.5,7]
    """
    spans = Spans()
    rows = [
        ("bench.run", -1, 0.0, 10.0),
        ("cli.main", 0, 1.0, 9.0),
        ("enumeration.tightness_search", 1, 2.0, 8.0),
        ("enumeration.canonical_languages", 2, 2.5, 4.0),
        ("minimize.minimize", 3, 3.0, 3.5),
        ("shortest.intersection_lss", 2, 5.0, 6.0),
        ("shortest.intersection_lss", 2, 6.5, 7.0),
    ]
    for name, parent, start, end in rows:
        spans.name_of.append(spans.name_id(name))
        spans.parent.append(parent)
        spans.start.append(start)
        spans.end.append(end)
    return spans


def check_arithmetic() -> list[str]:
    s = Summary(hand_built_tree())
    # A probe that is never entered neither pins nor samples; give it
    # samples at t = 1, 2, 3, 4 with steps of 1, 2, 3, 4 reference units.
    probe = SpeedProbe()
    probe.times = [1.0, 2.0, 3.0, 4.0]
    probe.steps = [k * REF_STEP_S for k in (1.0, 2.0, 3.0, 4.0)]
    expected = {
        "self bench": (s.self_s("bench"), 2.0),
        "self cli": (s.self_s("cli"), 2.0),
        "self enumeration": (s.self_s("enumeration"), 4.0),
        "self minimize": (s.self_s("minimize"), 0.5),
        "self shortest": (s.self_s("shortest"), 1.5),
        "self times sum to the root": (sum(s.layers().values()), 10.0),
        "time intersection_lss": (s.time("shortest.intersection_lss"), 1.5),
        "calls intersection_lss": (s.calls("shortest.intersection_lss"), 2),
        "layer time enumeration": (s.layer_time("enumeration"), 6.0),
        "layer calls enumeration": (s.layer_calls("enumeration"), 1),
        "edge search->canonical": (
            s.edge("enumeration.tightness_search", "enumeration.canonical_languages"),
            1.5,
        ),
        "tail of 1..100": (run.tail([float(i) for i in range(1, 101)]), 90.0),
        "tail of 5 samples is their median": (run.tail([3.0, 1.0, 2.0, 5.0, 4.0]), 3.0),
        "speed factor, mean of the samples inside": (probe.factor(1.5, 3.5), 2.5),
        "speed factor, no sample inside": (probe.factor(2.2, 2.8), 2.5),
        "speed factor, before the first sample": (probe.factor(0.0, 0.5), 1.0),
        "reference step walks every product state": (reference_step(), 221),
    }
    return [f"{what}: got {got}, want {want}" for what, (got, want) in expected.items() if abs(got - want) > 1e-12]


def main() -> int:
    errors = check_names() + check_arithmetic()
    for error in errors:
        print(f"FAIL {error}")
    print("selfcheck ok" if not errors else f"selfcheck: {len(errors)} failure(s)")
    return 1 if errors else 0


if __name__ == "__main__":
    sys.exit(main())
