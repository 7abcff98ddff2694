"""BENCHMARK.json names exactly the metrics run.py reports, with its units.

Run from the repository root:  python3 -m pytest -q perfbench
"""

import json
import os
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)

import run  # noqa: E402
import workloads  # noqa: E402

with open(os.path.join(os.path.dirname(HERE), "BENCHMARK.json")) as fh:
    SPEC = json.load(fh)


def test_end_to_end_metrics_and_units():
    assert {m["name"]: m["unit"] for m in SPEC["end_to_end"]} == run.END_TO_END


def test_per_layer_metrics_and_units():
    assert {m["name"]: m["unit"] for m in SPEC["per_layer"]} == run.PER_LAYER


def test_workloads():
    names = [w["name"] for w in SPEC["workloads"]]
    assert names == list(run.WORKLOADS) == list(workloads.WORKLOADS)


def test_same_seed_same_queries_and_other_seed_other_queries():
    for w in workloads.WORKLOADS:
        assert workloads.queries(w, 7) == workloads.queries(w, 7)
        assert workloads.queries(w, 7) != workloads.queries(w, 8)


# Positions of the middle and top rungs in each query list (workloads.py).
RUNGS = {"near-scan": ([2, 3, 4], [5, 6, 7]),
         "inventory-render": ([1, 2, 3], [4, 5, 6]),
         "classify-exact": ([1, 2, 3], [4, 5, 6])}


def test_seed_keeps_the_size_of_the_middle_and_top_rungs():
    """The pooled median and tail fall in these rungs, so the seed may move
    a truncation there only in pairs c - j, c + j."""
    for w, rungs in RUNGS.items():
        sizes = set()
        for seed in range(40):
            qs = workloads.queries(w, seed)
            assert len(qs) == 9
            sizes.add(tuple((tuple(qs[i]["op"] for i in rung),
                             sum(qs[i]["T"] for i in rung)) for rung in rungs))
        assert len(sizes) == 1, (w, sizes)
