"""The benchmark records at the repository root: each `BENCH_*.json` parses and
names only the workloads and end-to-end metrics that BENCHMARK.json declares."""

import json
import statistics
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
RECORDS = sorted(ROOT.glob("BENCH_*.json"))
DECLARED = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
WORKLOADS = {w["name"] for w in DECLARED["workloads"]}
UNITS = {m["name"]: m["unit"] for m in DECLARED["end_to_end"]}


def entries(node):
    """Every object in a parsed record that names a workload or a metric."""
    if isinstance(node, dict):
        if "workload" in node or "metric" in node:
            yield node
        for value in node.values():
            yield from entries(value)
    elif isinstance(node, list):
        for value in node:
            yield from entries(value)


def test_there_is_a_record():
    assert RECORDS


@pytest.mark.parametrize("path", RECORDS, ids=lambda path: path.name)
def test_a_record_names_only_declared_workloads_and_metrics(path):
    record = json.loads(path.read_text(encoding="utf-8"))
    named = list(entries(record))
    assert named
    for entry in named:
        assert entry["workload"] in WORKLOADS
        assert entry["metric"] in UNITS
        assert entry["unit"] == UNITS[entry["metric"]]


@pytest.mark.parametrize("path", RECORDS, ids=lambda path: path.name)
def test_a_records_own_pairs_give_its_medians(path):
    # the summary of each measured metric follows from the runs listed beside it
    for pair in json.loads(path.read_text(encoding="utf-8")).get("pairs", []):
        parent, change = pair["parent"], pair["change"]
        assert len(parent) == len(change) == len(pair["seeds"]) == pair["pairs"] >= 10
        assert pair["parent_median"] == statistics.median(parent)
        assert pair["change_median"] == statistics.median(change)
        assert pair["pairs_won"] == sum(c < p for p, c in zip(parent, change))
