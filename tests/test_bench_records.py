"""Checks of the per-change benchmark records, the root BENCH_<n>.json files.

Each record names its layers as BENCHMARK.json does, optionally prefixed
by the workload they were measured on ("assemble: trace.untraced_wall_s"),
and gives the parent's and the change's value with the declared unit.
"""

import json
import numbers
import pathlib

import pytest

ROOT = pathlib.Path(__file__).resolve().parent.parent
BENCHMARK = json.loads((ROOT / "BENCHMARK.json").read_text())
UNITS = {m["name"]: m["unit"] for m in BENCHMARK["per_layer"] + BENCHMARK["end_to_end"]}
WORKLOADS = {w["name"] for w in BENCHMARK["workloads"]}
RECORDS = sorted(ROOT.glob("BENCH_*.json"), key=lambda p: int(p.stem.split("_")[1]))


def test_records_exist():
    assert RECORDS


@pytest.mark.parametrize("path", RECORDS, ids=lambda p: p.name)
def test_bench_record_names_declared_layers(path):
    record = json.loads(path.read_text())
    assert {"change", "command", "host", "layers"} <= record.keys()
    assert record["layers"]
    for key, layer in record["layers"].items():
        workload, _, name = key.rpartition(": ")
        assert not workload or workload in WORKLOADS, key
        assert name in UNITS, key
        assert layer["unit"] == UNITS[name], key
        for side in ("parent", "change"):
            value = layer[side]
            assert isinstance(value, numbers.Real) and not isinstance(value, bool), (key, side)
