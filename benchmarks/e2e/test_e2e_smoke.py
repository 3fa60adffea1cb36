"""Smoke tests for the end-to-end benchmark (about 5 s).

Run from the repository root with::

    python3 -m pytest -q benchmarks/e2e

One plain ``overload`` child at seed 3 must report every end-to-end
metric BENCHMARK.json names, with its unit, reproduce its golden digest
and fail no check.  The layer mapper must give every simulator source
file a named layer, so a new package cannot land in the ledger
unattributed.
"""

import json
import os
import sys

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))

import bench_e2e  # noqa: E402
from scenarios import COUNTED, LAYERS, REPRO_DIR, ROOT, _code_key, layer_of  # noqa: E402


def _contract() -> dict:
    return json.loads((ROOT / "BENCHMARK.json").read_text())


def test_overload_child_metrics_digest_and_checks():
    report = bench_e2e.simulate("overload", 3, bench_e2e.load_digests(), timeout=120.0)

    assert report["failures"] == []
    assert report["digest"] == bench_e2e.load_digests()["overload"]["3"]
    metrics = bench_e2e.e2e_metrics([report])
    for metric in _contract()["end_to_end"]:
        assert metrics[metric["name"]]["unit"] == metric["unit"]
        assert metrics[metric["name"]]["value"] > 0


def test_per_layer_metrics_match_the_contract():
    declared = {m["name"]: m["unit"] for m in _contract()["per_layer"]}
    assert declared == bench_e2e.PER_LAYER


def test_every_source_file_maps_to_a_named_layer():
    files = sorted(REPRO_DIR.rglob("*.py"))
    assert files
    for path in files:
        layer = layer_of(str(path), default=None)
        assert layer in LAYERS and layer != "stdlib", path
    assert layer_of(str(REPRO_DIR / "sim" / "sanitizer.py")) == "sanitizer"
    assert layer_of(str(REPRO_DIR / "sim" / "core.py")) == "sim"
    assert layer_of("~") == "stdlib"
    assert layer_of(json.__file__) == "stdlib"


def test_counted_functions_exist():
    sys.path.insert(0, str(ROOT / "src"))
    for module, qualname in COUNTED.values():
        filename, _line, _name = _code_key(module, qualname)
        assert layer_of(filename) != "stdlib"
