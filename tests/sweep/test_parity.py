"""Determinism parity: sharding must not change results.

Runs the same mini matrix (fig4-style overload cells, seeds 3/17/33)
at ``--jobs`` 1, 2 and 4 in fresh sweep/cache directories and checks
the headline invariant of the sweep engine: byte-identical per-cell
result digests, an identical order-independent merged manifest, and
identical rendered artifact text.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.analysis.report import render_boxes
from repro.sweep import result_digest, run_sweep

from .util import MINI_SEEDS, cells_signature, mini_matrix


@pytest.fixture(scope="module")
def parity_runs(tmp_path_factory):
    spec = mini_matrix()
    runs = {}
    for jobs in (1, 2, 4):
        root = tmp_path_factory.mktemp(f"sweep-j{jobs}")
        runs[jobs] = run_sweep(spec, jobs=jobs, sweep_dir=root)
    return runs


def test_parity_per_cell_digests(parity_runs):
    serial = parity_runs[1]
    expected = {
        entry["key"]: entry["result_digest"]
        for entry in serial.manifest["cells"]
    }
    assert set(expected) == {f"mini-overload-s{seed}" for seed in MINI_SEEDS}
    for jobs, run in parity_runs.items():
        got = {
            entry["key"]: entry["result_digest"]
            for entry in run.manifest["cells"]
        }
        assert got == expected, f"jobs={jobs} changed a result digest"
        # The in-memory payloads hash to the digests the manifest claims.
        for key, payload in run.payloads.items():
            assert result_digest(payload) == expected[key]


def test_parity_merged_manifest(parity_runs):
    signatures = {
        jobs: cells_signature(run.manifest)
        for jobs, run in parity_runs.items()
    }
    assert signatures[1] == signatures[2] == signatures[4]
    digests = {
        run.manifest["matrix_digest"] for run in parity_runs.values()
    }
    assert len(digests) == 1
    for run in parity_runs.values():
        assert run.manifest["counts"]["computed"] == len(MINI_SEEDS)
        assert run.manifest["counts"]["failed"] == 0
        assert run.manifest["counts"]["pending"] == 0


def test_parity_rendered_artifact(parity_runs):
    def render(run):
        texts = []
        for key in sorted(run.payloads):
            times = {
                int(r): v
                for r, v in run.payloads[key]["exec_times_by_ranks"].items()
            }
            texts.append(
                render_boxes(
                    {f"{r} ranks": v for r, v in sorted(times.items())},
                    title=f"mini fig4 ({key})",
                )
            )
        return "\n\n".join(texts)

    reference = render(parity_runs[1])
    for jobs, run in parity_runs.items():
        assert render(run) == reference, f"jobs={jobs} changed rendered text"


def test_parity_across_seeds_not_trivial(parity_runs):
    # Guard against a degenerate matrix: different seeds really produce
    # different results (so the digest comparison above has teeth).
    digests = {
        entry["result_digest"]
        for entry in parity_runs[1].manifest["cells"]
    }
    assert len(digests) == len(MINI_SEEDS)
    payload = next(iter(parity_runs[1].payloads.values()))
    assert payload["num_application_tasks"] == 4
    assert np.isfinite(payload["makespan"])


def test_cache_hits_on_rerun(tmp_path):
    spec = mini_matrix(seeds=(3,))
    first = run_sweep(spec, jobs=2, sweep_dir=tmp_path)
    assert first.manifest["counts"]["computed"] == 1
    # The cache is the sweep directory's only content.
    assert [p.name for p in tmp_path.iterdir()] == ["cache"]
    # Fresh run, same directory: the content-addressed cache serves the
    # result, and a run that computed nothing claims no work done.
    second = run_sweep(spec, jobs=2, sweep_dir=tmp_path)
    assert second.manifest["counts"]["computed"] == 0
    assert second.manifest["counts"]["cache_hits"] == 1
    assert second.manifest["matrix_digest"] == first.manifest["matrix_digest"]
    assert second.manifest["serial_seconds_estimate"] == 0.0
    assert second.manifest["speedup_vs_serial"] == 0.0
