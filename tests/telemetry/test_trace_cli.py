"""The ``repro trace`` subcommand and the sweep ``--telemetry`` flag."""

from __future__ import annotations

import json

import pytest

from repro.cli import build_parser, main
from repro.telemetry import component_tracks, validate_chrome_trace

from tests.golden.helpers import check_golden


def test_trace_requires_known_experiment():
    with pytest.raises(SystemExit):
        build_parser().parse_args(["trace", "bogus"])


def test_trace_openfoam_exports_valid_chrome_json(tmp_path, capsys):
    out = tmp_path / "of.trace.json"
    assert main(["trace", "openfoam", "--seed", "3", "--out", str(out)]) == 0
    text = capsys.readouterr().out
    assert "flame summary" in text
    assert "top critical-path spans" in text
    assert "component tracks" in text
    document = json.loads(out.read_text())
    assert validate_chrome_trace(document) == []
    assert len(component_tracks(document)) >= 4


def test_trace_ddmd_covers_the_whole_stack(tmp_path, capsys):
    """One complete task lifecycle: >= 4 causally linked component tracks."""
    out = tmp_path / "ddmd.trace.json"
    assert main(["trace", "ddmd", "--seed", "7", "--out", str(out),
                 "--top", "5"]) == 0
    document = json.loads(out.read_text())
    assert validate_chrome_trace(document) == []
    tracks = set(component_tracks(document))
    assert {"entk", "rp-client", "rp-agent", "soma-client",
            "soma-service"} <= tracks

    spans = [
        e for e in document["traceEvents"] if e.get("ph") == "X"
    ]
    by_id = {e["args"]["span_id"]: e for e in spans}
    tid_component = {
        e["tid"]: e["args"]["name"]
        for e in document["traceEvents"]
        if e.get("ph") == "M" and e.get("name") == "thread_name"
    }
    def chain_from(event):
        chain = []
        cursor = event
        while cursor is not None:
            chain.append(tid_component[cursor["tid"]])
            parent = cursor["args"].get("parent_id")
            cursor = by_id.get(parent) if parent is not None else None
        return chain

    # A SOMA serve span walks back through the client, the monitor task
    # and the agent to the monitor's task span: >= 4 component tracks
    # causally linked in one trace.
    serve = next(e for e in spans if e["name"].startswith("rpc.serve:"))
    serve_chain = chain_from(serve)
    assert len(set(serve_chain)) >= 4, serve_chain
    assert serve_chain[0] == "soma-service"
    assert serve_chain[-1] == "rp-client", "monitor tasks root at RP"

    # Application tasks root all the way up at the EnTK pipeline.
    execute_chains = [
        chain_from(e) for e in spans if e["name"] == "agent.execute"
    ]
    entk_rooted = [c for c in execute_chains if c[-1] == "entk"]
    assert entk_rooted, "EnTK-submitted tasks trace back to the pipeline"
    assert all(len(set(c)) >= 3 for c in entk_rooted)

    # The run's counters ride along as "C" events, pinned name by name.
    counters = "".join(
        f"{e['name']} {e['args']['value']!r}\n"
        for e in document["traceEvents"]
        if e.get("ph") == "C"
    )
    check_golden("trace_counters_ddmd_seed7.txt", counters)


def _sweep_argv(tmp_path, tag):
    return [
        "sweep",
        "--filter", "openfoam-tuning",
        "--dir", str(tmp_path / f"sweep-{tag}"),
        "--results-dir", str(tmp_path / f"results-{tag}"),
        "--manifest", str(tmp_path / f"manifest-{tag}.json"),
        "--no-artifacts",
    ]


def test_sweep_telemetry_flag_writes_per_cell_traces(tmp_path, capsys):
    assert main(_sweep_argv(tmp_path, "traced") + ["--telemetry"]) == 0
    out = capsys.readouterr().out
    assert "cell trace(s) under" in out
    trace_path = (
        tmp_path / "sweep-traced" / "traces" / "openfoam-tuning.trace.json"
    )
    assert trace_path.exists()
    document = json.loads(trace_path.read_text())
    assert validate_chrome_trace(document) == []
    assert len(component_tracks(document)) >= 3

    # An independent untraced sweep (fresh cache) computes the same
    # payload digest: zero perturbation holds through the sweep path.
    assert main(_sweep_argv(tmp_path, "plain")) == 0
    capsys.readouterr()

    def digest(tag):
        manifest = json.loads(
            (tmp_path / f"manifest-{tag}.json").read_text()
        )
        (entry,) = manifest["cells"]
        assert entry["source"] == "computed"
        return entry["result_digest"]

    assert digest("traced") == digest("plain")
