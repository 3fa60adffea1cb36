"""CLI entry points."""

import pytest

from repro.cli import build_parser, main


def test_parser_requires_command():
    with pytest.raises(SystemExit):
        build_parser().parse_args([])


def test_info(capsys):
    assert main(["info"]) == 0
    out = capsys.readouterr().out
    assert "repro" in out
    assert "summit-like" in out


def test_openfoam_tuning(capsys):
    assert main(["openfoam", "--experiment", "tuning", "--seed", "3"]) == 0
    out = capsys.readouterr().out
    assert "makespan" in out
    assert "20 ranks" in out


def test_ddmd_tuning(capsys):
    assert main(["ddmd", "--experiment", "tuning", "--seed", "2"]) == 0
    out = capsys.readouterr().out
    assert "simulation" in out
    assert "training" in out


def test_scaling_small(capsys):
    assert (
        main(
            [
                "scaling",
                "--pipelines",
                "4",
                "--modes",
                "none",
                "exclusive",
                "--seed",
                "2",
            ]
        )
        == 0
    )
    out = capsys.readouterr().out
    assert "pipeline runtimes" in out
    assert "vs baseline" in out


def test_facility_smoke(capsys):
    assert (
        main(
            [
                "facility",
                "--pilots",
                "8",
                "--shards",
                "2",
                "--service-nodes",
                "2",
                "--tasks-per-pilot",
                "40",
                "--concurrency",
                "4",
                "--period",
                "30",
                "--seed",
                "3",
            ]
        )
        == 0
    )
    out = capsys.readouterr().out
    assert "stalled tasks" in out
    assert "task samples generated" in out
    assert "Per-shard store occupancy" in out


@pytest.mark.parametrize(
    "argv, option",
    [
        (["facility", "--period", "-5"], "period"),
        (["scaling", "--pipelines", "0"], "--pipelines"),
        (["sweep", "--list", "--jobs", "-3"], "--jobs"),
        (["sweep", "--list", "-j", "0"], "--jobs"),
        (["why", "--top", "0"], "--top"),
        (["trace", "ddmd", "--top", "0"], "--top"),
        (["trace", "ddmd", "--top", "many"], "--top"),
        (["facility", "--period", "nan"], "period"),
        (["bottleneck", "--calibrate", "--margin", "0"], "--margin"),
        (["bottleneck", "--calibrate", "--margin", "nan"], "--margin"),
        (["bottleneck", "--calibrate", "--margin", "-1"], "--margin"),
        (["bottleneck", "clean", "--margin", "2.0"], "--margin"),
        (["facility", "--pilots", "0", "--chaos"], "pilots"),
        (["facility", "--pilots", "-3"], "pilots"),
        (["facility", "--tasks-per-pilot", "-1"], "tasks_per_pilot"),
        (["facility", "--service-nodes", "0"], "service_nodes"),
        (["facility", "--service-nodes", "-2"], "service_nodes"),
        (["openfoam", "--seed", "-1"], "--seed"),
        (["ddmd", "--seed", "-1"], "--seed"),
        (["scaling", "--seed", "-1"], "--seed"),
        (["trace", "ddmd", "--seed", "-1"], "--seed"),
        (["why", "--seed", "-1"], "--seed"),
        (["bottleneck", "--seed", "-1"], "--seed"),
        (["facility", "--seed", "-1"], "--seed"),
        (["lint", "nosuchpath"], "nosuchpath"),
    ],
)
def test_bad_arguments_exit_2_with_one_line(capsys, argv, option):
    with pytest.raises(SystemExit) as exc:
        main(argv)
    assert exc.value.code == 2
    err = capsys.readouterr().err
    assert "Traceback" not in err
    (line,) = [line for line in err.splitlines() if "error:" in line]
    assert argv[0] in line and option in line


def test_facility_json_with_chaos(capsys):
    import json

    assert (
        main(
            [
                "facility",
                "--pilots",
                "8",
                "--shards",
                "2",
                "--service-nodes",
                "2",
                "--tasks-per-pilot",
                "80",
                "--concurrency",
                "4",
                "--period",
                "30",
                "--admission-rate",
                "0.5",
                "--chaos",
                "--json",
                "--seed",
                "3",
            ]
        )
        == 0
    )
    payload = json.loads(capsys.readouterr().out)
    assert payload["stalled_tasks"] == 0
    assert payload["faults_applied"] == 2
    assert payload["samples_generated"] == 8 * 80


def test_bad_mode_rejected():
    with pytest.raises(SystemExit):
        build_parser().parse_args(["scaling", "--modes", "bogus"])


def test_sweep_list(capsys):
    assert main(["sweep", "--list", "--jobs", "4"]) == 0
    out = capsys.readouterr().out
    assert "predicted makespan" in out
    assert "shard 3:" in out
    assert "fig4" in out and "table1" in out


def test_sweep_filter_runs_and_renders(tmp_path, capsys):
    manifest_path = tmp_path / "manifest.json"
    assert (
        main(
            [
                "sweep",
                "--jobs",
                "2",
                "--filter",
                "table1",
                "--dir",
                str(tmp_path / "sweep"),
                "--results-dir",
                str(tmp_path / "results"),
                "--manifest",
                str(manifest_path),
            ]
        )
        == 0
    )
    out = capsys.readouterr().out
    assert "sweep manifest" in out
    assert manifest_path.exists()
    table1 = (tmp_path / "results" / "table1.txt").read_text()
    assert table1.startswith("Table 1: OpenFOAM Experiment Summary")


def test_sweep_unknown_filter_rejected(tmp_path):
    with pytest.raises(SystemExit):
        main(["sweep", "--filter", "no-such-artifact", "--dir", str(tmp_path)])


def test_bottleneck_scenario(capsys):
    assert main(["bottleneck", "oversubscribed", "--seed", "3"]) == 0
    out = capsys.readouterr().out
    assert "cpu_oversubscription" in out
    assert "[ok]" in out


def test_bottleneck_clean_scenario_reports_quiet(capsys):
    assert main(["bottleneck", "clean", "--seed", "3"]) == 0
    out = capsys.readouterr().out
    assert "no findings" in out


def test_bottleneck_json(capsys):
    import json

    assert main(["bottleneck", "imbalance", "--seed", "42", "--json"]) == 0
    report = json.loads(capsys.readouterr().out)
    assert report[0]["scenario"] == "imbalance"
    assert report[0]["ok"] is True
    assert report[0]["findings"][0]["kind"] == "load_imbalance"


def test_bottleneck_unknown_scenario_rejected():
    with pytest.raises(SystemExit):
        main(["bottleneck", "no-such-scenario"])
