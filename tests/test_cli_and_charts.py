"""Tests for the CLI and the ASCII chart renderer."""

import json

import pytest

from repro.analysis.charts import ascii_chart
from repro.cli import main
from repro.experiments.registry import ARTIFACTS


def test_chart_renders_all_series():
    series = {"a": [(1, 10.0), (2, 20.0)], "b": [(1, 15.0), (2, 5.0)]}
    text = ascii_chart(series, width=20, height=6, title="t")
    assert text.splitlines()[0] == "t"
    assert "o=a" in text and "x=b" in text
    assert "o" in text and "x" in text


def test_chart_axis_labels():
    text = ascii_chart({"s": [(0, 0.0), (10, 100.0)]}, width=20, height=6)
    assert "100" in text
    assert "0" in text
    assert "10" in text.splitlines()[-2]


def test_chart_flat_series_does_not_crash():
    text = ascii_chart({"s": [(1, 5.0), (2, 5.0)]}, width=15, height=5)
    assert "o=s" in text


def test_chart_single_point():
    assert ascii_chart({"s": [(1, 5.0)]}, width=15, height=5)


def test_chart_validation():
    with pytest.raises(ValueError):
        ascii_chart({})
    with pytest.raises(ValueError):
        ascii_chart({"s": []})
    with pytest.raises(ValueError):
        ascii_chart({"s": [(1, 1.0)]}, width=5, height=2)


def test_chart_y_label():
    text = ascii_chart({"s": [(1, 0.0), (2, 10.0)]}, width=15, height=7,
                       y_label="usec")
    assert "usec" in text


def test_cli_list(capsys):
    assert main(["list"]) == 0
    out = capsys.readouterr().out
    for artifact in ARTIFACTS:
        assert artifact in out


def test_cli_models(capsys):
    from repro.iomodels.registry import model_names
    assert main(["models"]) == 0
    out = capsys.readouterr().out
    for model in model_names():
        assert model in out
    assert "registered I/O model configurations" in out


def test_cli_models_list(capsys):
    from repro.iomodels.registry import model_names
    assert main(["models", "--list"]) == 0
    out = capsys.readouterr().out
    assert tuple(out.split()) == model_names()


def test_cli_models_json(capsys):
    from repro.iomodels.registry import model_names
    assert main(["models", "--json"]) == 0
    payload = json.loads(capsys.readouterr().out)
    assert tuple(entry["name"] for entry in payload) == model_names()
    for entry in payload:
        assert set(entry) == {"name", "description", "net", "block",
                              "polling", "exitless", "ablation",
                              "topologies"}


def test_cli_run_models_filter(capsys):
    assert main(["run", "tab3", "--models", "optimum,swpt"]) == 0
    lines = capsys.readouterr().out.splitlines()
    models = [line.split()[0] for line in lines[2:]]
    assert models == ["optimum", "swpt"]


def test_cli_run_rejects_unknown_model(capsys):
    from repro.iomodels.registry import model_names
    assert main(["run", "tab3", "--models", "optimum,xen"]) == 2
    err = capsys.readouterr().err
    assert "unknown model: xen" in err
    for model in model_names():
        assert model in err


def test_cli_run_rejects_models_on_fixed_cast_artifact(capsys):
    assert main(["run", "fig1", "--models", "vrio"]) == 2
    err = capsys.readouterr().err
    assert "fig1 does not take a --models filter" in err
    assert "filterable artifacts:" in err


def test_model_filterable_artifacts_accept_the_kwarg():
    """An artifact is registered as filterable exactly when its runner
    takes models= (a wrong flag would TypeError at dispatch or silently
    drop the filter)."""
    import inspect

    for name, artifact in ARTIFACTS.items():
        takes_models = "models" in inspect.signature(artifact.run).parameters
        assert artifact.model_filterable == takes_models, name


def test_cli_costs(capsys):
    assert main(["costs"]) == 0
    out = capsys.readouterr().out
    assert "vmhost_ghz" in out
    assert "worker_per_byte_cycles" in out


def test_cli_run_cost_artifact(capsys):
    assert main(["run", "tab2"]) == 0
    out = capsys.readouterr().out
    assert "vrio" in out and "elvis" in out


def test_cli_run_measured_artifact(capsys):
    assert main(["run", "tab3"]) == 0
    out = capsys.readouterr().out
    assert "baseline" in out and "sum" in out


def test_cli_run_with_chart(capsys):
    assert main(["run", "fig9", "--quick", "--chart"]) == 0
    out = capsys.readouterr().out
    assert "Gbps" in out
    assert "o=" in out  # chart legend rendered


def test_cli_chart_on_table_artifact(capsys):
    assert main(["run", "tab2", "--chart"]) == 0
    out = capsys.readouterr().out
    assert "no chartable series" in out


def test_cli_rejects_unknown_artifact(capsys):
    """An unknown artifact id exits non-zero and lists the valid ids."""
    assert main(["run", "fig99"]) == 2
    captured = capsys.readouterr()
    assert "unknown artifact: fig99" in captured.err
    assert "valid artifacts:" in captured.err
    assert "all" in captured.err
    for artifact in ARTIFACTS:
        assert artifact in captured.err


def test_cli_run_with_cache_dir(capsys, tmp_path):
    """--cache-dir populates the cache; a re-run replays from it and the
    two outputs are identical."""
    cache_dir = str(tmp_path / "cache")
    assert main(["run", "tab3", "--cache-dir", cache_dir]) == 0
    first = capsys.readouterr().out
    assert (tmp_path / "cache").is_dir()  # entries were written
    assert main(["run", "tab3", "--cache-dir", cache_dir]) == 0
    second = capsys.readouterr().out
    assert first == second


def test_cli_run_parallel_matches_serial(capsys, tmp_path):
    """--jobs 2 output is byte-identical to --jobs 1 (acceptance)."""
    assert main(["run", "tab3", "--jobs", "1", "--no-cache"]) == 0
    serial = capsys.readouterr().out
    assert main(["run", "tab3", "--jobs", "2", "--no-cache"]) == 0
    parallel = capsys.readouterr().out
    assert serial == parallel


def test_cli_rejects_bad_jobs(capsys):
    with pytest.raises(SystemExit):
        main(["run", "tab3", "--jobs", "0"])
    with pytest.raises(SystemExit):
        main(["run", "tab3", "--jobs", "fast"])


@pytest.mark.parametrize("argv", [["bench"], ["verify", "--engine"]],
                         ids=["bench", "verify-engine"])
def test_cli_retired_bench_entry_points_are_usage_errors(argv, capsys):
    """Benchmarking lives in bench/run.py; the CLI has no bench surface."""
    with pytest.raises(SystemExit) as exc:
        main(argv)
    assert exc.value.code == 2
    assert "usage:" in capsys.readouterr().err


def test_cli_trace(capsys):
    assert main(["trace"]) == 0
    out = capsys.readouterr().out
    assert "iohost_service" in out
    assert "guest_deliver" in out
    assert "request" in out and "response" in out


def test_cli_no_command_shows_help(capsys):
    assert main([]) == 1


def test_every_artifact_has_description():
    """Every registry entry has a title, a runner and a formatter, and its
    full and quick parameters bind to the runner's signature."""
    import inspect

    for name, artifact in ARTIFACTS.items():
        assert artifact.name == name and artifact.title
        assert callable(artifact.run) and callable(artifact.format)
        signature = inspect.signature(artifact.run)
        for quick in (False, True):
            signature.bind(**artifact.params(quick), jobs=1, cache=None)
