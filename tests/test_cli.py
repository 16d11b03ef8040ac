"""Tests for the command-line interface."""

import contextlib
import io
import json

import pytest

from repro.cli import build_parser, main


@pytest.fixture(scope="module")
def systolic_bench_run(tmp_path_factory):
    """One paper-scale ``systolic-bench --json`` run: (stdout, payload)."""
    path = tmp_path_factory.mktemp("systolic_bench") / "bench.json"
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        assert main(["systolic-bench", "--json", str(path)]) == 0
    return out.getvalue(), json.loads(path.read_text())


class TestParser:
    def test_requires_command(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args([])

    def test_unknown_command(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["fig99"])

    def test_rl_defaults(self):
        args = build_parser().parse_args(["rl"])
        assert args.env == "indoor-apartment"
        assert args.iters == 800

    def test_map_env_choices(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["map", "--env", "mars"])


class TestCommands:
    @pytest.mark.parametrize(
        "command,expected",
        [
            (["fig1"], "Indoor 1"),
            (["fig3"], "FC1"),
            (["fig5"], "NVM MB"),
            (["fig6"], "CONV1"),
            (["fig12"], "Lat paper"),
            (["fig13"], "E2E"),
            (["params"], "STT-MRAM"),
            (["map", "--env", "outdoor-forest"], "outdoor-forest"),
        ],
    )
    def test_artifact_commands(self, capsys, command, expected):
        assert main(command) == 0
        out = capsys.readouterr().out
        assert expected in out

    def test_rl_command_short(self, capsys):
        assert main(["rl", "--env", "indoor-house", "--iters", "120"]) == 0
        out = capsys.readouterr().out
        assert "SFD" in out and "E2E" in out

    def test_systolic_bench_layer_only(self, systolic_bench_run):
        """The per-layer AlexNet forward table, all ten MAC layers."""
        out, _payload = systolic_bench_run
        assert "Mcycles" in out and "Wall ms" in out
        for layer in ("CONV1", "CONV5", "FC1", "FC5"):
            assert layer in out
        assert "modelled array time" in out

    def test_systolic_bench_json(self, systolic_bench_run):
        _out, payload = systolic_bench_run
        assert set(payload) == {"alexnet_forward", "metrics"}
        forward = payload["alexnet_forward"]
        assert forward["network"] == "modified-alexnet"
        assert forward["batch"] == 1
        assert forward["total_array_cycles"] > forward["total_macs"] > 0

    def test_systolic_bench_training_mode(self, capsys, tmp_path):
        path = tmp_path / "training.json"
        assert main(["systolic-bench", "--training", "--batch", "2",
                     "--json", str(path)]) == 0
        out = capsys.readouterr().out
        assert "dW Mcyc" in out and "dX Mcyc" in out
        assert "training step" in out
        payload = json.loads(path.read_text())
        assert set(payload) == {"training_step", "metrics"}
        assert payload["training_step"]["total_cycles"] > 0
        assert payload["training_step"]["iterations_per_second"] > 0

    def test_fleet_trace_metrics_json_smoke(self, capsys, tmp_path):
        import json

        trace = tmp_path / "trace.json"
        metrics = tmp_path / "metrics.prom"
        payload_path = tmp_path / "fleet.json"
        assert main([
            "fleet", "--num-envs", "4", "--rounds", "1", "--steps", "20",
            "--eval-steps", "8", "--seed", "1",
            "--envs", "indoor-apartment", "outdoor-forest",
            "--backend", "sharded", "--shards", "2",
            "--trace", str(trace), "--metrics", str(metrics),
            "--json", str(payload_path),
        ]) == 0
        out = capsys.readouterr().out
        assert "Timing breakdown:" in out
        assert "critical shard:" in out

        chrome = json.loads(trace.read_text())
        names = {e["name"] for e in chrome["traceEvents"]}
        assert {"fleet.round", "phase:rollout", "shard.forward"} <= names
        assert all(e["ph"] == "X" for e in chrome["traceEvents"])

        prom = metrics.read_text()
        assert "# TYPE repro_fleet_env_steps_total counter" in prom
        assert "repro_backend_forwards_total" in prom

        payload = json.loads(payload_path.read_text())
        assert set(payload) == {"fleet", "projection", "phases", "metrics"}
        assert payload["fleet"]["rounds"][0]["env_steps"] > 0
        assert "critical_shard_index" in payload["fleet"]["totals"]
        assert "fleet.round" in payload["phases"]
        assert payload["metrics"]["counters"]["repro_fleet_env_steps_total"] > 0

    def test_fleet_pipeline_policy_noc_smoke(self, capsys):
        assert main([
            "fleet", "--num-envs", "4", "--rounds", "1", "--steps", "20",
            "--eval-steps", "0", "--seed", "1",
            "--envs", "indoor-apartment", "outdoor-forest",
            "--backend", "sharded", "--shards", "2",
            "--shard-policy", "pipeline", "--noc", "ring",
        ]) == 0
        out = capsys.readouterr().out
        assert "interconnect (ring NoC):" in out
        assert "pipeline fill/drain" in out

    def test_fleet_noc_and_policy_flags_validated(self):
        parser = build_parser()
        args = parser.parse_args(["fleet", "--noc", "mesh"])
        assert args.noc == "mesh"
        assert parser.parse_args(["fleet"]).noc == "flat"
        assert parser.parse_args(
            ["fleet", "--shard-policy", "pipeline"]
        ).shard_policy == "pipeline"
        with pytest.raises(SystemExit):
            parser.parse_args(["fleet", "--noc", "torus"])
        with pytest.raises(SystemExit):
            parser.parse_args(["fleet", "--shard-policy", "column"])

    def test_fleet_plain_run_has_no_observability_output(self, capsys):
        assert main([
            "fleet", "--num-envs", "2", "--rounds", "1", "--steps", "10",
            "--eval-steps", "0", "--seed", "1",
            "--envs", "indoor-apartment", "outdoor-forest",
        ]) == 0
        assert "Timing breakdown:" not in capsys.readouterr().out

    def test_systolic_bench_json_metrics_block(self, systolic_bench_run, tmp_path):
        _out, payload = systolic_bench_run
        gauges = payload["metrics"]["gauges"]
        assert (
            gauges["repro_bench_forward_macs"]
            == payload["alexnet_forward"]["total_macs"]
        )
        assert gauges["repro_bench_forward_wall_seconds"] > 0

        training = tmp_path / "training.json"
        with contextlib.redirect_stdout(io.StringIO()):
            assert main(["systolic-bench", "--training", "--batch", "2",
                         "--json", str(training)]) == 0
        gauges = json.loads(training.read_text())["metrics"]["gauges"]
        assert gauges["repro_training_step_cycles"] > 0
        assert gauges["repro_training_iterations_per_second"] > 0

    def test_fleet_train_on_array_smoke(self, capsys):
        assert main([
            "fleet", "--num-envs", "4", "--rounds", "1", "--steps", "30",
            "--eval-steps", "0", "--seed", "1",
            "--envs", "indoor-apartment", "outdoor-forest",
            "--backend", "systolic", "--train-on-array",
        ]) == 0
        out = capsys.readouterr().out
        assert "training on array:" in out
        assert "kcycles/update measured" in out
        assert "combined rollout+train utilization" in out

    def test_train_on_array_flag_parses(self):
        args = build_parser().parse_args(["fleet", "--train-on-array"])
        assert args.train_on_array is True
        assert build_parser().parse_args(["fleet"]).train_on_array is False
        bench = build_parser().parse_args(["systolic-bench", "--training"])
        assert bench.training is True
