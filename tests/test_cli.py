"""Command dispatch, emission formats, config round-trip, exit codes."""

import argparse
import csv
import json
import shlex
from pathlib import Path

import numpy as np
import pytest

import noma_harq.cli as cli
import noma_harq.markov as markov
from noma_harq.cli import main
from noma_harq.fbl import CodeParams
from noma_harq.montecarlo import SimConfig, simulate_coordinated, \
    simulate_oma_baseline, simulate_uncoordinated
from noma_harq.sic import SystemConfig, SystemState

README = Path(__file__).resolve().parents[1] / "README.md"
ANCHOR_ARGS = ["--alphas", "0.29,0.35,0.36", "--snr-db", "-2.02",
              "--rate", "0.25", "--blocklength", "100"]


def readme_cli_examples():
    """Arguments of each noma-harq command in README's CLI block."""
    block = README.read_text().split("## CLI", 1)[1].split("```bash", 1)[1]
    lines = block.split("```", 1)[0].replace("\\\n", " ").splitlines()
    return [shlex.split(line)[1:] for line in lines if line.startswith("noma-harq ")]


@pytest.fixture
def analyzed_sizes(monkeypatch):
    """Cluster sizes of the analyze calls a command makes, in order."""
    sizes = []
    real = markov.analyze

    def counting(cfg):
        sizes.append(cfg.n_users)
        return real(cfg)

    monkeypatch.setattr(cli, "analyze", counting)
    monkeypatch.setattr(markov, "analyze", counting)
    return sizes


def run_json(tmp_path, args, name="out.json"):
    out = tmp_path / name
    code = main(args + ["--format", "json", "--out", str(out)])
    assert code == 0
    return json.loads(out.read_text())


class TestAnalyze:
    def test_published_anchor(self, tmp_path):
        payload = run_json(tmp_path, ["analyze"] + ANCHOR_ARGS)
        worst = max(r["per"] for r in payload["results"])
        assert 7.5e-3 / 3 <= worst <= 7.5e-3 * 3
        assert payload["meta"]["command"] == "analyze"
        assert payload["meta"]["config"]["snr_db"] == -2.02

    def test_single_user_high_power(self, tmp_path):
        payload = run_json(tmp_path, [
            "analyze", "--alphas", "1.0", "--snr-db", "40",
            "--rate", "0.25", "--blocklength", "100",
        ])
        row = payload["results"][0]
        assert row["per"] <= 1e-12
        assert row["eta"] == pytest.approx(0.25, abs=1e-9)

    def test_emit_matrix_rows_stochastic(self, tmp_path):
        matrix_path = tmp_path / "pi.csv"
        code = main(["analyze"] + ANCHOR_ARGS + [
            "--emit-matrix", str(matrix_path), "--out", str(tmp_path / "a.csv"),
        ])
        assert code == 0
        with open(matrix_path) as fh:
            rows = list(csv.reader(fh))
        header, data = rows[0], rows[1:]
        assert len(header) == 27 and len(data) == 27
        for row in data:
            assert abs(sum(float(v) for v in row) - 1.0) <= 1e-9

    def test_state_table(self, tmp_path):
        table_path = tmp_path / "states.csv"
        main(["analyze"] + ANCHOR_ARGS + [
            "--state-table", str(table_path), "--out", str(tmp_path / "a.csv"),
        ])
        with open(table_path) as fh:
            rows = list(csv.reader(fh))
        assert rows[0] == ["index", "phases", "probability"]
        probs = [float(r[2]) for r in rows[1:]]
        assert len(probs) == 27
        assert sum(probs) == pytest.approx(1.0, abs=1e-9)

    def test_state_table_names_phases_as_the_scalar_oracle(self, tmp_path):
        table_path = tmp_path / "states.csv"
        main(["analyze"] + ANCHOR_ARGS + [
            "--state-table", str(table_path), "--out", str(tmp_path / "a.csv"),
        ])
        with open(table_path) as fh:
            rows = list(csv.reader(fh))[1:]
        assert [(int(r[0]), r[1]) for r in rows] == [
            (s, "".join(p.name for p in SystemState.from_index(s, 3).phases))
            for s in range(27)]

    def test_matrix_built_once_for_both_dumps(self, tmp_path, monkeypatch):
        built = []
        real = cli.build_transition_matrix
        monkeypatch.setattr(cli, "build_transition_matrix",
                            lambda cfg: built.append(cfg) or real(cfg))
        assert main(["analyze"] + ANCHOR_ARGS + [
            "--emit-matrix", str(tmp_path / "pi.csv"),
            "--state-table", str(tmp_path / "states.csv"),
            "--out", str(tmp_path / "a.csv"),
        ]) == 0
        assert len(built) == 1

    def test_csv_header_and_meta(self, tmp_path, capsys):
        assert main(["analyze"] + ANCHOR_ARGS) == 0
        out = capsys.readouterr().out.splitlines()
        meta_lines = [l for l in out if l.startswith("#")]
        assert any("tool=noma-harq" in l for l in meta_lines)
        assert any("schema=1" in l for l in meta_lines)
        header = [l for l in out if not l.startswith("#")][0]
        assert header.split(",")[:4] == ["user", "per", "p_s", "eta"]


class TestSweep:
    def test_single_point_matches_analyze(self, tmp_path):
        analyze_payload = run_json(tmp_path, ["analyze"] + ANCHOR_ARGS, "a.json")
        sweep_payload = run_json(tmp_path, ["sweep"] + ANCHOR_ARGS, "s.json")
        for a, s in zip(analyze_payload["results"], sweep_payload["results"]):
            assert s["per"] == pytest.approx(a["per"], rel=1e-12)
            assert s["eta"] == pytest.approx(a["eta"], rel=1e-12)
            assert s["scenario"] == "coordinated"

    def test_grid_parsing_and_monotone_per(self, tmp_path):
        payload = run_json(tmp_path, [
            "sweep", "--alphas", "0.27,0.32,0.41", "--snr-db", "1:7:7",
            "--rate", "0.5", "--blocklength", "100",
        ])
        rows = payload["results"]
        assert len(rows) == 21  # 7 grid points x 3 users
        worst = {}
        for r in rows:
            worst[r["snr_db"]] = max(worst.get(r["snr_db"], 0.0), r["per"])
        snrs = sorted(worst)
        assert all(worst[a] >= worst[b] for a, b in zip(snrs, snrs[1:]))

    def test_oma_rows_included(self, tmp_path):
        payload = run_json(tmp_path, ["sweep"] + ANCHOR_ARGS + ["--oma"])
        scenarios = {r["scenario"] for r in payload["results"]}
        assert scenarios == {"coordinated", "oma"}

    def test_oma_reuses_the_cluster_analysis(self, tmp_path, analyzed_sizes):
        run_json(tmp_path, ["sweep", "--alphas", "0.29,0.35,0.36", "--snr-db", "0,1",
                            "--rate", "0.25", "--blocklength", "100", "--oma"])
        # per grid point the 3-user cluster once; the baseline is closed form
        assert analyzed_sizes == [3, 3]

    def test_analytic_rows_carry_no_seed(self, tmp_path, capsys):
        payload = run_json(tmp_path, ["sweep"] + ANCHOR_ARGS + ["--oma"])
        assert {r["seed"] for r in payload["results"]} == {None}
        assert "seed" not in payload["meta"]["config"]
        assert main(["sweep"] + ANCHOR_ARGS) == 0
        rows = [l for l in capsys.readouterr().out.splitlines()
                if not l.startswith("#")]
        assert rows[0].endswith(",seed")
        assert all(row.endswith(",") for row in rows[1:])

    def test_crowded_high_rate_error_floor(self, tmp_path):
        payload = run_json(tmp_path, [
            "sweep", "--alphas", "0.11,0.15,0.2,0.24,0.3", "--snr-db", "6:14:5",
            "--rate", "0.5", "--blocklength", "100",
        ])
        rows = payload["results"]
        top = max(r["snr_db"] for r in rows)
        worst_at_top = max(r["per"] for r in rows if r["snr_db"] == top)
        assert worst_at_top > 1e-5


class TestOptimizeAndBlocklength:
    def test_min_blocklength_single_user(self, tmp_path):
        payload = run_json(tmp_path, [
            "min-blocklength", "--users", "1", "--bits", "50", "--snr-db", "-3",
            "--target-per", "1e-3", "--population", "8", "--generations", "2",
        ])
        row = payload["results"][0]
        assert row["n_min"] > 51
        assert row["alpha_1"] == 1.0

    def test_min_blocklength_infeasible_exit_code(self, tmp_path, capsys):
        code = main([
            "min-blocklength", "--users", "1", "--bits", "50", "--snr-db", "-20",
            "--target-per", "1e-9", "--max-n", "70",
            "--population", "8", "--generations", "2",
        ])
        assert code == 3
        assert capsys.readouterr().err.startswith(
            "error: no blocklength up to 70 meets PER 1e-09 at -20 dB")

    def test_min_blocklength_bound_rules_out_every_n(self, capsys):
        # at -20 dB, 4096 channel uses carry ~20 bits per user, not 50
        code = main([
            "min-blocklength", "--users", "3", "--bits", "50", "--snr-db", "-20",
            "--target-per", "1e-9", "--population", "8", "--generations", "2",
            "--verbose",
        ])
        assert code == 3
        err = capsys.readouterr().err
        assert err.startswith("error: no blocklength up to 4096 meets PER 1e-09")
        assert "generation" not in err

    def test_verbose_generation_log(self, tmp_path, capsys):
        code = main([
            "min-blocklength", "--users", "1", "--bits", "50", "--snr-db", "20",
            "--target-per", "0.99", "--population", "8", "--generations", "3",
            "--verbose", "--out", str(tmp_path / "o.csv"),
        ])
        assert code == 0
        # single-variable searches skip the GA loop entirely; use two users
        code = main([
            "optimize-pareto", "--users", "2", "--rate", "0.25",
            "--blocklength", "100", "--snr-db", "0", "--population", "8",
            "--generations", "3", "--verbose", "--out", str(tmp_path / "f.csv"),
        ])
        assert code == 0
        err = capsys.readouterr().err
        assert "generation 2" in err

    def test_pareto_csv_columns(self, tmp_path):
        out = tmp_path / "front.csv"
        # grids starting with a negative value need the = form under argparse
        code = main([
            "optimize-pareto", "--users", "2", "--rate", "0.25",
            "--blocklength", "100", "--snr-db=-2,0",
            "--population", "12", "--generations", "10", "--out", str(out),
        ])
        assert code == 0
        lines = [l for l in out.read_text().splitlines() if not l.startswith("#")]
        assert lines[0] == "p0_db,max_per,alpha_1,alpha_2"
        assert len(lines) >= 2


class TestSimulate:
    def test_coordinated_run(self, tmp_path):
        payload = run_json(tmp_path, [
            "simulate", "--alphas", "0.29,0.35,0.36", "--snr-db", "-2.02",
            "--rate", "0.25", "--blocklength", "100", "--slots", "50000",
            "--seed", "5", "--warmup", "500",
        ])
        rows = payload["results"]
        assert len(rows) == 3
        worst = max(r["per"] for r in rows)
        assert 1e-3 <= worst <= 5e-2
        assert all(r["seed"] == 5 for r in rows)

    def test_oma_reuses_the_cluster_analysis(self, tmp_path, analyzed_sizes):
        payload = run_json(tmp_path, [
            "simulate", "--alphas", "0.29,0.35,0.36", "--snr-db", "-2.02",
            "--rate", "0.25", "--blocklength", "100", "--slots", "20000",
            "--seed", "5", "--warmup", "500", "--oma",
        ])
        assert len(payload["results"]) == 6
        # the matched power analyzes the cluster once; nothing else does
        assert analyzed_sizes == [3]

    def test_uncoordinated_with_mismatch(self, tmp_path):
        payload = run_json(tmp_path, [
            "simulate", "--scenario", "uncoordinated", "--alphas",
            "0.29,0.35,0.36", "--snr-db", "-2.02", "--rate", "0.25",
            "--blocklength", "100", "--slots", "40000", "--users", "2",
            "--episodes", "10", "--warmup", "100", "--seed", "5",
        ])
        rows = payload["results"]
        assert len(rows) == 2
        assert all(r["n_hat"] == 3 and r["N"] == 2 for r in rows)

    @pytest.mark.parametrize("scenario, extra", [
        ("coordinated", ["--oma"]),
        ("uncoordinated", ["--users", "2", "--episodes", "2"]),
    ], ids=["coordinated", "uncoordinated"])
    def test_grid_rows_match_per_point_runs(self, scenario, extra, tmp_path):
        payload = run_json(tmp_path, [
            "simulate", "--scenario", scenario, "--alphas", "0.29,0.35,0.36",
            "--snr-db=-2:0:2", "--rate", "0.25", "--blocklength", "100",
            "--slots", "6000", "--warmup", "100", "--seed", "5"] + extra)
        expected = []
        for idx, snr in enumerate([-2.0, 0.0]):
            system = SystemConfig(alphas=(0.29, 0.35, 0.36), p0=10 ** (snr / 10),
                                  code=CodeParams(k=25, n=100))
            if scenario == "coordinated":
                cfg = SimConfig(system=system, slots=6000, seed=5 + idx, warmup=100)
                runs = [simulate_coordinated(cfg), simulate_oma_baseline(cfg)]
            else:
                runs = [simulate_uncoordinated(SimConfig(
                    system=system, slots=6000, seed=5 + idx, warmup=100,
                    scenario="uncoordinated", n_actual=2, episodes=2))]
            expected += [row for sim in runs
                         for row in cli._sim_rows(sim, snr, system.code)]
        assert payload["results"] == json.loads(json.dumps(expected))


class TestCellplanCommand:
    def test_plan_emitted(self, tmp_path):
        out = tmp_path / "plan.json"
        code = main(["cellplan", "--alphas", "0.1,0.2,0.3,0.4", "--out", str(out)])
        assert code == 0
        payload = json.loads(out.read_text())
        grid = np.array(payload["plan"]["assignment"])
        assert grid.shape == (4, 4)
        for ring in range(4):
            assert set(grid[ring]) == {0, 1, 2, 3}
        assert payload["meta"]["config"]["out"] == str(out)

    def test_empty_ratio_list_refused(self, tmp_path, capsys):
        out = tmp_path / "plan.json"
        assert main(["cellplan", "--alphas", ",", "--out", str(out)]) == 2
        assert capsys.readouterr().err == "error: a plan needs at least one ratio\n"
        assert not out.exists()

    def test_config_with_removed_n_hat(self, tmp_path):
        # a header of an earlier version holds n_hat, which was the ratio
        # count; read as an unknown key, it reproduces the same plan
        earlier = {
            "meta": {"tool": "noma-harq", "version": "0.1.0", "schema": 1,
                     "command": "cellplan",
                     "config": {"n_hat": 3, "alphas": "0.36,0.29,0.35",
                                "r_outer": 1200.0, "rotation": 1}},
            "plan": {"n_hat": 3, "r_outer": 1200.0,
                     "ring_radii": [692.8203230275509, 979.7958971132713, 1200.0],
                     "assignment": [[1, 2, 0], [2, 0, 1], [0, 1, 2]],
                     "rotation": 1},
        }
        config = tmp_path / "earlier.json"
        config.write_text(json.dumps(earlier))
        out = tmp_path / "plan.json"
        assert main(["cellplan", "--config", str(config), "--out", str(out)]) == 0
        assert json.loads(out.read_text())["plan"] == earlier["plan"]


class TestErrorsAndRoundTrip:
    def test_bad_alphas_usage_error(self, capsys):
        assert main(["analyze", "--alphas", "0.5,0.6", "--snr-db", "0",
                     "--rate", "0.25", "--blocklength", "100"]) == 2
        assert "sum to 1" in capsys.readouterr().err

    def test_missing_parameter_usage_error(self, capsys):
        assert main(["analyze", "--snr-db", "0", "--rate", "0.25",
                     "--blocklength", "100"]) == 2
        assert "--alphas" in capsys.readouterr().err

    NINE = ",".join([repr(1 / 9)] * 9)
    CODE = ["--rate", "0.25", "--blocklength", "100"]

    @pytest.mark.parametrize("args", [
        ["analyze", "--alphas", NINE, "--snr-db", "0"] + CODE,
        ["sweep", "--alphas", NINE, "--snr-db", "0,1"] + CODE,
        ["simulate", "--alphas", "0.29,0.35,0.36", "--snr-db", "0",
         "--scenario", "uncoordinated", "--users", "9"] + CODE,
        ["min-blocklength", "--users", "9", "--bits", "50", "--snr-db", "0",
         "--target-per", "0.01"],
    ], ids=["analyze", "sweep", "simulate-uncoordinated", "min-blocklength"])
    def test_user_cap_usage_error(self, args, capsys):
        assert main(args) == 2
        assert "9 users exceeds the 8-user cap" in capsys.readouterr().err

    @pytest.mark.parametrize("args, message", [
        (["sweep", "--alphas", "0.5,0.6"], "sum to 1"),
        (["simulate", "--alphas", "0.29,0.35,0.36", "--scenario", "uncoordinated",
          "--slots", "1000", "--episodes", "2", "--warmup", "500"], "warmup"),
    ], ids=["ratios", "warmup"])
    def test_sweep_bad_point_usage_error(self, args, message, capsys):
        assert main(args + ["--snr-db", "0"] + self.CODE) == 2
        assert message in capsys.readouterr().err

    def test_failed_solve_exit_code(self, capsys):
        # every stationary solve underflows to NaN at this point
        with np.errstate(all="ignore"):
            assert main(["analyze", "--alphas", "0.0888,0.072,0.0312,0.634,0.174",
                         "--snr-db=-10", "--rate", "0.5", "--blocklength", "100"]) == 3
        assert capsys.readouterr().err.startswith("error: stationary solve")

    def test_config_round_trip(self, tmp_path):
        first = run_json(tmp_path, ["analyze"] + ANCHOR_ARGS, "first.json")
        second = run_json(tmp_path, [
            "analyze", "--config", str(tmp_path / "first.json"),
        ], "second.json")
        assert first["results"] == second["results"]

    def test_flags_override_config(self, tmp_path):
        run_json(tmp_path, ["analyze"] + ANCHOR_ARGS, "base.json")
        bumped = run_json(tmp_path, [
            "analyze", "--config", str(tmp_path / "base.json"),
            "--snr-db", "0.69",
        ], "bumped.json")
        assert bumped["meta"]["config"]["snr_db"] == 0.69

    def test_simulate_round_trip_reproduces(self, tmp_path):
        args = ["simulate", "--alphas", "0.29,0.35,0.36", "--snr-db", "-2.02",
                "--rate", "0.25", "--blocklength", "100", "--slots", "30000",
                "--seed", "9", "--warmup", "300"]
        first = run_json(tmp_path, args, "sim1.json")
        second = run_json(tmp_path, [
            "simulate", "--config", str(tmp_path / "sim1.json"),
        ], "sim2.json")
        assert first["results"] == second["results"]


def subcommands() -> dict:
    """Name -> subparser of every command of build_parser()."""
    parser = cli.build_parser()
    return next(a for a in parser._actions
                if isinstance(a, argparse._SubParsersAction)).choices


# a valid cheap value for every option of every command (None: a switch)
AUDIT_VALUES = {
    "--alphas": "0.4,0.6", "--snr-db": "0", "--rate": "0.25", "--blocklength": "100",
    "--oma": None, "--users": "2", "--population": "4", "--generations": "1",
    "--verbose": None, "--seed": "3", "--bits": "20", "--target-per": "0.5",
    "--max-n": "200", "--scenario": "coordinated", "--slots": "2000",
    "--episodes": "1", "--warmup": "100", "--r-outer": "1000", "--rotation": "1",
    "--format": "json",
}


class TestOptionAudit:
    @pytest.mark.parametrize("command", sorted(subcommands()))
    def test_every_option_lands_in_the_header(self, command, tmp_path):
        # an option a command offers but never reads would be missing here
        out = tmp_path / "out.json"
        values = dict(AUDIT_VALUES, **{"--out": str(out),
                                       "--emit-matrix": str(tmp_path / "pi.csv"),
                                       "--state-table": str(tmp_path / "states.csv")})
        argv, dests = [command], []
        for action in subcommands()[command]._actions:
            flag = next((o for o in action.option_strings if o.startswith("--")), None)
            if flag in (None, "--help", "--config"):
                continue
            argv += [flag] if values[flag] is None else [f"{flag}={values[flag]}"]
            dests.append(action.dest)
        assert main(argv) == 0
        config = json.loads(out.read_text())["meta"]["config"]
        assert [d for d in dests if d not in config] == []


class TestReadmeExamples:
    def test_every_example_parses(self):
        # a removed flag or command cannot leave a dead example behind
        examples = readme_cli_examples()
        assert {argv[0] for argv in examples} == {
            "analyze", "sweep", "optimize-pareto", "min-blocklength", "simulate",
            "cellplan"}
        for argv in examples:
            assert cli.build_parser().parse_args(argv).command == argv[0]


class TestInputChecks:
    NINE = ",".join([repr(1 / 9)] * 9)
    CODE = ["--rate", "0.25", "--blocklength", "100"]

    @pytest.mark.parametrize("snr_db", ["0", "0,1"], ids=["simulate", "simulate-grid"])
    def test_nine_planned_ratios_usage_error(self, snr_db, capsys):
        # three placed users, but nine ratios plan nine decode tables
        assert main(["simulate", "--alphas", self.NINE, "--snr-db", snr_db,
                     "--scenario", "uncoordinated", "--users", "3",
                     "--slots", "2000", "--episodes", "1", "--warmup", "100"]
                    + self.CODE) == 2
        assert "9 users exceeds the 8-user cap" in capsys.readouterr().err

    def test_single_point_grid_must_not_drop_stop(self, capsys):
        assert main(["sweep"] + ANCHOR_ARGS[:2] + ["--snr-db", "0:4:1"]
                    + self.CODE) == 2
        assert "stop differs from start" in capsys.readouterr().err
        assert cli._parse_grid("2:2:1") == [2.0]

    def test_rate_must_give_integer_bits(self, capsys):
        assert main(["analyze", "--alphas", "0.29,0.35,0.36", "--snr-db", "0",
                     "--rate", "0.333", "--blocklength", "100"]) == 2
        assert "not an integer" in capsys.readouterr().err

    PAIR = ["--alphas", "0.5,0.5", "--snr-db", "0"]
    GA = ["--users", "2", "--population", "8", "--generations", "2"]

    @pytest.mark.parametrize("args, named", [
        (["optimize-pareto", "--users", "2", "--snr-db", "0", "--population", "2"]
         + CODE, "population_size"),
        (["optimize-pareto", "--users", "0", "--snr-db", "0"] + CODE, "0 users"),
        (["optimize-pareto", "--snr-db", ","] + GA + CODE, "SNR grid ','"),
        (["min-blocklength", "--bits", "50", "--snr-db", "0", "--target-per", "2"]
         + GA, "target_per"),
        (["min-blocklength", "--bits", "0", "--snr-db", "0", "--target-per", "0.01"]
         + GA, "information bits"),
        (["analyze", "--alphas", "0.5,0.5", "--snr-db", "x"] + CODE, "--snr-db"),
        (["analyze", "--rate", "0.25", "--config", "BAD_CONFIG"] + PAIR, "--blocklength"),
        (["simulate", "--scenario", "uncoordinated", "--users", "0"] + PAIR + CODE,
         "0 users"),
        (["min-blocklength", "--bits", "50", "--snr-db", "0", "--target-per", "0.01",
          "--max-n", "10"] + GA, "n_cap 10 leaves no blocklength"),
        (["min-blocklength", "--bits", "50", "--snr-db", "0", "--target-per", "0.01",
          "--max-n=-5"] + GA, "n_cap -5 leaves no blocklength"),
        (["simulate", "--users", "5"] + PAIR + CODE, "exactly the configured users"),
        (["simulate", "--episodes", "3"] + PAIR + CODE, "single episode"),
        (["sweep", "--config", "UNCOORDINATED_CONFIG"] + PAIR + CODE,
         "simulate runs uncoordinated grids"),
        # only a plain object or an emitted header is a config
        (["cellplan", "--config", "NESTED_CONFIG"], "--alphas"),
    ], ids=["population", "pareto-users", "empty-grid", "target-per", "bits",
            "snr-db", "config-cast", "simulate-users", "max-n", "negative-max-n",
            "coordinated-users", "coordinated-episodes", "sweep-uncoordinated-config",
            "nested-config"])
    def test_bad_input_usage_error(self, args, named, tmp_path, capsys):
        configs = {"BAD_CONFIG": {"blocklength": "abc"},
                   "UNCOORDINATED_CONFIG": {"scenario": "uncoordinated"},
                   "NESTED_CONFIG": {"config": {"alphas": "0.5,0.5"}}}
        for name, data in configs.items():
            (tmp_path / name).write_text(json.dumps(data))
        assert main([str(tmp_path / a) if a in configs else a for a in args]) == 2
        assert named in capsys.readouterr().err

    PARETO = ["optimize-pareto", "--snr-db", "0"] + CODE
    BLOCKLENGTH = ["min-blocklength", "--bits", "50", "--snr-db", "0", "--target-per", "0.01"]

    @pytest.mark.parametrize("args", [
        PARETO + GA + ["--seed", "-1"],
        ["simulate", "--seed", "-1"] + PAIR + CODE,
        BLOCKLENGTH + GA + ["--seed", "-1"],
        PARETO + ["--users", "2", "--population", "8", "--generations", "-1"],
        BLOCKLENGTH + ["--users", "2", "--population", "8", "--generations", "-1"],
    ], ids=["pareto-seed", "simulate-seed", "min-blocklength-seed", "pareto-generations",
            "min-blocklength-generations"])
    def test_negative_seed_or_generations_usage_error(self, args, capsys):
        # numpy refuses a negative seed with a traceback, and a negative
        # generation count ran no generation at all
        assert main(args) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: ") and "seed >= 0" in err

    def test_zero_generations_runs(self, tmp_path):
        payload = run_json(tmp_path, self.PARETO + ["--users", "2", "--population", "8",
                                                    "--generations", "0"])
        assert len(payload["results"]) == 1

    SWEEP = ["sweep"] + PAIR + CODE
    CELLPLAN = ["cellplan", "--alphas", "0.5,0.5"]

    @pytest.mark.parametrize("command, removed", [
        (SWEEP, ["--scenario", "coordinated"]), (SWEEP, ["--users", "2"]),
        (SWEEP, ["--slots", "2000"]), (SWEEP, ["--episodes", "1"]),
        (SWEEP, ["--warmup", "100"]), (SWEEP, ["--n-hat", "2"]),
        (["simulate", "--slots", "2000"] + PAIR + CODE, ["--n-hat", "2"]),
        (["analyze"] + PAIR + CODE, ["--seed", "5"]), (SWEEP, ["--seed", "40"]),
        (CELLPLAN, ["--seed", "9"]), (CELLPLAN, ["--format", "csv"]),
        (CELLPLAN, ["--n-hat", "2"]),
    ], ids=["sweep-scenario", "sweep-users", "sweep-slots", "sweep-episodes",
            "sweep-warmup", "sweep-n-hat", "simulate-n-hat", "analyze-seed",
            "sweep-seed", "cellplan-seed", "cellplan-format", "cellplan-n-hat"])
    def test_removed_simulation_flags_rejected(self, command, removed):
        # each flag changed no number of the output: it was ignored, or its
        # one accepted value was the ratio count
        assert cli.build_parser().parse_args(command).command == command[0]
        with pytest.raises(SystemExit) as exc:
            main(command + removed)
        assert exc.value.code == 2

    @pytest.mark.parametrize("flag", ["--crossover-rate", "--mutation-rate",
                                      "--mutation-sigma", "--elitism"])
    def test_removed_ga_flags_rejected(self, flag):
        with pytest.raises(SystemExit) as exc:
            main(["optimize-pareto", "--users", "2", "--snr-db", "0", flag, "1"]
                 + self.CODE)
        assert exc.value.code == 2

    def test_config_with_removed_ga_keys(self, tmp_path):
        # headers of earlier versions hold the operator settings; at the
        # constants' values they reproduce the same search
        args = ["optimize-pareto", "--users", "2", "--snr-db=-1,0", "--population",
                "8", "--generations", "3"] + self.CODE
        plain = run_json(tmp_path, args, "plain.json")
        config = tmp_path / "old.json"
        config.write_text(json.dumps({"meta": {"config": {
            "crossover_rate": 0.8, "mutation_rate": 0.1, "mutation_sigma": 0.05,
            "elitism": 2}}}))
        old = run_json(tmp_path, args + ["--config", str(config)], "old.json")
        assert old["results"] == plain["results"]
