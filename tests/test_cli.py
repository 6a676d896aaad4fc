"""Command dispatch, emission formats, config round-trip, exit codes."""

import argparse
import csv
import json
import shlex
import tracemalloc
from pathlib import Path

import numpy as np
import pytest

import noma_harq.cli as cli
import noma_harq.markov as markov
from noma_harq.cli import main
from noma_harq.errors import NumericalError
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
    """Cluster sizes of the configs a command analyses, in order: one
    entry per config, whether it went to analyze alone or in a stack."""
    sizes = []
    real = markov.analyze

    def counting(cfg):
        sizes.extend(c.n_users for c in ([cfg] if isinstance(cfg, SystemConfig) else cfg))
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

    @pytest.mark.parametrize("alphas, grid, rate, n", [
        ("0.4,0.6", "-16:4:11", "0.25", "100"),
        ("0.16,0.18,0.2,0.22,0.24", "-10:4:8", "0.25", "200"),
    ], ids=["N2", "N5"])
    def test_rows_equal_per_point_analysis(self, alphas, grid, rate, n, tmp_path,
                                           monkeypatch):
        # the grid is analysed as one stack; each row must still be the
        # point's own analysis, bit for bit, on both sides of PIVOT_FLOOR
        gth_chains = []
        gth = markov._gth

        def spy(src, dst, prob, m):
            gth_chains.append(m)
            return gth(src, dst, prob, m)

        monkeypatch.setattr(markov, "_gth", spy)
        rows = run_json(tmp_path, ["sweep", "--alphas", alphas, f"--snr-db={grid}",
                                   "--rate", rate, "--blocklength", n, "--oma"])["results"]
        points = sorted({r["snr_db"] for r in rows})
        assert 0 < len(gth_chains) < len(points)
        code = CodeParams(k=round(float(rate) * int(n)), n=int(n))
        for snr in points:
            cfg = SystemConfig(alphas=cli._parse_alphas(alphas),
                               p0=cli.db_to_linear(snr), code=code)
            metrics = markov.analyze(cfg)
            want = {"coordinated": metrics, "oma": markov.oma_metrics(cfg, metrics)}
            for r in (r for r in rows if r["snr_db"] == snr):
                m = want[r["scenario"]][r["user"] - 1]
                assert (r["per"], r["p_s"], r["eta"]) == \
                    (m.per, m.success_prob, m.throughput)
        assert len(rows) == 2 * len(points) * len(cli._parse_alphas(alphas))

    def test_first_failing_point_sets_the_error(self, capsys):
        # -14, -10 and -13 dB all fail, each with its own message
        args = ["--alphas", "0.0888,0.072,0.0312,0.634,0.174", "--rate", "0.5",
                "--blocklength", "100"]
        with np.errstate(all="ignore"):
            code = CodeParams(k=50, n=100)
            with pytest.raises(NumericalError) as alone:
                markov.analyze(SystemConfig(alphas=cli._parse_alphas(args[1]),
                                            p0=cli.db_to_linear(-14.0), code=code))
            assert main(["sweep", "--snr-db=-11,-14,-10,-13"] + args) == 3
        assert capsys.readouterr().err == f"error: {alone.value}\n"
        assert "4 closed classes" in str(alone.value)


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


class TestParserReuse:
    SWEEP = ["sweep", "--alphas", "0.4,0.6", "--snr-db=0,2", "--rate", "0.25",
             "--blocklength", "100"]

    @staticmethod
    def fresh_output(argv, capsys):
        """Standard output of argv run on a newly built parser."""
        cli.build_parser.cache_clear()
        assert main(argv) == 0
        return capsys.readouterr().out

    def test_parser_built_once(self):
        assert cli.build_parser() is cli.build_parser()

    @pytest.mark.parametrize("first, second", [
        (SWEEP + ["--oma"], SWEEP),
        (["analyze"] + ANCHOR_ARGS + ["--format", "json"], ["analyze"] + ANCHOR_ARGS),
    ], ids=["sweep-oma", "analyze-format"])
    def test_consecutive_calls_leak_no_state(self, first, second, capsys):
        want = [self.fresh_output(argv, capsys) for argv in (first, second)]
        cli.build_parser.cache_clear()
        got = []
        for argv in (first, second):
            assert main(argv) == 0
            got.append(capsys.readouterr().out)
        assert got == want

    def test_usage_error_leaks_no_state(self, capsys):
        want = self.fresh_output(self.SWEEP, capsys)
        cli.build_parser.cache_clear()
        parser = cli.build_parser()
        # --oma parses before the unknown flag stops the run
        with pytest.raises(SystemExit) as exc:
            main(self.SWEEP + ["--oma", "--format", "json", "--users", "3"])
        assert exc.value.code == 2
        assert "unrecognized arguments: --users 3" in capsys.readouterr().err
        assert main(self.SWEEP) == 0
        assert capsys.readouterr().out == want
        assert cli.build_parser() is parser


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


class TestConfigValueReaders:
    # every integer option of every command, each run on the audit values,
    # so a new one fails here until AUDIT_VALUES lists it; a 401-digit
    # --slots or --generations asks for that much work, not a crash
    ENDLESS = {"--slots", "--generations"}

    @pytest.mark.parametrize("command", sorted(subcommands()))
    def test_integers_and_switches_read_or_refused(self, command, tmp_path, capsys):
        # int() truncated a config file's 100.9, overflowed on its 1e400
        # (JSON's inf) and read a 401-digit rotation past numpy's int64;
        # bool() read the string "false" as true
        base, runs = {}, []
        for action in subcommands()[command]._actions:
            flag = next((o for o in action.option_strings if o.startswith("--")), None)
            if flag in (None, "--help", "--config", "--out", "--emit-matrix",
                        "--state-table"):
                continue
            if AUDIT_VALUES[flag] is not None:
                base[flag] = AUDIT_VALUES[flag]
            if action.type is int:
                if flag not in self.ENDLESS:  # dest None: given as a flag
                    runs.append((flag, None, "1" * 401))
                runs += [(flag, action.dest, "1e400"), (flag, action.dest, "100.9")]
            elif action.const is True:
                runs.append((flag, action.dest, '"false"'))
        config = tmp_path / "config.json"
        for flag, dest, value in runs:
            argv = [command] + [f"{f}={v}" for f, v in base.items() if f != flag]
            if dest is None:
                code = main(argv + [f"{flag}={value}"])
            else:
                config.write_text(f'{{"{dest}": {value}}}')
                code = main(argv + ["--config", str(config)])
            err = capsys.readouterr().err
            if dest is not None:
                assert (code, err) == (2, f"error: cannot read {flag} from "
                                          f"{json.loads(value)!r}\n"), value
            assert code in (0, 2) and (code == 0 or (
                err.startswith("error: ") and err.count("\n") == 1)), (flag, value)


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

    @pytest.mark.parametrize("value", [
        "0:1:10001", ",".join(["0"] * 10001), [0.0] * 10001,
    ], ids=["range", "comma-list", "config-list"])
    def test_grid_above_the_cap_refused(self, value):
        with pytest.raises(cli.UsageError, match="10001 points exceeds the 10000-point cap"):
            cli._parse_grid(value)
        assert len(cli._parse_grid("0:1:10000")) == cli.MAX_GRID_POINTS

    def test_huge_grid_refused_before_any_analysis(self, capsys, monkeypatch):
        # a million-point range built a list of a million floats and one
        # cluster per point before anything checked its size
        def unreached(*args, **kwargs):
            raise AssertionError("the analysis started")

        monkeypatch.setattr(cli, "analyze", unreached)
        tracemalloc.start()
        try:
            code = main(["sweep", "--alphas", "0.5,0.5", "--snr-db", "0:1:1000000"]
                        + self.CODE)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert code == 2
        assert peak < 1 << 20
        assert capsys.readouterr().err == (
            "error: an SNR grid of 1000000 points exceeds the 10000-point cap\n")

    def test_rate_must_give_integer_bits(self, capsys):
        assert main(["analyze", "--alphas", "0.29,0.35,0.36", "--snr-db", "0",
                     "--rate", "0.333", "--blocklength", "100"]) == 2
        assert "not an integer" in capsys.readouterr().err

    PAIR = ["--alphas", "0.5,0.5", "--snr-db", "0"]
    HUGE_DB = "4000.0 dB has no positive finite linear value"
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
        (["analyze", "--alphas", ",", "--snr-db", "0"] + CODE, "at least one user required"),
        (["analyze", "--alphas", "0.5,x", "--snr-db", "0"] + CODE,
         "cannot parse power ratios from '0.5,x'"),
        (["analyze", "--config", "TEXT_RATIOS", "--snr-db", "0"] + CODE,
         "cannot parse power ratios from ['x', 0.5]"),
        (["analyze", "--rate", "0", "--blocklength", "100"] + PAIR,
         "rate 0.0 at blocklength 100 leaves no information bits"),
        (["sweep", "--alphas", "0.5,0.5", "--snr-db", "0,x"] + CODE,
         "cannot parse SNR grid from '0,x'"),
        (["sweep", "--alphas", "0.5,0.5", "--snr-db", "0:x:3"] + CODE,
         "cannot parse SNR grid from '0:x:3'"),
        (["sweep", "--alphas", "0.5,0.5", "--snr-db", "0:4"] + CODE,
         "cannot parse SNR grid from '0:4'"),
        (["sweep", "--alphas", "0.5,0.5", "--snr-db", "0:4:0"] + CODE,
         "cannot parse SNR grid from '0:4:0'"),
        (["sweep", "--config", "TEXT_GRID"] + CODE, "cannot parse SNR grid from [0, 'x']"),
        (["analyze", "--config", "MISSING"] + PAIR + CODE, "cannot read config "),
        (["analyze", "--config", "NOT_JSON"] + PAIR + CODE, "cannot read config "),
        (["analyze", "--config", "LIST"] + PAIR + CODE, "must hold a JSON object"),
        (["cellplan", "--alphas", "0.5,-0.5"], "ratios must be positive"),
        (["cellplan", "--alphas", "0.5,0.5", "--r-outer=-1"],
         "r_outer must be positive, got -1.0"),
        (["analyze", "--rate=nan", "--blocklength", "100"] + PAIR, "--rate"),
        (["analyze", "--rate=inf", "--blocklength", "100"] + PAIR, "--rate"),
        (["analyze", "--alphas", "0.5,0.5", "--snr-db=nan"] + CODE, "--snr-db"),
        (["optimize-pareto", "--snr-db=nan"] + GA + CODE, "--snr-db"),
        (["sweep", "--alphas", "0.5,0.5", "--snr-db", "0:inf:3"] + CODE, "--snr-db"),
        (["min-blocklength", "--bits", "50", "--snr-db=inf", "--target-per", "0.01"]
         + GA, "--snr-db"),
        (["min-blocklength", "--bits", "50", "--snr-db=nan", "--target-per", "0.01"]
         + GA, "--snr-db"),
        # levels whose linear value overflows a double
        (["analyze", "--alphas", "0.5,0.5", "--snr-db", "4000"] + CODE, HUGE_DB),
        (["sweep", "--alphas", "0.5,0.5", "--snr-db", "3000:4000:2"] + CODE, HUGE_DB),
        (["simulate", "--alphas", "0.5,0.5", "--snr-db", "4000", "--slots", "2000",
          "--warmup", "100"] + CODE, HUGE_DB),
        (["optimize-pareto", "--snr-db", "3000:4000:2"] + GA + CODE, HUGE_DB),
        (["min-blocklength", "--bits", "50", "--snr-db", "4000", "--target-per", "0.01"]
         + GA, HUGE_DB),
        (["analyze", "--rate", "1e308", "--blocklength", "100"] + PAIR,
         "gives no finite count of information bits"),
        (["analyze", "--rate", "0.25", "--blocklength", "1" * 401] + PAIR,
         "gives no finite count of information bits"),
        (["analyze", "--alphas", "1e308,1e308", "--snr-db", "0"] + CODE,
         "power ratios must not exceed 1"),
        # codes a double cannot count exactly, and a negative blocklength
        (["analyze", "--rate", "0.5", "--blocklength", str(2 ** 60)] + PAIR,
         "k = 576460752303423488 exceeds 2**53"),
        (["min-blocklength", "--bits", "1" * 401, "--max-n", "2" * 402, "--snr-db", "0",
          "--target-per", "0.01"] + GA, "1" * 401 + " exceeds 2**53"),
        (["analyze", "--rate=-0.25", "--blocklength=-100"] + PAIR,
         "n must be a positive integer, got -100"),
    ], ids=["population", "pareto-users", "empty-grid", "target-per", "bits",
            "snr-db", "config-cast", "simulate-users", "max-n", "negative-max-n",
            "coordinated-users", "coordinated-episodes", "sweep-uncoordinated-config",
            "nested-config", "no-ratio", "alphas", "config-alphas", "zero-rate",
            "grid-list", "grid-range", "grid-two-fields", "grid-count", "config-grid",
            "missing-config", "unparsable-config", "list-config", "cellplan-ratio",
            "cellplan-r-outer", "nan-rate", "inf-rate", "nan-snr", "nan-pareto-grid",
            "inf-grid-range", "inf-min-blocklength-snr", "nan-min-blocklength-snr",
            "huge-snr", "huge-sweep-grid", "huge-simulate-snr", "huge-pareto-grid",
            "huge-min-blocklength-snr", "huge-rate", "huge-blocklength", "huge-alphas",
            "inexact-blocklength", "inexact-bits", "negative-code"])
    def test_bad_input_usage_error(self, args, named, tmp_path, capsys):
        configs = {"BAD_CONFIG": {"blocklength": "abc"},
                   "UNCOORDINATED_CONFIG": {"scenario": "uncoordinated"},
                   "NESTED_CONFIG": {"config": {"alphas": "0.5,0.5"}},
                   "TEXT_RATIOS": {"alphas": ["x", 0.5]},
                   "TEXT_GRID": {"alphas": [0.5, 0.5], "snr_db": [0, "x"]},
                   "NOT_JSON": "{alphas: 0.5}", "LIST": [0.5, 0.5], "MISSING": None}
        for name, data in configs.items():
            if data is not None:
                (tmp_path / name).write_text(data if isinstance(data, str) else json.dumps(data))
        assert main([str(tmp_path / a) if a in configs else a for a in args]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: ") and named in err

    def test_list_valued_config(self, tmp_path):
        # a config file may give the ratios and the grid as JSON lists
        config = tmp_path / "lists.json"
        config.write_text(json.dumps({"alphas": [0.4, 0.6], "snr_db": [0, 2]}))
        listed = run_json(tmp_path, ["sweep", "--config", str(config)] + self.CODE,
                          "listed.json")
        flagged = run_json(tmp_path, ["sweep", "--alphas", "0.4,0.6", "--snr-db", "0,2"]
                           + self.CODE, "flagged.json")
        assert len(listed["results"]) == 4
        assert listed["results"] == flagged["results"]

    def test_bad_config_format_writes_no_dump(self, tmp_path, capsys):
        config = tmp_path / "xml.json"
        config.write_text(json.dumps({"format": "xml"}))
        dumps = [tmp_path / name for name in ("pi.csv", "states.csv", "out.txt")]
        assert main(["analyze"] + ANCHOR_ARGS + [
            "--config", str(config), "--emit-matrix", str(dumps[0]),
            "--state-table", str(dumps[1]), "--out", str(dumps[2])]) == 2
        assert capsys.readouterr().err == "error: unknown format 'xml'\n"
        assert not any(path.exists() for path in dumps)

    @pytest.mark.parametrize("args", [
        ["analyze"] + PAIR + CODE,
        ["sweep"] + PAIR + CODE,
        ["simulate", "--slots", "2000", "--warmup", "100"] + PAIR + CODE,
        ["simulate", "--scenario", "uncoordinated", "--slots", "2000", "--warmup", "100",
         "--episodes", "2"] + PAIR + CODE,
        ["optimize-pareto", "--snr-db", "0"] + GA + CODE,
        ["min-blocklength", "--bits", "50", "--snr-db", "0", "--target-per", "0.01"] + GA,
    ], ids=["analyze", "sweep", "simulate", "simulate-uncoordinated", "optimize-pareto",
            "min-blocklength"])
    def test_bad_config_format_starts_no_work(self, args, tmp_path, capsys, monkeypatch):
        def unreached(*args, **kwargs):
            raise AssertionError("the work started")

        for name in ("analyze", "simulate_coordinated", "simulate_uncoordinated",
                     "simulate_oma_baseline", "pareto_front", "min_blocklength"):
            monkeypatch.setattr(cli, name, unreached)
        config = tmp_path / "xml.json"
        config.write_text(json.dumps({"format": "xml"}))
        assert main(args + ["--config", str(config)]) == 2
        assert capsys.readouterr().err == "error: unknown format 'xml'\n"

    def test_more_ratios_than_the_cap_refused_before_the_plan(self, tmp_path, capsys,
                                                              monkeypatch):
        # every simulator refuses a plan of more than MAX_USERS ratios, and
        # the plan's assignment grid grows with the square of their count
        out = tmp_path / "plan.json"
        assert main(["cellplan", "--alphas", ",".join(["0.125"] * 8),
                     "--out", str(out)]) == 0
        out.unlink()
        monkeypatch.setattr(cli, "build_plan", lambda *args, **kwargs: pytest.fail(
            "build_plan was called"))
        assert main(["cellplan", "--alphas", self.NINE, "--out", str(out)]) == 2
        assert capsys.readouterr().err == "error: 9 ratios exceeds the 8-ratio cap\n"
        assert not out.exists()

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

    @pytest.mark.parametrize("command", [PARETO, BLOCKLENGTH],
                             ids=["optimize-pareto", "min-blocklength"])
    def test_huge_population_usage_error(self, command, capsys, monkeypatch):
        # refused before the GA allocates its population; should the bound
        # go, the searches fail here instead of asking for ~60 GiB
        def unreached(*args, **kwargs):
            raise AssertionError("the GA search started")

        monkeypatch.setattr(cli, "pareto_front", unreached)
        monkeypatch.setattr(cli, "min_blocklength", unreached)
        tracemalloc.start()
        try:
            code = main(command + ["--users", "8", "--population", "1000000000"])
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert code == 2
        assert peak < 1 << 20
        err = capsys.readouterr().err
        assert err.startswith("error: ") and "population_size" in err

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
