import dataclasses
import gc
import json
import math
import multiprocessing
import os
import subprocess
import sys
from pathlib import Path

import tempfile

import jsonschema
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from mirrormatch import analytic, cli, sampler, simulate
from mirrormatch.analytic import GroupSpec
from mirrormatch.cli import ConfigError, ModelConfig, parse_config
from oracles import finite_pool_rich_win

SRC_DIR = Path(__file__).resolve().parents[1] / "src"
SCHEMA_PATH = SRC_DIR / "mirrormatch" / "schema" / "summary.schema.json"

TINY = [
    "k_grid=1,5",
    "reps=16",
    "n=64",
    "master_seed=7",
]


# column names and order of every command's CSV
HEADERS = {
    "table1": "k d_ip2_closed d_ip2_mc se_ip d_ai_mc se_ai benchmark winner config_hash",
    "figure2": "k d_ip2_closed d_ai_inf d_ip2_mc se_ip d_ai_mc se_ai benchmark config_hash",
    "mstar": "k noise_param variance_per_clone m_star_bound two_draw_regime config_hash",
    "groups": "section k sigma_r2 sigma_p2 analytic_win win_lower_bound mc_win mc_se"
    " equal_variance_control config_hash",
    "seqsearch": "policy regime rule kappa mean_payoff se truncated_reps config_hash",
    "calibrate": "convention k variance_per_clone analytic_lower_bound mc_estimate se reference"
    " deviation within_tolerance config_hash",
}


# a value other than the default for every config key, at the upper bound of
# each bounded integer key
EVERY_KEY = {
    "k": 2**53,
    "noise_param": 0.07,
    "noise_convention": "variance",
    "n": 10**6,
    "reps": 30,
    "master_seed": 2**64 - 1,
    "clone_mode": "fixed-subject-clone",
    "group_sigma_r2": 0.02,
    "group_sigma_p2": 0.08,
    "k_grid": f"1,{2**53}",
    "sigma_grid": "0.05,0.3",
    "seq_kappa": 0.25,
    "seq_cost_ip_per_period": 0.001,
    "seq_cost_ai_per_period": 0.002,
    "seq_cap": 77,
}
# the default noise_param, moved past the 12th significant digit
UNROUNDED = "noise_param=0.0500000000000001"


@pytest.fixture(autouse=True)
def thawed_heap():
    """Hand the heap that cli.main froze back to the cyclic collector."""
    yield
    gc.unfreeze()


def set_args(overrides):
    return [arg for pair in overrides for arg in ("--set", pair)]


def run_command(name, out_dir, overrides):
    cfg = parse_config(None, overrides)
    return cli.COMMANDS[name](cfg, Path(out_dir))


class TestParseConfig:
    def test_defaults(self):
        cfg = parse_config(None, [])
        assert cfg.master_seed == 0  # documented default, echoed in provenance
        assert cfg.noise_convention == "std_dev"
        assert cfg.reps == 200 and cfg.n == 2000

    def test_variance_convention_identity(self):
        cfg = parse_config(None, ["noise_convention=variance", "noise_param=0.05"])
        assert cfg.noise_variance_per_clone() == pytest.approx(0.05)

    def test_std_dev_convention_squares(self):
        cfg = parse_config(None, ["noise_param=0.05"])
        assert cfg.noise_variance_per_clone() == pytest.approx(0.0025)

    def test_unknown_key_is_hard_error(self):
        with pytest.raises(ConfigError, match="nois_param"):
            parse_config(None, ["nois_param=0.05"])

    def test_type_diagnostics_name_the_key(self):
        with pytest.raises(ConfigError, match="reps"):
            parse_config(None, ["reps=soon"])

    def test_zero_dimension_rejected(self):
        with pytest.raises(ConfigError):
            parse_config(None, ["k=0"])

    def test_file_parsing(self, tmp_path):
        path = tmp_path / "run.cfg"
        path.write_text("# comment\nk = 7\nreps = 33   # trailing\n\nnoise_param = 0.1\n")
        cfg = parse_config(path, ["reps=44"])  # overrides beat the file
        assert cfg.k == 7 and cfg.reps == 44 and cfg.noise_param == 0.1

    def test_file_diagnostics_carry_line_numbers(self, tmp_path):
        path = tmp_path / "bad.cfg"
        path.write_text("k = 3\nwat\n")
        with pytest.raises(ConfigError, match="bad.cfg:2"):
            parse_config(path, [])

    def test_missing_file(self):
        with pytest.raises(ConfigError):
            parse_config("/nonexistent/path.cfg", [])

    def test_canonical_hash_stable(self):
        a = parse_config(None, ["k=3"]).config_hash()
        b = parse_config(None, ["k=3"]).config_hash()
        c = parse_config(None, ["k=4"]).config_hash()
        assert a == b != c


class TestTable1:
    def test_structure_and_determinism(self, tmp_path):
        first = run_command("table1", tmp_path / "a", TINY)
        again = run_command("table1", tmp_path / "b", TINY)
        csv_a = first.files[0].read_text()
        csv_b = again.files[0].read_text()
        assert csv_a == csv_b
        header, *rows = csv_a.strip().split("\n")
        # test_command_header pins the column names and order;
        # every header cell documents the column's meaning
        assert all(":" in cell for cell in header.split(","))
        assert len(rows) == 2
        assert "\r" not in csv_a

    def test_workers_variable_is_ignored(self, tmp_path, monkeypatch):
        # MIRRORMATCH_WORKERS is not read: any value runs in this process and
        # writes the bytes of a run without it
        def no_pool(*args, **kwargs):
            raise AssertionError("a process pool was started")

        def table1_csv(name):
            assert cli.main(["table1", "--out", str(tmp_path / name)] + set_args(TINY + ["reps=600"])) == 0
            (csv,) = (tmp_path / name).glob("*/table1.csv")
            return csv.read_bytes()

        monkeypatch.setattr(simulate, "ProcessPoolExecutor", no_pool)
        monkeypatch.delenv("MIRRORMATCH_WORKERS", raising=False)
        unset = table1_csv("unset")
        for value in ("8", "two", "257"):
            monkeypatch.setenv("MIRRORMATCH_WORKERS", value)
            assert table1_csv(value) == unset
            assert multiprocessing.active_children() == []

    def test_rows_carry_config_hash(self, tmp_path):
        result = run_command("table1", tmp_path, TINY)
        expected = result.config.config_hash()
        assert all(row["config_hash"] == expected for row in result.rows)

    def test_estimates_are_sane(self, tmp_path):
        result = run_command("table1", tmp_path, ["k_grid=1", "reps=400", "n=500"])
        row = result.rows[0]
        assert row["d_ip2_closed"] == pytest.approx(1 / 3, rel=1e-12)
        assert abs(row["d_ip2_mc"] - 1 / 3) <= 4 * row["se_ip"]
        assert row["winner"] == "ai"  # low dimension: platform wins easily


@pytest.mark.parametrize("name", sorted(HEADERS))
def test_command_header(tmp_path, name):
    result = run_command(name, tmp_path, TINY + ["seq_cap=50"])
    header, *rows = result.files[0].read_text().strip().split("\n")
    cells = header.split(",")
    assert [cell.split(": ", 1)[0] for cell in cells] == HEADERS[name].split()
    assert all(len(cell.split(": ", 1)) == 2 for cell in cells)  # every column has a meaning
    assert len(rows) == len(result.rows) > 0


class TestFigure2:
    def test_columns_and_consistency(self, tmp_path):
        result = run_command(
            "figure2", tmp_path, ["k_grid=1,5,20", "reps=400", "n=500"]
        )
        for row in result.rows:
            assert row["d_ip2_mc"] < row["benchmark"]
            assert row["d_ai_mc"] < row["benchmark"]
            assert abs(row["d_ip2_mc"] - row["d_ip2_closed"]) <= 3 * row["se_ip"]
            assert row["d_ai_inf"] < row["benchmark"]
            # finite pool sits above the saturated bound
            assert row["d_ai_mc"] >= row["d_ai_inf"] - 3 * row["se_ai"]


class TestMstar:
    def test_reference_cell(self, tmp_path):
        result = run_command("mstar", tmp_path, ["k_grid=1", "sigma_grid=0.05"])
        row = result.rows[0]
        assert row["m_star_bound"] == 17
        assert row["two_draw_regime"] == "no"

    def test_high_dimension_flag(self, tmp_path):
        result = run_command("mstar", tmp_path, ["k_grid=700,1400", "sigma_grid=0.05"])
        assert all(row["m_star_bound"] == 2 for row in result.rows)
        assert all(row["two_draw_regime"] == "yes" for row in result.rows)

    def test_huge_noise_one_dim(self, tmp_path):
        result = run_command(
            "mstar", tmp_path, ["k_grid=1", "sigma_grid=1000", "noise_convention=std_dev"]
        )
        assert result.rows[0]["m_star_bound"] == 2


class TestFinitePoolOracle:
    # the rows of TestGroups.test_sections_and_agreement: (k, sigma_r2, sigma_p2)
    CELLS = [(4, 0.01, 0.01), (2, 0.01, 0.04), (8, 0.01, 0.04)] + [(4, 0.01, 0.01 * r) for r in (2, 4, 16, 64)]

    def test_grid_refinement(self):
        for k, sigma_r2, sigma_p2 in self.CELLS:
            spec = GroupSpec(sigma_r2, sigma_p2)
            coarse, fine = (finite_pool_rich_win(k, spec, 800, levels) for levels in (1000, 2000))
            assert abs(fine - coarse) < 1e-5, (k, spec, coarse, fine)

    def test_equal_variances_give_one_half(self):
        for k, n in ((1, 10), (4, 800), (50, 10_000)):
            assert finite_pool_rich_win(k, GroupSpec(0.01, 0.01), n) == pytest.approx(0.5, abs=1e-12)

    def test_reference_cell(self):
        # k = 5, n = 10^4, where the n -> infinity limit is 0.500313
        value = finite_pool_rich_win(5, GroupSpec(0.01, 0.04), 10_000)
        assert value == pytest.approx(0.500532, abs=1e-6)


class TestGroups:
    def test_sections_and_agreement(self, tmp_path):
        result = run_command(
            "groups", tmp_path,
            ["k=4", "k_grid=2,8", "n=800", "reps=500", "master_seed=5"],
        )
        control = [r for r in result.rows if r["section"] == "control"]
        assert len(control) == 1
        assert control[0]["analytic_win"] == 0.5
        # X and its control variate are one number there, so the row is exact
        assert control[0]["mc_win"] == 0.5 and control[0]["mc_se"] == 0.0
        sweeps = [r for r in result.rows if r["section"] == "dimension-sweep"]
        values = [r["analytic_win"] for r in sweeps]
        assert values == sorted(values)
        for row in result.rows:
            if row["section"] != "control":
                assert row["win_lower_bound"] <= row["analytic_win"] + 1e-12
            # against the exact win rate at the run's pool size n = 800, not
            # the n = infinity analytic_win, which sits up to 1.3e-2 away (k = 8)
            exact = finite_pool_rich_win(row["k"], GroupSpec(row["sigma_r2"], row["sigma_p2"]), 800)
            assert abs(row["mc_win"] - exact) <= 4 * max(row["mc_se"], 1e-9), (row, exact)
        disparity = [r for r in result.rows if r["section"] == "disparity-sweep"]
        ratios = [r["sigma_p2"] / r["sigma_r2"] for r in disparity]
        assert ratios == sorted(ratios)
        wins = [r["analytic_win"] for r in disparity]
        assert wins == sorted(wins)

    def test_cell_in_both_sweeps_is_estimated_once(self, tmp_path, monkeypatch):
        # the default k at ratio 4 is the dimension sweep's cell at that k
        calls = []
        estimate = simulate.estimate_group_win_rate
        monkeypatch.setattr(
            simulate, "estimate_group_win_rate", lambda *args: calls.append(args[:2]) or estimate(*args)
        )
        result = run_command("groups", tmp_path, ["k_grid=1,5", "reps=20", "n=16"])
        assert len(result.rows) == 7 and len(calls) == len(set(calls)) == 6
        (dimension,) = [r for r in result.rows if r["section"] == "dimension-sweep" and r["k"] == 5]
        (disparity,) = [r for r in result.rows if r["section"] == "disparity-sweep" and r["sigma_p2"] == 0.04]
        assert {**dimension, "section": None} == {**disparity, "section": None}


class TestSeqSearch:
    def test_degenerate_policies_reproduce_estimators(self, tmp_path):
        result = run_command(
            "seqsearch", tmp_path,
            ["k=4", "n=100", "reps=2000", "seq_cap=100",
             "seq_cost_ip_per_period=0", "seq_kappa=0", "master_seed=11"],
        )
        by_name = {row["policy"]: row for row in result.rows}
        ip2 = by_name["ip_stop2"]
        assert abs(ip2["mean_payoff"] + analytic.d_ip(4, 2)) <= 3 * ip2["se"]
        exhaust = by_name["ai_exhaust_cap"]
        assert exhaust["truncated_reps"] == 2000
        assert result.metrics["best_ai_policy"] in by_name

    def test_dominance_metrics_present(self, tmp_path):
        result = run_command(
            "seqsearch", tmp_path,
            ["k=30", "reps=300", "seq_cap=200", "master_seed=3"],
        )
        assert "dominance_gap" in result.metrics
        assert isinstance(result.metrics["dominance_within_two_se"], bool)
        assert result.metrics["policy_grid_check"].startswith("necessary-condition")


class TestCalibrate:
    def test_resolves_std_dev(self, tmp_path):
        result = run_command(
            "calibrate", tmp_path, ["n=2000", "reps=300", "master_seed=2"]
        )
        assert result.provenance["noise_convention_resolved"] == "std_dev"
        # per-row documentation for both conventions at k in (1, 5, 10)
        assert len(result.rows) == 6
        k1 = [r for r in result.rows if r["k"] == 1 and r["convention"] == "std_dev"]
        assert k1[0]["within_tolerance"] in ("yes", "no")
        variance_k1 = [r for r in result.rows if r["k"] == 1 and r["convention"] == "variance"]
        assert variance_k1[0]["within_tolerance"] == "no"
        assert result.metrics["all_rows_reproduced_variance"] is False


class TestOutputContract:
    def test_layout_and_schema(self, tmp_path):
        result = run_command("table1", tmp_path, TINY)
        run_dir = result.files[0].parent
        assert run_dir.name == result.config.config_hash()
        assert (run_dir / "config.txt").read_text() == result.config.canonical_text()
        summary = json.loads((run_dir / "table1.summary.json").read_text())
        schema = json.loads(SCHEMA_PATH.read_text())
        jsonschema.validate(summary, schema)
        assert summary["config_hash"] == result.config.config_hash()
        assert "table1.csv" in summary["files"]
        assert "workers" not in summary["provenance"]

    def test_commands_sharing_a_run_dir_keep_their_summaries(self, tmp_path):
        # one config gives one run directory, so each command names its own summary
        for command in ("mstar", "groups"):
            assert cli.main([command, "--out", str(tmp_path)] + set_args(["k_grid=1", "reps=2", "n=1"])) == 0
        (run_dir,) = tmp_path.iterdir()
        for command in ("mstar", "groups"):
            summary = json.loads((run_dir / f"{command}.summary.json").read_text())
            assert summary["command"] == command
            assert summary["files"] == [f"{command}.csv"]

    @pytest.mark.parametrize(
        "overrides",
        [[], [f"{key}={value}" for key, value in EVERY_KEY.items()], [UNROUNDED]],
        ids=["defaults", "every-key", "past-12-digits"],
    )
    def test_config_echo_round_trip(self, tmp_path, overrides):
        # config.txt parses back to the run's config, whose hash names the run directory
        assert cli.main(["mstar", "--out", str(tmp_path)] + set_args(overrides)) == 0
        (run_dir,) = tmp_path.iterdir()
        cfg = parse_config(run_dir / "config.txt")
        assert cfg == parse_config(None, overrides)
        assert cfg.config_hash() == run_dir.name

    def test_configs_differing_past_12_digits_differ_in_hash(self):
        rounded = parse_config(None, ["noise_param=0.05"])
        assert rounded.config_hash() == "2c1abbf97d96d5d2"  # a float that reads back keeps its hash
        assert parse_config(None, [UNROUNDED]).config_hash() != rounded.config_hash()

    def test_every_key_differs_from_its_default(self):
        cfg = parse_config(None, [f"{key}={value}" for key, value in EVERY_KEY.items()])
        fields = dataclasses.fields(ModelConfig)
        assert list(EVERY_KEY) == [field.name for field in fields]
        assert all(getattr(cfg, field.name) != field.default for field in fields)

    def test_summary_schema_rejects_garbage(self):
        schema = json.loads(SCHEMA_PATH.read_text())
        with pytest.raises(jsonschema.ValidationError):
            jsonschema.validate({"command": "table1"}, schema)


class TestMainEntry:
    def test_success_exit_code(self, tmp_path, capsys):
        code = cli.main(
            ["table1", "--out", str(tmp_path), "--seed", "9"]
            + [arg for pair in TINY for arg in ("--set", pair)]
        )
        assert code == 0
        printed = capsys.readouterr().out.strip().splitlines()
        assert printed and printed[0].endswith("table1.csv")

    def test_freezes_the_heap_it_starts_with(self, tmp_path):
        gc.unfreeze()
        assert gc.get_freeze_count() == 0
        assert cli.main(["mstar", "--out", str(tmp_path), "--set", "k_grid=1"]) == 0
        assert gc.get_freeze_count() > 0  # thawed_heap unfreezes it again

    def test_seed_flag_overrides(self, tmp_path):
        cfg_default = parse_config(None, TINY)
        cli.main(
            ["table1", "--out", str(tmp_path), "--seed", "999"]
            + [arg for pair in TINY for arg in ("--set", pair)]
        )
        hashes = {p.name for p in tmp_path.iterdir()}
        assert cfg_default.config_hash() not in hashes  # seed changed the identity

    def test_config_error_exit_code(self, tmp_path, capsys):
        code = cli.main(["table1", "--out", str(tmp_path), "--set", "k=0"])
        assert code == 2
        assert "config error" in capsys.readouterr().err

    def test_numeric_error_exit_code(self, tmp_path, capsys, monkeypatch):
        def explode(*args, **kwargs):
            raise analytic.NumericError("boom")

        monkeypatch.setattr(cli.analytic, "d_ip2_identity", explode)
        code = cli.main(
            ["table1", "--out", str(tmp_path)]
            + [arg for pair in TINY for arg in ("--set", pair)]
        )
        assert code == 3
        assert "numeric failure" in capsys.readouterr().err

    def test_disagreeing_routes_exit_code(self, tmp_path, capsys, monkeypatch):
        quadrature = analytic._d_ai_infinity_quadrature
        monkeypatch.setattr(analytic, "_d_ai_infinity_quadrature", lambda k, v: quadrature(k, v) * (1 + 1e-7))
        code = cli.main(["figure2", "--out", str(tmp_path)] + set_args(["k_grid=1", "reps=2", "n=1"]))
        assert code == 3
        assert "routes disagree" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "command, overrides, cell",
        [
            # no sample size up to the 10^15 search limit beats the platform
            ("mstar", ["k_grid=2", "sigma_grid=1e-12"], "k=2, variance=1e-24"),
            # the cost at the 10^4-period cap overflows, so the payoff SE is not finite
            ("seqsearch", ["seq_cost_ai_per_period=1e306", "reps=2"], "seq(k=5,regime=ai_platform"),
            # near x = s the incomplete-gamma series of the gamma route needs more
            # than its 2^20 terms once s is far above 1e10
            ("mstar", ["k_grid=100000000000000", "sigma_grid=7.0711e-8"], "k=100000000000000, variance=5.0000455"),
            # chndtr returns NaN once its arguments reach about 1e10, here through k;
            # the closed-form pass meets it at the cell's typical clone distance
            ("groups", ["k=100000000000", "k_grid=100000000000", "reps=2", "n=2"], "k=100000000000, variance=0.02"),
        ],
        ids=["mstar", "seqsearch", "mstar-series", "groups-chndtr"],
    )
    def test_numeric_failure_names_the_cell(self, tmp_path, capsys, monkeypatch, command, overrides, cell):
        draws, draw = [], sampler.draw_clone_batch
        monkeypatch.setattr(sampler, "draw_clone_batch", lambda *args, **kw: draws.append(args) or draw(*args, **kw))
        code = cli.main([command, "--out", str(tmp_path)] + set_args(overrides))
        assert code == 3
        err = capsys.readouterr().err
        assert err.startswith("numeric failure: ") and cell in err
        # only the search's payoff overflows after its draws; every other failure comes before any
        assert bool(draws) == (command == "seqsearch")

    def test_vanishing_noise_exits_zero(self, tmp_path, capsys):
        # nu = 2e-14: chndtr gives no F and no table of m resolves its bend, so
        # each platform winner keeps its drawn norm, as it did before the table
        overrides = ["noise_param=1e-7", "k_grid=1,5,150", "reps=40", "n=200"]
        assert cli.main(["table1", "--out", str(tmp_path)] + set_args(overrides)) == 0
        assert capsys.readouterr().err == ""

    @pytest.mark.parametrize(
        "overrides",
        [["k_grid=14693", "sigma_grid=0.05"], ["k_grid=1000000", "sigma_grid=0.05"]],
        ids=["k14693", "k1e6"],
    )
    def test_large_k_mstar_succeeds(self, tmp_path, capsys, overrides):
        # at large k the quadrature's mass sits within ~1/k of r = 1
        assert cli.main(["mstar", "--out", str(tmp_path)] + set_args(overrides)) == 0
        assert capsys.readouterr().err == ""

    def test_unusable_out_fails_before_compute(self, tmp_path, capsys, monkeypatch):
        def no_compute(*args, **kwargs):
            raise AssertionError("compute started before --out was checked")

        monkeypatch.setattr(analytic, "ai_equivalent_bound", no_compute)
        out = tmp_path / "a-file"
        out.write_text("")
        code = cli.main(["mstar", "--out", str(out), "--set", "k_grid=1"])
        assert code == 2
        err = capsys.readouterr().err
        assert err.startswith("config error: mstar: --out ") and "Traceback" not in err

    def test_unexpected_library_error_exit_code(self, tmp_path, capsys, monkeypatch):
        def out_of_memory(cfg):
            raise MemoryError("cannot allocate the pool")
            yield

        command = dataclasses.replace(cli.COMMANDS["table1"], rows=out_of_memory)
        monkeypatch.setitem(cli.COMMANDS, "table1", command)
        code = cli.main(["table1", "--out", str(tmp_path)] + set_args(TINY))
        assert code == 3
        err = capsys.readouterr().err
        assert err.startswith("table1: unexpected MemoryError") and "cannot allocate" in err

    def test_paper_scale_flag_changes_identity(self, tmp_path):
        base = parse_config(None, [])
        scaled = parse_config(None, [f"reps={cli.PAPER_SCALE_REPS}", f"n={cli.PAPER_SCALE_N}"])
        assert base.config_hash() != scaled.config_hash()
        # mstar reads neither key, so the flag's run costs no Monte Carlo
        assert cli.main(["mstar", "--paper-scale", "--set", "k_grid=1", "--out", str(tmp_path)]) == 0
        (config,) = tmp_path.glob("*/config.txt")
        written = parse_config(config)
        assert (written.reps, written.n) == (1000, 10_000)


class TestUpFrontValidation:
    @pytest.mark.parametrize(
        "command, override",
        [
            ("figure2", "noise_param=inf"),
            ("table1", "noise_param=1e300"),  # the std-dev reading squares past the double range
            ("groups", "group_sigma_p2=0.005"),  # below group_sigma_r2
            ("groups", "group_sigma_p2=0.01"),  # equal to it: GroupSpec allows that, the config does not
            ("groups", "group_sigma_r2=9e-10"),  # below the floor where chndtr gives NaN
            # integer keys past their bounds: at these values compute would end
            # in an allocation or float-conversion failure, or in inexact dimensions
            pytest.param("table1", "n=1000000000000", id="table1-n=1e12"),
            pytest.param("table1", "n=1000001", id="table1-n=1000001"),
            pytest.param("table1", f"k_grid={10**400}", id="table1-k_grid=1e400"),
            pytest.param("groups", f"k={10**400}", id="groups-k=1e400"),
            pytest.param("seqsearch", "k=9007199254740993", id="seqsearch-k=2**53+1"),
        ],
    )
    def test_rejected_before_any_compute(self, tmp_path, capsys, monkeypatch, command, override):
        def no_compute(*args, **kwargs):
            raise AssertionError("compute started before the config was rejected")

        for name in ("estimate_d_ip", "estimate_d_ai", "estimate_group_win_rate", "evaluate_seq_policy"):
            monkeypatch.setattr(simulate, name, no_compute)
        monkeypatch.setattr(analytic, "d_ai_infinity", no_compute)
        code = cli.main([command, "--out", str(tmp_path)] + set_args(TINY + [override]))
        assert code == 2
        assert capsys.readouterr().err.startswith("config error: ")
        assert not any(tmp_path.iterdir())  # no run directory was started

    def test_group_variance_floor_names_the_key(self, tmp_path, capsys):
        overrides = ["k_grid=1", "reps=2", "n=2"]
        assert cli.main(["groups", "--out", str(tmp_path)] + set_args(overrides + ["group_sigma_r2=1e-9"])) == 0
        assert cli.main(["groups", "--out", str(tmp_path)] + set_args(overrides + ["group_sigma_r2=9e-10"])) == 2
        assert capsys.readouterr().err.startswith("config error: group_sigma_r2 must be a real in [1e-09, ")

    @pytest.mark.parametrize(
        "override",
        ["noise_param=1e-300", "sigma_grid=0.05,nan", "sigma_grid=-0.1", "seq_kappa=inf",
         "group_sigma_r2=5e-324", "group_sigma_p2=1e301", "k_grid=,", "sigma_grid=,"],
    )
    def test_out_of_range_values(self, override):
        with pytest.raises(ConfigError):
            parse_config(None, [override])


FLOAT_KEYS = (
    "noise_param", "group_sigma_r2", "group_sigma_p2",
    "seq_kappa", "seq_cost_ip_per_period", "seq_cost_ai_per_period",
)
EDGE_FLOATS = st.one_of(
    st.sampled_from([math.inf, -math.inf, 0.0, -0.0, -1.0, -0.05, 1e-300, 1e300, 0.05, 0.3]),
    st.floats(),
)


@given(
    command=st.sampled_from(["mstar", "table1", "groups"]),
    values=st.fixed_dictionaries(
        {},
        optional={
            **{key: EDGE_FLOATS for key in FLOAT_KEYS},
            "sigma_grid": st.lists(EDGE_FLOATS, min_size=1, max_size=3),
        },
    ),
)
@settings(deadline=None, max_examples=80)
def test_float_keys_fuzz(command, values):
    # any float in any float key ends in success, a config error or a numeric failure
    overrides = ["k_grid=1", "reps=2", "n=2"]
    for key, value in values.items():
        text = ",".join(map(repr, value)) if isinstance(value, list) else repr(value)
        overrides.append(f"{key}={text}")
    with tempfile.TemporaryDirectory() as out:
        code = cli.main([command, "--out", out] + set_args(overrides))
    assert code in (0, 2, 3)


# the documented range of each integer key; reps and seq_cap cost only time,
# so their fuzzed values stay small
INT_BOUNDS = {
    "k": (1, 2**53), "k_grid": (1, 2**53), "n": (1, 10**6), "reps": (2, math.inf), "seq_cap": (1, math.inf),
}
DIMS = st.one_of(st.integers(min_value=1, max_value=2**53), st.sampled_from([-1, 0, 2**53 + 1, 10**400]))


@given(
    command=st.sampled_from(sorted(HEADERS)),
    values=st.fixed_dictionaries(
        {},
        optional={
            "k": DIMS,
            "k_grid": st.lists(DIMS, min_size=1, max_size=3),
            "n": st.one_of(st.integers(min_value=-1, max_value=64), st.sampled_from([10**6 + 1, 10**12])),
            "reps": st.integers(min_value=-1, max_value=4),
            "seq_cap": st.integers(min_value=-1, max_value=8),
        },
    ),
    # noise values whose variance is in range under both conventions
    sigma_grid=st.lists(st.floats(min_value=1e-150, max_value=1e150), min_size=1, max_size=3),
)
@settings(deadline=None, max_examples=200)
def test_int_keys_fuzz(command, values, sigma_grid):
    # an integer key out of its range is a config error on every command; in
    # range the run succeeds or ends in a numeric failure
    overrides = ["k_grid=1", "reps=2", "n=2", "seq_cap=4"]
    for key, value in values.items():
        overrides.append(f"{key}={','.join(map(str, value)) if isinstance(value, list) else value}")
    overrides.append("sigma_grid=" + ",".join(map(repr, sigma_grid)))
    in_range = all(
        INT_BOUNDS[key][0] <= v <= INT_BOUNDS[key][1]
        for key, value in values.items()
        for v in (value if isinstance(value, list) else [value])
    )
    with tempfile.TemporaryDirectory() as out:
        code = cli.main([command, "--out", out] + set_args(overrides))
    assert code in (0, 3) if in_range else code == 2


class TestModelConfigType:
    def test_invariants(self):
        with pytest.raises(ConfigError):
            ModelConfig(reps=1)
        with pytest.raises(ConfigError):
            ModelConfig(noise_param=0.0)
        with pytest.raises(ConfigError):
            ModelConfig(master_seed=-1)

    def test_group_accessor(self):
        cfg = ModelConfig()
        spec = cfg.group()
        assert spec.sigma_r2 == 0.01 and spec.sigma_p2 == 0.04


@pytest.mark.parametrize("module", ["mirrormatch", "mirrormatch.cli"])
def test_python_m_entry_points(module):
    # `python -m` runs the same parser as the console script
    path = os.pathsep.join(filter(None, [str(SRC_DIR), os.environ.get("PYTHONPATH")]))
    env = dict(os.environ, PYTHONPATH=path)
    run = [sys.executable, "-m", module]
    helped = subprocess.run(
        run + ["table1", "--help"], capture_output=True, text=True, env=env, timeout=60
    )
    assert helped.returncode == 0
    assert helped.stdout.startswith("usage: mirrormatch")
    bare = subprocess.run(run, capture_output=True, text=True, env=env, timeout=60)
    assert bare.returncode == 2
    assert bare.stderr.startswith("usage: mirrormatch")
