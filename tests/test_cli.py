import copy
import csv
import importlib
import itertools
import json
import math
import warnings
from pathlib import Path

import numpy as np
import pytest

from indefsaddle import suite, verify_critical
from indefsaddle.cli import ConfigError, load_solutions, main, parse_config

from oracles import scalar_region_rows

DATA = Path(__file__).parent / "data"


def write_config(tmp_path, name, payload):
    path = tmp_path / name
    path.write_text(json.dumps(payload))
    return str(path)


def parse_cell(cell: str):
    """The value a CSV cell writes: None, a bool, an int, a float or text."""
    if cell in ("", "true", "false"):
        return {"": None, "true": True, "false": False}[cell]
    for kind in (int, float):
        try:
            return kind(cell)
        except ValueError:
            pass
    return cell


def json_rows_parsed_as_csv_cells(tmp_path, config) -> list[dict]:
    """Run a row config as CSV and as JSON, check that each JSON row holds
    the values, and their types, of its CSV line's cells, and return the
    JSON rows."""
    command = config["command"]
    cfg = write_config(tmp_path, "rows.json", config)
    out = str(tmp_path / "rows")
    assert main([command, "--config", cfg, "--out", out]) == 0
    assert main([command, "--config", cfg, "--out", out, "--format", "json"]) == 0
    with open(tmp_path / "rows.csv", encoding="utf-8", newline="") as fh:
        header, *lines = csv.reader(fh)
    rows = json.loads((tmp_path / "rows.json").read_text())["rows"]
    assert len(rows) == len(lines) > 0
    for row, cells in zip(rows, lines):
        assert list(row) == header
        assert list(row.values()) == [parse_cell(cell) for cell in cells]
        assert [type(v) for v in row.values()] == [type(parse_cell(c)) for c in cells]
    return rows


REGION_CONFIG = {
    "command": "region",
    "seed": 0,
    "N": 6,
    "p_grid": {"start": 1.05, "stop": 6.0, "step": 0.35},
    "q_grid": [1.1, 1.6, 2.4, 5.0],
}

BRANCH_CONFIG = {
    "command": "branch",
    "seed": 0,
    "problem": {
        "lengths": [math.pi],
        "n": 16,
        "r": 1.0,
        "p": 3.0,
        "q": 3.0,
    },
    "branch": {"count": 3},
}


# The README example configs, shrunk to 1-D n = 8 and a region step of 0.5.
README_CONFIGS = [
    {
        "command": "region",
        "seed": 0,
        "N": 6,
        "p_grid": {"start": 1.05, "stop": 6.0, "step": 0.5},
        "q_grid": {"start": 1.05, "stop": 6.0, "step": 0.5},
        "output": "out/region6",
    },
    {
        "command": "branch",
        "seed": 0,
        "problem": {"lengths": [math.pi], "n": 8, "r": 1.0,
                    "p": 3.0, "q": 3.0, "h": [0.05], "k": [0.05]},
        "solver": {"tol": 1e-10, "max_iter": 50},
        "branch": {"count": 3},
        "output": "out/branch",
    },
]

# an integer beyond the float range, written by json.dumps with all its digits
BIG = 10**400

# One value of each JSON kind, and the numbers at the edges of most ranges.
# Huge sizes stay out: a large n allocates without bound.
FUZZ_VALUES = ["x", True, None, [1.0], {"a": 1}, math.nan, math.inf, -math.inf, -1, 0, 0.5]


def field_paths(config, prefix=()):
    """The key path of every field of a config, nested sections included."""
    for key, value in config.items():
        yield prefix + (key,)
        if isinstance(value, dict):
            yield from field_paths(value, prefix + (key,))


class TestParseConfig:
    def test_minimal_region_config_valid(self):
        cfg = parse_config(json.dumps(REGION_CONFIG))
        assert cfg.command == "region"
        assert cfg.N == 6
        assert cfg.p_grid[0] == pytest.approx(1.05)
        assert len(cfg.q_grid) == 4

    def test_p_constraint_named(self):
        bad = dict(BRANCH_CONFIG)
        bad["problem"] = dict(bad["problem"], p=0.5)
        with pytest.raises(ConfigError) as err:
            parse_config(json.dumps(bad))
        assert any("p must exceed 1" in e for e in err.value.errors)

    def test_r_outside_admissible_interval_quotes_endpoints(self):
        bad = {
            "command": "solve",
            "problem": {
                "lengths": [math.pi, math.pi, math.pi],
                "n": 8,
                "r": 0.4,
                "p": 3.0,
                "q": 3.0,
            },
        }
        with pytest.raises(ConfigError) as err:
            parse_config(json.dumps(bad))
        joined = " ".join(err.value.errors)
        assert "(0.75, 1.25)" in joined

    def test_unknown_fields_rejected(self):
        bad = dict(REGION_CONFIG, extra_field=1)
        with pytest.raises(ConfigError) as err:
            parse_config(json.dumps(bad))
        assert any("unknown top-level fields" in e for e in err.value.errors)
        bad2 = dict(BRANCH_CONFIG)
        bad2["problem"] = dict(bad2["problem"], grid=10)
        with pytest.raises(ConfigError) as err:
            parse_config(json.dumps(bad2))
        assert any("unknown fields" in e and "problem" in e for e in err.value.errors)
        # the level brackets draw no samples: their former count is unknown
        with pytest.raises(ConfigError) as err:
            parse_config(json.dumps(dict(BRANCH_CONFIG, command="levels", levels={"samples": 200})))
        assert err.value.errors == ["levels section: unknown fields ['samples']"]

    def test_type_errors_named_precisely(self):
        bad = dict(REGION_CONFIG, seed="zero")
        with pytest.raises(ConfigError) as err:
            parse_config(json.dumps(bad))
        assert any("'seed' has wrong type str" in e for e in err.value.errors)

    def test_small_truncation_rejected(self):
        bad = dict(BRANCH_CONFIG)
        bad["problem"] = dict(bad["problem"], n=2)
        with pytest.raises(ConfigError) as err:
            parse_config(json.dumps(bad))
        assert any("'n' must be an integer >= 4" in e for e in err.value.errors)

    def test_large_truncation_rejected_before_enumeration(self, tmp_path, capsys, monkeypatch):
        def refuse(*args):
            raise AssertionError("the basis was enumerated")

        energy_module = importlib.import_module("indefsaddle.energy")
        monkeypatch.setattr(energy_module, "enumerate_basis", refuse)
        config = dict(BRANCH_CONFIG, problem=dict(BRANCH_CONFIG["problem"], n=10**9))
        cfg = write_config(tmp_path, "large.json", config)
        assert main(["branch", "--config", cfg, "--out", str(tmp_path / "out")]) == 1
        assert capsys.readouterr().err.splitlines() == [
            "config error: problem section: 'n' must be at most 2000, got 1000000000"
        ]

    def test_region_point_count_capped(self, tmp_path, capsys, monkeypatch):
        def refuse(*args):
            raise AssertionError("the region was scanned")

        region_module = importlib.import_module("indefsaddle.region")
        monkeypatch.setattr(region_module, "scan_blocks", refuse)
        grid = {"start": 1.5, "stop": 3.5, "step": 0.001}  # 2001 points each
        config = dict(REGION_CONFIG, p_grid=grid, q_grid=grid)
        cfg = write_config(tmp_path, "large.json", config)
        assert main(["region", "--config", cfg, "--out", str(tmp_path / "out")]) == 1
        assert capsys.readouterr().err.splitlines() == [
            "config error: 'p_grid' x 'q_grid' must have at most 1000000 points, got 4004001"
        ]

    def test_missing_sections_reported(self):
        with pytest.raises(ConfigError) as err:
            parse_config(json.dumps({"command": "region"}))
        joined = " ".join(err.value.errors)
        assert "requires 'N'" in joined and "p_grid" in joined


class TestCommands:
    def test_region_run_and_boundary_columns(self, tmp_path):
        cfg = write_config(tmp_path, "region.json", REGION_CONFIG)
        out = str(tmp_path / "region_out")
        assert main(["region", "--config", cfg, "--out", out]) == 0
        lines = (tmp_path / "region_out.csv").read_text().splitlines()
        header = lines[0].split(",")
        rows = [dict(zip(header, line.split(","))) for line in lines[1:]]
        assert len(rows) == len(parse_config(json.dumps(REGION_CONFIG)).p_grid) * 4
        # closed forms at N=6: hyperbola crosses q=1 at p=5, region curve at 11/7
        for row in rows:
            p, q = float(row["p"]), float(row["q"])
            if row["status"] == "inside":
                assert float(row["hyperbola_gap"]) > 0.0
                assert row["feasible"] == "true"

    def test_solve_roundtrip(self, tmp_path):
        config = {
            "command": "solve",
            "problem": BRANCH_CONFIG["problem"],
            "solve": {"initial_u": [0, 2.0], "initial_v": [0, 2.0]},
        }
        cfg = write_config(tmp_path, "solve.json", config)
        out = str(tmp_path / "solve_out")
        assert main(["solve", "--config", cfg, "--out", out]) == 0
        payload = json.loads((tmp_path / "solve_out.json").read_text())
        assert payload["converged"]
        assert len(payload["solutions"]) == 1

    def test_branch_emit_and_reload(self, tmp_path):
        cfg = write_config(tmp_path, "branch.json", BRANCH_CONFIG)
        out = str(tmp_path / "branch_out")
        assert main(["branch", "--config", cfg, "--out", out]) == 0
        path = str(tmp_path / "branch_out.json")
        payload = json.loads(open(path).read())
        assert len(payload["solutions"]) == 3
        assert all(s["has_mirror"] for s in payload["solutions"])
        energies = [s["energy"] for s in payload["solutions"]]
        assert energies == sorted(energies)
        spec, cutoff, pairs = load_solutions(path)
        for z, entry in zip(pairs, payload["solutions"]):
            report = verify_critical(z, spec, cutoff)
            assert abs(report.residual_norm - entry["residual"]) < 1e-12

    def test_levels_csv(self, tmp_path):
        config = {
            "command": "levels",
            "problem": BRANCH_CONFIG["problem"],
            "levels": {"k_max": 3},
        }
        cfg = write_config(tmp_path, "levels.json", config)
        out = str(tmp_path / "levels_out")
        assert main(["levels", "--config", cfg, "--out", out]) == 0
        lines = (tmp_path / "levels_out.csv").read_text().splitlines()
        assert lines[0].startswith("k,lower,upper")
        assert len(lines) == 4

    def test_levels_files_do_not_depend_on_the_seed(self, tmp_path):
        """The level brackets draw nothing at random, so two seeds write the
        same bytes."""
        config = {"command": "levels", "problem": BRANCH_CONFIG["problem"], "levels": {"k_max": 3}}
        cfg = write_config(tmp_path, "levels.json", config)
        for seed in ("0", "12345"):
            out = str(tmp_path / f"levels_{seed}")
            assert main(["levels", "--config", cfg, "--seed", seed, "--out", out]) == 0
        assert (tmp_path / "levels_0.csv").read_bytes() == (tmp_path / "levels_12345.csv").read_bytes()

    def test_check_exit_code_and_output(self, tmp_path):
        cfg = write_config(tmp_path, "check.json", {"command": "check", "seed": 0})
        out = str(tmp_path / "check_out")
        assert main(["check", "--config", cfg, "--out", out]) == 0
        lines = (tmp_path / "check_out.csv").read_text().splitlines()
        assert len(lines) >= 7
        assert all(",true," in line for line in lines[1:])

    def test_failed_check_suite_exits_three(self, tmp_path, monkeypatch):
        from indefsaddle import cli, suite

        monkeypatch.setattr(
            cli.suite, "run_all",
            lambda seed: [suite.CheckResult("stub", False, "forced failure")],
        )
        cfg = write_config(tmp_path, "check.json", {"command": "check"})
        out = str(tmp_path / "check_fail")
        assert main(["check", "--config", cfg, "--out", out]) == 3
        assert ",false," in (tmp_path / "check_fail.csv").read_text()

    def test_command_mismatch_is_config_error(self, tmp_path):
        cfg = write_config(tmp_path, "region.json", REGION_CONFIG)
        assert main(["check", "--config", cfg]) == 1

    def test_missing_config_file_is_io_error(self):
        assert main(["check", "--config", "/nonexistent/path.json"]) == 2

    def test_unwritable_output_is_io_error(self, tmp_path, capsys):
        cfg = write_config(tmp_path, "region.json", REGION_CONFIG)
        (tmp_path / "notafile").write_text("")
        assert main(["region", "--config", cfg, "--out", str(tmp_path / "notafile" / "out")]) == 2
        errors = capsys.readouterr().err.splitlines()
        assert len(errors) == 1 and errors[0].startswith("IO error: ")

    def test_invalid_config_returns_one(self, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text("{not json")
        assert main(["check", "--config", str(path)]) == 1

    @pytest.mark.parametrize(
        "command, problem, section, message",
        [
            ("solve", {"p": math.nan}, {}, "p must be finite"),
            ("branch", {"q": math.inf}, {}, "q must be finite"),
            ("solve", {"r": math.nan}, {}, "r must be finite"),
            ("levels", {"n": 8}, {"levels": {"k_max": 9}}, "at most the truncation"),
            ("levels", {}, {"levels": {"k_max": "abc"}}, "'k_max' has wrong type str"),
            ("branch", {}, {"branch": {"count": "abc"}}, "'count' has wrong type str"),
            ("solve", {}, {"solve": {"initial_u": ["x"]}}, "'initial_u' entries must be numbers"),
            ("solve", {"n": 8}, {"solve": {"initial_v": [1.0] * 9}}, "more than the truncation n = 8"),
            ("levels", {}, {"levels": {"k_max": 10**400}},
             "levels section: field 'k_max' must be at most the truncation n = 16, got 1" + "0" * 400),
            ("solve", {}, {"solve": {"continuation_steps": "abc"}}, "unknown fields"),
            ("solve", {"n": 8}, {"solver": {"tol": "1e-3"}}, "'tol' has wrong type str"),
            ("solve", {"n": 8, "r": "1.0"}, {}, "'r' has wrong type str"),
            ("solve", {"n": 8, "lengths": ["3.14"]}, {}, "'lengths' entries must be numbers"),
            ("solve", {"n": 8}, {"solver": {"max_iter": 2.7}}, "'max_iter' has wrong type float"),
            ("solve", {"n": 8, "oversample": 2.5}, {}, "'oversample' has wrong type float"),
            ("solve", {"n": 8}, {"solver": {"max_iter": True}}, "'max_iter' has wrong type bool"),
            ("solve", {"n": 8}, {"solver": {"max_iter": -1}}, "max_iter must be at least 1"),
            ("solve", {"n": 8}, {"solver": {"tol": math.inf}}, "tol must be finite"),
            ("solve", {"n": 8}, {"cutoff": {"bound_constant": math.nan}}, "bound_constant must be finite"),
            ("solve", {"n": 8}, {"cutoff": {"bound_constant": math.inf}}, "bound_constant must be finite"),
            ("solve", {"n": 8}, {"cutoff": {"bound_constant": -1}}, "bound constant must be positive"),
            ("solve", {"n": 8}, {"seed": -1}, "'seed' must be at least 0"),
            ("region", {}, {"N": 6, "q_grid": [2.0],
                            "p_grid": {"start": 1.5, "stop": math.nan, "step": 0.5}},
             "stop must be finite"),
            ("region", {}, {"N": 6, "q_grid": [2.0],
                            "p_grid": {"start": 1.5, "stop": math.inf, "step": 0.5}},
             "stop must be finite"),
            ("solve", {"n": 8}, {"cutoff": {}}, "missing required field 'bound_constant'"),
            ("region", {}, {"N": 6, "q_grid": [2.0],
                            "p_grid": {"start": -1.7e308, "stop": 1.7e308, "step": 1.0}},
             "at most 1000000 points"),
            ("region", {}, {"N": 6, "q_grid": [2.0],
                            "p_grid": {"start": 1.5, "stop": 2.0, "step": 1e-300}},
             "at most 1000000 points"),
            ("solve", {"lengths": [1.0, 1.0], "n": 5, "oversample": 10**6}, {},
             "'oversample' gives 6000000000000 collocation points, more than 4194304"),
            ("solve", {"n": 8}, {"format": "csv"}, "format 'csv' applies to region, levels and check"),
            ("branch", {"n": 8}, {"format": "csv"}, "format 'csv' applies to region, levels and check"),
            # near p = q = 1 the bracket values leave the float range at run time
            ("levels", {"lengths": [2.0], "n": 8, "p": 1.005, "q": 1.005}, {},
             "error: level bracket at k=2: ceiling is not finite (inf)"),
            ("levels", {"lengths": [30.0], "n": 8, "p": 1.0001, "q": 1.0001}, {},
             "error: level bracket at k=2: lower is not finite (inf)"),
            ("levels", {"lengths": [0.5], "n": 8, "p": 1.01, "q": 1.01}, {},
             "error: level bracket at k=1: upper is not finite (-inf)"),
            ("levels", {"lengths": [1.0], "n": 8, "p": 1.01, "q": 1.01}, {},
             "error: level bracket at k=2: ceiling is not finite (inf)"),
            # side lengths whose (pi/L)^2 overflows, or underflows to 0
            ("solve", {"lengths": [1e-300]}, {}, "give eigenvalues above the float range"),
            ("solve", {"lengths": [1e300]}, {}, "give eigenvalues below the float range"),
            # in range, but the level brackets leave it: levels scale as
            # L^-3 here, so gamma is 8.7e449 on [1e-150], and on [2e-102]
            # the level-2 ceiling (5e308) overflows while gamma does not
            ("levels", {"lengths": [1e-150], "n": 8}, {},
             "error: lower growth constant leaves the float range at eigenvalue growth "
             "constant 9.869604401089357e+300"),
            ("levels", {"lengths": [2e-102], "n": 8}, {},
             "error: level bracket at k=2: ceiling is not finite (inf)"),
            # the level brackets draw no samples, so their former count is
            # an unknown field, at any value
            ("levels", {"n": 8}, {"levels": {"samples": 10**400}},
             "levels section: unknown fields ['samples']"),
            ("levels", {"n": 8}, {"levels": {"k_max": 0}},
             "levels section: field 'k_max' must be at least 1, got 0"),
            # the first entry at fault names the error
            ("solve", {}, {"solve": {"initial_u": [1, True]}}, "'initial_u' entries must be numbers"),
            ("solve", {}, {"solve": {"initial_v": [math.inf, "x"]}}, "'initial_v' entries must be finite"),
            ("solve", {}, {"solve": {"initial_v": [None, math.nan]}}, "'initial_v' entries must be numbers"),
            # sides at which pi/L itself overflows to inf (1e-310 and the
            # subnormal 5e-324), appended here so that no earlier id moves
            ("solve", {"lengths": [1e-310]}, {}, "give eigenvalues above the float range"),
            ("solve", {"lengths": [5e-324]}, {}, "give eigenvalues above the float range"),
        ],
    )
    def test_bad_values_exit_one_without_traceback(
        self, tmp_path, capsys, command, problem, section, message
    ):
        config = {
            "command": command,
            "problem": dict(BRANCH_CONFIG["problem"], **problem),
            **section,
        }
        cfg = write_config(tmp_path, "bad.json", config)
        assert main([command, "--config", cfg, "--out", str(tmp_path / "out")]) == 1
        errors = capsys.readouterr().err.splitlines()
        if message.startswith("error:"):  # found while the command runs
            assert errors == [message]
        else:
            assert any(line.startswith("config error:") and message in line for line in errors)
        assert not list(tmp_path.glob("out*"))

    @pytest.mark.parametrize("scale", [1e-80, 1e150])
    def test_rescaled_boxes_exit_zero(self, tmp_path, scale):
        """The n = 8 box (0, pi) rescaled by 1e-80 and 1e150 runs to the
        end with finite brackets and no RuntimeWarning: levels of about
        1e240 there, whose ray point energies pass the overflow of their grid
        powers, and of about 1e-450 here, which underflow to 0."""
        problem = {"lengths": [math.pi * scale], "n": 8, "p": 3, "q": 3}
        cfg = write_config(tmp_path, "box.json", {"command": "levels", "problem": problem})
        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            assert main(["levels", "--config", cfg, "--out", str(tmp_path / "out")]) == 0
        with open(tmp_path / "out.csv", newline="") as handle:
            rows = list(csv.DictReader(handle))
        assert len(rows) == 5
        assert all(math.isfinite(float(value)) for row in rows for value in row.values())

    @pytest.mark.parametrize("name, value", [("damping", 0.5), ("min_step", 1e-12)])
    def test_line_search_settings_are_unknown_fields(self, tmp_path, capsys, name, value):
        """The Newton line search's step ladder is fixed, so its former
        settings are unknown fields of the solver section."""
        config = {"command": "solve", "problem": dict(BRANCH_CONFIG["problem"], n=8)}
        cfg = write_config(tmp_path, "ladder.json", dict(config, solver={name: value}))
        assert main(["solve", "--config", cfg, "--out", str(tmp_path / "out")]) == 1
        assert capsys.readouterr().err.splitlines() == [
            f"config error: solver section: unknown fields ['{name}']"
        ]
        assert not list(tmp_path.glob("out*"))

    @pytest.mark.parametrize(
        "config, message",
        [
            ({"problem": {"r": BIG}}, "problem section: r must be finite, got inf"),
            ({"problem": {"lengths": [BIG]}}, "problem section: 'lengths' entries must be finite"),
            ({"solver": {"tol": BIG}}, "solver section: tol must be finite, got inf"),
            ({"solver": {"tol": -BIG}}, "solver section: tol must be finite, got -inf"),
            ({"solve": {"initial_u": [BIG]}}, "solve section: 'initial_u' entries must be finite"),
            ({"command": "region", "p_grid": [BIG]}, "'p_grid' entries must be finite"),
            ({"command": "region", "p_grid": {"start": 1.5, "stop": BIG, "step": 0.5}},
             "p_grid section: stop must be finite, got inf"),
            ({"command": "region", "N": BIG}, "field 'N' must lie within the float range"),
        ],
    )
    def test_numbers_beyond_the_float_range_are_config_errors(
        self, tmp_path, capsys, config, message
    ):
        """A JSON integer of 401 digits in a field the program reads as a
        float is one config error naming the field, not a traceback."""
        base = (
            dict(REGION_CONFIG, N=5) if config.get("command") == "region"
            else {"command": "solve", "problem": dict(BRANCH_CONFIG["problem"], n=8)}
        )
        for name, value in config.items():
            base[name] = dict(base[name], **value) if isinstance(value, dict) and name in base else value
        cfg = write_config(tmp_path, "big.json", base)
        assert main([base["command"], "--config", cfg, "--out", str(tmp_path / "out")]) == 1
        err = capsys.readouterr().err
        assert "Traceback" not in err
        assert err.splitlines() == [f"config error: {message}"]
        assert not list(tmp_path.glob("out*"))

    @pytest.mark.parametrize("command", ["solve", "branch"])
    def test_csv_format_flag_is_config_error(self, tmp_path, capsys, command):
        config = {"command": command, "problem": dict(BRANCH_CONFIG["problem"], n=8)}
        cfg = write_config(tmp_path, "csv.json", config)
        assert main([command, "--config", cfg, "--out", str(tmp_path / "out"), "--format", "csv"]) == 1
        assert capsys.readouterr().err.splitlines() == [
            f"config error: format 'csv' applies to region, levels and check, not {command}"
        ]
        assert not list(tmp_path.glob("out*"))

    @pytest.mark.parametrize("config", [
        dict(REGION_CONFIG, p_grid=dict(REGION_CONFIG["p_grid"], step=0.5)),
        {"command": "levels", "problem": dict(BRANCH_CONFIG["problem"], n=8),
         "levels": {"k_max": 3}},
        {"command": "check", "seed": 0},
    ], ids=["region", "levels", "check"])
    @pytest.mark.parametrize("route", ["config", "flag"])
    def test_json_rows_match_csv_rows(self, tmp_path, config, route):
        """format json writes the rows of the CSV, keyed by its header."""
        from indefsaddle.cli import SCHEMA_VERSION, _fmt

        command = config["command"]
        cfg = write_config(tmp_path, "rows.json", dict(config, seed=5))
        assert main([command, "--config", cfg, "--out", str(tmp_path / "rows")]) == 0
        if route == "config":
            cfg = write_config(tmp_path, "rows.json", dict(config, seed=5, format="json"))
            argv = [command, "--config", cfg, "--out", str(tmp_path / "rows")]
        else:
            argv = [command, "--config", cfg, "--out", str(tmp_path / "rows"), "--format", "json"]
        assert main(argv) == 0
        header, *lines = (tmp_path / "rows.csv").read_text().splitlines()
        payload = json.loads((tmp_path / "rows.json").read_text())
        assert list(payload) == ["schema_version", "command", "seed", "rows"]
        assert (payload["schema_version"], payload["command"], payload["seed"]) == (
            SCHEMA_VERSION, command, 5
        )
        assert len(payload["rows"]) == len(lines) > 0
        for row, line in zip(payload["rows"], lines):
            assert ",".join(row) == header
            assert ",".join(_fmt(value) for value in row.values()) == line
        if command == "check":  # JSON rows carry the raw detail, with no CSV quotes
            details = [result.detail for result in suite.run_all(seed=5)]
            assert [row["detail"] for row in payload["rows"]] == details

    @pytest.mark.parametrize("command", ["solve", "levels"])
    def test_negative_seed_flag_is_config_error(self, tmp_path, capsys, command):
        config = {"command": command, "problem": dict(BRANCH_CONFIG["problem"], n=8)}
        cfg = write_config(tmp_path, "seed.json", config)
        out = tmp_path / "out"
        assert main([command, "--config", cfg, "--out", str(out), "--seed", "-1"]) == 1
        assert capsys.readouterr().err.splitlines() == [
            "config error: field 'seed' must be at least 0, got -1"
        ]
        assert not list(tmp_path.glob("out*"))

    def test_flags_override_their_config_fields(self, tmp_path):
        """--seed and --format replace the config's fields, and so does --out
        unless it is empty."""
        config = dict(REGION_CONFIG, seed=1, format="csv", output=str(tmp_path / "cfg"))
        cfg = write_config(tmp_path, "flags.json", config)
        assert main(["region", "--config", cfg, "--out", "", "--seed", "4"]) == 0
        assert (tmp_path / "cfg.csv").exists()
        assert main(["region", "--config", cfg, "--out", str(tmp_path / "flag"), "--format", "json"]) == 0
        assert json.loads((tmp_path / "flag.json").read_text())["seed"] == 1
        assert main(["region", "--config", cfg, "--format", "json", "--seed", "4"]) == 0
        assert json.loads((tmp_path / "cfg.json").read_text())["seed"] == 4

    # at p = 1e300 the Newton residual overflows, and in `levels` the lower
    # curve's powers do, before any level point is evaluated
    OVERFLOW_ERRORS = {
        "solve": "error: coefficients must be finite",
        "branch": "error: coefficients must be finite",
        "levels": "error: lower growth curve: its powers leave the float range",
    }

    @pytest.mark.parametrize("command", ["solve", "branch", "levels"])
    def test_overflow_exits_one_with_error_line(self, tmp_path, capsys, command):
        config = {
            "command": command,
            "problem": dict(BRANCH_CONFIG["problem"], n=8, p=1e300),
        }
        cfg = write_config(tmp_path, "overflow.json", config)
        with np.errstate(all="ignore"):
            status = main([command, "--config", cfg, "--out", str(tmp_path / "out")])
        assert status == 1
        errors = [line for line in capsys.readouterr().err.splitlines() if line.startswith("error:")]
        assert errors == [self.OVERFLOW_ERRORS[command]]

    @pytest.mark.parametrize("command", ["solve", "branch", "levels"])
    def test_overflow_error_line_comes_without_warnings(self, tmp_path, capsys, command):
        config = {
            "command": command,
            "problem": dict(BRANCH_CONFIG["problem"], n=8, p=1e300),
        }
        cfg = write_config(tmp_path, "overflow.json", config)
        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            status = main([command, "--config", cfg, "--out", str(tmp_path / "out")])
        assert status == 1
        assert capsys.readouterr().err.splitlines() == [self.OVERFLOW_ERRORS[command]]

    def test_overflowing_seed_above_the_crossover_exits_one(self, tmp_path, capsys):
        """At n = 128, where Newton's step solves by GMRES, a seed whose
        residual norm overflows ends as it does below: one error line, no
        output file."""
        config = {
            "command": "solve",
            "problem": {"lengths": [math.pi], "n": 128},
            "solve": {"initial_u": [1e80], "initial_v": [1e80]},
        }
        cfg = write_config(tmp_path, "seed.json", config)
        assert main(["solve", "--config", cfg, "--out", str(tmp_path / "out")]) == 1
        assert capsys.readouterr().err.splitlines() == ["error: coefficients must be finite"]
        assert not list(tmp_path.glob("out*"))

    def test_overflowing_forcing_names_the_cutoff_override(self, tmp_path, capsys):
        """Forcing norms that overflow leave no default cutoff constant: the
        one error line names them and the cutoff.bound_constant override,
        not a bound constant the config never gave."""
        config = {
            "command": "levels",
            "problem": dict(BRANCH_CONFIG["problem"], n=8, h=[1e200], k=[1e200]),
        }
        cfg = write_config(tmp_path, "forcing.json", config)
        assert main(["levels", "--config", cfg, "--out", str(tmp_path / "out")]) == 1
        assert capsys.readouterr().err.splitlines() == [
            "error: the forcing norms |h|_2 = inf, |k|_2 = inf give no finite default "
            "cutoff bound constant 4 (|h|_2 + |k|_2); set cutoff.bound_constant"
        ]
        assert not list(tmp_path.glob("out*"))

    def test_overflowing_forcing_size_names_the_forcing(self, tmp_path, capsys):
        """With the cutoff constant given, forcing norms that overflow end
        in one error line naming h and k, not a bracket's ceiling."""
        config = {
            "command": "levels",
            "problem": dict(BRANCH_CONFIG["problem"], n=8, h=[1e200], k=[1e200]),
            "cutoff": {"bound_constant": 1.0},
        }
        cfg = write_config(tmp_path, "forcing.json", config)
        assert main(["levels", "--config", cfg, "--out", str(tmp_path / "out")]) == 1
        assert capsys.readouterr().err.splitlines() == [
            "error: the forcing norms |h|_2 = inf, |k|_2 = inf give no finite forcing "
            "size C0 = |k|_2 lambda_1^(-r/2) + |h|_2 lambda_1^(r/2-1)"
        ]
        assert not list(tmp_path.glob("out*"))

    def test_level_radius_overflow_exits_one(self, tmp_path, capsys):
        # near p = q = 1 the radius (1/(2 c_k))^(1/(m-2)) leaves the float range
        config = {
            "command": "levels",
            "problem": dict(BRANCH_CONFIG["problem"], n=8, p=1.0001, q=1.0001),
        }
        cfg = write_config(tmp_path, "radius.json", config)
        assert main(["levels", "--config", cfg, "--out", str(tmp_path / "out")]) == 1
        errors = capsys.readouterr().err.splitlines()
        assert len(errors) == 1
        assert errors[0].startswith("error: level radius") and "overflows" in errors[0]
        assert not list(tmp_path.glob("out*"))

    @pytest.mark.parametrize("command", ["solve", "branch", "levels"])
    def test_smallest_truncation_runs(self, tmp_path, command):
        # n = 4 is below the default k_max = 5, which applies to levels only
        config = {"command": command, "problem": {"lengths": [3.14159], "n": 4}}
        cfg = write_config(tmp_path, "n4.json", config)
        out = tmp_path / "n4"
        assert main([command, "--config", cfg, "--out", str(out)]) == 0
        if command == "levels":
            rows = out.with_suffix(".csv").read_text().splitlines()[1:]
            assert [row.split(",")[0] for row in rows] == ["1", "2", "3", "4"]

    def test_fuzzed_configs_exit_zero_or_one(self, tmp_path):
        shrunk_branch = dict(BRANCH_CONFIG, problem=dict(BRANCH_CONFIG["problem"], n=8))
        shrunk_region = dict(REGION_CONFIG, p_grid=dict(REGION_CONFIG["p_grid"], step=0.5))
        statuses = set()
        for base in README_CONFIGS + [shrunk_region, shrunk_branch]:
            for path in field_paths(base):
                for value in FUZZ_VALUES:
                    config = copy.deepcopy(base)
                    section = config
                    for key in path[:-1]:
                        section = section[key]
                    section[path[-1]] = value
                    cfg = write_config(tmp_path, "fuzz.json", config)
                    argv = [base["command"], "--config", cfg, "--out", str(tmp_path / "out")]
                    try:
                        statuses.add(main(argv))
                    except Exception as exc:
                        pytest.fail(f"{path} = {value!r} raised {exc!r}")
        assert statuses == {0, 1}


# Columns by id: numpy columns as the writers are handed them, whole or with
# a mask of the cells present
MASK = np.array([True, False, True, True, False, True])
COLUMNS = {
    "signed-zeros": np.array([0.0, -0.0, 0.0, 1.5]),
    "repeats-with-zeros": np.array([-0.0, 0.0] + [1.5] * 8),
    "ints": np.array([1, 2, 2, 3, 1]),
    "bools": np.array([True, True, False, True, True, True]),
    "text": np.array(["transforms", "worst error 1e-16 (tol 1e-12)", 'say "x"', "x,y", "", "transforms"]),
    "non-finite": np.array([math.nan, math.inf, -math.inf, 1e-300, 1e22, 5e-324] * 5),
    "distinct-floats": np.array([0.1, 0.2, 0.30000000000000004, 1e16]),
    "empty": np.array([], dtype=str),
    "array-floats": np.array([0.0, -0.0, math.nan, math.inf, -math.inf, 5e-324] * 3),
    "array-repeats": np.array([1.5] * 8 + [2.5]),
    "array-repeats-with-zeros": np.array([1.5] * 8 + [-0.0, 0.0]),
    "array-repeated-non-finite": np.array([math.nan, math.inf, -math.inf, 2.0] * 4),
    "array-bools": np.array([True, False, True, True]),
    "array-text": np.array(["inside", "a b", 'say "x"', "x,y", "line\nbreak", "inside"]),
    "array-empty": np.array([], dtype=float),
}
MASKED_COLUMNS = {
    "masked-floats": (np.array([0.0, -0.0, math.nan, math.inf, 5e-324, -math.inf]), MASK),
    "masked-repeats": (np.array([2.5, 1.0, 2.5, 2.5, 1.0, 2.5] * 4), np.tile(MASK, 4)),
    "masked-bools": (np.array([True, False, False, True, True, False]), MASK),
    "masked-text": (np.array(["inside", "a b", "x,y", "inside", "y", 'say "x"']), MASK),
    "all-masked": (np.array([1.0, 2.0]), np.array([False, False])),
}
CELL_CASES = [pytest.param(column, None, id=name) for name, column in COLUMNS.items()]
CELL_CASES += [pytest.param(*case, id=name) for name, case in MASKED_COLUMNS.items()]


def cell_values(column, present) -> list:
    """The Python values of a column, None where its mask is false."""
    values = column.tolist()
    if present is None:
        return values
    return [value if keep else None for value, keep in zip(values, present.tolist())]


class TestCsvWriter:
    @pytest.mark.parametrize("column, present", CELL_CASES)
    def test_column_cells_follow_the_cell_rule(self, column, present):
        from indefsaddle.cli import _cells, _fmt

        assert _cells(column, present) == [_fmt(v) for v in cell_values(column, present)]

    @pytest.mark.parametrize("column, present", CELL_CASES)
    def test_column_json_cells_are_json_dumps(self, column, present):
        from indefsaddle.cli import _json_cells

        assert _json_cells(column, present) == list(map(json.dumps, cell_values(column, present)))

    @pytest.mark.parametrize("block", [1, 7, 1 << 10])
    def test_blocks_join_to_the_rows(self, tmp_path, monkeypatch, block):
        """Scan blocks of `block` points are written as the scalar oracle's
        rows are, cell by cell."""
        from indefsaddle import cli, region

        grid = [1.05 + i * 0.05 for i in range(0, 100, 7)]
        rows = scalar_region_rows(5, grid, grid)
        monkeypatch.setattr(region, "_BLOCK", block)
        blocks = region.scan_blocks(5, grid, grid)
        assert cli._write_csv(str(tmp_path / "rows.csv"), region.RegionRow._fields, blocks) == len(rows)
        lines = [",".join(region.RegionRow._fields)]
        lines += [",".join(cli._fmt(value) for value in row) for row in rows]
        assert (tmp_path / "rows.csv").read_text() == "\n".join(lines) + "\n"

    def test_region_csv_is_written_as_it_is_scanned(self, tmp_path, monkeypatch):
        """The README grid's CSV rows are scanned one block of points at a
        time, blocks that cross p rows included, each as the writer reaches
        it, and written as the scalar oracle's rows are, cell by cell."""
        from indefsaddle import cli, region

        events, on_disk = [], []
        real_blocks, real_cells = region.scan_blocks, cli._cells
        out = tmp_path / "streamed.csv"

        def scan_blocks(*args):
            for block in real_blocks(*args):
                events.append(("scan", len(block[0][0])))
                on_disk.append(out.stat().st_size)
                yield block

        def cells(column, present=None):
            events.append(("cells", len(column)))
            return real_cells(column, present)

        config = copy.deepcopy(README_CONFIGS[0])
        config["p_grid"]["step"] = config["q_grid"]["step"] = 0.05
        cfg = write_config(tmp_path, "region.json", config)
        parsed = parse_config(json.dumps(config))
        whole = scalar_region_rows(parsed.N, parsed.p_grid, parsed.q_grid)
        lines = [",".join(region.RegionRow._fields)]
        lines += [",".join(cli._fmt(value) for value in row) for row in whole]
        monkeypatch.setattr(region, "_BLOCK", 777)
        monkeypatch.setattr(region, "scan_blocks", scan_blocks)
        monkeypatch.setattr(cli, "_cells", cells)
        assert main(["region", "--config", cfg, "--out", str(tmp_path / "streamed")]) == 0
        scans = [size for kind, size in events if kind == "scan"]
        assert sum(scans) == len(whole) == 100 * 100
        assert max(scans) <= region._BLOCK
        # the first block is written before the last one is scanned
        last_scan = max(i for i, (kind, _) in enumerate(events) if kind == "scan")
        assert events.index(("cells", region._BLOCK)) < last_scan
        assert on_disk[-1] > 0  # rows reached the file before the last scan
        assert out.read_text() == "\n".join(lines) + "\n"

    @pytest.mark.parametrize("fmt", ["csv", "json"])
    def test_records_are_written_in_blocks(self, tmp_path, monkeypatch, capsys, fmt):
        """Records beyond one block are cut into blocks of _BLOCK rows: the
        file is that of one block, and the failed checks of every block
        count."""
        from indefsaddle import cli, region

        results = [suite.CheckResult(f"c{i}", i % 3 != 1, "a, b") for i in range(5)]
        monkeypatch.setattr(cli.suite, "run_all", lambda seed: results)
        cfg = write_config(tmp_path, "check.json", {"command": "check", "format": fmt})
        assert main(["check", "--config", cfg, "--out", str(tmp_path / "whole")]) == 3
        monkeypatch.setattr(region, "_BLOCK", 2)
        assert len(cli._record_blocks(results)) == 3
        capsys.readouterr()
        assert main(["check", "--config", cfg, "--out", str(tmp_path / "blocks")]) == 3
        assert "check suite: 2 of 5 checks FAILED" in capsys.readouterr().out
        whole, blocks = (tmp_path / f"{name}.{fmt}" for name in ("whole", "blocks"))
        assert blocks.read_bytes() == whole.read_bytes()

    def test_readme_region_json_rows_parse_as_the_csv_cells(self, tmp_path):
        """The README region config: its JSON rows hold the values of the
        CSV cells, null where a cell is empty."""
        config = copy.deepcopy(README_CONFIGS[0])
        config["p_grid"]["step"] = config["q_grid"]["step"] = 0.05
        rows = json_rows_parsed_as_csv_cells(tmp_path, config)
        assert len(rows) == 100 * 100
        assert any(None in row.values() for row in rows)

    @pytest.mark.parametrize("config", [
        {"command": "levels", "problem": dict(BRANCH_CONFIG["problem"], n=8),
         "levels": {"k_max": 3}},
        {"command": "check", "seed": 7},
    ], ids=["levels", "check"])
    def test_levels_and_check_json_rows_parse_as_the_csv_cells(self, tmp_path, config):
        """The LevelBracket and CheckResult rows: integers, floats, booleans
        and quoted free text come back as the JSON values."""
        rows = json_rows_parsed_as_csv_cells(tmp_path, config)
        if config["command"] == "check":
            names = [check.__name__.removeprefix("check_") for check in suite.ALL_CHECKS]
            assert [row["name"] for row in rows] == names
            assert all(row["passed"] is True for row in rows)
            assert any("," in row["detail"] for row in rows)  # quoted in the CSV
        else:
            assert [row["k"] for row in rows] == [1, 2, 3]


class TestJsonWriter:
    @staticmethod
    def region_json(tmp_path, config) -> tuple[list[str], str]:
        """The CLI arguments that write the region JSON of `config` to
        out.json, and its oracle: json.dumps(..., indent=2) of the whole
        document of the scalar oracle's rows."""
        from indefsaddle import cli, region

        cfg = write_config(tmp_path, "region.json", dict(config, format="json"))
        parsed = parse_config(json.dumps(config))
        rows = scalar_region_rows(parsed.N, parsed.p_grid, parsed.q_grid)
        document = {
            **cli._json_header(parsed),
            "rows": [dict(zip(region.RegionRow._fields, row)) for row in rows],
        }
        argv = ["region", "--config", cfg, "--out", str(tmp_path / "out")]
        return argv, json.dumps(document, indent=2) + "\n"

    @pytest.mark.parametrize("grid", ["golden", "readme"])
    def test_region_json_is_the_whole_document_dump(self, tmp_path, grid):
        if grid == "golden":
            config = json.loads((DATA / "golden_region_json.config.json").read_text())
        else:
            config = copy.deepcopy(README_CONFIGS[0])
            config["p_grid"]["step"] = config["q_grid"]["step"] = 0.05
        argv, oracle = self.region_json(tmp_path, config)
        assert main(argv) == 0
        assert (tmp_path / "out.json").read_text() == oracle

    def test_record_json_is_the_whole_document_dump(self, tmp_path):
        """Check rows, free text with commas and quotes included."""
        from indefsaddle.cli import SCHEMA_VERSION

        cfg = write_config(tmp_path, "check.json", {"command": "check", "seed": 5, "format": "json"})
        assert main(["check", "--config", cfg, "--out", str(tmp_path / "out")]) == 0
        rows = [result._asdict() for result in suite.run_all(seed=5)]
        document = {"schema_version": SCHEMA_VERSION, "command": "check", "seed": 5, "rows": rows}
        assert (tmp_path / "out.json").read_text() == json.dumps(document, indent=2) + "\n"

    def test_no_rows_are_the_empty_list(self, tmp_path):
        from indefsaddle import cli

        head = {"schema_version": 1, "command": "region", "seed": 0}
        assert cli._write_json_rows(str(tmp_path / "out.json"), head, ("p",), []) == 0
        assert (tmp_path / "out.json").read_text() == json.dumps({**head, "rows": []}, indent=2) + "\n"

    @pytest.mark.parametrize("vector", [list, np.array], ids=["lists", "arrays"])
    @pytest.mark.parametrize("found", [False, True], ids=["no-solutions", "solutions"])
    def test_solution_json_is_the_whole_document_dump(self, tmp_path, vector, found):
        """The hand layout of a solution file writes the bytes of json.dumps
        with indent 2, numpy arrays as their lists: non-finite, signed-zero,
        extreme and int entries, text that needs escapes, None, bools, empty
        and nested containers."""
        from indefsaddle import cli

        def payload(vector):
            floats = vector([math.nan, math.inf, -math.inf, -0.0, 0.0, 1e16, 5e-324, 0.1, -2.5])
            solutions = [
                {"u": floats, "v": vector([]), "energy": -0.0, "residual": math.nan,
                 "cutoff_weight": None, "bound_ok": False, "has_mirror": True,
                 "mixed": [1, 2.0, None, True, "x"]},
                {"u": vector([3.0]), "nested": [[1.0], [], {}, {"a": [{"b": None}]}], "empty": {}},
            ]
            return {
                "schema_version": 1, "command": "branch", "seed": 0,
                "problem": {"lengths": [3, 2.5], "n": 9, "h": floats, "k": vector([]), "oversample": 4},
                "cutoff_constant": math.inf, "converged": False, "iterations": 0,
                "message": 'line "search"\n\tstalled \\ \u00e9\u2212\U0001f600',
                "note": 'seeds "exhausted",\r\n\u00e5 \u2260 \u00f8', "exhausted": True,
                "solutions": solutions if found else [],
            }

        cli._write_json(str(tmp_path / "out.json"), payload(vector))
        oracle = json.dumps(payload(list), indent=2) + "\n"
        assert (tmp_path / "out.json").read_bytes() == oracle.encode()

    def test_region_json_is_written_as_it_is_scanned(self, tmp_path, monkeypatch):
        """The README grid's JSON rows are written one block of points at a
        time, blocks that cross p rows included, each as the writer reaches
        it."""
        from indefsaddle import cli, region

        events, on_disk = [], []
        real_blocks, real_cells = region.scan_blocks, cli._json_cells
        out = tmp_path / "out.json"

        def scan_blocks(*args):
            for block in real_blocks(*args):
                events.append(("scan", len(block[0][0])))
                on_disk.append(out.stat().st_size)
                yield block

        def cells(column, present=None):
            events.append(("cells", len(column)))
            return real_cells(column, present)

        config = copy.deepcopy(README_CONFIGS[0])
        config["p_grid"]["step"] = config["q_grid"]["step"] = 0.05
        argv, oracle = self.region_json(tmp_path, config)
        monkeypatch.setattr(region, "_BLOCK", 777)
        monkeypatch.setattr(region, "scan_blocks", scan_blocks)
        monkeypatch.setattr(cli, "_json_cells", cells)
        assert main(argv) == 0
        scans = [size for kind, size in events if kind == "scan"]
        assert sum(scans) == 100 * 100 and max(scans) <= region._BLOCK
        # the first block is written before the last one is scanned
        last_scan = max(i for i, (kind, _) in enumerate(events) if kind == "scan")
        assert events.index(("cells", region._BLOCK)) < last_scan
        assert on_disk[-1] > 0  # rows reached the file before the last scan
        assert out.read_text() == oracle


class TestDeterminism:
    def test_region_byte_identical(self, tmp_path):
        cfg = write_config(tmp_path, "region.json", REGION_CONFIG)
        out1, out2 = str(tmp_path / "a"), str(tmp_path / "b")
        main(["region", "--config", cfg, "--out", out1])
        main(["region", "--config", cfg, "--out", out2])
        assert (tmp_path / "a.csv").read_bytes() == (tmp_path / "b.csv").read_bytes()

    def test_branch_byte_identical(self, tmp_path):
        cfg = write_config(tmp_path, "branch.json", BRANCH_CONFIG)
        out1, out2 = str(tmp_path / "a"), str(tmp_path / "b")
        main(["branch", "--config", cfg, "--out", out1])
        main(["branch", "--config", cfg, "--out", out2])
        assert (tmp_path / "a.json").read_bytes() == (tmp_path / "b.json").read_bytes()

    @pytest.mark.parametrize("first", [0, 1])
    @pytest.mark.parametrize(
        "problem, count, tied",
        [
            ({"lengths": [math.pi], "n": 32, "h": [0.05], "k": [0.05]}, 6, True),
            ({"lengths": [math.pi], "n": 32}, 6, False),
            ({"lengths": [math.pi, math.pi], "n": 24}, 4, True),
        ],
    )
    def test_branch_ignores_seed_order_and_energy_roundoff(
        self, tmp_path, monkeypatch, problem, count, tied, first
    ):
        """Reversing the seed schedule and moving every candidate energy by
        one ulp, up and down in turn, leaves the file byte-identical.  Two of the hunts store two
        solutions of equal energy (1-D forced: the split pair at 16.26; 2-D
        square: the modes (1, 2) and (2, 1)), and each symmetric record has
        two candidates, a seed and its mirror."""
        import dataclasses

        from indefsaddle import solve

        config = {"command": "branch", "problem": problem, "branch": {"count": count}}
        cfg = write_config(tmp_path, "branch.json", config)
        assert main(["branch", "--config", cfg, "--out", str(tmp_path / "a")]) == 0
        real_newton, real_sweep, real_seeds = solve.newton_solve, solve.newton_sweep, solve.default_seeds
        calls = itertools.count(first)

        def moved_energy(result):
            direction = math.inf if next(calls) % 2 else -math.inf
            return dataclasses.replace(result, energy=math.nextafter(result.energy, direction))

        def newton(*args, **kwargs):
            return moved_energy(real_newton(*args, **kwargs))

        def sweep(*args, **kwargs):
            return [moved_energy(result) for result in real_sweep(*args, **kwargs)]

        monkeypatch.setattr(solve, "newton_solve", newton)
        monkeypatch.setattr(solve, "newton_sweep", sweep)
        monkeypatch.setattr(solve, "default_seeds", lambda *args: real_seeds(*args)[::-1])
        assert main(["branch", "--config", cfg, "--out", str(tmp_path / "b")]) == 0
        plain = (tmp_path / "a.json").read_bytes()
        assert (tmp_path / "b.json").read_bytes() == plain
        energies = [entry["energy"] for entry in json.loads(plain)["solutions"]]
        assert len(energies) == count
        assert any(b - a <= 1e-12 * abs(b) for a, b in zip(energies, energies[1:])) == tied
