"""Batch front-end: validate a JSON run configuration, dispatch, emit files.

Commands
    region   scan a (p, q) grid at fixed N            -> CSV rows
    solve    one Newton run from a configured seed    -> JSON solution set
    branch   multi-solution hunt with deflation       -> JSON solution set
    levels   minimax-level brackets                   -> CSV rows
    check    module invariant suite                   -> CSV rows

`format` (or --format) chooses CSV or JSON rows for region, levels and check;
asking solve or branch for CSV is a config error.

Every config field has one JSON type (`_SCHEMA`), and its range is checked
by the library type built from it (ProblemSpec, NewtonConfig, CutoffConfig)
or, for plain integers, by `_LEAST`.  Any type or range error is a config
error: one `config error:` line per field on stderr, and exit code 1.

Exit codes: 0 success, 1 config error or a ValueError raised by the run (one
`error:` line on stderr, e.g. when the powers overflow), 2 IO error, 3
check-suite failure.
Output files are byte-identical for identical (config, seed); wall time goes
to stdout only.  Floats are written with repr (shortest round-trip form).
"""

from __future__ import annotations

import argparse
import json
import math
import os
import sys
import time
from dataclasses import dataclass, field

import numpy as np

from . import region, suite
from .basis import BoxDomain, SpectralField, grid_shape
from .energy import CutoffConfig, ProblemSpec
from .solve import (
    NewtonConfig,
    estimate_levels,
    find_branch,
    newton_solve,
    verify_critical,
)
from .space import FieldPair

SCHEMA_VERSION = 1

COMMANDS = ("region", "solve", "branch", "levels", "check")
# the commands that write a JSON solution set; `format` sets the others' output
_JSON_ONLY = ("solve", "branch")


class ConfigError(Exception):
    """Carries the full list of field-level validation errors."""

    def __init__(self, errors: list[str]):
        super().__init__("; ".join(errors))
        self.errors = errors


@dataclass
class RunConfig:
    command: str
    seed: int = 0
    output: str = "indefsaddle_out"
    format: str | None = None  # default depends on the command
    problem: ProblemSpec | None = None
    solver: NewtonConfig = field(default_factory=NewtonConfig)
    cutoff: CutoffConfig | None = None
    region_N: int | None = None
    p_grid: list[float] | None = None
    q_grid: list[float] | None = None
    levels_k_max: int | None = None  # min(5, n) when not given
    levels_samples: int = 200
    branch_count: int = 3
    solve_initial_u: list[float] | None = None
    solve_initial_v: list[float] | None = None


# The JSON type of every config field, by section ("" is the top level).  A
# float field takes any finite number, a list field a list of finite numbers,
# and an object field is checked against the section of its own name.
_RANGE = {"start": float, "stop": float, "step": float}
_SCHEMA = {
    "": {
        "command": str, "seed": int, "output": str, "format": str, "N": int,
        "p_grid": (list, dict), "q_grid": (list, dict), "problem": dict,
        "solver": dict, "cutoff": dict, "levels": dict, "branch": dict,
        "solve": dict,
    },
    "problem": {
        "lengths": list, "n": int, "r": float, "p": float, "q": float,
        "h": list, "k": list, "oversample": int,
    },
    "solver": {
        "tol": float, "max_iter": int, "damping": float, "min_step": float,
        "separation": float,
    },
    "cutoff": {"bound_constant": float},
    "levels": {"k_max": int, "samples": int},
    "branch": {"count": int},
    "solve": {"initial_u": list, "initial_v": list},
    "p_grid": _RANGE,
    "q_grid": _RANGE,
}
# required fields, by name: no name is used by two sections
_REQUIRED = {"command", "lengths", "n", "bound_constant", "start", "stop", "step"}
# the least value of each integer field that no library type checks
_LEAST = {"seed": 0, "N": 3, "k_max": 1, "samples": 0, "count": 1}
# the most points a {start, stop, step} range, and a region scan, may have
_MAX_GRID_POINTS = 10**6
# the largest truncation n, checked before parsing enumerates the basis: at
# n = 2000 the dense Newton Jacobian (2n x 2n float64) holds 128 MB, and the
# 2^d gather-index arrays of a 3-D Jacobian (8 n x n int64) 256 MB
_MAX_N = 2000
# the most collocation grid points (n and oversample set the grid): 32 MB per
# grid array; the largest grid at the default oversample, 3-D n = 2000, has 2^18
_MAX_COLLOCATION = 1 << 22
# the fields each command cannot run without
_NEEDS = {
    "region": ("N", "p_grid", "q_grid"),
    "solve": ("problem",), "branch": ("problem",), "levels": ("problem",),
}


def _fields(obj: dict, section: str, errors: list[str]) -> dict:
    """The fields of a config object that are known and of their schema type.

    Each unknown, missing or mistyped field adds one message to `errors`.  An
    object field is checked as a section and left out if it has a fault, so
    that no library type is built from part of a section.
    """
    kinds = _SCHEMA[section]
    where = f"{section} section: " if section else ""
    unknown = sorted(set(obj) - set(kinds))
    if unknown:
        errors.append(f"{where}unknown {'' if section else 'top-level '}fields {unknown}")
    for name in sorted(_REQUIRED.intersection(kinds).difference(obj)):
        errors.append(f"{where}missing required field '{name}'")
    fields = {}
    for name, value in obj.items():
        kind, count = kinds.get(name), len(errors)
        if kind is None:
            continue
        if isinstance(value, bool) or not isinstance(
            value, (int, float) if kind is float else kind
        ):
            errors.append(f"{where}field '{name}' has wrong type {type(value).__name__}")
        elif kind is int and name in _LEAST and value < _LEAST[name]:
            errors.append(f"{where}field '{name}' must be at least {_LEAST[name]}, got {value}")
        elif kind is float:
            if not math.isfinite(value):
                errors.append(f"{where}{name} must be finite, got {value}")
            value = float(value)
        elif isinstance(value, dict):
            value = _fields(value, name, errors)
        elif isinstance(value, list):
            value = _numbers(value, f"{where}'{name}'", errors)
        if len(errors) == count:
            fields[name] = value
    return fields


def _numbers(items: list, label: str, errors: list[str]) -> list[float] | None:
    """The entries of a JSON list as floats, if every one is a finite number."""
    out = []
    for item in items:
        if isinstance(item, bool) or not isinstance(item, (int, float)):
            errors.append(f"{label} entries must be numbers")
            return None
        if not math.isfinite(item):
            errors.append(f"{label} entries must be finite")
            return None
        out.append(float(item))
    return out


def _grid(value: list | dict, name: str, errors: list[str]) -> list[float] | None:
    """The values of an exponent grid given as a list or a {start, stop, step} range."""
    if isinstance(value, dict):
        start, stop, step = value["start"], value["stop"], value["step"]
        if step <= 0 or stop < start:
            errors.append(f"'{name}' range must have step > 0 and stop >= start")
            return None
        span = (stop - start) / step + 1e-12
        if not span < _MAX_GRID_POINTS:  # also an infinite span
            errors.append(f"'{name}' range must have at most {_MAX_GRID_POINTS} points")
            return None
        value = [start + i * step for i in range(int(math.floor(span)) + 1)]
    if not value:
        errors.append(f"'{name}' must not be empty")
        return None
    if min(value) <= 1.0:
        errors.append(f"{name} values must exceed 1 ({name[0]} > 1 is required)")
    return value


def _problem(lengths, n, r=1.0, p=3.0, q=3.0, **rest) -> ProblemSpec:
    """The problem of a config's problem section, or of a solution file's echo of it."""
    if n < 4:
        raise ValueError(f"'n' must be an integer >= 4, got {n}")
    if n > _MAX_N:
        raise ValueError(f"'n' must be at most {_MAX_N}, got {n}")
    spec = ProblemSpec.create(BoxDomain(tuple(lengths)), n, r, p, q, **rest)
    points = math.prod(grid_shape(spec.basis, spec.oversample))
    if points > _MAX_COLLOCATION:
        raise ValueError(f"'oversample' gives {points} collocation points, more than {_MAX_COLLOCATION}")
    return spec


def parse_config(text: str) -> RunConfig:
    """Parse and fully validate a JSON run configuration (strict schema)."""
    try:
        raw = json.loads(text)
    except json.JSONDecodeError as exc:
        raise ConfigError([f"not valid JSON: {exc}"]) from exc
    if not isinstance(raw, dict):
        raise ConfigError(["top level must be a JSON object"])
    errors: list[str] = []
    fields = _fields(raw, "", errors)
    if "command" in fields and fields["command"] not in COMMANDS:
        errors.append(f"unknown command '{fields['command']}' (expected one of {COMMANDS})")
    if fields.get("format") not in (None, "csv", "json"):
        errors.append(f"format must be 'csv' or 'json', got '{fields['format']}'")
    elif fields.get("format") == "csv" and fields.get("command") in _JSON_ONLY:
        errors.append(f"format 'csv' applies to region, levels and check, not {fields['command']}")
    for name, build in (
        ("problem", _problem), ("solver", NewtonConfig), ("cutoff", CutoffConfig)
    ):
        if name in fields:
            try:
                fields[name] = build(**fields[name])
            except ValueError as exc:
                errors.append(f"{name} section: {exc}")
                del fields[name]
    for name in ("p_grid", "q_grid"):
        if name in fields:
            fields[name] = _grid(fields[name], name, errors)
    points = len(fields.get("p_grid") or ()) * len(fields.get("q_grid") or ())
    if points > _MAX_GRID_POINTS:
        errors.append(
            f"'p_grid' x 'q_grid' must have at most {_MAX_GRID_POINTS} points, got {points}"
        )
    for section in ("levels", "branch", "solve"):
        for name, value in fields.pop(section, {}).items():
            fields[f"{section}_{name}"] = value
    if "N" in fields:
        fields["region_N"] = fields.pop("N")
    cfg = RunConfig(**{"command": "", **fields})  # a missing command is reported above

    n = cfg.problem.n if cfg.problem else math.inf
    if cfg.levels_k_max is not None and cfg.levels_k_max > n:
        errors.append(
            f"levels section: field 'k_max' must be at most the truncation n = {n}, "
            f"got {cfg.levels_k_max}"
        )
    for name in ("initial_u", "initial_v"):
        coeffs = getattr(cfg, "solve_" + name)
        if coeffs is not None and len(coeffs) > n:
            errors.append(
                f"solve section: field '{name}' has {len(coeffs)} entries, more than "
                f"the truncation n = {n}"
            )
    for name in _NEEDS.get(cfg.command, ()):
        if name not in raw:
            errors.append(f"{cfg.command} command requires '{name}'")
    if errors:
        raise ConfigError(errors)
    return cfg


def _fmt(value) -> str:
    if isinstance(value, float):
        return repr(value)
    if value is None:
        return ""
    if isinstance(value, bool):
        return "true" if value else "false"
    return str(value)


def _write_csv(path: str, header: list[str], rows: list[list]) -> None:
    lines = [",".join(header)]
    for row in rows:
        lines.append(",".join(_fmt(v) for v in row))
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write("\n".join(lines) + "\n")


def _write_json(path: str, payload: dict) -> None:
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        json.dump(payload, fh, indent=2)
        fh.write("\n")


def _problem_echo(spec: ProblemSpec) -> dict:
    return {
        "lengths": list(spec.domain.lengths),
        "n": spec.n,
        "r": spec.r,
        "p": spec.p,
        "q": spec.q,
        "h": list(spec.h.coeffs),
        "k": list(spec.k.coeffs),
        "oversample": spec.oversample,
    }


def _solution_entry(z: FieldPair, spec: ProblemSpec, cutoff: CutoffConfig) -> dict:
    report = verify_critical(z, spec, cutoff)
    return {
        "u": list(z.u.coeffs),
        "v": list(z.v.coeffs),
        "energy": report.energy,
        "modified_energy": report.modified_energy,
        "residual": report.residual_norm,
        "cutoff_weight": report.cutoff_weight,
        "bound_ok": report.bound_ok,
    }


def load_solutions(path: str) -> tuple[ProblemSpec, CutoffConfig, list[FieldPair]]:
    """Reload an emitted JSON solution set for re-verification."""
    with open(path, encoding="utf-8") as fh:
        payload = json.load(fh)
    spec = _problem(**payload["problem"])
    cutoff = CutoffConfig(payload["cutoff_constant"])
    pairs = [
        FieldPair(
            SpectralField(spec.basis, entry["u"]),
            SpectralField(spec.basis, entry["v"]),
            spec.r,
        )
        for entry in payload["solutions"]
    ]
    return spec, cutoff, pairs


def _run_region(cfg: RunConfig) -> tuple[list[str], list[list]]:
    header = [
        "p", "q", "hyperbola_gap", "subcritical", "status",
        "r_star", "feasible", "r_balanced", "growth_u", "growth_v", "alpha",
    ]

    rows = []
    for row in region.region_scan(cfg.region_N, cfg.p_grid, cfg.q_grid):
        extra: list = [None, None, None]
        if row.subcritical and row.r_star is not None:
            pt = region.PQPoint(p=row.p, q=row.q, N=cfg.region_N)
            q1, p1, alpha = region.growth_exponents(pt, row.r_star)
            extra = [q1, p1, alpha]
        rows.append([
            row.p, row.q,
            row.hyperbola_gap if math.isfinite(row.hyperbola_gap) else math.inf,
            row.subcritical, row.status, row.r_star, row.feasible,
            region.r_thresholds(
                region.PQPoint(p=row.p, q=row.q, N=cfg.region_N)
            ).balanced,
            *extra,
        ])
    return header, rows


def _cutoff_for(cfg: RunConfig) -> CutoffConfig:
    return cfg.cutoff or CutoffConfig.default_for(cfg.problem)


def _initial_pair(cfg: RunConfig) -> FieldPair:
    spec = cfg.problem
    n = spec.n

    def from_list(data, fallback_rank):
        coeffs = np.zeros(n)
        if data is None:
            coeffs[fallback_rank - 1] = 2.0
        else:
            arr = np.asarray(data, dtype=float)
            coeffs[: arr.size] = arr
        return SpectralField(spec.basis, coeffs)

    u, v = from_list(cfg.solve_initial_u, 1), from_list(cfg.solve_initial_v, 1)
    return FieldPair(u, v, spec.r)


def _run_solve(cfg: RunConfig) -> dict:
    spec = cfg.problem
    cutoff = _cutoff_for(cfg)
    result = newton_solve(_initial_pair(cfg), spec, cfg.solver)
    payload = {
        "schema_version": SCHEMA_VERSION,
        "command": "solve",
        "seed": cfg.seed,
        "problem": _problem_echo(spec),
        "cutoff_constant": cutoff.bound_constant,
        "converged": result.converged,
        "iterations": result.iterations,
        "message": result.message,
        "solutions": [_solution_entry(result.z, spec, cutoff)] if result.converged else [],
    }
    return payload


def _run_branch(cfg: RunConfig) -> dict:
    spec = cfg.problem
    cutoff = _cutoff_for(cfg)
    branch = find_branch(spec, count=cfg.branch_count, config=cfg.solver)
    solutions = []
    for rec in branch.records:
        entry = _solution_entry(rec.z, spec, cutoff)
        entry["has_mirror"] = rec.mirror is not None
        solutions.append(entry)
    return {
        "schema_version": SCHEMA_VERSION,
        "command": "branch",
        "seed": cfg.seed,
        "problem": _problem_echo(spec),
        "cutoff_constant": cutoff.bound_constant,
        "exhausted": branch.exhausted,
        "note": branch.note,
        "solutions": solutions,
    }


def _run_levels(cfg: RunConfig) -> tuple[list[str], list[list]]:
    spec = cfg.problem
    cutoff = _cutoff_for(cfg)
    k_max = cfg.levels_k_max or min(5, spec.n)
    brackets = estimate_levels(spec, k_max, cfg.levels_samples, cutoff, seed=cfg.seed)
    header = ["k", "lower", "upper", "radius", "ceiling", "max_pointwise_excess"]
    rows = [
        [b.k, b.lower, b.upper, b.radius, b.ceiling, b.max_pointwise_excess]
        for b in brackets
    ]
    return header, rows


def _run_check(cfg: RunConfig) -> tuple[list[str], list[list], int]:
    results = suite.run_all(seed=cfg.seed)
    header = ["name", "passed", "detail"]
    rows = [[r.name, r.passed, '"' + r.detail.replace('"', "'") + '"'] for r in results]
    failures = sum(1 for r in results if not r.passed)
    return header, rows, failures


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(
        prog="indefsaddle",
        description="Critical points and region analysis for the coupled system",
    )
    parser.add_argument("command", choices=COMMANDS)
    parser.add_argument("--config", required=True, help="path to the JSON run config")
    parser.add_argument("--out", help="output path prefix (overrides config)")
    parser.add_argument("--format", choices=["csv", "json"], help="override format")
    parser.add_argument("--seed", type=int, help="override the config seed")
    args = parser.parse_args(argv)

    try:
        with open(args.config, encoding="utf-8") as fh:
            text = fh.read()
    except OSError as exc:
        print(f"config read error: {exc}", file=sys.stderr)
        return 2
    try:
        cfg = parse_config(text)
        if args.seed is not None and args.seed < _LEAST["seed"]:
            raise ConfigError([f"--seed must be at least {_LEAST['seed']}, got {args.seed}"])
        if args.format == "csv" and args.command in _JSON_ONLY:
            raise ConfigError([f"--format csv applies to region, levels and check, not {args.command}"])
    except ConfigError as exc:
        for err in exc.errors:
            print(f"config error: {err}", file=sys.stderr)
        return 1
    if cfg.command != args.command:
        print(
            f"config error: config command '{cfg.command}' does not match "
            f"CLI command '{args.command}'",
            file=sys.stderr,
        )
        return 1
    if args.out:
        cfg.output = args.out
    if args.format:
        cfg.format = args.format
    if args.seed is not None:
        cfg.seed = args.seed

    started = time.perf_counter()
    status = 0
    items = 0
    try:
        # overflowing powers surface once, as the ValueError below, not as warnings
        with np.errstate(over="ignore", invalid="ignore"):
            out_dir = os.path.dirname(cfg.output)
            if out_dir:
                os.makedirs(out_dir, exist_ok=True)
            if cfg.command == "region":
                header, rows = _run_region(cfg)
                _write_output(cfg, header, rows, default_format="csv")
                items = len(rows)
            elif cfg.command == "levels":
                header, rows = _run_levels(cfg)
                _write_output(cfg, header, rows, default_format="csv")
                items = len(rows)
            elif cfg.command == "solve":
                payload = _run_solve(cfg)
                _write_json(cfg.output + ".json", payload)
                items = len(payload["solutions"])
            elif cfg.command == "branch":
                payload = _run_branch(cfg)
                _write_json(cfg.output + ".json", payload)
                items = len(payload["solutions"])
            else:  # check
                header, rows, failures = _run_check(cfg)
                _write_output(cfg, header, rows, default_format="csv")
                items = len(rows)
                if failures:
                    status = 3
                    print(f"check suite: {failures} of {items} checks FAILED")
                else:
                    print(f"check suite: all {items} checks passed")
    except OSError as exc:
        print(f"IO error: {exc}", file=sys.stderr)
        return 2
    except ValueError as exc:
        # inputs the config checks cannot foresee, such as powers that overflow
        print(f"error: {exc}", file=sys.stderr)
        return 1
    elapsed = time.perf_counter() - started
    print(f"{cfg.command}: {items} items, {elapsed:.3f}s, output {cfg.output}")
    return status


def _write_output(cfg: RunConfig, header, rows, default_format: str) -> None:
    fmt = cfg.format or default_format
    if fmt == "csv":
        _write_csv(cfg.output + ".csv", header, rows)
    else:
        payload = {
            "schema_version": SCHEMA_VERSION,
            "command": cfg.command,
            "seed": cfg.seed,
            "rows": [dict(zip(header, row)) for row in rows],
        }
        _write_json(cfg.output + ".json", payload)


if __name__ == "__main__":
    sys.exit(main())
