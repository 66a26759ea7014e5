"""Batch front-end: validate a JSON run configuration, dispatch, emit files.

Commands
    region   scan a (p, q) grid at fixed N            -> CSV rows
    solve    one Newton run from a configured seed    -> JSON solution set
    branch   multi-solution hunt with deflation       -> JSON solution set
    levels   minimax-level brackets                   -> CSV rows
    check    module invariant suite                   -> CSV rows

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
from .basis import BoxDomain
from .energy import CutoffConfig, ProblemSpec
from .solve import (
    NewtonConfig,
    estimate_levels,
    find_branch,
    newton_solve,
    verify_critical,
)
from .space import FieldPair
from .basis import SpectralField

SCHEMA_VERSION = 1

COMMANDS = ("region", "solve", "branch", "levels", "check")


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
    cutoff_constant: float | None = None
    region_N: int | None = None
    p_grid: list[float] | None = None
    q_grid: list[float] | None = None
    levels_k_max: int = 5
    levels_samples: int = 200
    branch_count: int = 3
    initial_u: list[float] | None = None
    initial_v: list[float] | None = None


_TOP_FIELDS = {
    "command", "seed", "output", "format", "problem", "solver", "cutoff",
    "N", "p_grid", "q_grid", "levels", "branch", "solve",
}
_PROBLEM_FIELDS = {"lengths", "n", "r", "p", "q", "h", "k", "oversample"}
_SOLVER_FIELDS = {"tol", "max_iter", "damping", "min_step", "separation"}
_LEVELS_FIELDS = {"k_max", "samples"}
_BRANCH_FIELDS = {"count"}
_SOLVE_FIELDS = {"initial_u", "initial_v"}


def _expect(obj, name, types, errors, default=None, required=False):
    if name not in obj:
        if required:
            errors.append(f"missing required field '{name}'")
        return default
    value = obj[name]
    if not isinstance(value, types) or isinstance(value, bool):
        errors.append(f"field '{name}' has wrong type {type(value).__name__}")
        return default
    return value


def _numbers(items: list, name, errors) -> list[float] | None:
    """The entries of a JSON list as floats, if every one is a finite number."""
    out = []
    for item in items:
        if isinstance(item, bool) or not isinstance(item, (int, float)):
            errors.append(f"'{name}' entries must be numbers")
            return None
        if not math.isfinite(item):
            errors.append(f"'{name}' entries must be finite")
            return None
        out.append(float(item))
    return out


def _number_list(value, name, errors) -> list[float] | None:
    """Either an explicit list of numbers or {start, stop, step}."""
    if isinstance(value, list):
        out = _numbers(value, name, errors)
        if out == []:
            errors.append(f"'{name}' must not be empty")
            return None
        return out
    if isinstance(value, dict):
        unknown = set(value) - {"start", "stop", "step"}
        if unknown:
            errors.append(f"unknown fields {sorted(unknown)} in '{name}' range")
            return None
        try:
            start, stop, step = (
                float(value["start"]), float(value["stop"]), float(value["step"])
            )
        except (KeyError, TypeError, ValueError):
            errors.append(f"'{name}' range needs numeric start/stop/step")
            return None
        if step <= 0 or stop < start:
            errors.append(f"'{name}' range must have step > 0 and stop >= start")
            return None
        count = int(math.floor((stop - start) / step + 1e-12)) + 1
        return [start + i * step for i in range(count)]
    errors.append(f"'{name}' must be a list of numbers or a start/stop/step range")
    return None


def parse_config(text: str) -> RunConfig:
    """Parse and fully validate a JSON run configuration (strict schema)."""
    errors: list[str] = []
    try:
        raw = json.loads(text)
    except json.JSONDecodeError as exc:
        raise ConfigError([f"not valid JSON: {exc}"]) from exc
    if not isinstance(raw, dict):
        raise ConfigError(["top level must be a JSON object"])
    unknown = set(raw) - _TOP_FIELDS
    if unknown:
        errors.append(f"unknown top-level fields {sorted(unknown)}")
    command = _expect(raw, "command", str, errors, required=True)
    if command is not None and command not in COMMANDS:
        errors.append(f"unknown command '{command}' (expected one of {COMMANDS})")
    cfg = RunConfig(command=command or "check")
    cfg.seed = int(_expect(raw, "seed", int, errors, default=0))
    cfg.output = _expect(raw, "output", str, errors, default="indefsaddle_out")
    fmt = _expect(raw, "format", str, errors, default=None)
    if fmt is not None and fmt not in ("csv", "json"):
        errors.append(f"format must be 'csv' or 'json', got '{fmt}'")
    cfg.format = fmt

    if "solver" in raw:
        solver_raw = _expect(raw, "solver", dict, errors, default={})
        unknown = set(solver_raw) - _SOLVER_FIELDS
        if unknown:
            errors.append(f"unknown fields {sorted(unknown)} in solver section")
        try:
            cfg.solver = NewtonConfig(
                tol=float(solver_raw.get("tol", 1e-10)),
                max_iter=int(solver_raw.get("max_iter", 50)),
                damping=float(solver_raw.get("damping", 0.5)),
                min_step=float(solver_raw.get("min_step", 1e-12)),
                separation=float(solver_raw.get("separation", 1e-4)),
            )
        except (TypeError, ValueError) as exc:
            errors.append(f"solver section invalid: {exc}")

    if "cutoff" in raw:
        cut_raw = _expect(raw, "cutoff", dict, errors, default={})
        unknown = set(cut_raw) - {"bound_constant"}
        if unknown:
            errors.append(f"unknown fields {sorted(unknown)} in cutoff section")
        try:
            cfg.cutoff_constant = float(cut_raw["bound_constant"])
        except (KeyError, TypeError, ValueError):
            errors.append("cutoff section needs a numeric 'bound_constant'")

    if "problem" in raw:
        prob = _expect(raw, "problem", dict, errors, default=None)
        if prob is not None:
            unknown = set(prob) - _PROBLEM_FIELDS
            if unknown:
                errors.append(f"unknown fields {sorted(unknown)} in problem section")
            lengths = prob.get("lengths")
            n = prob.get("n")
            if not isinstance(n, int) or isinstance(n, bool) or n < 4:
                errors.append(f"problem field 'n' must be an integer >= 4, got {n!r}")
            elif not isinstance(lengths, list) or not lengths:
                errors.append("problem field 'lengths' must be a nonempty list")
            else:
                try:
                    cfg.problem = ProblemSpec.create(
                        domain=BoxDomain(tuple(float(L) for L in lengths)),
                        n=n,
                        r=float(prob.get("r", 1.0)),
                        p=float(prob.get("p", 3.0)),
                        q=float(prob.get("q", 3.0)),
                        h=prob.get("h"),
                        k=prob.get("k"),
                        oversample=int(prob.get("oversample", 4)),
                    )
                except (TypeError, ValueError) as exc:
                    errors.append(f"problem section invalid: {exc}")

    if "N" in raw:
        N = _expect(raw, "N", int, errors)
        if N is not None and N < 3:
            errors.append(f"'N' must be an integer >= 3, got {N}")
        cfg.region_N = N
    if "p_grid" in raw:
        cfg.p_grid = _number_list(raw["p_grid"], "p_grid", errors)
        if cfg.p_grid and min(cfg.p_grid) <= 1.0:
            errors.append("p_grid values must exceed 1 (p > 1 is required)")
    if "q_grid" in raw:
        cfg.q_grid = _number_list(raw["q_grid"], "q_grid", errors)
        if cfg.q_grid and min(cfg.q_grid) <= 1.0:
            errors.append("q_grid values must exceed 1 (q > 1 is required)")

    if "levels" in raw:
        lev = _expect(raw, "levels", dict, errors, default={})
        unknown = set(lev) - _LEVELS_FIELDS
        if unknown:
            errors.append(f"unknown fields {sorted(unknown)} in levels section")
        cfg.levels_k_max = _expect(lev, "k_max", int, errors, default=5)
        cfg.levels_samples = _expect(lev, "samples", int, errors, default=200)
        if cfg.levels_samples < 0:
            errors.append("levels field 'samples' must be at least 0")
        if cfg.levels_k_max < 1:
            errors.append("levels field 'k_max' must be at least 1")
        elif cfg.problem is not None and cfg.levels_k_max > cfg.problem.n:
            errors.append(
                f"levels field 'k_max' must be at most the truncation n = "
                f"{cfg.problem.n}, got {cfg.levels_k_max}"
            )
    if "branch" in raw:
        br = _expect(raw, "branch", dict, errors, default={})
        unknown = set(br) - _BRANCH_FIELDS
        if unknown:
            errors.append(f"unknown fields {sorted(unknown)} in branch section")
        cfg.branch_count = _expect(br, "count", int, errors, default=3)
        if cfg.branch_count < 1:
            errors.append("branch field 'count' must be at least 1")
    if "solve" in raw:
        sv = _expect(raw, "solve", dict, errors, default={})
        unknown = set(sv) - _SOLVE_FIELDS
        if unknown:
            errors.append(f"unknown fields {sorted(unknown)} in solve section")
        for name in ("initial_u", "initial_v"):
            value = sv.get(name)
            if value is None:
                continue
            if not isinstance(value, list):
                errors.append(f"solve field '{name}' must be a list of numbers")
                continue
            coeffs = _numbers(value, name, errors)
            if coeffs is not None and cfg.problem is not None and len(coeffs) > cfg.problem.n:
                errors.append(
                    f"solve field '{name}' has {len(coeffs)} entries, more than "
                    f"the truncation n = {cfg.problem.n}"
                )
            setattr(cfg, name, coeffs)

    # command-specific requirements
    if command == "region":
        if cfg.region_N is None:
            errors.append("region command requires 'N'")
        if cfg.p_grid is None or cfg.q_grid is None:
            errors.append("region command requires 'p_grid' and 'q_grid'")
    elif command in ("solve", "branch", "levels"):
        if cfg.problem is None and not any(
            e.startswith("problem") for e in errors
        ):
            errors.append(f"{command} command requires a 'problem' section")

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
    prob = payload["problem"]
    spec = ProblemSpec.create(
        domain=BoxDomain(tuple(prob["lengths"])),
        n=prob["n"],
        r=prob["r"],
        p=prob["p"],
        q=prob["q"],
        h=prob["h"],
        k=prob["k"],
        oversample=prob["oversample"],
    )
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
    if cfg.cutoff_constant is not None:
        return CutoffConfig(cfg.cutoff_constant)
    return CutoffConfig.default_for(cfg.problem)


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

    return FieldPair(from_list(cfg.initial_u, 1), from_list(cfg.initial_v, 1), spec.r)


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
    brackets = estimate_levels(
        spec, cfg.levels_k_max, cfg.levels_samples, cutoff, seed=cfg.seed
    )
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
