"""Batch front-end: validate a JSON run configuration, dispatch, emit files.

Commands, each one runner of the table `_RUNNERS`
    region   scan a (p, q) grid at fixed N            -> RegionRow rows
    solve    one Newton run from a configured seed    -> JSON solution set
    branch   multi-solution hunt with deflation       -> JSON solution set
    levels   minimax-level brackets                   -> LevelBracket rows
    check    module invariant suite                   -> CheckResult rows

A row command's runner returns the fields of its record NamedTuple and
blocks of at most region._BLOCK rows, one numpy column per field: the region
scan's blocks, each scanned as the writer draws it, or the level and check
records cut into blocks.  They are written as CSV, or as JSON rows with
`format` (or --format) "json", each block formatted whole as it is drawn;
asking solve or branch for CSV is a config error.  The levels,
branch and solve sections are passed to the library calls as keyword
arguments, so each default lives in the library signature only.

The flags --seed, --format and a non-empty --out are merged into the config
as seed, format and output before it is checked.  Every config field has one
JSON type (`_SCHEMA`), and its range is checked by the library type built
from it (ProblemSpec, NewtonConfig, CutoffConfig) or, for plain integers, by
`_LEAST` and `_MOST` (estimate_levels and find_branch check the least values
again for API callers).
Any type or range error is a config error: one `config error:` line per
field on stderr, and exit code 1.

Exit codes: 0 success, 1 config error or a ValueError raised by the run (one
`error:` line on stderr, e.g. when the powers overflow), 2 IO error, 3 a
check row that did not pass.
Output files are byte-identical for identical (config, seed); wall time goes
to stdout only.  CSV cells: floats by repr (shortest round-trip form), None
empty, booleans true/false, and free text (a string holding a space, comma,
double quote or newline) in double quotes, each double quote in it written
as a single quote.  JSON rows carry the raw values.  JSON files hold the
bytes json.dumps(..., indent=2) gives, laid out by hand so that the values
go through the C encoder: row files one block of cells at a time, solution
sets one line per field and one encoder call per coefficient list.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import re
import sys
import time
from collections.abc import Iterable, Iterator
from dataclasses import dataclass, field

import numpy as np

from . import region, suite
from .basis import BoxDomain, SpectralField, grid_shape
from .energy import CutoffConfig, ProblemSpec
from .solve import (
    LevelBracket,
    NewtonConfig,
    estimate_levels,
    find_branch,
    newton_solve,
    verify_critical,
)
from .space import FieldPair

SCHEMA_VERSION = 1

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
    format: str | None = None  # CSV rows, or the solution set of _JSON_ONLY
    problem: ProblemSpec | None = None
    solver: NewtonConfig = field(default_factory=NewtonConfig)
    cutoff: CutoffConfig | None = None
    N: int | None = None
    p_grid: list[float] | None = None
    q_grid: list[float] | None = None
    # the fields of these sections, passed as keyword arguments
    levels: dict = field(default_factory=dict)
    branch: dict = field(default_factory=dict)
    solve: dict = field(default_factory=dict)


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
    "solver": {"tol": float, "max_iter": int, "separation": float},
    "cutoff": {"bound_constant": float},
    "levels": {"k_max": int, "samples": int},
    "branch": {"count": int},
    "solve": {"initial_u": list, "initial_v": list},
    "p_grid": _RANGE,
    "q_grid": _RANGE,
}
# required fields, by name: no name is used by two sections
_REQUIRED = {"command", "lengths", "n", "bound_constant", "start", "stop", "step"}
# the least value of each integer field that no library type checks; the
# library calls check k_max, samples and count again, for API callers
_LEAST = {"seed": 0, "N": 3, "k_max": 1, "samples": 0, "count": 1}
# the largest value of each integer field whose size sets the run time: each
# level draws `samples` points (10^5 took 0.3-0.4 s per level at 1-D n = 8)
_MOST = {"samples": 10**6}
# the most points a {start, stop, step} range, and a region scan, may have
_MAX_GRID_POINTS = 10**6
# the largest truncation n, checked before parsing enumerates the basis.
# Newton builds n x n matrices only below solve._KRYLOV_N (see solve._schur):
# there a step's Schur complement and its two Galerkin blocks (float64), and
# the 2^d gather-index arrays of a 3-D block (8 n x n int64).  From it on,
# GMRES holds its Krylov basis, (iterations + 1) vectors of n floats.  The cap
# stays until a 3-D n = 2000 benchmark case measures a larger one
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
        elif kind is int and name in _MOST and value > _MOST[name]:
            errors.append(f"{where}field '{name}' must be at most {_MOST[name]}, got {value}")
        elif name == "N" and _float(value) == math.inf:  # the region formulas take N as a float
            errors.append(f"{where}field 'N' must lie within the float range")
        elif kind is float:
            value = _float(value)
            if not math.isfinite(value):
                errors.append(f"{where}{name} must be finite, got {value}")
        elif isinstance(value, dict):
            value = _fields(value, name, errors)
        elif isinstance(value, list):
            value = _numbers(value, f"{where}'{name}'", errors)
        if len(errors) == count:
            fields[name] = value
    return fields


def _float(value: int | float) -> float:
    """A JSON number as a float, an integer beyond its range as infinite."""
    try:
        return float(value)
    except OverflowError:
        return math.inf if value > 0 else -math.inf


def _numbers(items: list, label: str, errors: list[str]) -> list[float] | None:
    """The entries of a JSON list as floats, if every one is a finite number;
    else one error, named by the first entry at fault."""
    # the list checked whole: a JSON number is an int or a float (a bool is neither)
    if {int, float}.issuperset(map(type, items)):
        out = list(map(_float, items))
        if all(map(math.isfinite, out)):
            return out
    out = []
    for item in items:
        if isinstance(item, bool) or not isinstance(item, (int, float)):
            errors.append(f"{label} entries must be numbers")
            return None
        out.append(_float(item))
        if not math.isfinite(out[-1]):
            errors.append(f"{label} entries must be finite")
            return None
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


def parse_config(text: str, overrides: dict | None = None) -> RunConfig:
    """Parse and fully validate a JSON run configuration (strict schema),
    with the top-level fields of `overrides` in place of the config's own."""
    try:
        raw = json.loads(text)
    except json.JSONDecodeError as exc:
        raise ConfigError([f"not valid JSON: {exc}"]) from exc
    if not isinstance(raw, dict):
        raise ConfigError(["top level must be a JSON object"])
    raw.update(overrides or {})
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
    cfg = RunConfig(**{"command": "", **fields})  # a missing command is reported above

    n = cfg.problem.n if cfg.problem else math.inf
    if cfg.levels.get("k_max", 0) > n:
        errors.append(
            f"levels section: field 'k_max' must be at most the truncation n = {n}, "
            f"got {cfg.levels['k_max']}"
        )
    for name in ("initial_u", "initial_v"):
        coeffs = cfg.solve.get(name)
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


# a string with any of these characters is free text, quoted in CSV
_FREE_TEXT = re.compile(r'[ ,"\n]')


def _fmt(value) -> str:
    """One CSV cell, by the rule of the module docstring."""
    if isinstance(value, float):
        return repr(value)
    if value is None:
        return ""
    if isinstance(value, bool):
        return "true" if value else "false"
    if isinstance(value, str) and _FREE_TEXT.search(value):
        return '"' + value.replace('"', "'") + '"'
    return str(value)


def _cells(column: np.ndarray, present: np.ndarray | None = None) -> list[str]:
    """The CSV cells of one numpy column, each as _fmt writes its Python
    value, and empty where the mask `present` is false.

    Each distinct value is formatted once.  A float column whose values are
    mostly distinct is written by repr instead, as is one holding a zero,
    since 0.0 == -0.0 would share a cell.
    """
    if present is not None:
        return _masked(_cells, column, present, "")
    values = column.tolist()
    distinct = set(values)
    if column.dtype.kind == "f" and (4 * len(distinct) > len(values) or 0.0 in distinct):
        return list(map(repr, values))
    return list(map({v: _fmt(v) for v in distinct}.__getitem__, values))


def _json_cells(column: np.ndarray, present: np.ndarray | None = None) -> list[str]:
    """Each value of one numpy column of booleans, numbers or strings as
    json.dumps writes it, and null where the mask `present` is false."""
    if present is not None:
        return _masked(_json_cells, column, present, "null")
    values = column.tolist()
    if column.dtype.kind == "U":  # each distinct string encoded once
        return list(map({v: json.dumps(v) for v in set(values)}.__getitem__, values))
    # numbers and booleans, whose JSON texts hold no ", ": one encoder call
    return json.dumps(values)[1:-1].split(", ") if values else []


def _masked(cells, column: np.ndarray, present: np.ndarray, blank: str) -> list[str]:
    """The cells by `cells` of the values of `column` where `present` is
    true, and `blank` elsewhere."""
    out = np.full(len(column), blank, dtype=object)
    out[present] = cells(column[present])
    return out.tolist()


def _record_blocks(records: list[tuple]) -> list[list]:
    """The records in blocks of at most region._BLOCK rows, one numpy column
    per field, each with every cell present."""
    columns = [np.array(column) for column in zip(*records)]
    return [
        [(column[start : start + region._BLOCK], None) for column in columns]
        for start in range(0, len(records), region._BLOCK)
    ]


def _write_csv(path: str, header: tuple[str, ...], blocks: Iterable[list]) -> int:
    """Write the blocks of columns as CSV rows; returns the number of rows."""
    count = 0
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write(",".join(header) + "\n")
        for block in blocks:
            columns = [_cells(*column) for column in block]
            fh.write("\n".join(map(",".join, zip(*columns))) + "\n")
            count += len(columns[0])
    return count


def _write_json_rows(path: str, head: dict, header: tuple[str, ...], blocks: Iterable[list]) -> int:
    """Write {**head, "rows": [...]}, one object per row keyed by `header`,
    as json.dumps(..., indent=2) writes it, each block's rows as the block is
    drawn; returns the number of rows."""
    opening = json.dumps({**head, "rows": []}, indent=2).removesuffix("]\n}")
    # one row, at depth 2 of the document
    row = "    {\n" + ",\n".join(f"      {json.dumps(name)}: %s" for name in header) + "\n    }"
    count = 0
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write(opening)
        for block in blocks:
            columns = [_json_cells(*column) for column in block]
            fh.write(",\n" if count else "\n")
            fh.write(",\n".join(map(row.__mod__, zip(*columns))))
            count += len(columns[0])
        fh.write("\n  ]\n}\n" if count else "]\n}\n")
    return count


def _json_header(cfg: RunConfig) -> dict:
    """The first fields of every JSON output file."""
    return {"schema_version": SCHEMA_VERSION, "command": cfg.command, "seed": cfg.seed}


def _write_json(path: str, payload: dict) -> None:
    """Write the payload as json.dumps(payload, indent=2) writes it, in one
    write; numpy arrays are written as their lists."""
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write(_json_text(payload, "") + "\n")


def _json_text(value, pad: str) -> str:
    """The text of one value of the payload at the indent `pad`, laid out by
    hand, since json.dumps with an indent never takes the C encoder: dicts
    (str keys) and lists one item a line, and a list of scalars, such as a
    coefficient vector, in one C encoder call whose item separator carries
    the newline and indent."""
    if isinstance(value, np.ndarray):
        value = value.tolist()
    if not value or not isinstance(value, (dict, list, tuple)):
        return json.dumps(value)  # a scalar, a string or an empty container
    inner = pad + "  "
    if isinstance(value, dict):
        items = (f"{json.dumps(key)}: {_json_text(item, inner)}" for key, item in value.items())
    elif any(issubclass(kind, (dict, list, tuple, np.ndarray)) for kind in set(map(type, value))):
        items = (_json_text(item, inner) for item in value)
    else:
        items = (json.dumps(value, separators=(",\n" + inner, ": "))[1:-1],)
    brackets = "{}" if isinstance(value, dict) else "[]"
    return f"{brackets[0]}\n{inner}" + f",\n{inner}".join(items) + f"\n{pad}{brackets[1]}"


def _problem_echo(spec: ProblemSpec) -> dict:
    return {
        "lengths": list(spec.domain.lengths),
        "n": spec.n,
        "r": spec.r,
        "p": spec.p,
        "q": spec.q,
        "h": spec.h.coeffs,
        "k": spec.k.coeffs,
        "oversample": spec.oversample,
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


def _run_region(cfg: RunConfig) -> tuple[tuple[str, ...], Iterator[list]]:
    # the blocks are scanned one at a time as the writer asks for them, so
    # that a scan at the grid cap never holds all its points
    return region.RegionRow._fields, region.scan_blocks(cfg.N, cfg.p_grid, cfg.q_grid)


def _run_levels(cfg: RunConfig) -> tuple[tuple[str, ...], list[list]]:
    brackets = estimate_levels(cfg.problem, cutoff=cfg.cutoff, seed=cfg.seed, **cfg.levels)
    return LevelBracket._fields, _record_blocks(brackets)


def _run_check(cfg: RunConfig) -> tuple[tuple[str, ...], list[list]]:
    return suite.CheckResult._fields, _record_blocks(suite.run_all(seed=cfg.seed))


def _solution_set(cfg: RunConfig, solutions, **run_fields) -> dict:
    """The JSON solution set of a solve or branch run: the shared header, the
    run's own fields, then each (pair, extra fields) of `solutions` verified."""
    spec = cfg.problem
    cutoff = cfg.cutoff or CutoffConfig.default_for(spec)  # the library's default
    entries = []
    for z, extra in solutions:
        report = verify_critical(z, spec, cutoff)
        entries.append({
            "u": z.u.coeffs,
            "v": z.v.coeffs,
            "energy": report.energy,
            "modified_energy": report.modified_energy,
            "residual": report.residual_norm,
            "cutoff_weight": report.cutoff_weight,
            "bound_ok": report.bound_ok,
            **extra,
        })
    return {
        **_json_header(cfg),
        "problem": _problem_echo(spec),
        "cutoff_constant": cutoff.bound_constant,
        **run_fields,
        "solutions": entries,
    }


def _initial_pair(spec: ProblemSpec, initial_u=(2.0,), initial_v=(2.0,)) -> FieldPair:
    """The solve section's start, its leading coefficients zero-padded to n;
    2 phi_1 for a component not given."""
    coeffs = np.zeros((2, spec.n))
    coeffs[0, : len(initial_u)] = initial_u
    coeffs[1, : len(initial_v)] = initial_v
    u, v = (SpectralField(spec.basis, c) for c in coeffs)
    return FieldPair(u, v, spec.r)


def _run_solve(cfg: RunConfig) -> dict:
    result = newton_solve(_initial_pair(cfg.problem, **cfg.solve), cfg.problem, cfg.solver)
    return _solution_set(
        cfg,
        [(result.z, {})] if result.converged else [],
        converged=result.converged,
        iterations=result.iterations,
        message=result.message,
    )


def _run_branch(cfg: RunConfig) -> dict:
    branch = find_branch(cfg.problem, config=cfg.solver, **cfg.branch)
    return _solution_set(
        cfg,
        [(rec.z, {"has_mirror": rec.mirror is not None}) for rec in branch.records],
        exhausted=branch.exhausted,
        note=branch.note,
    )


_RUNNERS = {
    "region": _run_region,
    "solve": _run_solve,
    "branch": _run_branch,
    "levels": _run_levels,
    "check": _run_check,
}
COMMANDS = tuple(_RUNNERS)


def _write_rows(cfg: RunConfig, header: tuple[str, ...], blocks: Iterable[list]) -> int:
    """Write the blocks of columns in the configured format; returns the
    number of rows."""
    if cfg.format == "json":
        return _write_json_rows(cfg.output + ".json", _json_header(cfg), header, blocks)
    return _write_csv(cfg.output + ".csv", header, blocks)


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
    flags = {"seed": args.seed, "format": args.format, "output": args.out or None}
    try:
        cfg = parse_config(text, {k: v for k, v in flags.items() if v is not None})
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

    started = time.perf_counter()
    status = 0
    try:
        # overflowing powers surface once, as the ValueError below, not as warnings
        with np.errstate(over="ignore", invalid="ignore"):
            os.makedirs(os.path.dirname(cfg.output) or ".", exist_ok=True)
            result = _RUNNERS[cfg.command](cfg)
            if cfg.command in _JSON_ONLY:
                _write_json(cfg.output + ".json", result)
                items = len(result["solutions"])
            else:
                header, blocks = result
                items = _write_rows(cfg, header, blocks)
                if cfg.command == "check":  # a failed check exits 3
                    passed = header.index("passed")
                    failures = sum(np.count_nonzero(~b[passed][0]) for b in blocks)
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


if __name__ == "__main__":
    sys.exit(main())
