"""Span tracing of the indefsaddle modules, installed from outside the package.

`Tracer.install()` replaces every public function of the traced modules (and
the `dstn` kernel that `basis` imports from scipy) with a wrapper that records
one span per call: name, start, end and parent span.  The replacement is made
in the globals of every `indefsaddle` module that holds a reference to the
function, so calls through `from .x import y` bindings are seen too.
`uninstall()` puts the originals back.

Self time is a span's duration minus the durations of its direct children;
it is accumulated per span name while the spans run.  The raw spans are kept
in memory up to KEEP_SPANS spans and written out by `dump()`.
"""

from __future__ import annotations

import json
import math
import sys
import time
from collections import defaultdict

PACKAGE = "indefsaddle"
TRACED_MODULES = ("basis", "space", "energy", "solve", "region", "cli")
KEEP_SPANS = 100_000
# Third-party kernels called by a traced module, traced under that module.
KERNELS = {"basis": ("dstn",)}


def _on_jacobian(stats, args, result) -> None:
    spec = args[1]
    points = math.prod(spec.oversample * m for m in spec.basis.max_index)
    # two diagonal blocks, each (S.T * w) @ S: 2 G^d n^2 flops
    stats["solve.jacobian_gflop"] += 4.0 * points * spec.n ** 2 / 1e9


def _on_grid_matrix(stats, args, result) -> None:
    basis, shape = args[0], args[1]
    mb = math.prod(shape) * basis.size * 8 / 1e6
    stats["basis.grid_matrix_mb"] = max(stats["basis.grid_matrix_mb"], mb)


def _on_newton(stats, args, result) -> None:
    stats["solve.newton_iters"] += result.iterations
    stats["solve.newton_converged"] += bool(result.converged)


def _on_deflated(stats, args, result) -> None:
    stats["solve.deflation_converged"] += bool(result.converged)


def _on_region_scan(stats, args, result) -> None:
    stats["region.points"] += len(result)


# Counts read from the arguments and results of one call, keyed by span name.
HOOKS = {
    "solve.jacobian": _on_jacobian,
    "basis.grid_matrix": _on_grid_matrix,
    "solve.newton_solve": _on_newton,
    "solve.deflated_solve": _on_deflated,
    "region.region_scan": _on_region_scan,
}


def traced_functions() -> dict[str, object]:
    """Span name -> original callable, for every function the tracer wraps."""
    found = {}
    for short in TRACED_MODULES:
        module = sys.modules[f"{PACKAGE}.{short}"]
        for name, obj in vars(module).items():
            if name.startswith("_") or isinstance(obj, type) or not callable(obj):
                continue
            if getattr(obj, "__module__", None) == module.__name__:
                found[f"{short}.{name}"] = obj
        for name in KERNELS.get(short, ()):
            if name in vars(module):
                found[f"{short}.{name}"] = vars(module)[name]
    return found


class Tracer:
    """Records spans of the wrapped functions and their self times."""

    def __init__(self):
        self.names: list[str] = []
        self.spans: list[tuple[int, float, float, int]] = []  # name, start, end, parent
        self.span_count = 0
        self.self_s: dict[str, float] = defaultdict(float)
        self.calls: dict[str, int] = defaultdict(int)
        self.escaped: dict[str, int] = defaultdict(int)  # module -> errors leaving it
        self.stats: dict[str, float] = defaultdict(float)
        self._stack: list[list] = []  # [span index, name id, start, child seconds]
        self._wrappers: dict[int, object] | None = None  # id(original) -> wrapper
        self._patches: list[tuple[dict, str, object]] = []

    def _wrap(self, name: str, fn):
        name_id = len(self.names)
        self.names.append(name)
        module = name.split(".", 1)[0]
        hook = HOOKS.get(name)
        stack = self._stack
        clock = time.perf_counter

        def wrapper(*args, **kwargs):
            index = self.span_count
            self.span_count += 1
            parent = stack[-1] if stack else None
            frame = [index, name_id, clock(), 0.0]
            stack.append(frame)
            try:
                result = fn(*args, **kwargs)
            except BaseException:
                if parent is None or self.names[parent[1]].split(".", 1)[0] != module:
                    self.escaped[module] += 1
                raise
            finally:
                end = clock()
                stack.pop()
                duration = end - frame[2]
                self.self_s[name] += duration - frame[3]
                self.calls[name] += 1
                if parent is not None:
                    parent[3] += duration
                if index < KEEP_SPANS:
                    self.spans.append(
                        (name_id, frame[2], end, parent[0] if parent is not None else -1)
                    )
            if hook is not None:
                hook(self.stats, args, result)
            return result

        return wrapper

    def install(self) -> None:
        if self._patches:
            raise RuntimeError("tracer already installed")
        if self._wrappers is None:
            self._wrappers = {
                id(fn): self._wrap(name, fn)
                for name, fn in traced_functions().items()
            }
        wrappers = self._wrappers
        for mod_name, module in list(sys.modules.items()):
            if mod_name != PACKAGE and not mod_name.startswith(PACKAGE + "."):
                continue
            namespace = vars(module)
            for attr, value in list(namespace.items()):
                wrapper = wrappers.get(id(value))
                if wrapper is not None:
                    self._patches.append((namespace, attr, value))
                    namespace[attr] = wrapper

    def uninstall(self) -> None:
        for namespace, attr, original in reversed(self._patches):
            namespace[attr] = original
        self._patches.clear()

    def dump(self, path: str, extra: dict) -> None:
        """Write the kept spans and the per-name totals as one JSON file."""
        payload = {
            **extra,
            "span_count": self.span_count,
            "spans_kept": len(self.spans),
            "names": self.names,
            "span_columns": ["name", "start", "end", "parent"],
            "spans": self.spans,
            "self_s": dict(self.self_s),
            "calls": dict(self.calls),
        }
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(payload, fh)
