"""Spans around few2d's public layer functions, recorded from outside.

``Tracer.install`` wraps each function in ``TARGETS`` and puts the wrapper in
every loaded ``few2d`` module namespace that holds the original (bar those a
target skips), so calls made through ``few2d.cli.lowest_eigs`` or
``few2d.oracles.radial_spectrum`` alike are seen.  No library code changes; ``uninstall`` puts the originals
back.  Spans stay in memory as plain lists and are written out by the caller.

A span is ``[name, start, end, parent, job, attrs]``; ``parent`` is the index
of the enclosing span or -1.  A layer's self time is its span's duration
minus the part of it covered by its child spans.
"""

from __future__ import annotations

import functools
import sys
import time
from collections import defaultdict
from typing import Callable, NamedTuple

LAYERS = ("cli", "model", "reduction", "discretize", "eigensolve", "oracles",
          "superintegrability")


def _method(args, kwargs, position: int) -> str:
    if "method" in kwargs:
        return kwargs["method"]
    return args[position] if len(args) > position else "fd"


def _assemble_attrs(args, kwargs, op) -> dict:
    return {"dof": op.dim, "nnz": int(op.matrix.nnz)}


def _eigs_attrs(args, kwargs, result) -> dict:
    m = args[0].matrix   # the CLI always passes a SparseOperator
    csr_bytes = sum(a.nbytes for a in (m.data, m.indices, m.indptr))
    return {"matvecs": int(result.iterations), "csr_bytes": int(csr_bytes),
            "max_residual": float(result.residuals.max())}


class Target(NamedTuple):
    """A public function to wrap and the span names its calls can get."""

    module: str
    function: str
    names: tuple[str, ...]              # every span name this target can give
    namer: Callable | None = None       # (args, kwargs) -> one of ``names``
    attrs: Callable | None = None       # (args, kwargs, result) -> dict
    skip: tuple[str, ...] = ()          # namespaces whose calls stay unwrapped


TARGETS = [
    Target("few2d.model", "spec_from_dict", ("model.spec_from_dict",)),
    Target("few2d.model", "eval_potential", ("model.eval_potential",)),
    Target("few2d.reduction", "reduce_to_2d", ("reduction.reduce_to_2d",)),
    Target("few2d.reduction", "map_threebody", ("reduction.map_threebody",)),
    Target("few2d.discretize", "make_grid", ("discretize.make_grid",)),
    Target("few2d.discretize", "assemble", ("discretize.assemble",),
           attrs=_assemble_attrs),
    Target("few2d.eigensolve", "lowest_eigs", ("eigensolve.lowest_eigs",),
           attrs=_eigs_attrs),
    # degeneracy_scan groups oracle levels with it; that is the scan's own
    # work, so only the CLI's grouping of grid eigenvalues counts here
    Target("few2d.eigensolve", "detect_degeneracies", ("eigensolve.detect_degeneracies",),
           skip=("few2d.superintegrability",)),
    Target("few2d.oracles", "separated_spectrum", ("oracles.separated_spectrum",)),
    Target("few2d.oracles", "radial_spectrum", ("oracles.radial_fd", "oracles.radial_shooting"),
           namer=lambda a, kw: f"oracles.radial_{_method(a, kw, 2)}"),
    Target("few2d.oracles", "angular_pt_levels",
           ("oracles.angular_fd", "oracles.angular_shooting"),
           namer=lambda a, kw: f"oracles.angular_{_method(a, kw, 5)}"),
    Target("few2d.superintegrability", "identity_check", ("superintegrability.identity_check",)),
    Target("few2d.superintegrability", "degeneracy_scan",
           ("superintegrability.degeneracy_scan",)),
]

SPAN_NAMES = [name for target in TARGETS for name in target.names]


class Tracer:
    """Records spans while installed; one instance per traced pass."""

    def __init__(self):
        self.spans: list[list] = []
        self.job: str | None = None
        self._stack: list[int] = []
        self._patched: list[tuple[object, str, object]] = []

    def call(self, name, fn, args=(), kwargs=None, attrs=None):
        """Run ``fn`` inside a span; exceptions are noted on the span and re-raised."""
        kwargs = kwargs or {}
        label = name if isinstance(name, str) else name(args, kwargs)
        idx = len(self.spans)
        span = [label, time.perf_counter(), None,
                self._stack[-1] if self._stack else -1, self.job, None]
        self.spans.append(span)
        self._stack.append(idx)
        try:
            result = fn(*args, **kwargs)
        except BaseException as exc:
            span[5] = {"error": type(exc).__name__}
            raise
        finally:
            span[2] = time.perf_counter()
            self._stack.pop()
        if attrs is not None:
            span[5] = attrs(args, kwargs, result)
        return result

    def _wrap(self, fn, name, attrs):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            return self.call(name, fn, args, kwargs, attrs)
        return wrapper

    def install(self) -> None:
        modules = [m for key, m in sys.modules.items()
                   if m is not None and (key == "few2d" or key.startswith("few2d."))]
        for target in TARGETS:
            orig = getattr(sys.modules[target.module], target.function)
            wrapper = self._wrap(orig, target.namer or target.names[0], target.attrs)
            for module in modules:
                if module.__name__ in target.skip:
                    continue
                for attr, value in list(vars(module).items()):
                    if value is orig:
                        self._patched.append((module, attr, orig))
                        setattr(module, attr, wrapper)

    def uninstall(self) -> None:
        for module, attr, orig in reversed(self._patched):
            setattr(module, attr, orig)
        self._patched.clear()


# ---------------------------------------------------------------------
# span arithmetic
# ---------------------------------------------------------------------

def _covered(start: float, end: float, intervals: list[tuple[float, float]]) -> float:
    """Length of [start, end] covered by the union of ``intervals``."""
    total, reach = 0.0, start
    for lo, hi in sorted(intervals):
        lo, hi = max(lo, reach), min(hi, end)
        if hi > lo:
            total += hi - lo
            reach = hi
    return total


def self_times(spans: list[list]) -> list[float]:
    """Self time of every span: its duration minus what its children cover."""
    children = defaultdict(list)
    for span in spans:
        if span[3] >= 0:
            children[span[3]].append((span[1], span[2]))
    return [(s[2] - s[1]) - _covered(s[1], s[2], children[i])
            for i, s in enumerate(spans)]


def layer_metrics(spans: list[list]) -> dict[str, float]:
    """Per-layer self times, call counts and work counts summed over ``spans``."""
    out: dict[str, float] = defaultdict(float)
    for span, self_s in zip(spans, self_times(spans)):
        name, attrs = span[0], span[5] or {}
        layer = name.split(".", 1)[0]
        out[f"{layer}.self_s"] += self_s
        out[f"{name}_s"] += self_s
        out[f"{name}.calls"] += 1
        if attrs.get("error"):
            out[f"{name}.errors.{attrs['error']}"] += 1
        for key in ("dof", "nnz", "matvecs"):
            if key in attrs:
                out[f"{layer}.{key}"] += attrs[key]
        if "csr_bytes" in attrs:
            out[f"{layer}.matvec_bytes_computed"] += attrs["matvecs"] * attrs["csr_bytes"]
        if "max_residual" in attrs:
            key = f"{layer}.max_residual"
            out[key] = max(out[key], attrs["max_residual"])
    return dict(out)
