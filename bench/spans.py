"""Span tracing of coherence_lab from outside the package.

The tracer wraps public functions, class constructors and one property of
every layer. A function is replaced in every ``coherence_lab`` module that
binds its name, because ``cli``, ``bounds`` and ``optimizer`` import names
directly; a class is traced through its ``__init__`` and a property through
its getter. Each call inside an op records a span (name, start, end, parent,
op id) in flat in-memory columns; ``uninstall`` restores every original
attribute and checks that no wrapper is left behind.
"""

from __future__ import annotations

import functools
import importlib
import math
import sys
import time
from array import array

PACKAGE = "coherence_lab"

#: (layer, attribute, kind) for everything the traced run wraps. A kind of
#: "class" traces construction (``__init__``, which includes validation);
#: "property" names ``Class.attr`` and reports under ``attr``. The comments
#: give the end-to-end metric each layer should move, and on which workload.
TARGETS = (
    # ops_per_s and op_p50_ms on oracle; no change on bounds-nogo or recurrence-cli
    ("optimizer", "maximize_delta_m", "function"),
    ("optimizer", "random_allowed_unitary", "function"),
    # ops_per_s on bounds-nogo; no change on oracle
    ("bounds", "bound_report", "function"),
    ("bounds", "bound_kyfan_global", "function"),
    ("bounds", "bound_kyfan_lrd", "function"),
    ("bounds", "nogo_check", "function"),
    ("bounds", "marginal_product_distance", "function"),
    # ops_per_s on bounds-nogo
    ("modes", "bipartite_mode", "function"),
    ("modes", "bipartite_mode_set", "function"),
    ("modes", "lrd_decompose", "function"),
    ("modes", "vin_projector", "function"),
    ("modes", "mode_measure", "function"),
    # DensityMatrix, BipartiteGenerator: ops_per_s on bounds-nogo (rho x rho is
    # validated again and a generator is built per bound); AllowedUnitary:
    # op_p90_ms on bounds-nogo; BlochState, two per recurrence step: ops_per_s
    # on recurrence-cli
    ("states", "DensityMatrix", "class"),
    ("states", "BipartiteGenerator", "class"),
    ("states", "AllowedUnitary", "class"),
    ("states", "BlochState", "class"),
    # bounds-nogo
    ("linalg", "singular_values", "function"),
    ("linalg", "partial_trace_b", "function"),
    # random_density_matrix, random_bloch: setup_s everywhere (pass inputs);
    # haar_unitary: op_p90_ms on bounds-nogo
    ("sampling", "random_density_matrix", "function"),
    ("sampling", "random_bloch", "function"),
    ("sampling", "haar_unitary", "function"),
    # ops_per_s, op_p90_ms and peak_rss_mb on recurrence-cli;
    # optimal_concentration is a small share of oracle
    ("qubit_protocol", "run_concatenation", "function"),
    ("qubit_protocol", "recurrence_step", "function"),
    ("qubit_protocol", "ConcatTrace", "class"),
    ("qubit_protocol", "ConcatTrace.copies_consumed", "property"),
    ("qubit_protocol", "vector_field", "function"),
    ("qubit_protocol", "optimal_concentration", "function"),
    # self time is parsing, formatting and writing: op_p90_ms, peak_rss_mb
    # and ops_failed on recurrence-cli
    ("cli", "main", "function"),
)

#: restarts whose best lies this close to the call's best count as useful
USEFUL_RESTART_ATOL = 1e-9
#: per-layer metrics of the traced run that do not come from spans
EXTRA_METRICS = (
    "cli.bytes_written",
    "trace.overhead_frac",
    *(f"optimizer.parameterize_block.us.n{n}" for n in range(1, 5)),
    "bounds.bound_report.us.d3",
    "bounds.bound_report.us.d4",
)


def span_name(layer: str, attr: str) -> str:
    return f"{layer}.{attr.rsplit('.', 1)[-1]}"


def span_names() -> list:
    return [span_name(layer, attr) for layer, attr, _ in TARGETS]


def per_layer_names() -> list:
    """Every metric a traced run reports, in report order."""
    return list(Tracer().per_layer()) + list(EXTRA_METRICS)


def layer_unit(name: str) -> str:
    if name.endswith(".calls"):
        return "count"
    if name.endswith("_s"):
        return "s"
    if ".us." in name:
        return "us"
    if name.endswith("bytes_written"):
        return "B"
    return "frac"


class Tracer:
    """Records spans of wrapped calls made while an op is active."""

    def __init__(self) -> None:
        self.names: list = []
        self._ids: dict = {}
        self.name = array("i")
        self.start = array("d")
        self.end = array("d")
        self.parent = array("i")
        self.op = array("i")
        self._stack: list = []
        self.op_id: int | None = None
        self._patches: list = []
        self.searches = 0
        self.converged = 0
        self.restarts = 0
        self.useful_restarts = 0

    # -- recording ---------------------------------------------------------

    def _name_id(self, name: str) -> int:
        if name not in self._ids:
            self._ids[name] = len(self.names)
            self.names.append(name)
        return self._ids[name]

    def _wrap(self, name: str, fn, on_result=None):
        nid = self._name_id(name)
        tracer = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if tracer.op_id is None:
                return fn(*args, **kwargs)
            i = len(tracer.start)
            tracer.name.append(nid)
            tracer.parent.append(tracer._stack[-1] if tracer._stack else -1)
            tracer.op.append(tracer.op_id)
            tracer.end.append(0.0)
            tracer._stack.append(i)
            tracer.start.append(time.perf_counter())
            try:
                result = fn(*args, **kwargs)
            finally:
                tracer.end[i] = time.perf_counter()
                tracer._stack.pop()
            if on_result is not None:
                on_result(result)
            return result

        wrapper.__bench_original__ = fn
        return wrapper

    def _record_search(self, outcome) -> None:
        self.searches += 1
        self.converged += bool(outcome.converged)
        self.restarts += len(outcome.history)
        self.useful_restarts += sum(
            1 for h in outcome.history if h >= outcome.best_delta_m - USEFUL_RESTART_ATOL
        )

    # -- installing --------------------------------------------------------

    def _patch(self, owner, attr: str, wrapper) -> None:
        self._patches.append((owner, attr, owner.__dict__[attr]))
        setattr(owner, attr, wrapper)

    def install(self) -> None:
        """Wrap every target; a second install without uninstall is an error."""
        if self._patches:
            raise RuntimeError("tracer is already installed")
        modules = [m for n, m in sorted(sys.modules.items())
                   if m is not None and (n == PACKAGE or n.startswith(PACKAGE + "."))]
        for layer, attr, kind in TARGETS:
            mod = importlib.import_module(f"{PACKAGE}.{layer}")
            name = span_name(layer, attr)
            if kind == "class":
                cls = getattr(mod, attr)
                self._patch(cls, "__init__", self._wrap(name, cls.__dict__["__init__"]))
            elif kind == "property":
                cls_name, prop = attr.split(".")
                cls = getattr(mod, cls_name)
                fget = cls.__dict__[prop].fget
                self._patch(cls, prop, property(self._wrap(name, fget)))
            else:
                original = getattr(mod, attr)
                hook = self._record_search if name == "optimizer.maximize_delta_m" else None
                wrapper = self._wrap(name, original, hook)
                for m in modules:
                    if m.__dict__.get(attr) is original:
                        self._patch(m, attr, wrapper)

    def uninstall(self) -> None:
        """Restore every patched attribute, then verify nothing wrapped remains."""
        while self._patches:
            owner, attr, original = self._patches.pop()
            setattr(owner, attr, original)
        leftovers = find_wrappers()
        if leftovers:
            raise RuntimeError(f"wrappers left installed: {leftovers}")

    # -- results -----------------------------------------------------------

    def per_layer(self) -> dict:
        """``<layer>.<name>.{calls,total_s,self_s}`` for every target, zero when unused."""
        selfs = self_times(self.start, self.end, self.parent)
        out = {}
        for name in span_names():
            out[f"{name}.calls"] = 0
            out[f"{name}.total_s"] = 0.0
            out[f"{name}.self_s"] = 0.0
        for i, nid in enumerate(self.name):
            name = self.names[nid]
            out[f"{name}.calls"] += 1
            out[f"{name}.total_s"] += self.end[i] - self.start[i]
            out[f"{name}.self_s"] += selfs[i]
        out["optimizer.restart_useful_frac"] = (
            self.useful_restarts / self.restarts if self.restarts else 0.0
        )
        out["optimizer.converged_frac"] = self.converged / self.searches if self.searches else 0.0
        return out

    def write(self, path: str) -> None:
        """Save the span columns as an ``.npz``; ``names[name[i]]`` is span i's name."""
        import numpy as np

        np.savez(
            path,
            names=np.array(self.names, dtype=str),
            name=np.frombuffer(self.name, dtype=np.int32),
            start=np.frombuffer(self.start, dtype=np.float64),
            end=np.frombuffer(self.end, dtype=np.float64),
            parent=np.frombuffer(self.parent, dtype=np.int32),
            op=np.frombuffer(self.op, dtype=np.int32),
        )


def find_wrappers() -> list:
    """Every ``module.attr`` or ``Class.attr`` in coherence_lab that still holds a wrapper."""
    found = []
    for modname, mod in sorted(sys.modules.items()):
        if mod is None or not (modname == PACKAGE or modname.startswith(PACKAGE + ".")):
            continue
        for attr, value in vars(mod).items():
            if hasattr(value, "__bench_original__"):
                found.append(f"{modname}.{attr}")
            if isinstance(value, type) and value.__module__ == modname:
                for cattr, cvalue in vars(value).items():
                    target = cvalue.fget if isinstance(cvalue, property) else cvalue
                    if hasattr(target, "__bench_original__"):
                        found.append(f"{modname}.{attr}.{cattr}")
    return found


def self_times(start, end, parent) -> list:
    """Span duration minus the part of its interval that its child spans cover."""
    children: dict = {}
    for i, p in enumerate(parent):
        if p >= 0:
            children.setdefault(p, []).append(i)
    out = []
    for i in range(len(start)):
        lo, hi = start[i], end[i]
        covered = 0.0
        reach = -math.inf
        for c in sorted(children.get(i, ()), key=lambda k: start[k]):
            a, b = max(start[c], lo, reach), min(end[c], hi)
            if b > a:
                covered += b - a
            reach = max(reach, b)
        out.append((hi - lo) - covered)
    return out
