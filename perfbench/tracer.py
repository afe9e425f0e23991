"""Spans around qetsim's public functions, installed from outside the package.

`install` wraps every public function defined in the traced modules, plus a
few methods that carry a layer of their own (`HermitianOperator.apply`,
operator construction, the cooling objective).  Each wrapper replaces the
original under every name that binds it in a loaded `qetsim.*` namespace,
because `protocol`, `cooling` and `cli` import names with `from .x import y`
and patching only the defining module would miss their calls.  A target that
no longer exists is recorded as absent; its metrics read 0.

Spans are recorded only inside a root span opened by the benchmark, and are
aggregated on the fly rather than stored:

- `<span>.calls`, `<span>.s`: outermost calls of that span and their wall time,
  so a function that reaches itself again (operator construction through
  `from_strings` and `__init__`) is not counted twice;
- `<span>.self_s`: duration minus the part covered by child spans;
- `<module>.s`, `<module>.self_s`: the same per module, so the module self
  times and the root's self time sum to the root span's duration.

Counters recorded at the same boundaries:

- `pauli.apply.term_passes`: sum over `apply` calls of `len(op.terms)`;
- `pauli.apply.bytes_computed`: sum over `apply` calls of
  `len(op.terms) * (vec.nbytes + 2 * out.nbytes)`, i.e. each term pass reads
  the input and reads and writes the output once.  It is computed from array
  sizes, not measured, and ignores cache misses;
- `eigensolver.ground_state.matvecs`: sum of the returned `iterations`;
- `protocol.applies_per_run`: `apply` calls inside `run_protocol` per
  `run_protocol` call;
- `cooling.restart_hit_ratio`: share of the returned `per_restart` within
  1e-9 J of `e_r_numeric`.
"""

from __future__ import annotations

import contextlib
import functools
import importlib
import inspect
import sys
import time
from collections import Counter

MODULES = ("pauli", "chain", "eigensolver", "protocol", "cooling", "analytics", "cli")

# (module, class, attribute, span name)
METHODS = (
    ("pauli", "HermitianOperator", "apply", "pauli.apply"),
    ("pauli", "HermitianOperator", "__init__", "pauli.operator_build"),
    ("pauli", "HermitianOperator", "from_strings", "pauli.operator_build"),
    ("cooling", "OutcomeObjective", "__call__", "cooling.objective"),
)

ROOT = "bench.op"


class Tracer:
    """Span stack with per-name and per-module aggregation."""

    def __init__(self, clock=time.perf_counter):
        self.clock = clock
        self.spans = {}          # name -> [calls, inclusive s, self s]
        self.modules = {}        # module -> [inclusive s, self s]
        self.counters = Counter()
        self.absent = set()
        self.n_spans = 0
        self._stack = []         # frames: [name, module, start, child s]
        self._depth = Counter()  # open frames per name and per module

    def declare(self, name: str, module: str) -> None:
        self.spans.setdefault(name, [0, 0.0, 0.0])
        self.modules.setdefault(module, [0.0, 0.0])

    def active(self, name: str) -> bool:
        return self._depth[name] > 0

    def enter(self, name: str, module: str) -> None:
        self.declare(name, module)
        self._depth[name] += 1
        self._depth[module] += 1
        self._stack.append([name, module, self.clock(), 0.0])

    def exit(self) -> None:
        end = self.clock()
        name, module, start, child = self._stack.pop()
        dur = end - start
        self._depth[name] -= 1
        self._depth[module] -= 1
        span, mod = self.spans[name], self.modules[module]
        span[2] += dur - child
        mod[1] += dur - child
        if self._depth[name] == 0:
            span[0] += 1
            span[1] += dur
        if self._depth[module] == 0:
            mod[0] += dur
        if self._stack:
            self._stack[-1][3] += dur
        self.n_spans += 1

    @contextlib.contextmanager
    def span(self, name: str, module: str):
        self.enter(name, module)
        try:
            yield
        finally:
            self.exit()

    def wrap(self, func, name: str, module: str, hook=None):
        """Wrapper recording a span (and calling `hook(tracer, args, result)`) when recording."""
        self.declare(name, module)

        @functools.wraps(func)
        def traced(*args, **kwargs):
            if not self._stack:
                return func(*args, **kwargs)
            self.enter(name, module)
            try:
                result = func(*args, **kwargs)
            finally:
                self.exit()
            if hook is not None:
                hook(self, args, result)
            return result

        return traced

    def summary(self, n_ops: int) -> dict[str, float]:
        """Flat per-operation metrics, plus the ratios, which are not divided by n_ops."""
        n = max(n_ops, 1)
        out = {}
        for name, (calls, incl, own) in self.spans.items():
            out[f"{name}.calls"] = calls / n
            out[f"{name}.s"] = incl / n
            out[f"{name}.self_s"] = own / n
        for module, (incl, own) in self.modules.items():
            out[f"{module}.s"] = incl / n
            out[f"{module}.self_s"] = own / n
        for key in ("pauli.apply.term_passes", "pauli.apply.bytes_computed",
                    "eigensolver.ground_state.matvecs"):
            if key.rsplit(".", 1)[0] + ".calls" in out:
                out[key] = self.counters[key] / n
        if "cooling.objective.calls" in out:
            out["cooling.objective.evals"] = out["cooling.objective.calls"]
        if "protocol.run_protocol.calls" in out:
            runs = self.spans["protocol.run_protocol"][0]
            out["protocol.applies_per_run"] = self.counters["protocol.run_protocol.applies"] / max(runs, 1)
        if "cooling.minimize_residual.calls" in out and "cooling.restart_hit_ratio" not in self.absent:
            restarts = self.counters["cooling.restarts"]
            out["cooling.restart_hit_ratio"] = self.counters["cooling.restart_hits"] / max(restarts, 1)
        return out


def _count_apply(tracer: Tracer, args, out) -> None:
    op, vec = args[0], args[1]
    terms = len(op.terms)
    tracer.counters["pauli.apply.term_passes"] += terms
    tracer.counters["pauli.apply.bytes_computed"] += terms * (vec.nbytes + 2 * out.nbytes)
    if tracer.active("protocol.run_protocol"):
        tracer.counters["protocol.run_protocol.applies"] += 1


def _count_matvecs(tracer: Tracer, args, result) -> None:
    tracer.counters["eigensolver.ground_state.matvecs"] += result.iterations


def _count_restart_hits(tracer: Tracer, args, result) -> None:
    per_restart = getattr(result, "per_restart", None)
    if per_restart is None:
        tracer.absent.add("cooling.restart_hit_ratio")
        return
    tol = 1e-9 * getattr(args[0], "coupling", 1.0)
    tracer.counters["cooling.restarts"] += len(per_restart)
    tracer.counters["cooling.restart_hits"] += sum(abs(v - result.e_r_numeric) <= tol
                                                   for v in per_restart)


HOOKS = {
    "pauli.apply": _count_apply,
    "eigensolver.ground_state": _count_matvecs,
    "cooling.minimize_residual": _count_restart_hits,
}


def _namespaces() -> list:
    return [m for key, m in sorted(sys.modules.items())
            if m is not None and (key == "qetsim" or key.startswith("qetsim."))]


def install(tracer: Tracer):
    """Patch the traced modules; returns a function that restores every original."""
    modules = {}
    for short in MODULES:
        try:
            modules[short] = importlib.import_module(f"qetsim.{short}")
        except ImportError:
            tracer.absent.add(short)
    namespaces = _namespaces()
    undo = []

    def rebind(original, replacement) -> None:
        for ns in namespaces:
            for attr, value in list(vars(ns).items()):
                if value is original:
                    setattr(ns, attr, replacement)
                    undo.append((ns, attr, original))

    for short, mod in modules.items():
        for attr, func in list(vars(mod).items()):
            if attr.startswith("_") or not inspect.isfunction(func) or func.__module__ != mod.__name__:
                continue
            name = f"{short}.{attr}"
            rebind(func, tracer.wrap(func, name, short, HOOKS.get(name)))

    installed = set()
    for short, cls_name, attr, name in METHODS:
        cls = getattr(modules.get(short), cls_name, None)
        raw = vars(cls).get(attr) if isinstance(cls, type) else None
        if raw is None:
            continue
        if isinstance(raw, classmethod):
            patched = classmethod(tracer.wrap(raw.__func__, name, short, HOOKS.get(name)))
        else:
            patched = tracer.wrap(raw, name, short, HOOKS.get(name))
        setattr(cls, attr, patched)
        undo.append((cls, attr, raw))
        installed.add(name)
    # a span is absent only when none of the methods that feed it exists
    tracer.absent |= {name for *_, name in METHODS} - installed

    def restore() -> None:
        for owner, attr, original in reversed(undo):
            setattr(owner, attr, original)

    return restore


def span_cost(calls: int = 20000) -> float:
    """Seconds one recorded span adds, from timing a wrapped no-op against the bare one."""
    def noop():
        return None

    tracer = Tracer()
    wrapped = tracer.wrap(noop, "calibrate.noop", "calibrate")
    best = float("inf")
    for _ in range(3):
        with tracer.span("calibrate.root", "calibrate"):
            t0 = time.perf_counter()
            for _ in range(calls):
                wrapped()
            t1 = time.perf_counter()
            for _ in range(calls):
                noop()
            t2 = time.perf_counter()
        best = min(best, ((t1 - t0) - (t2 - t1)) / calls)
    return max(best, 0.0)
