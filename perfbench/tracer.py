"""Function-boundary tracer for the benchmark's traced run.

The tracer replaces functions of flagopt's modules with timing wrappers from
outside the package; nothing inside flagopt is changed on disk. Each wrapped
call becomes a span (name, start, end, parent, operation id). Self time is a
span's duration minus the time its direct child spans cover. Per-name
aggregates (calls, self time, total time without double-counting recursion,
optional per-call durations) are kept alongside the spans, so the per-layer
metrics do not depend on how many spans are kept.

A target that no longer exists (say, a private route a later change deleted)
is recorded as absent; its metrics then read 0 and the run goes on.
"""

from __future__ import annotations

import importlib
import inspect
import sys
import time
from array import array

LAYERS = ("gen", "problems", "lagrangian", "linalg", "prox", "maps", "driver", "rates", "cli")

# Wrapped in addition to every public module-level function of each layer:
# (span name, module, dotted attribute path).
EXTRA_TARGETS = (
    ("rates.penalty_route", "rates", "_penalty_route"),
    ("rates.long_run_route", "rates", "_long_run_route"),
    ("rates.solve_kkt", "rates", "_solve_kkt"),
    ("rates.solve_on_face", "rates", "_solve_on_face"),
    ("driver.Trajectory.to_csv", "driver", "Trajectory.to_csv"),
)

# Per-call durations are kept only where a percentile is reported.
KEEP_DURATIONS = ("driver.flag_iterate", "linalg.solve_spd")


def solve_spd_cost(n):
    """(flops, bytes) one linalg.solve_spd call on an n x n matrix computes,
    from its body: one Cholesky factorization (n^3/3 flops), two triangular
    pair solves and two residual products (2 n^2 flops each); nine passes of
    8 n^2 bytes over the matrix (symmetrize 3, factor 2, solves 2, products 2).
    """
    return n**3 / 3.0 + 8.0 * n * n, 9 * 8.0 * n * n


def _solve_spd_hook(tracer, args):
    flops, nbytes = solve_spd_cost(len(args[0]) if args else 0)
    tracer.counters["linalg.solve_spd.flops_computed"] += flops
    tracer.counters["linalg.solve_spd.bytes_computed"] += nbytes


def _argmin_composite_hook(tracer, args):
    active = tracer.active
    if active.get("rates.penalty_route") and not active["prox.argmin_composite"]:
        tracer.counters["rates.penalty_route.prox_calls"] += 1


def _flag_iterate_hook(tracer, args):
    if tracer.active.get("rates.long_run_route"):
        tracer.counters["rates.long_run_route.iters"] += 1


def _solve_on_face_hook(tracer, args):
    if tracer.active.get("rates.polish"):
        tracer.counters["rates.polish.face_solves"] += 1


# Counters measured where the work happens, keyed by the span that triggers them.
HOOKS = {
    "linalg.solve_spd": _solve_spd_hook,
    "prox.argmin_composite": _argmin_composite_hook,
    "driver.flag_iterate": _flag_iterate_hook,
    "rates.solve_on_face": _solve_on_face_hook,
}
COUNTERS = (
    "linalg.solve_spd.flops_computed",
    "linalg.solve_spd.bytes_computed",
    "rates.penalty_route.prox_calls",
    "rates.long_run_route.iters",
    "rates.polish.face_solves",
)


class Stat:
    __slots__ = ("calls", "self_s", "total_s", "durations")

    def __init__(self):
        self.calls = 0
        self.self_s = 0.0
        self.total_s = 0.0
        self.durations = array("d")


class Tracer:
    """Spans and per-name aggregates of wrapped flagopt functions.

    install() wraps the targets with fresh aggregates and uninstall() restores
    the originals; spans accumulate across installs up to span_cap.
    """

    def __init__(self, span_cap=50_000):
        self.span_cap = span_cap
        self.spans = []
        self.spans_dropped = 0
        self.stats = {}
        self.counters = {}
        self.active = {}
        self.stack = []
        self.op = 0
        self.enabled = False
        self.absent = []
        self._patches = []
        self._t0 = time.perf_counter()

    def stop_keeping_spans(self):
        self.span_cap = len(self.spans)

    def _wrap(self, name, fn, st):
        tracer = self
        hook = HOOKS.get(name)
        durations = st.durations if name in KEEP_DURATIONS else None
        active, stack, spans = self.active, self.stack, self.spans
        clock = time.perf_counter

        def traced(*args, **kwargs):
            if not tracer.enabled:
                return fn(*args, **kwargs)
            if hook is not None:
                hook(tracer, args)
            if len(spans) < tracer.span_cap:
                idx = len(spans)
                spans.append(None)
            else:
                idx = -1
                tracer.spans_dropped += 1
            parent = stack[-1][1] if stack else -1
            frame = [0.0, idx]
            stack.append(frame)
            depth = active[name]
            active[name] = depth + 1
            start = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                active[name] = depth
                dur = end - start
                own = dur - frame[0]
                if stack:
                    stack[-1][0] += dur
                st.calls += 1
                st.self_s += own
                if not depth:
                    st.total_s += dur
                if durations is not None:
                    durations.append(dur)
                if idx >= 0:
                    spans[idx] = (name, start, end, own, parent, tracer.op)

        traced.__wrapped__ = fn
        return traced

    def _targets(self):
        """(span name, owner object, attribute, original function)."""
        found = []
        modules = {}
        for layer in LAYERS:
            try:
                mod = importlib.import_module(f"flagopt.{layer}")
            except ImportError:
                self.absent.append(f"{layer}.*")
                continue
            modules[layer] = mod
            for attr, val in sorted(vars(mod).items()):
                if (
                    not attr.startswith("_")
                    and inspect.isfunction(val)
                    and val.__module__ == mod.__name__
                ):
                    found.append((f"{layer}.{attr}", mod, attr, val))
        for name, layer, path in EXTRA_TARGETS:
            owner = modules.get(layer)
            *parents, attr = path.split(".")
            for part in parents:
                owner = getattr(owner, part, None)
            val = getattr(owner, attr, None)
            if not callable(val):
                self.absent.append(name)
                continue
            found.append((name, owner, attr, val))
        return found

    def install(self):
        """Wrap every target with fresh aggregates and rebind each attribute
        of flagopt's modules that refers to it, so calls through
        `from .x import f` aliases are traced too."""
        if self._patches:
            raise RuntimeError("tracer already installed")
        self.absent = []
        targets = self._targets()
        self.stats = {name: Stat() for name, _, _, _ in targets}
        self.counters = dict.fromkeys(COUNTERS, 0.0)
        self.active = dict.fromkeys(self.stats, 0)
        wrappers = {id(fn): (fn, self._wrap(name, fn, self.stats[name])) for name, _, _, fn in targets}
        owners = {id(owner): owner for _, owner, _, _ in targets if inspect.isclass(owner)}
        for mod_name, mod in list(sys.modules.items()):
            if mod is not None and (mod_name == "flagopt" or mod_name.startswith("flagopt.")):
                owners[id(mod)] = mod
        for owner in owners.values():
            for attr, val in list(vars(owner).items()):
                fn, wrapper = wrappers.get(id(val), (None, None))
                if fn is not None and val is fn:
                    setattr(owner, attr, wrapper)
                    self._patches.append((owner, attr, val))

    def uninstall(self):
        for owner, attr, val in reversed(self._patches):
            setattr(owner, attr, val)
        self._patches = []

    def write_spans(self, path):
        """CSV of kept spans; times in seconds from tracer creation."""
        with open(path, "w") as fh:
            fh.write(f"# spans kept {len(self.spans)} dropped {self.spans_dropped}\n")
            if self.absent:
                fh.write(f"# absent {' '.join(self.absent)}\n")
            fh.write("index,name,start_s,end_s,self_s,parent,op\n")
            t0 = self._t0
            for i, span in enumerate(self.spans):
                if span is not None:
                    name, start, end, own, parent, op = span
                    fh.write(f"{i},{name},{start - t0:.9f},{end - t0:.9f},{own:.9f},{parent},{op}\n")
