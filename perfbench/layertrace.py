"""Per-layer tracing by wrapping noetherkit's public functions from outside.

Modules import each other's functions by name (``from .expressions import
compile_fn``), so patching only the defining module would miss most calls.
``Tracer.install`` replaces every module attribute bound to a public
function with one wrapper and then checks that no original binding is left.

Each wrapper records calls and self time: its wall time minus the time spent
in wrapped callees.  A few functions also count work: compile_fn inputs,
sample points, rejection-sampling attempts, RK4 steps and monitored nodes.
"""

from __future__ import annotations

import importlib
import inspect
import sys
import time
from collections import defaultdict

LAYERS = ("expressions", "dsl", "mechanics", "noether", "dynamics", "corpus", "sysfile", "cli")

# Per-layer metrics whose figures sum several public functions.  The first
# member counts calls; self time is summed over all members.
GROUPS = {
    "expressions.compile_fn": ("expressions.compile_fn", "expressions.bind_opaque"),
    "noether.solve": ("noether.solve_strong", "noether.solve_onflow",
                      "noether.solve_onflow_simplest", "noether.solve_onflow_with_R",
                      "noether.solve_alt_strong_trivial_gauge"),
    "corpus.load": ("corpus.load", "corpus.free_particle", "corpus.isochrony",
                    "corpus.kepler3d", "corpus.kepler_family_triple",
                    "corpus.kepler_strong_triple", "corpus.isochrony_strong_triple"),
    "sysfile.read": ("sysfile.read_system_file", "sysfile.read_triple_file"),
    "sysfile.write": ("sysfile.write_system_file", "sysfile.write_triple_file"),
    "cli.main": ("cli.main", "cli.build_parser", "cli.cmd_describe", "cli.cmd_solve",
                 "cli.cmd_verify", "cli.cmd_integrate", "cli.cmd_corpus"),
}

# (metric, unit, better); every workload reports every one of these.
PER_LAYER = [
    ("expressions.compile_fn.calls", "count", "lower"),
    ("expressions.compile_fn.self_s", "s", "lower"),
    ("expressions.compile_fn.distinct", "count", "lower"),
    ("expressions.compile_fn.repeat_ratio", "ratio", "higher"),
    ("expressions.total_dt.calls", "count", "lower"),
    ("expressions.total_dt.self_s", "s", "lower"),
    ("expressions.diff.calls", "count", "lower"),
    ("expressions.diff.self_s", "s", "lower"),
    ("noether.killing_lhs.calls", "count", "lower"),
    ("noether.killing_lhs.self_s", "s", "lower"),
    ("expressions.draw_points.calls", "count", "lower"),
    ("expressions.draw_points.self_s", "s", "lower"),
    ("expressions.draw_points.points", "count", "lower"),
    ("expressions.draw_points.attempts", "count", "lower"),
    ("expressions.draw_points.accept_ratio", "ratio", "higher"),
    ("expressions.equal_numeric.calls", "count", "lower"),
    ("expressions.equal_numeric.self_s", "s", "lower"),
    ("expressions.equal_numeric.points", "count", "lower"),
    ("expressions.equal_numeric.us_per_point", "us", "lower"),
    ("expressions.tidy.calls", "count", "lower"),
    ("expressions.tidy.self_s", "s", "lower"),
    ("mechanics.invert_g_apply.calls", "count", "lower"),
    ("mechanics.invert_g_apply.self_s", "s", "lower"),
    ("noether.solve.calls", "count", "lower"),
    ("noether.solve.self_s", "s", "lower"),
    ("noether.verify_triple.self_s", "s", "lower"),
    ("noether.check_conserved.self_s", "s", "lower"),
    ("noether.noether_integral.self_s", "s", "lower"),
    ("mechanics.build_system.calls", "count", "lower"),
    ("mechanics.build_system.self_s", "s", "lower"),
    ("corpus.load.calls", "count", "lower"),
    ("corpus.load.self_s", "s", "lower"),
    ("dsl.parse.calls", "count", "lower"),
    ("dsl.parse.self_s", "s", "lower"),
    ("dsl.print_expr.calls", "count", "lower"),
    ("dsl.print_expr.self_s", "s", "lower"),
    ("sysfile.read.calls", "count", "lower"),
    ("sysfile.read.self_s", "s", "lower"),
    ("sysfile.write.calls", "count", "lower"),
    ("sysfile.write.self_s", "s", "lower"),
    ("cli.import_s", "s", "lower"),
    ("cli.main.self_s", "s", "lower"),
    ("dynamics.integrate.calls", "count", "lower"),
    ("dynamics.integrate.self_s", "s", "lower"),
    ("dynamics.integrate.steps", "count", "higher"),
    ("dynamics.integrate.us_per_step", "us", "lower"),
    ("dynamics.monitor_drift.self_s", "s", "lower"),
    ("dynamics.monitor_drift.nodes", "count", "higher"),
    ("trace.ops_per_s", "1/s", "higher"),
]


class BindingError(RuntimeError):
    """A module still binds an unwrapped public function after install."""


class Tracer:
    def __init__(self):
        self.enabled = True
        # function name -> counter name -> value; plain dicts so they pickle to JSON
        self.stats: dict[str, dict[str, float]] = defaultdict(lambda: defaultdict(float))
        self._child_time: list[list[float]] = []
        self._draw_fns: list[list] = []
        self._compile_keys: set = set()

    # -- installation -----------------------------------------------------

    def install(self) -> int:
        """Wrap every public function of every layer, at every binding.

        Returns the number of functions wrapped.
        """
        modules = {name: importlib.import_module(f"noetherkit.{name}") for name in LAYERS}
        wrappers = {}
        for layer, mod in modules.items():
            for attr, obj in vars(mod).items():
                if (inspect.isfunction(obj) and not attr.startswith("_")
                        and obj.__module__ == mod.__name__):
                    wrappers[id(obj)] = (obj, self._wrap(f"{layer}.{attr}", obj))
        namespaces = [vars(m) for name, m in sys.modules.items()
                      if name == "noetherkit" or name.startswith("noetherkit.")]
        for ns in namespaces:
            for attr, obj in list(ns.items()):
                hit = wrappers.get(id(obj))
                if hit is not None and hit[0] is obj:
                    ns[attr] = hit[1]
        originals = {id(orig) for orig, _ in wrappers.values()}
        for name, mod in list(sys.modules.items()):
            if name == "noetherkit" or name.startswith("noetherkit."):
                for attr, obj in vars(mod).items():
                    if id(obj) in originals and inspect.isfunction(obj):
                        raise BindingError(f"{name}.{attr} still binds the unwrapped function")
        return len(wrappers)

    def _wrap(self, name, fn):
        post = {
            "expressions.compile_fn": self._post_compile,
            "expressions.equal_numeric": self._post_equal_numeric,
            "dynamics.integrate": self._post_integrate,
            "dynamics.monitor_drift": self._post_monitor,
        }.get(name)
        is_draw = name == "expressions.draw_points"
        sig = inspect.signature(fn)
        stats = self.stats
        child_time = self._child_time
        clock = time.perf_counter

        def wrapper(*args, **kwargs):
            if not self.enabled:
                return fn(*args, **kwargs)
            frame = [0.0]
            child_time.append(frame)
            if is_draw:
                self._draw_fns.append([])
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                elapsed = clock() - start
                child_time.pop()
                if child_time:
                    child_time[-1][0] += elapsed
                entry = stats[name]
                entry["calls"] += 1
                entry["self_s"] += elapsed - frame[0]
                if is_draw:
                    fns = self._draw_fns.pop()
            if is_draw:
                entry["points"] += len(result)
                # the first exclusion is evaluated once per candidate point
                entry["attempts"] += fns[0].count if fns else len(result)
            elif post is not None:
                replaced = post(entry, sig.bind(*args, **kwargs), result)
                if replaced is not None:
                    result = replaced
            return result

        wrapper.__wrapped__ = fn
        wrapper.__name__ = fn.__name__
        wrapper.__doc__ = fn.__doc__
        return wrapper

    # -- counters ---------------------------------------------------------

    def _post_compile(self, entry, bound, result):
        bound.apply_defaults()
        a = bound.arguments
        key = (tuple(a["exprs"]), a["alphabet"], bool(a["include_acc"]))
        if key not in self._compile_keys:
            self._compile_keys.add(key)
            entry["distinct"] += 1
        if self._draw_fns:
            # an exclusion compiled by draw_points: count its evaluations
            counted = _Counted(result)
            self._draw_fns[-1].append(counted)
            return counted
        return None

    def _post_equal_numeric(self, entry, bound, result):
        entry["points"] += result.k

    def _post_integrate(self, entry, bound, result):
        entry["steps"] += len(result.t) - 1

    def _post_monitor(self, entry, bound, result):
        entry["nodes"] += result.nodes

    # -- reporting --------------------------------------------------------

    def snapshot(self) -> dict:
        return {name: dict(v) for name, v in self.stats.items()}


class _Counted:
    """A compiled function that counts its calls."""

    def __init__(self, fn):
        self.fn = fn
        self.count = 0
        self.arg_names = getattr(fn, "arg_names", None)

    def __call__(self, *args, **kwargs):
        self.count += 1
        return self.fn(*args, **kwargs)


def merge(into: dict, other: dict) -> None:
    """Add one snapshot's counters into another."""
    for name, counters in other.items():
        target = into.setdefault(name, {})
        for key, value in counters.items():
            target[key] = target.get(key, 0.0) + value


def layer_metrics(stats: dict, import_s: float, ops_per_s: float,
                  scale: float) -> dict[str, float]:
    """The PER_LAYER figures from merged counters, times multiplied by scale."""
    def get(fn, key):
        return stats.get(fn, {}).get(key, 0.0)

    def group(prefix, key):
        members = GROUPS.get(prefix, (prefix,))
        if key == "calls":
            return get(members[0], "calls")
        return sum(get(m, key) for m in members)

    out = {}
    for metric, _, _ in PER_LAYER:
        prefix, _, key = metric.rpartition(".")
        if key in ("calls", "self_s", "distinct", "points", "attempts", "steps", "nodes"):
            out[metric] = group(prefix, key)
    cf = "expressions.compile_fn"
    calls = out[f"{cf}.calls"]
    out[f"{cf}.repeat_ratio"] = 1.0 - out[f"{cf}.distinct"] / calls if calls else 0.0
    dp = "expressions.draw_points"
    att = out[f"{dp}.attempts"]
    out[f"{dp}.accept_ratio"] = out[f"{dp}.points"] / att if att else 0.0
    en = "expressions.equal_numeric"
    pts = out[f"{en}.points"]
    out[f"{en}.us_per_point"] = 1e6 * out[f"{en}.self_s"] / pts if pts else 0.0
    di = "dynamics.integrate"
    steps = out[f"{di}.steps"]
    out[f"{di}.us_per_step"] = 1e6 * out[f"{di}.self_s"] / steps if steps else 0.0
    out["cli.import_s"] = import_s
    for metric, unit, _ in PER_LAYER:
        if unit in ("s", "us"):
            out[metric] *= scale
    out["trace.ops_per_s"] = ops_per_s
    return {m: out[m] for m, _, _ in PER_LAYER}
