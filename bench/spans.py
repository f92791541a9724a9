"""Per-layer tracing from outside the library.

``install`` wraps each public layer function by rebinding every module
attribute that names it: the defining module and each importer.  Calls
the library makes internally therefore pass through the wrappers too and
nest as child spans.  Spans are kept in memory, recorded only while an
operation is open, and summarised (or written out) at the end.

``coords``, ``gadgets``, ``entries`` and ``perm`` get no spans: their
functions run millions of times per operation, so a wrapper would mostly
measure itself.  Their cost lands in the self time of the calling span.
"""

import functools
import json
import os
import sys
import time


class TracerGuardError(RuntimeError):
    """A layer function is missing where the benchmark expects it."""


def _bump(counters, key, amount):
    counters[key] = counters.get(key, 0) + amount


def _count_check_gridding(counters, args, kwargs, result):
    _bump(counters, "grid.check_gridding.hits", 1 if result else 0)


def _count_psi(counters, args, kwargs, result):
    _bump(counters, "matcher.psi_embedding.hits", 0 if result is None else 1)


def _count_solve(counters, args, kwargs, result):
    stats = kwargs.get("stats", args[3] if len(args) > 3 else None) or {}
    _bump(counters, "matcher.solve_cppm.griddings_tried",
          stats.get("griddings_tried", 0))
    _bump(counters, "matcher.solve_cppm.clauses", stats.get("clauses", 0))


def _count_assemble(counters, args, kwargs, result):
    _bump(counters, "grid.assemble.points", len(result[0]))


def _count_reduce(counters, args, kwargs, inst):
    pre = "reduction.builder."
    _bump(counters, pre + "gadgets", len(inst.trace or ()))
    _bump(counters, pre + "layers", len(inst.layers))
    _bump(counters, pre + "tiles", inst.sizes["tiles"])
    _bump(counters, pre + "text_core_points", inst.sizes["text_core"])
    _bump(counters, pre + "pattern_points", inst.sizes["pattern"])


def _count_write(counters, args, kwargs, result):
    directory = kwargs.get("directory", args[1] if len(args) > 1 else None)
    _bump(counters, "reduction.io.write_instance.bytes",
          sum(e.stat().st_size for e in os.scandir(directory) if e.is_file()))


# span name -> (defining module, attribute, modules that must also bind
# it, counter hook).  The span name is the defining module without the
# package prefix, so metric names follow the module names.
LAYERS = {
    "grid.find_gridding": ("gridppm.grid", "find_gridding",
                           ("gridppm.cli",), None),
    "grid.check_gridding": ("gridppm.grid", "check_gridding",
                            ("gridppm.matcher", "gridppm.reduction.checks",
                             "gridppm.cli"), _count_check_gridding),
    "grid.assemble": ("gridppm.grid", "assemble",
                      ("gridppm.reduction.builder",
                       "gridppm.reduction.checks"), _count_assemble),
    "grid.build_rich_path": ("gridppm.grid", "build_rich_path",
                             ("gridppm.reduction.builder", "gridppm.cli"),
                             None),
    "matcher.solve_cppm": ("gridppm.matcher", "solve_cppm",
                           ("gridppm.cli",), _count_solve),
    "matcher.extract_partition": ("gridppm.matcher", "extract_partition",
                                  (), None),
    "matcher.psi_embedding": ("gridppm.matcher", "psi_embedding", (),
                              _count_psi),
    "reduction.builder.reduce_formula": (
        "gridppm.reduction.builder", "reduce_formula",
        ("gridppm.reduction", "gridppm.reduction.io", "gridppm.cli"),
        _count_reduce),
    "reduction.builder.plan_layers": ("gridppm.reduction.builder",
                                      "plan_layers", ("gridppm.reduction",),
                                      None),
    "reduction.checks.validate_instance": (
        "gridppm.reduction.checks", "validate_instance",
        ("gridppm.reduction", "gridppm.cli"), None),
    "reduction.checks.simulate_grid_preserving": (
        "gridppm.reduction.checks", "simulate_grid_preserving",
        ("gridppm.reduction", "gridppm.cli"), None),
    "reduction.checks.embedding_from_assignment": (
        "gridppm.reduction.checks", "embedding_from_assignment",
        ("gridppm.reduction", "gridppm.cli"), None),
    "reduction.io.write_instance": ("gridppm.reduction.io", "write_instance",
                                    ("gridppm.reduction", "gridppm.cli"),
                                    _count_write),
    "reduction.io.read_instance_summary": (
        "gridppm.reduction.io", "read_instance_summary",
        ("gridppm.reduction", "gridppm.cli"), None),
    "reduction.io.rebuild_instance": ("gridppm.reduction.io",
                                      "rebuild_instance",
                                      ("gridppm.reduction", "gridppm.cli"),
                                      None),
    "sat.solve_sat": ("gridppm.sat", "solve_sat", ("gridppm.cli",), None),
}

# counters reported as hits / calls of the named span
RATIOS = {"grid.check_gridding.hit_ratio": "grid.check_gridding",
          "matcher.psi_embedding.hit_ratio": "matcher.psi_embedding"}

COUNTERS = ("matcher.solve_cppm.griddings_tried", "matcher.solve_cppm.clauses",
            "grid.assemble.points", "reduction.builder.gadgets",
            "reduction.builder.layers", "reduction.builder.tiles",
            "reduction.builder.text_core_points",
            "reduction.builder.pattern_points",
            "reduction.io.write_instance.bytes")


class Tracer:
    """Records spans as (op, span id, parent id, name, start, end)."""

    def __init__(self, clock=time.perf_counter):
        self.clock = clock
        self.spans = []
        self.counters = {}
        self._op = None
        self._stack = []
        self._next_id = 0
        self._restore = []

    # -- recording -----------------------------------------------------------

    def begin_op(self, op_id):
        self._op = op_id

    def end_op(self):
        self._op = None
        self._stack.clear()

    def wrap(self, name, fn, count=None):
        tracer = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if tracer._op is None:
                return fn(*args, **kwargs)
            span_id = tracer._next_id
            tracer._next_id += 1
            parent = tracer._stack[-1] if tracer._stack else None
            tracer._stack.append(span_id)
            start = tracer.clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = tracer.clock()
                tracer._stack.pop()
                tracer.spans.append((tracer._op, span_id, parent, name,
                                     start, end))
            if count is not None:
                count(tracer.counters, args, kwargs, result)
            return result

        return traced

    # -- installation --------------------------------------------------------

    def install(self, layers=LAYERS):
        """Rebind every gridppm module attribute that is a layer
        function.  Raises TracerGuardError, binding nothing, when a layer
        function is missing from a module that should bind it."""
        missing = []
        plan = []
        for name, (home, attr, importers, count) in layers.items():
            original = getattr(sys.modules.get(home), attr, None)
            if original is None:
                missing.append(f"{home}.{attr}")
                continue
            for mod in importers:
                if getattr(sys.modules.get(mod), attr, None) is not original:
                    missing.append(f"{mod}.{attr}")
            holders = [m for key, m in sorted(sys.modules.items())
                       if key.split(".")[0] == "gridppm"
                       and m is not None
                       and getattr(m, attr, None) is original]
            plan.append((name, attr, original, count, holders))
        if missing:
            raise TracerGuardError("layer functions not bound where "
                                   "expected: " + ", ".join(missing))
        for name, attr, original, count, holders in plan:
            wrapper = self.wrap(name, original, count)
            for mod in holders:
                setattr(mod, attr, wrapper)
                self._restore.append((mod, attr, original))

    def uninstall(self):
        while self._restore:
            mod, attr, original = self._restore.pop()
            setattr(mod, attr, original)

    # -- results -------------------------------------------------------------

    def write(self, path):
        with open(path, "w") as fh:
            for span in self.spans:
                fh.write(json.dumps(span) + "\n")


def self_times(spans):
    """Per span id: its duration minus the durations of its children."""
    own = {sid: end - start for _, sid, _, _, start, end in spans}
    for _, _, parent, _, start, end in spans:
        if parent is not None:
            own[parent] -= end - start
    return own


def layer_metrics(spans, counters, layers=LAYERS):
    """Per-layer ``self_ms`` and ``calls`` for every layer (zero when it
    never ran), the ratios in RATIOS and the counters in COUNTERS."""
    own = self_times(spans)
    out = {}
    for name in layers:
        out[name + ".self_ms"] = 0.0
        out[name + ".calls"] = 0
    for _, sid, _, name, _, _ in spans:
        out[name + ".self_ms"] += own[sid] * 1000.0
        out[name + ".calls"] += 1
    for key, layer in RATIOS.items():
        calls = out.get(layer + ".calls", 0)
        out[key] = counters.get(layer + ".hits", 0) / calls if calls else 0.0
    for key in COUNTERS:
        out[key] = counters.get(key, 0)
    return out
