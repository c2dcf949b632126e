"""Per-layer tracing from outside the program.

:class:`Tracing` wraps the public functions and methods listed in
:data:`TARGETS` with a span recorder.  A module-level function is
replaced in its defining module *and* in every loaded ``repro`` module
that imported the name (``from repro.cfg.builder import build_cfg``
leaves a second reference in the checker); a method is replaced on its
class.  Spans are kept in memory in flat arrays, one set per thread,
and turned into per-layer figures when tracing ends:

* a layer's **self time** is the summed duration of its spans minus the
  part of each span that its direct child spans cover;
* ``*_s`` figures that are not ``self_s`` (``units.lookup_s``,
  ``persist.get_s``, ...) are inclusive: the summed duration of the
  outermost span of that layer;
* a layer's ``calls`` are its outermost spans (a call from another
  layer; recursion and a layer's calls to itself are not counted);
* other counts come from hooks that look at a wrapped
  call's result (obligations generated, DNF conjuncts, induction
  successes, the ``prover_stats`` of every check).

The checker is not modified: spans start and end in this file, around
the calls into each layer.
"""

from __future__ import annotations

import functools
import gc
import importlib
import os
import sys
import threading
import time
from array import array
from typing import Callable, Dict, List, Optional, Tuple

#: (layer, module, attribute path) for every wrapped callable.  A dotted
#: attribute path names a method on a class.
TARGETS: Tuple[Tuple[str, str, str], ...] = (
    ("check", "repro.analysis.checker", "SafetyChecker.check"),
    ("frontend", "repro.sparc.assembler", "assemble"),
    ("frontend", "repro.riscv.assembler", "assemble"),
    ("frontend", "repro.sparc.decoder", "decode_program"),
    ("frontend", "repro.riscv.decoder", "decode_program"),
    ("frontend", "repro.sparc.lower", "lower_program"),
    ("frontend", "repro.riscv.lower", "lower_program"),
    ("cfg", "repro.cfg.builder", "build_cfg"),
    ("cfg", "repro.cfg.loops", "find_loops"),
    ("prepare", "repro.analysis.prepare", "prepare"),
    ("propagate", "repro.analysis.propagate", "propagate"),
    ("annotate", "repro.analysis.annotate", "annotate"),
    ("verify_local", "repro.analysis.verify", "verify_local"),
    ("obligations", "repro.analysis.obligations", "generate_obligations"),
    ("obligations", "repro.analysis.obligations", "prove_serial"),
    ("induction", "repro.analysis.induction", "InductionIteration.run"),
    ("wlp", "repro.analysis.wlp", "WlpTransfer.node_transfer"),
    ("forward", "repro.analysis.forward", "ForwardBounds.__init__"),
    ("forward", "repro.analysis.forward", "ForwardBounds.facts_at"),
    ("prover", "repro.logic.prover", "Prover.is_satisfiable"),
    ("prover", "repro.logic.incremental", "PrefixSession.satisfiable_with"),
    ("simplify", "repro.logic.simplify", "simplify"),
    ("dnf", "repro.logic.normalize", "to_dnf"),
    ("nnf", "repro.logic.normalize", "to_nnf"),
    ("omega", "repro.logic.omega", "satisfiable"),
    ("omega", "repro.logic.omega", "project"),
    ("canonical", "repro.logic.canonical", "canonicalize"),
    ("units.lookup", "repro.analysis.units", "UnitManager.lookup"),
    ("units.store", "repro.analysis.units", "UnitManager.store"),
    ("pipeline.lookup", "repro.analysis.units", "PipelineCache.lookup"),
    ("pipeline.store", "repro.analysis.units", "PipelineCache.store"),
    ("persist.get", "repro.logic.persist", "PersistentProverCache.get"),
    ("persist.get", "repro.logic.persist",
     "PersistentProverCache.get_unit"),
    ("persist.put", "repro.logic.persist", "PersistentProverCache.put"),
    ("persist.put", "repro.logic.persist",
     "PersistentProverCache.put_unit"),
    ("persist.flush", "repro.logic.persist",
     "PersistentProverCache.flush"),
    ("generate", "repro.fuzz.generator", "generate_sketch"),
    ("generate", "repro.fuzz.generator", "lower"),
    ("emulate", "repro.fuzz.oracle", "run_concrete"),
    ("compare_archs", "repro.fuzz.oracle", "compare_archs"),
)

LAYERS: Tuple[str, ...] = tuple(dict.fromkeys(t[0] for t in TARGETS))

#: ``prover_stats`` counters summed over every check, and the name each
#: is reported under.
STATS = (
    ("cache_hits", "prover.hits.raw"),
    ("canonical_cache_hits", "prover.hits.canonical"),
    ("conjunct_cache_hits", "prover.hits.conjunct"),
    ("persistent_cache_hits", "prover.hits.persistent"),
    ("difference_fast_path_hits", "prover.hits.diff"),
    ("resource_fallbacks", "prover.fallbacks"),
    ("unit_hits", "units.hits"),
    ("unit_misses", "units.misses"),
    ("unit_stores", "units.stores"),
    ("unit_aborts", "units.aborts"),
    ("unit_pipeline_hits", "pipeline.hits"),
)


def _check_hook(result, counts: Dict[str, float]) -> None:
    """Sum the check's ``prover_stats`` and keep the largest intern
    tables seen at the end of any check."""
    stats = getattr(result, "prover_stats", None) or {}
    for key, name in STATS:
        counts[name] = counts.get(name, 0) + stats.get(key, 0)
    formulas, terms = intern_sizes()
    counts["intern.formulas"] = max(counts.get("intern.formulas", 0),
                                    formulas)
    counts["intern.terms"] = max(counts.get("intern.terms", 0), terms)


def _len_hook(name: str):
    def hook(result, counts: Dict[str, float]) -> None:
        counts[name] = counts.get(name, 0) + len(result)
    return hook


def _induction_hook(result, counts: Dict[str, float]) -> None:
    counts["induction.successes"] = counts.get("induction.successes", 0) \
        + (1 if result.success else 0)


#: Result hooks, by (module, attribute path).
HOOKS: Dict[Tuple[str, str], Callable] = {
    ("repro.analysis.checker", "SafetyChecker.check"): _check_hook,
    ("repro.analysis.obligations", "generate_obligations"):
        _len_hook("obligations.count"),
    ("repro.logic.normalize", "to_dnf"): _len_hook("dnf.conjuncts"),
    ("repro.analysis.induction", "InductionIteration.run"):
        _induction_hook,
}


class _Spans:
    """One thread's spans: parallel arrays indexed by span number."""

    __slots__ = ("layer", "parent", "start", "dur", "stack", "counts")

    def __init__(self) -> None:
        self.layer = array("i")
        self.parent = array("i")
        self.start = array("d")
        self.dur = array("d")
        self.stack: List[int] = []
        self.counts: Dict[str, float] = {}


class Tracing:
    """Install the span recorder on entry, restore every original on
    exit.  ``metrics()`` then gives the per-layer figures."""

    def __init__(self) -> None:
        self._local = threading.local()
        self._stores: List[_Spans] = []
        self._lock = threading.Lock()
        self._patches: List[Tuple[object, str, object]] = []
        self._gc_started: Optional[float] = None
        self.gc_seconds = 0.0
        self.gc_collections = 0

    # -- recording ---------------------------------------------------------

    def _store(self) -> _Spans:
        store = getattr(self._local, "spans", None)
        if store is None:
            store = self._local.spans = _Spans()
            with self._lock:
                self._stores.append(store)
        return store

    def _wrap(self, fn: Callable, layer_id: int,
              hook: Optional[Callable]) -> Callable:
        perf_counter = time.perf_counter
        store_of = self._store

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            spans = store_of()
            index = len(spans.layer)
            spans.layer.append(layer_id)
            spans.parent.append(spans.stack[-1] if spans.stack else -1)
            spans.start.append(0.0)
            spans.dur.append(0.0)
            spans.stack.append(index)
            start = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                spans.dur[index] = perf_counter() - start
                spans.start[index] = start
                spans.stack.pop()
            if hook is not None:
                hook(result, spans.counts)
            return result

        traced.__perfbench_original__ = fn
        return traced

    def _gc_callback(self, phase: str, info: dict) -> None:
        if phase == "start":
            self._gc_started = time.perf_counter()
        elif self._gc_started is not None:
            self.gc_seconds += time.perf_counter() - self._gc_started
            self.gc_collections += 1
            self._gc_started = None

    def __enter__(self) -> "Tracing":
        self.install()
        return self

    def __exit__(self, *exc_info) -> None:
        self.uninstall()

    def install(self) -> None:
        for module_name in {module for _, module, _ in TARGETS}:
            importlib.import_module(module_name)
        for layer, module_name, path in TARGETS:
            module = sys.modules[module_name]
            hook = HOOKS.get((module_name, path))
            layer_id = LAYERS.index(layer)
            if "." in path:
                class_name, attr = path.split(".")
                owner = getattr(module, class_name)
                self._patch(owner, attr, self._wrap(
                    vars(owner)[attr], layer_id, hook))
                continue
            original = getattr(module, path)
            wrapper = self._wrap(original, layer_id, hook)
            for other in list(sys.modules.values()):
                name = getattr(other, "__name__", "") or ""
                if not (name == "repro" or name.startswith("repro.")):
                    continue
                for attr, value in list(vars(other).items()):
                    if value is original:
                        self._patch(other, attr, wrapper)
        gc.callbacks.append(self._gc_callback)

    def _patch(self, owner: object, attr: str, value: object) -> None:
        self._patches.append((owner, attr, vars(owner)[attr]))
        setattr(owner, attr, value)

    def uninstall(self) -> None:
        for owner, attr, original in reversed(self._patches):
            setattr(owner, attr, original)
        self._patches.clear()
        if self._gc_callback in gc.callbacks:
            gc.callbacks.remove(self._gc_callback)

    # -- reduction ---------------------------------------------------------

    def totals(self) -> Dict[str, float]:
        """Raw per-layer sums: ``<layer>.self``, ``<layer>.incl``,
        ``<layer>.calls`` (outermost spans), ``<layer>.spans`` (all)
        plus the hook counters and gc figures."""
        out: Dict[str, float] = {}
        for layer in LAYERS:
            out[layer + ".self"] = 0.0
            out[layer + ".incl"] = 0.0
            out[layer + ".calls"] = 0
            out[layer + ".spans"] = 0
        for spans in self._stores:
            # dur is appended last: every array has this many entries.
            count = len(spans.dur)
            child = array("d", bytes(8 * count))
            parent, dur, layer_of = spans.parent, spans.dur, spans.layer
            for i in range(count):
                p = parent[i]
                if p >= 0:
                    child[p] += dur[i]
            for i in range(count):
                name = LAYERS[layer_of[i]]
                out[name + ".self"] += dur[i] - child[i]
                out[name + ".spans"] += 1
                p = parent[i]
                if p < 0 or layer_of[p] != layer_of[i]:
                    out[name + ".calls"] += 1
                    out[name + ".incl"] += dur[i]
            for key, value in spans.counts.items():
                if key.startswith("intern."):
                    out[key] = max(out.get(key, 0), value)
                else:
                    out[key] = out.get(key, 0) + value
        out["gc.self"] = self.gc_seconds
        out["gc.collections"] = self.gc_collections
        return out

    def span_count(self) -> int:
        return sum(len(spans.layer) for spans in self._stores)

    def write(self, path: str) -> None:
        """Write every span as ``thread layer parent start dur`` lines
        (times in seconds, parent -1 for a root span)."""
        tmp = path + ".tmp"
        with open(tmp, "w") as out:
            out.write("thread\tlayer\tparent\tstart\tdur\n")
            for number, spans in enumerate(self._stores):
                for i in range(len(spans.layer)):
                    out.write("%d\t%s\t%d\t%.9f\t%.9f\n" % (
                        number, LAYERS[spans.layer[i]], spans.parent[i],
                        spans.start[i], spans.dur[i]))
        os.replace(tmp, path)


def layer_metrics(totals: Dict[str, float]
                  ) -> Dict[str, Tuple[float, str]]:
    """The reported per-layer metrics of one traced round, from
    :meth:`Tracing.totals`."""

    def t(key: str) -> float:
        return float(totals.get(key, 0.0))

    attempts = totals.get("induction.spans", 0)
    out: Dict[str, Tuple[float, str]] = {
        "frontend.self_s": (t("frontend.self"), "s"),
        "frontend.calls": (t("frontend.calls"), "count"),
        "cfg.self_s": (t("cfg.self"), "s"),
        "prepare.self_s": (t("prepare.self"), "s"),
        "propagate.self_s": (t("propagate.self"), "s"),
        "annotate.self_s": (t("annotate.self"), "s"),
        "verify_local.self_s": (t("verify_local.self"), "s"),
        "obligations.count": (t("obligations.count"), "count"),
        "obligations.self_s": (t("obligations.self"), "s"),
        "induction.calls": (t("induction.spans"), "count"),
        "induction.self_s": (t("induction.self"), "s"),
        "induction.success_ratio": (
            totals.get("induction.successes", 0) / attempts
            if attempts else 0.0, "ratio"),
        "wlp.calls": (t("wlp.calls"), "count"),
        "wlp.self_s": (t("wlp.self"), "s"),
        "forward.self_s": (t("forward.self"), "s"),
        "prover.calls": (t("prover.calls"), "count"),
        "prover.self_s": (t("prover.self"), "s"),
        "simplify.calls": (t("simplify.calls"), "count"),
        "simplify.self_s": (t("simplify.self"), "s"),
        "dnf.calls": (t("dnf.calls"), "count"),
        "dnf.self_s": (t("dnf.self"), "s"),
        "dnf.conjuncts": (t("dnf.conjuncts"), "count"),
        "nnf.self_s": (t("nnf.self"), "s"),
        "omega.calls": (t("omega.calls"), "count"),
        "omega.self_s": (t("omega.self"), "s"),
        "canonical.self_s": (t("canonical.self"), "s"),
        "units.lookup_s": (t("units.lookup.incl"), "s"),
        "units.store_s": (t("units.store.incl"), "s"),
        "pipeline.lookup_s": (t("pipeline.lookup.incl"), "s"),
        "pipeline.store_s": (t("pipeline.store.incl"), "s"),
        "persist.get_s": (t("persist.get.incl"), "s"),
        "persist.put_s": (t("persist.put.incl"), "s"),
        "persist.flush_s": (t("persist.flush.incl"), "s"),
        "persist.calls": (t("persist.get.calls") + t("persist.put.calls")
                          + t("persist.flush.calls"), "count"),
        "gc.self_s": (t("gc.self"), "s"),
        "gc.collections": (t("gc.collections"), "count"),
        "generate.self_s": (t("generate.self"), "s"),
        "emulate.calls": (t("emulate.calls"), "count"),
        "emulate.self_s": (t("emulate.self"), "s"),
        "compare_archs.self_s": (t("compare_archs.self"), "s"),
        "intern.formulas": (t("intern.formulas"), "count"),
        "intern.terms": (t("intern.terms"), "count"),
    }
    for _, name in STATS:
        out[name] = (t(name), "count")
    return out


def intern_sizes() -> Tuple[int, int]:
    from repro.logic.formula import formula_intern_table_size
    from repro.logic.terms import term_intern_table_size
    return formula_intern_table_size(), term_intern_table_size()


#: Per-layer metrics that only the service workload measures; the other
#: workloads report them as 0.
SERVICE_METRICS = (
    ("service.overhead_s.p50", "s"),
    ("service.dedup_hits", "count"),
    ("service.unit_hit_rate", "ratio"),
    ("service.retries_429", "count"),
)


def per_layer_units() -> Dict[str, str]:
    """Name -> unit of every metric a traced run reports."""
    units = {name: unit for name, (_, unit) in layer_metrics({}).items()}
    units.update(SERVICE_METRICS)
    units["host.ref_s"] = "s"
    units["trace.overhead"] = "ratio"
    return units


def traced_round(ctx, out, round_fn: Callable[[], None],
                 untraced_round_s: float) -> None:
    """Run one more whole round with every layer traced; store the
    per-layer metrics (of that round) in ``out.layers`` and the spans in
    the checkout's ``.perfbench/traces``.  *untraced_round_s* is the CPU
    time of one untraced round of the same run."""
    from perfbench.common import cpu_clock
    tracing = Tracing()
    with tracing:
        start = cpu_clock()
        round_fn()
        traced_round_s = cpu_clock() - start
    out.layers.update(layer_metrics(tracing.totals()))
    out.layers["trace.overhead"] = (traced_round_s / untraced_round_s,
                                    "ratio")
    out.detail["trace_spans"] = tracing.span_count()
    tracing.write(os.path.join(ctx.tracedir, ctx.workload + ".tsv"))
