"""Span tracing from outside the program.

The benchmark attributes time to the layers of ``repro`` by wrapping the
public callables at each layer boundary -- no code under ``src/`` knows
it is being traced.  A wrapper opens one span per call: layer, start,
end, and the span that was open when it started (its parent, per
thread).

Every span is folded into per-layer aggregates as it closes: calls,
*self* time (its duration minus the time its child spans cover) and
*total* time (outermost spans of the layer only, so a layer that
re-enters itself is not counted twice).  Self times of every layer plus
the time no span covers sum to the traced wall time.  The prover opens
millions of spans per proof, so the span records themselves are kept in
memory only up to ``SPAN_LOG_LIMIT`` (the first ones, in start order)
and written once, at the end of the run; the aggregates cover every
span.
"""

from __future__ import annotations

import gzip
import importlib
import json
import sys
import threading
import time
from typing import Callable, Dict, List, Tuple

#: layer -> the callables that mark its boundary, as (module, qualified
#: name) pairs.  Functions are re-bound under every ``repro`` module
#: attribute that holds them (so ``from x import f`` call sites see the
#: wrapper); methods and properties are re-bound on their class.
LAYERS: Dict[str, Tuple[Tuple[str, str], ...]] = {
    "lang.parse": (("repro.lang.parser", "parse_package"),),
    "lang.analyze": (("repro.lang.typecheck", "analyze"),),
    "lang.print": (("repro.lang.printer", "print_package"),),
    "vcgen.examine": (("repro.vcgen.examiner", "Examiner.examine"),),
    "vcgen.simplify": (("repro.vcgen.simplifier", "Simplifier.simplify"),),
    "logic.normalize": (("repro.logic.rewriter", "Rewriter.normalize"),),
    "prover.auto": (("repro.prover.auto", "AutoProver.prove"),
                    ("repro.prover.auto", "AutoProver.prove_obligation")),
    "prover.cc": (("repro.prover.congruence",
                   "CongruenceClosure.contradiction"),
                  ("repro.prover.congruence",
                   "CongruenceClosure.are_equal"),
                  ("repro.prover.congruence",
                   "CongruenceClosure.are_disequal")),
    "prover.linarith": (("repro.prover.linarith", "harvest_env"),
                        ("repro.prover.linarith", "env_decide"),
                        ("repro.prover.linarith", "build_dbm")),
    "prover.tactics": (("repro.prover.tactics",
                        "InteractiveProver.run_script"),),
    "metrics.complexity": (("repro.metrics.complexity",
                            "complexity_metrics"),),
    "metrics.elements": (("repro.metrics.elements", "element_metrics"),),
    "metrics.structure": (("repro.metrics.structure",
                           "package_architecture"),),
    "plan.enumerate": (("repro.plan.candidates", "enumerate_candidates"),),
    "plan.evaluate": (("repro.plan.scoring", "evaluate_candidate"),),
    "plan.validate": (("repro.plan.search", "Planner._validate"),),
    "refactor.apply": (("repro.refactor.engine", "RefactoringEngine.apply"),),
    # ``differential_check`` is the public entry; the refactoring engine
    # runs its trials through ``_compare`` directly.
    "equiv.differential": (("repro.equiv.differential",
                            "differential_check"),
                           ("repro.equiv.differential", "_compare")),
    "exec.run": (("repro.exec.scheduler", "ObligationScheduler.run"),),
    "incr.plan": (("repro.incr.plan", "plan_incremental"),),
    "serve.execute": (("repro.serve.service", "execute_request"),),
}

#: Useful-outcome classifiers, for the layers that report a ratio of
#: useful outcomes to calls.
OUTCOMES: Dict[str, Callable[[object], bool]] = {
    "vcgen.simplify": lambda result: bool(result.discharged),
    "plan.evaluate": lambda result: bool(result.get("applicable")),
    "plan.validate": lambda result: bool(result),
}

#: Span records kept for the span file; the aggregates count every span.
SPAN_LOG_LIMIT = 200_000


class Tracer:
    """Collects spans while ``active``; a pass-through otherwise."""

    def __init__(self):
        self.active = False
        self.names: List[str] = list(LAYERS)
        n = len(self.names)
        self.calls = [0] * n
        self.self_s = [0.0] * n
        self.total_s = [0.0] * n
        self.ok = [0] * n
        self.span_count = 0
        #: ``[layer, start, end, parent]`` for the first spans.
        self.spans: List[list] = []
        self._local = threading.local()
        self._lock = threading.Lock()
        self._patches: List[Tuple[object, str, object]] = []

    # -- wrapping -----------------------------------------------------------

    def _wrap(self, layer: str, fn):
        layer_id = self.names.index(layer)
        classify = OUTCOMES.get(layer)
        clock = time.perf_counter
        tracer = self

        def traced(*args, **kwargs):
            if not tracer.active:
                return fn(*args, **kwargs)
            local = tracer._local
            stack = getattr(local, "stack", None)
            if stack is None:
                stack = local.stack = []
                local.open = [0] * len(tracer.names)
            # frame: [layer, start, time covered by children, log index]
            with tracer._lock:
                tracer.span_count += 1
                logged = len(tracer.spans) < SPAN_LOG_LIMIT
                index = len(tracer.spans) if logged else -1
                if logged:
                    tracer.spans.append(
                        [layer_id, 0.0, 0.0, stack[-1][3] if stack else -1])
            frame = [layer_id, 0.0, 0.0, index]
            stack.append(frame)
            local.open[layer_id] += 1
            frame[1] = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                local.open[layer_id] -= 1
                duration = end - frame[1]
                if stack:
                    stack[-1][2] += duration
                with tracer._lock:
                    tracer.calls[layer_id] += 1
                    tracer.self_s[layer_id] += duration - frame[2]
                    if not local.open[layer_id]:
                        tracer.total_s[layer_id] += duration
                    if index >= 0:
                        tracer.spans[index][1:3] = [frame[1], end]
            if classify is not None and classify(result):
                with tracer._lock:
                    tracer.ok[layer_id] += 1
            return result

        traced.__wrapped__ = fn
        traced.__name__ = getattr(fn, "__name__", layer)
        traced.__qualname__ = getattr(fn, "__qualname__", layer)
        return traced

    def install(self) -> None:
        """Re-bind every boundary callable to its wrapper."""
        for layer, targets in LAYERS.items():
            for module_name, qualname in targets:
                module = importlib.import_module(module_name)
                owner_name, _, attr = qualname.rpartition(".")
                if owner_name:
                    owner = getattr(module, owner_name)
                    original = owner.__dict__[attr]
                    if isinstance(original, property):
                        wrapper = property(self._wrap(layer, original.fget),
                                           original.fset, original.fdel,
                                           original.__doc__)
                    else:
                        wrapper = self._wrap(layer, original)
                    self._patch(owner, attr, wrapper)
                    continue
                original = getattr(module, attr)
                wrapper = self._wrap(layer, original)
                for other in list(sys.modules.values()):
                    if not getattr(other, "__name__", "").startswith("repro"):
                        continue
                    for name, value in list(vars(other).items()):
                        if value is original:
                            self._patch(other, name, wrapper)

    def _patch(self, owner, attr: str, value) -> None:
        self._patches.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, value)

    def uninstall(self) -> None:
        for owner, attr, original in reversed(self._patches):
            setattr(owner, attr, original)
        self._patches.clear()

    # -- results ------------------------------------------------------------

    def layer_table(self, wall_seconds: float) -> Dict[str, dict]:
        """Per layer: calls, total and self seconds, and the useful-outcome
        count where the layer has one; plus an ``unattributed`` row, so
        that the self times and it sum to ``wall_seconds``."""
        table = {}
        for layer_id, name in enumerate(self.names):
            row = {"calls": self.calls[layer_id],
                   "total_s": self.total_s[layer_id],
                   "self_s": self.self_s[layer_id]}
            if name in OUTCOMES:
                row["ok"] = self.ok[layer_id]
            table[name] = row
        rest = wall_seconds - sum(self.self_s)
        table["unattributed"] = {"calls": 0, "total_s": rest, "self_s": rest}
        return table

    def write_spans(self, path) -> None:
        """Write the kept spans once, gzip-compressed JSON: the layer
        names, ``[layer index, start, end, parent index]`` rows, and how
        many spans there were in all."""
        with gzip.open(path, "wt", encoding="utf-8", compresslevel=1) as out:
            json.dump({"names": self.names, "spans": self.spans,
                       "span_count": self.span_count}, out)


def calibrate(samples: int = 20000) -> float:
    """Seconds one traced call adds over an untraced one (median of five
    batches): the cost model behind the overhead estimate."""
    tracer = Tracer()
    tracer.active = True

    def noop():
        return None

    wrapped = tracer._wrap("lang.parse", noop)
    costs = []
    for _ in range(5):
        start = time.perf_counter()
        for _ in range(samples):
            wrapped()
        traced = time.perf_counter() - start
        start = time.perf_counter()
        for _ in range(samples):
            noop()
        plain = time.perf_counter() - start
        costs.append((traced - plain) / samples)
    costs.sort()
    return costs[len(costs) // 2]
