"""Proof-obligation payloads: the one definition of each obligation's work.

A payload names exactly the inputs a discharge depends on (the typed
package, VC term and prover configuration; the equivalence-trial
initial state and program pair; the lemma identity and theories) and
its :meth:`~ObligationPayload.run` performs the discharge.  Every
backend runs the same ``run``: the serial backend calls it inline, the
process and remote backends pickle the payload to a worker and call it
there.

Payload fields are the caller's *live* objects, so an inline run
re-analyzes and re-warms nothing.  The heavy ones pickle as their
rebuildable form:

* a :class:`~repro.lang.typecheck.TypedPackage` pickles as (fingerprint,
  AST) and is analyzed once per receiving process (a bounded memo keyed
  by the fingerprint);
* a :class:`~repro.logic.normcache.NormalizationCache` pickles as the
  receiving process's :func:`~repro.logic.normcache.default_norm_cache`;
* a :class:`TheoryPair` (the implication proof's map, lemmas and
  evaluators) pickles as its two theories and is rebuilt once per
  receiving process (a bounded memo keyed by the theory fingerprints);
* a :class:`HotpathTally` pickles as an empty tally, so prover counters
  folded in a worker stay there.

MiniAda and MiniPVS ASTs are pure dataclass trees, and logic terms route
through the structural wire format of :mod:`repro.logic.wire`, which
re-interns them in the worker so hash-consing identity (``__eq__ is
is``) holds there exactly as it does in the parent.  Reconstruction is
deterministic -- ``analyze`` of the same AST, ``build_map``/
``generate_lemmas`` of the same theories -- so a payload run in a worker
produces the result an inline run produces.

Results travel back through ``encode_result`` (worker-side: map the raw
value onto picklable plain data, with the codecs the on-disk cache layer
uses where those exist) and the obligation's own ``decode``
(parent-side), so e.g. a lemma outcome is re-attached to the *caller's*
lemma object exactly as a disk-cache replay would be.  The serial
backend takes the same round trip, so every backend lands identical
values.
"""

from __future__ import annotations

import os
from collections import OrderedDict
from dataclasses import dataclass
from typing import Any, Callable, Optional, Tuple

__all__ = [
    "ObligationPayload", "VCPayload", "EquivTrialPayload", "LemmaPayload",
    "CallPayload", "BatchPayload", "HotpathTally", "TheoryPair",
]


class ObligationPayload:
    """One schedulable unit of proof work.

    Subclasses implement :meth:`run` and may override
    :meth:`encode_result`.  Instances must be picklable; keep fields to
    ASTs, terms, strings, numbers and the live objects listed in the
    module docstring.

    Execution semantics are **at-least-once**: crash recovery
    (DESIGN.md §12) re-ships a payload whose worker died, and the retry
    policy re-runs one that raised transiently, so :meth:`run` must be
    idempotent -- a pure function of the payload's fields, like every
    proof discharge is.  A payload that kills its worker outright
    (``os._exit``, a segfaulting extension) is blamed, re-verified solo,
    and quarantined with a ``crashed`` outcome if it kills again; it
    cannot abort the surrounding run.
    """

    def run(self) -> Any:
        raise NotImplementedError

    def encode_result(self, value: Any) -> Any:
        """Map the raw result onto picklable plain data; the
        obligation's ``decode`` (if any) is the inverse."""
        return value


# The process backend forks workers from a parent that may hold the
# interning-table lock on another thread at fork time; give the child a
# fresh lock (its private table copy has no other threads) so decoding
# terms in the worker can never inherit a forever-held lock.
def _reinit_locks_after_fork() -> None:
    import threading

    from ..logic.terms import term_table
    term_table._lock = threading.Lock()


if hasattr(os, "register_at_fork"):
    os.register_at_fork(after_in_child=_reinit_locks_after_fork)


# ---------------------------------------------------------------------------
# VC discharge
# ---------------------------------------------------------------------------

class HotpathTally(dict):
    """subprogram -> rewriting counters summed over the provers that
    retired in this process.  Pickles as an empty tally: the session's
    report counts in-process provers only, and a worker's counters die
    with it."""

    def __reduce__(self):
        return (HotpathTally, ())

    def fold(self, subprogram: str, prover) -> None:
        acc = self.setdefault(subprogram, {
            "index_hits": 0, "index_skipped_rules": 0, "cross_vc_hits": 0})
        for key, value in prover.hotpath_counters().items():
            acc[key] += value


@dataclass(frozen=True)
class VCPayload(ObligationPayload):
    """Discharge of one verification condition: the automatic prover
    first, then the subprogram's interactive proof scripts in order.

    Provers are constructed *per VC*: an instance accumulates search
    history (fresh-name counters, per-term memos) that would make this
    VC's verdict depend on which siblings ran earlier on the same
    instance -- and every backend and farm shape sees a different
    sibling history, so per-VC construction is what keeps verdicts
    bit-identical everywhere.  ``norm_cache`` stays shared: a cached
    normal form is a pure function of (rules, term), so warmth moves
    wall clock, never verdicts.  Retired provers' counters fold into
    ``hotpath``.
    """

    typed: Any                     # repro.lang.typecheck.TypedPackage
    subprogram: str
    term: Any                      # repro.logic.terms.Term
    scripts: Tuple[Any, ...]       # repro.prover.tactics.ProofScript
    auto_timeout: Optional[float]
    norm_cache: Any                # repro.logic.NormalizationCache
    hotpath: HotpathTally

    def run(self):
        from ..prover.auto import AutoProver
        from ..prover.tactics import InteractiveProver
        auto = AutoProver(self.typed, subprogram_name=self.subprogram,
                          timeout_seconds=self.auto_timeout,
                          shared=self.norm_cache)
        result = auto.prove(self.term)
        self.hotpath.fold(self.subprogram, auto)
        if result.proved:
            return "auto", result
        if not self.scripts:
            return "undischarged", None
        interactive = InteractiveProver(self.typed,
                                        subprogram_name=self.subprogram,
                                        shared=self.norm_cache)
        try:
            for script in self.scripts:
                result = interactive.run_script(self.term, script)
                if result.proved:
                    return "interactive", result
            return "undischarged", result
        finally:
            self.hotpath.fold(self.subprogram, interactive.auto)

    def encode_result(self, value):
        from .obligation import _encode_vc_result
        return _encode_vc_result(value)


# ---------------------------------------------------------------------------
# Equivalence trials
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class EquivTrialPayload(ObligationPayload):
    """One differential trial: run both program versions from ``initial``
    (a tuple of state items) and compare final states.  The result (a
    :class:`~repro.equiv.differential.Counterexample` or None) is plain
    frozen data and pickles as-is."""

    left: Any                      # repro.lang.typecheck.TypedPackage
    right: Any
    left_name: str
    right_name: str
    initial: Tuple[Tuple[str, Any], ...]

    def run(self):
        from ..equiv.differential import _compare
        return _compare(self.left, self.left_name, self.right,
                        self.right_name, dict(self.initial))


# ---------------------------------------------------------------------------
# Implication lemmas
# ---------------------------------------------------------------------------

#: Theory pairs rebuilt from pickles, most recently used last.
_THEORY_PAIRS: "OrderedDict[Tuple[str, str], TheoryPair]" = OrderedDict()
#: Bound on :data:`_THEORY_PAIRS`: one implication proof ships one pair.
THEORY_PAIRS_PER_PROCESS = 4


class TheoryPair:
    """An implication proof's shared context for one (original,
    extracted) theory pair: the architectural map, the generated lemmas
    (in order, and by name) and one evaluator pair.  Pickles as its two
    theories; the receiving process rebuilds it deterministically, once
    per fingerprint pair."""

    def __init__(self, original, extracted):
        from ..extract.mapper import build_map
        from ..implication.lemmas import generate_lemmas
        from ..spec import SpecEvaluator
        self.original = original
        self.extracted = extracted
        self.amap = build_map(original, extracted)
        self.lemmas = generate_lemmas(original, self.amap)
        self.by_name = {lemma.name: lemma for lemma in self.lemmas}
        self.orig_eval = SpecEvaluator(original)
        self.ext_eval = SpecEvaluator(extracted)

    def __reduce__(self):
        from .cache import theory_fingerprint
        return (_unpickle_theory_pair,
                (theory_fingerprint(self.original),
                 theory_fingerprint(self.extracted),
                 self.original, self.extracted))


def _unpickle_theory_pair(original_fp: str, extracted_fp: str,
                          original, extracted) -> TheoryPair:
    key = (original_fp, extracted_fp)
    pair = _THEORY_PAIRS.get(key)
    if pair is None:
        pair = _THEORY_PAIRS[key] = TheoryPair(original, extracted)
        while len(_THEORY_PAIRS) > THEORY_PAIRS_PER_PROCESS:
            _THEORY_PAIRS.popitem(last=False)
    else:
        _THEORY_PAIRS.move_to_end(key)
    return pair


@dataclass(frozen=True)
class LemmaPayload(ObligationPayload):
    """One implication-lemma discharge, identified by lemma name within
    a :class:`TheoryPair`."""

    theories: TheoryPair
    lemma_name: str
    seed: int

    def run(self):
        from ..implication.prover import discharge_lemma
        pair = self.theories
        lemma = pair.by_name.get(self.lemma_name)
        if lemma is None:
            raise KeyError(f"lemma {self.lemma_name!r} not generated for "
                           f"this theory pair")
        return discharge_lemma(lemma, pair.original, pair.extracted,
                               pair.amap, pair.orig_eval, pair.ext_eval,
                               seed=self.seed)

    def encode_result(self, value):
        from .obligation import _encode_lemma_outcome
        return _encode_lemma_outcome(value)


# ---------------------------------------------------------------------------
# Batched dispatch
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class BatchPayload:
    """The dispatch unit: K obligations, K >= 1 (DESIGN.md §18).

    A batch is *not* an obligation -- it is a transport envelope the
    scheduler wraps around one or more already-admitted obligations so
    they share one pickle/wire/lease round trip; a solo obligation is a
    batch of one.  Each entry is ``(index, payload, token, cache_key)``:
    the scheduler's obligation index, the item's
    :class:`ObligationPayload`, the per-item alarm token, and the item's
    cache key (``None`` when uncacheable; remote workers use keys for
    their local and shared cache tiers, the process backend ignores
    them).  Because one batch's items typically share a typed package,
    pickling the envelope serializes it once.

    Per-item semantics are preserved: the worker runs each entry through
    its own timeout/retry machinery and returns one result tuple per
    entry, so timeouts, retries, and fault blame stay attributable to
    individual obligations.
    """

    entries: Tuple[Tuple[int, Any, str, Optional[Any]], ...]

    def __len__(self) -> int:
        return len(self.entries)


# ---------------------------------------------------------------------------
# Generic function-call payload
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class CallPayload(ObligationPayload):
    """Apply a function to arguments.

    The payload for custom obligations (the planner's candidate
    evaluations among them).  To ride the parallel backends, ``fn`` must
    be importable by qualified name and the arguments picklable
    (pickling a lambda or inner function fails at submission time,
    loudly); the serial backend takes any callable.
    """

    fn: Callable[..., Any]
    args: Tuple[Any, ...] = ()
    kwargs: Tuple[Tuple[str, Any], ...] = ()

    def run(self):
        return self.fn(*self.args, **dict(self.kwargs))
