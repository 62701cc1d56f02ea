"""A budgeted, memoizing rewrite engine over hash-consed terms.

This is the computational core of our SPARK-Simplifier substitute: the
simplifier in :mod:`repro.vcgen.simplifier` is this engine loaded with the
rule families from :mod:`repro.logic.rules`.

Rewriting is bottom-up with a per-node fixpoint, memoized across the DAG (a
shared subterm is normalized once no matter how many tree occurrences it
has).  All work is counted; an optional budget turns resource exhaustion into
a :class:`RewriteBudgetExceeded` exception, which the examiner maps to the
paper's "the VCs were too complicated to be handled by the SPARK tools".

The traversal is **iterative** (see :mod:`repro.logic.traversal`): the
engine runs on worker threads (the serve daemon's, a library caller's
own), whose C stacks cannot absorb term-deep native recursion.
Normalization depth is therefore bounded by heap, not by the interpreter
stack, and no recursion-limit escape hatch exists anywhere in the
package.

Two hot-path optimizations sit on top (DESIGN.md §13), both off-switchable
back to the retained linear-scan reference:

* **Head-op rule indexing** -- every :class:`Rule` may declare the
  frozenset of root operators it can fire on; the rewriter builds an
  ``op -> (candidate rules)`` dispatch table at construction (rules
  without a declaration land in an always-checked wildcard bucket), so a
  fixpoint iteration scans only the rules that could possibly apply.
  Rule order is preserved within each bucket, so the chosen rule -- and
  therefore every normal form, memo entry, and work count -- is identical
  to the linear scan's.  ``index=False`` (or ``REPRO_REWRITE_INDEX=0``)
  selects the original scan-all-rules path.

* **Cross-obligation sharing** -- an optional ``shared`` scope (see
  :mod:`repro.logic.normcache`) consulted by canonical fingerprint before
  a subterm is expanded and published once its fixpoint converges, so
  formula structure shared between VCs normalizes once per session
  instead of once per VC.
"""

from __future__ import annotations

import os
from dataclasses import dataclass, field
from typing import Callable, Dict, FrozenSet, List, Optional, Sequence, Tuple

from .substitute import rebuild_smart
from .terms import Term

__all__ = ["Rule", "Rewriter", "RewriteStats", "RewriteBudgetExceeded"]

_MAX_FIXPOINT_ITERS = 64

#: Explicit-stack DFS frame states for :meth:`Rewriter.normalize`.
#: ``_EXPAND`` visits a node for the first time (charge it, queue its
#: children); ``_REBUILD`` runs once the children are memoized (rebuild
#: through the smart constructors, then fixpoint); ``_RESUME`` continues a
#: fixpoint that was suspended to normalize a rule's replacement term.
_EXPAND, _REBUILD, _RESUME = 0, 1, 2

#: Work units charged when a per-node fixpoint exhausts its iteration
#: budget (the node is memoized possibly-not-normal; see
#: :attr:`RewriteStats.fixpoint_exhausted`).  Deliberately expensive: an
#: exhausted fixpoint did ``_MAX_FIXPOINT_ITERS`` rule applications'
#: worth of spinning without converging.
_FIXPOINT_EXHAUSTED_COST = 4 * _MAX_FIXPOINT_ITERS


class RewriteBudgetExceeded(Exception):
    """Raised when rewriting exceeds its work budget."""


@dataclass
class Rule:
    """A named rewrite rule.

    ``fn`` returns a replacement term, or ``None`` when the rule does not
    apply.  ``family`` groups rules for the ablation benchmarks (bounds /
    boolean / equality / arrays).  ``ops``, when given, is the exact set
    of root operators the rule can fire on -- ``fn`` must return ``None``
    for every term whose op is outside it -- and feeds the rewriter's
    head-op dispatch table; ``None`` means "may fire on anything"
    (wildcard bucket, checked at every node).
    """

    name: str
    family: str
    fn: Callable[[Term], Optional[Term]]
    ops: Optional[FrozenSet[str]] = None

    def __call__(self, term: Term) -> Optional[Term]:
        return self.fn(term)


@dataclass
class RewriteStats:
    nodes_visited: int = 0
    rules_applied: int = 0
    applications_by_rule: Dict[str, int] = field(default_factory=dict)
    #: Per-node fixpoints that hit ``_MAX_FIXPOINT_ITERS`` without
    #: converging.  The node is memoized as-is even though it may still be
    #: reducible; a nonzero count means normal forms are best-effort and
    #: the examiner surfaces it rather than silently absorbing it.
    fixpoint_exhausted: int = 0
    #: Dispatch-table consultations that pruned the candidate rule list
    #: (instrumentation only: excluded from ``work`` and from equality so
    #: indexed and linear-scan runs compare bit-identical).
    index_hits: int = field(default=0, compare=False)
    #: Rules the dispatch table never scanned because the node's root
    #: operator ruled them out.
    index_skipped_rules: int = field(default=0, compare=False)
    #: Subterms whose normal form came from the cross-obligation shared
    #: cache instead of being recomputed.
    cross_vc_hits: int = field(default=0, compare=False)

    @property
    def work(self) -> int:
        """Deterministic work units (the paper's 'analysis time' proxy)."""
        return (self.nodes_visited + 4 * self.rules_applied
                + _FIXPOINT_EXHAUSTED_COST * self.fixpoint_exhausted)


def _index_default() -> bool:
    """Head-op indexing defaults on; ``REPRO_REWRITE_INDEX=0`` restores
    the linear scan (read at construction time so process-pool workers
    inherit the differential harness's choice through the environment)."""
    return os.environ.get("REPRO_REWRITE_INDEX", "1") != "0"


class Rewriter:
    """Bottom-up fixpoint rewriter with DAG memoization and a work budget."""

    def __init__(self, rules: Sequence[Rule], max_work: Optional[int] = None,
                 *, index: Optional[bool] = None, shared=None):
        """``index`` selects head-op dispatch (None: the
        ``REPRO_REWRITE_INDEX`` environment default).  ``shared`` is an
        optional cross-obligation scope (:meth:`repro.logic.normcache
        .NormalizationCache.scope`) consulted by canonical fingerprint;
        it must be keyed to this exact rule set."""
        self.rules: List[Rule] = list(rules)
        self.max_work = max_work
        self.stats = RewriteStats()
        self._memo: Dict[int, Term] = {}
        self.indexed = _index_default() if index is None else bool(index)
        self._shared = shared
        # The dispatch table: op -> tuple of candidate rules, in rule-list
        # order (wildcard rules appear in every bucket).  Built eagerly
        # for every declared op; ops first seen during rewriting fall back
        # to the wildcard bucket via _bucket().
        self._wildcard: Tuple[Rule, ...] = tuple(
            r for r in self.rules if r.ops is None)
        self._dispatch: Dict[str, Tuple[Rule, ...]] = {}
        if self.indexed:
            declared = set()
            for rule in self.rules:
                if rule.ops is not None:
                    declared.update(rule.ops)
            for op in declared:
                self._dispatch[op] = tuple(
                    r for r in self.rules
                    if r.ops is None or op in r.ops)

    def _bucket(self, op: str) -> Tuple[Rule, ...]:
        """Candidate rules for a root operator never seen at construction:
        no rule declared it, so only wildcard rules can fire."""
        bucket = self._wildcard
        self._dispatch[op] = bucket
        return bucket

    def _charge(self, nodes: int = 0, applications: int = 0,
                rule: str = None, exhausted: int = 0):
        self.stats.nodes_visited += nodes
        self.stats.rules_applied += applications
        self.stats.fixpoint_exhausted += exhausted
        if rule is not None:
            by_rule = self.stats.applications_by_rule
            by_rule[rule] = by_rule.get(rule, 0) + applications
        if self.max_work is not None and self.stats.work > self.max_work:
            raise RewriteBudgetExceeded(
                f"rewrite work {self.stats.work} exceeded budget {self.max_work}"
            )

    def normalize(self, term: Term) -> Term:
        """Return the normal form of ``term`` under this rewriter's rules.

        Dispatches to the indexed fast path or to the retained
        linear-scan reference; both produce identical normal forms, memo
        contents, and work counts (the differential gate in
        ``tests/test_logic_rewriting.py`` pins this over the full AES VC
        corpus).
        """
        if self.indexed:
            return self._normalize_indexed(term)
        return self._normalize_linear(term)

    # -- linear-scan reference path ------------------------------------------

    def _normalize_linear(self, term: Term) -> Term:
        """The original engine: every fixpoint iteration scans the full
        rule list.  Kept verbatim as the differential reference for the
        indexed path (and selectable via ``REPRO_REWRITE_INDEX=0``).

        The traversal is an explicit-stack DFS over the DAG -- the exact
        recursion structure of the classic algorithm (preorder charging,
        left-to-right children, postorder rebuild, per-node fixpoint with
        suspension when a replacement needs normalizing first), so memo
        contents, term-creation order, and stats are bit-identical to the
        recursive formulation while depth is bounded by heap only.
        """
        memo = self._memo
        hit = memo.get(term._id)
        if hit is not None:
            return hit
        stack = [(_EXPAND, term, None)]
        while stack:
            state, node, pending = stack.pop()
            if state == _EXPAND:
                if node._id in memo:
                    continue
                self._charge(nodes=1)
                if node.args:
                    stack.append((_REBUILD, node, None))
                    for a in reversed(node.args):
                        if a._id not in memo:
                            stack.append((_EXPAND, a, None))
                    continue
                suspended = self._fixpoint(node, node, _MAX_FIXPOINT_ITERS)
            elif state == _REBUILD:
                # Always rebuild through the smart constructors: terms
                # built with the raw constructor (e.g. by shape-preserving
                # substitution in the WP calculus) fold only here.
                current = rebuild_smart(
                    node.op, tuple(memo[a._id] for a in node.args),
                    node.value)
                if current is not node and current._id in memo:
                    memo[node._id] = memo[current._id]
                    continue
                suspended = self._fixpoint(node, current,
                                           _MAX_FIXPOINT_ITERS)
            else:  # _RESUME: the suspended replacement is normalized now.
                replacement, iters = pending
                suspended = self._fixpoint(node, memo[replacement._id],
                                           iters)
            if suspended is not None:
                stack.append((_RESUME, node, suspended))
                stack.append((_EXPAND, suspended[0], None))
        return memo[term._id]

    def _fixpoint(self, node: Term, current: Term, iters: int):
        """Drive ``node``'s rewrite fixpoint starting from ``current``.

        Returns ``None`` once ``node`` is memoized, or ``(replacement,
        iters_left)`` to suspend so the caller can normalize a freshly
        built replacement -- its spine may expose further redexes even
        though its leaves are already normal -- before resuming.
        """
        memo = self._memo
        while iters:
            iters -= 1
            replacement = self._apply_one(current)
            if replacement is None:
                break
            if replacement._id in memo:
                current = memo[replacement._id]
            elif replacement.args and any(
                a._id not in memo or memo[a._id] is not a
                for a in replacement.args
            ):
                return replacement, iters
            else:
                current = replacement
        else:
            # The fixpoint did not converge: memoizing ``current`` below
            # caches a possibly-reducible term as "normal".  Count it and
            # charge the budget so the overrun shows up in the examiner
            # report (or trips RewriteBudgetExceeded) instead of hiding.
            self._charge(exhausted=1)
        memo[node._id] = current
        memo[current._id] = current
        return None

    def _apply_one(self, term: Term) -> Optional[Term]:
        for rule in self.rules:
            result = rule(term)
            if result is not None and result is not term:
                self._charge(applications=1, rule=rule.name)
                return result
        return None

    # -- indexed fast path ---------------------------------------------------

    def _normalize_indexed(self, term: Term) -> Term:
        """Same DFS, same charges, same memo writes as
        :meth:`_normalize_linear`, but each fixpoint consults only the
        dispatch bucket for the node's root operator -- and a node whose
        bucket is empty skips the fixpoint machinery entirely (no rule
        could fire; the memo writes below are exactly the ones an empty
        fixpoint run performs).  When a ``shared`` scope is attached,
        compound subterms are looked up by canonical fingerprint before
        expansion and published once converged.
        """
        memo = self._memo
        hit = memo.get(term._id)
        if hit is not None:
            return hit
        dispatch = self._dispatch
        stats = self.stats
        nrules = len(self.rules)
        shared = self._shared
        if shared is not None:
            from .canon import fingerprint
        stack = [(_EXPAND, term, None)]
        while stack:
            state, node, pending = stack.pop()
            if state == _EXPAND:
                if node._id in memo:
                    continue
                if shared is not None and node.args:
                    cached = shared.get(fingerprint(node))
                    if cached is not None:
                        stats.cross_vc_hits += 1
                        memo[node._id] = cached
                        memo[cached._id] = cached
                        continue
                self._charge(nodes=1)
                if node.args:
                    stack.append((_REBUILD, node, None))
                    for a in reversed(node.args):
                        if a._id not in memo:
                            stack.append((_EXPAND, a, None))
                    continue
                bucket = dispatch.get(node.op)
                if bucket is None:
                    bucket = self._bucket(node.op)
                if not bucket:
                    stats.index_hits += 1
                    stats.index_skipped_rules += nrules
                    memo[node._id] = node
                    continue
                suspended = self._fixpoint_indexed(
                    node, node, _MAX_FIXPOINT_ITERS)
            elif state == _REBUILD:
                current = rebuild_smart(
                    node.op, tuple(memo[a._id] for a in node.args),
                    node.value)
                if current is not node and current._id in memo:
                    result = memo[current._id]
                    memo[node._id] = result
                    if shared is not None:
                        shared.put(fingerprint(node), result)
                    continue
                bucket = dispatch.get(current.op)
                if bucket is None:
                    bucket = self._bucket(current.op)
                if not bucket:
                    stats.index_hits += 1
                    stats.index_skipped_rules += nrules
                    memo[node._id] = current
                    memo[current._id] = current
                    if shared is not None:
                        shared.put(fingerprint(node), current)
                    continue
                suspended = self._fixpoint_indexed(node, current,
                                                   _MAX_FIXPOINT_ITERS)
            else:  # _RESUME
                replacement, iters = pending
                suspended = self._fixpoint_indexed(
                    node, memo[replacement._id], iters)
            if suspended is not None:
                stack.append((_RESUME, node, suspended))
                stack.append((_EXPAND, suspended[0], None))
            elif shared is not None and node.args:
                shared.put(fingerprint(node), memo[node._id])
        return memo[term._id]

    def _fixpoint_indexed(self, node: Term, current: Term, iters: int):
        """:meth:`_fixpoint` with the rule scan replaced by a dispatch
        lookup.  The bucket preserves rule-list order, so the first rule
        that fires is the same rule the linear scan would have chosen."""
        memo = self._memo
        dispatch = self._dispatch
        stats = self.stats
        nrules = len(self.rules)
        while iters:
            iters -= 1
            bucket = dispatch.get(current.op)
            if bucket is None:
                bucket = self._bucket(current.op)
            nbucket = len(bucket)
            if nbucket != nrules:
                stats.index_hits += 1
                stats.index_skipped_rules += nrules - nbucket
            replacement = None
            for rule in bucket:
                result = rule.fn(current)
                if result is not None and result is not current:
                    self._charge(applications=1, rule=rule.name)
                    replacement = result
                    break
            if replacement is None:
                break
            if replacement._id in memo:
                current = memo[replacement._id]
            elif replacement.args and any(
                a._id not in memo or memo[a._id] is not a
                for a in replacement.args
            ):
                return replacement, iters
            else:
                current = replacement
        else:
            self._charge(exhausted=1)
        memo[node._id] = current
        memo[current._id] = current
        return None
