"""Stack-safe traversal primitives for the term engine.

Every module that walks :class:`~repro.logic.terms.Term` structure must do
so with **bounded Python recursion**: VCs are discharged on worker threads
(the serve daemon's request threads, a library caller's own) whose C stacks
are small and fixed, and a deep VC walked with native recursion kills the
whole interpreter (a segfault, not a Python exception), bypassing the
budget machinery that is supposed to map resource exhaustion to an honest
"undischarged".  No module under ``src/`` may raise the interpreter
recursion limit -- CI enforces this -- so recursive-looking traversals are
expressed with the two primitives here instead.

``run_trampoline``
    Drives a *generator-recursive* function: a generator that, wherever
    the recursive version would call itself, ``yield``\\ s the sub-call's
    generator and receives the sub-result as the value of the ``yield``
    expression.  The pending frames live on an explicit heap-allocated
    list, so the Python/C stack depth stays O(1) in the term depth while
    the code remains a line-for-line mirror of the recursive original.

``postorder_missing``
    Memoized bottom-up iteration: yields each distinct subterm that is
    not yet in ``cache``, children strictly before parents, pruning the
    walk at cached roots.  The caller must record every yielded node in
    ``cache`` before advancing the iterator; that contract is what makes
    the pruning sound and makes repeated walks over a growing DAG (the
    examiner's resource meter, digest caches) near-linear in the number
    of *new* nodes rather than in the full DAG size.
"""

from __future__ import annotations

import logging
from typing import Any, Generator, Iterator

__all__ = ["run_trampoline", "postorder_missing", "close_failure_count"]

_log = logging.getLogger(__name__)

#: Cumulative count of traversal frames whose ``close()`` raised while an
#: exception unwound through :func:`run_trampoline`.  The primary
#: exception still propagates; this counter keeps the secondary failure
#: observable instead of silently swallowed (tests and postmortems can
#: assert it stayed zero).
_close_failures = 0


def close_failure_count() -> int:
    """How many generator frames failed to close during unwinding."""
    return _close_failures


def run_trampoline(gen: Generator) -> Any:
    """Run a generator-recursive computation to completion.

    ``gen`` yields sub-generators (the sub-calls) and receives their
    results; its ``return`` value is the result of the whole computation.
    Exceptions raised inside any frame propagate to the caller unchanged.
    """
    stack = [gen]
    value = None
    try:
        while stack:
            try:
                child = stack[-1].send(value)
            except StopIteration as stop:
                stack.pop()
                value = stop.value
            else:
                stack.append(child)
                value = None
        return value
    finally:
        # On an exception unwinding through us, release pending frames.
        while stack:
            frame = stack.pop()
            try:
                frame.close()
            except Exception as exc:   # noqa: BLE001 - cleanup boundary:
                # the primary exception must win, but a frame that fails
                # to close is a defect worth recording, not hiding.
                global _close_failures
                _close_failures += 1
                _log.debug("traversal frame %r failed to close: %r",
                           frame, exc)


def postorder_missing(term, cache) -> Iterator:
    """Yield subterms of ``term`` absent from ``cache``, children first.

    The walk is pruned at nodes already in ``cache`` (their children were
    necessarily processed when they were cached).  The **caller must add
    each yielded node to ``cache`` before requesting the next one**; a
    shared subterm reachable along two unexplored paths is yielded only
    once because the second encounter sees it cached.
    """
    stack = [(term, False)]
    while stack:
        node, expanded = stack.pop()
        if node._id in cache:
            continue
        if expanded:
            yield node
            continue
        stack.append((node, True))
        for child in node.args:
            if child._id not in cache:
                stack.append((child, False))
