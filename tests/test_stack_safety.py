"""Stack-safety regression and differential tests for the iterative term
engine.

VCs are discharged on worker threads (the serve daemon's request threads, a
library caller's own) whose C stacks are small and fixed.  Before the
engine went iterative, normalizing or substituting into a deep term from
such a thread overflowed the C stack and killed the whole interpreter (a
segfault -- no Python exception, no "undischarged" mapping).  The tests
here run the converted traversals inside a
``threading.stack_size(512 * 1024)`` thread: they crashed the process
before the fix and must pass after it.

The differential tests pin the conversion: a verbatim copy of the old
*recursive* algorithms (confined to this test file; ``src/`` is lint-clean
of recursion-limit hacks) is run against the iterative engine on the full
refactored-AES VC corpus plus the deepest optimized-AES subprogram, and
results must be identical -- same result terms (object identity, thanks to
hash-consing), same ``RewriteStats`` to the bit.
"""

import contextlib
import sys
import threading

import pytest

from repro.aes import refactored_package
from repro.exec import ExecConfig
from repro.lang import analyze, parse_package
from repro.logic import (
    Rewriter, add, band, default_rules, fingerprint, intc, mk,
    substitute, substitute_simplifying, var,
)
from repro.logic.canon import COMMUTATIVE_OPS, _value_token
from repro.logic.measure import max_depth
from repro.logic.rewriter import _MAX_FIXPOINT_ITERS
from repro.logic.substitute import _rebuild_raw, rebuild_smart, rename_bound
from repro.prover import ImplementationProof
from repro.vcgen import generate_obligations
from repro.vcgen.simplifier import TypeBoundHook

SMALL_STACK = 512 * 1024


# ---------------------------------------------------------------------------
# Recursive reference implementations (the pre-conversion algorithms).
# They live only here: the production engine must never need a recursion-
# limit escape hatch, but the references legitimately do.
# ---------------------------------------------------------------------------

@contextlib.contextmanager
def _deep_recursion_allowed(limit=100_000):
    old = sys.getrecursionlimit()
    sys.setrecursionlimit(max(old, limit))
    try:
        yield
    finally:
        sys.setrecursionlimit(old)


class _RecursiveRewriter(Rewriter):
    """The seed's recursive ``normalize``, verbatim."""

    def normalize(self, term):
        memo = self._memo
        hit = memo.get(term._id)
        if hit is not None:
            return hit
        self._charge(nodes=1)
        if term.args:
            new_args = tuple(self.normalize(a) for a in term.args)
            current = rebuild_smart(term.op, new_args, term.value)
            if current is not term and current._id in memo:
                memo[term._id] = memo[current._id]
                return memo[term._id]
        else:
            current = term
        for _ in range(_MAX_FIXPOINT_ITERS):
            replacement = self._apply_one(current)
            if replacement is None:
                break
            if replacement._id in memo:
                current = memo[replacement._id]
            elif replacement.args and any(
                a._id not in memo or memo[a._id] is not a
                for a in replacement.args
            ):
                current = self.normalize(replacement)
            else:
                current = replacement
        else:
            self._charge(exhausted=1)
        memo[term._id] = current
        memo[current._id] = current
        return current


def _recursive_subst(term, mapping, rebuild, cache):
    """The seed's recursive ``_subst``, verbatim."""
    hit = cache.get(term._id)
    if hit is not None:
        return hit
    if term.op == "var":
        result = mapping.get(term.value, term)
    elif not term.args and term.op not in ("forall", "exists"):
        result = term
    elif term.op in ("forall", "exists"):
        bound = set(term.value)
        inner = {k: v for k, v in mapping.items() if k not in bound}
        if not inner:
            result = term
        else:
            replaced_frees = set()
            for v in inner.values():
                replaced_frees |= v.free_vars()
            if replaced_frees & bound:
                term = rename_bound(term, replaced_frees | set(inner))
                bound = set(term.value)
                inner = {k: v for k, v in mapping.items() if k not in bound}
            body = _recursive_subst(term.args[0], inner, rebuild, {})
            result = rebuild(term.op, (body,), term.value)
    else:
        new_args = tuple(_recursive_subst(a, mapping, rebuild, cache)
                         for a in term.args)
        if all(n is o for n, o in zip(new_args, term.args)):
            result = term
        else:
            result = rebuild(term.op, new_args, term.value)
    cache[term._id] = result
    return result


def _recursive_fingerprint(term, cache):
    """A naive recursive Merkle digest with the same canonical rules."""
    import hashlib

    hit = cache.get(term._id)
    if hit is not None:
        return hit
    child = [_recursive_fingerprint(a, cache) for a in term.args]
    if term.op in COMMUTATIVE_OPS:
        child = sorted(child)
    payload = "\x1f".join([term.op, _value_token(term.value)] + child)
    digest = hashlib.sha256(payload.encode()).hexdigest()
    cache[term._id] = digest
    return digest


# ---------------------------------------------------------------------------
# Helpers
# ---------------------------------------------------------------------------

def _run_in_small_stack_thread(fn, stack_bytes=SMALL_STACK):
    """Run ``fn`` in a thread with a small fixed C stack; re-raise errors.

    Before the iterative conversion this pattern did not raise -- it
    segfaulted the interpreter, which is exactly the crash class under
    test.
    """
    out = {}

    def work():
        try:
            out["value"] = fn()
        except BaseException as exc:  # noqa: BLE001 - surfaced to caller
            out["error"] = exc

    old = threading.stack_size(stack_bytes)
    try:
        th = threading.Thread(target=work)
        th.start()
        th.join()
    finally:
        threading.stack_size(old)
    if "error" in out:
        raise out["error"]
    assert "value" in out, "worker thread died without reporting a result"
    return out["value"]


def _deep_masked_chain(n):
    """A term of depth ``2n + 1``: the add/mask idiom of unrolled AES."""
    t = var("x")
    for _ in range(n):
        t = band(add(t, intc(1)), intc(255))
    return t


DEEP_N = 1500  # depth 3001; segfaulted a 512 KiB-stack thread pre-fix


@pytest.fixture(scope="module")
def aes_corpus():
    """(typed, {subprogram: [terms]}) for the full refactored-AES corpus."""
    typed = refactored_package()
    corpus = {}
    for sp in typed.package.subprograms:
        obls = generate_obligations(typed, typed.signatures[sp.name])
        if obls:
            corpus[sp.name] = [o.term for o in obls]
    return typed, corpus


@pytest.fixture(scope="module")
def deep_optimized_corpus():
    """The deepest optimized-AES subprogram's VCs (depth ~200)."""
    from repro.aes.optimized import optimized_source

    typed = analyze(parse_package(optimized_source()))
    obls = generate_obligations(typed, typed.signatures["Expand_Key"])
    return typed, {"Expand_Key": [o.term for o in obls]}


# ---------------------------------------------------------------------------
# Small-stack regression tests
# ---------------------------------------------------------------------------

class TestSmallStackThreads:
    def test_normalize_deep_term_small_stack(self):
        term = _deep_masked_chain(DEEP_N)
        result = _run_in_small_stack_thread(
            lambda: Rewriter(default_rules()).normalize(term))
        with _deep_recursion_allowed():
            reference = _RecursiveRewriter(default_rules()).normalize(term)
        assert result is reference

    def test_substitute_deep_term_small_stack(self):
        term = _deep_masked_chain(DEEP_N)
        mapping = {"x": var("y")}
        raw = _run_in_small_stack_thread(lambda: substitute(term, mapping))
        folded = _run_in_small_stack_thread(
            lambda: substitute_simplifying(term, mapping))
        with _deep_recursion_allowed():
            assert raw is _recursive_subst(term, mapping, _rebuild_raw, {})
            assert folded is _recursive_subst(term, mapping, rebuild_smart, {})

    def test_fingerprint_deep_term_small_stack(self):
        term = _deep_masked_chain(DEEP_N)
        digest = _run_in_small_stack_thread(lambda: fingerprint(term))
        with _deep_recursion_allowed():
            assert digest == _recursive_fingerprint(term, {})

    def test_deep_measurement_small_stack(self):
        term = _deep_masked_chain(DEEP_N)
        depth = _run_in_small_stack_thread(lambda: max_depth(term))
        assert depth == 2 * DEEP_N + 1

    def test_implementation_proof_jobs2_small_stack(self, aes_corpus):
        """Discharge of the deepest refactored-AES subprogram on a 512 KiB
        thread stack: the proof runs serially inside the small-stack
        thread, so every VC is discharged on that stack."""
        typed, corpus = aes_corpus
        deepest = max(
            corpus,
            key=lambda name: max(max_depth(t) for t in corpus[name]))
        baseline = ImplementationProof(
            typed, exec=ExecConfig(jobs=1, cache=False)).run([deepest])
        result = _run_in_small_stack_thread(
            lambda: ImplementationProof(
                typed, exec=ExecConfig(backend="serial",
                                       cache=False)).run([deepest]))
        assert result.feasible
        assert [(o.vc.name, o.stage) for o in result.outcomes] == \
            [(o.vc.name, o.stage) for o in baseline.outcomes]


# ---------------------------------------------------------------------------
# Differential tests: iterative engine vs the recursive reference
# ---------------------------------------------------------------------------

def _assert_normalize_differential(typed, corpus):
    for name, terms in corpus.items():
        hook = TypeBoundHook(typed, name)
        with _deep_recursion_allowed():
            reference = _RecursiveRewriter(default_rules(hook=hook))
            ref_results = [reference.normalize(t) for t in terms]
        iterative = Rewriter(default_rules(hook=hook))
        new_results = [iterative.normalize(t) for t in terms]
        for ref, new in zip(ref_results, new_results):
            assert new is ref
        assert iterative.stats == reference.stats


class TestDifferentialCorpus:
    def test_normalize_identical_on_refactored_corpus(self, aes_corpus):
        typed, corpus = aes_corpus
        assert sum(len(v) for v in corpus.values()) > 200
        _assert_normalize_differential(typed, corpus)

    def test_normalize_identical_on_deep_optimized_corpus(
            self, deep_optimized_corpus):
        typed, corpus = deep_optimized_corpus
        assert max(max_depth(t) for t in corpus["Expand_Key"]) > 100
        _assert_normalize_differential(typed, corpus)

    def test_substitute_identical_on_refactored_corpus(self, aes_corpus):
        _, corpus = aes_corpus
        for terms in corpus.values():
            for term in terms:
                mapping = {n: var(f"{n}~diff") for n in term.free_vars()}
                if not mapping:
                    continue
                with _deep_recursion_allowed():
                    ref_raw = _recursive_subst(term, mapping, _rebuild_raw, {})
                    ref_smart = _recursive_subst(
                        term, mapping, rebuild_smart, {})
                assert substitute(term, mapping) is ref_raw
                assert substitute_simplifying(term, mapping) is ref_smart

    def test_fingerprint_identical_on_refactored_corpus(self, aes_corpus):
        _, corpus = aes_corpus
        cache = {}
        with _deep_recursion_allowed():
            for terms in corpus.values():
                for term in terms:
                    assert fingerprint(term) == \
                        _recursive_fingerprint(term, cache)

    def test_raw_rebuild_memo_alias_path(self):
        """The memo-alias shortcut (raw term folding onto an already
        normalized form) must behave identically to the reference."""
        folded = add(var("i"), intc(1))
        raw = mk("add", (mk("add", (var("i"), intc(1))), intc(-1)))
        rewriter = Rewriter(default_rules())
        assert rewriter.normalize(folded) is not None
        assert rewriter.normalize(raw) is var("i")
        reference = _RecursiveRewriter(default_rules())
        assert reference.normalize(folded) is rewriter._memo[folded._id]
        assert reference.normalize(raw) is var("i")
        assert reference.stats == rewriter.stats
