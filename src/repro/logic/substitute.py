"""Capture-avoiding substitution over hash-consed terms.

Two flavours are provided:

* :func:`substitute` -- rebuilds with the *raw* constructor, preserving the
  exact shape of the input apart from the replaced variables.  This is what
  the weakest-precondition calculus uses, so generated VCs have the honest,
  unsimplified size the paper measures.
* :func:`substitute_simplifying` -- rebuilds through the smart constructors
  (constant folding, select-over-store, ...).  This is what symbolic
  execution uses, where we *want* states to stay in a folded normal form.

Both walk the term with the generator trampoline from
:mod:`repro.logic.traversal`, so substitution into arbitrarily deep terms
is safe on the small fixed C stacks of worker threads.
"""

from __future__ import annotations

import itertools
from typing import Callable, Dict, Mapping

from . import builders
from .terms import Term, mk
from .traversal import run_trampoline

__all__ = ["substitute", "substitute_simplifying", "rebuild_smart", "rename_bound"]

_fresh_counter = itertools.count(1)


def rebuild_smart(op: str, args, value) -> Term:
    """Rebuild one node through the smart constructors."""
    b = builders
    if op == "and":
        return b.conj(*args)
    if op == "or":
        return b.disj(*args)
    if op == "not":
        return b.neg(args[0])
    if op == "implies":
        return b.implies(args[0], args[1])
    if op == "iff":
        return b.iff(args[0], args[1])
    if op == "ite":
        return b.ite(args[0], args[1], args[2])
    if op == "eq":
        return b.eq(args[0], args[1])
    if op == "lt":
        return b.lt(args[0], args[1])
    if op == "le":
        return b.le(args[0], args[1])
    if op == "add":
        return b.add(*args)
    if op == "mul":
        return b.mul(*args)
    if op == "div":
        return b.divi(args[0], args[1])
    if op == "mod":
        return b.modi(args[0], args[1])
    if op == "xor":
        return b.xor(*args)
    if op == "band":
        return b.band(*args)
    if op == "bor":
        return b.bor(*args)
    if op == "bnot":
        return b.bnot(args[0], value)
    if op == "shl":
        return b.shl(args[0], args[1])
    if op == "shr":
        return b.shr(args[0], args[1])
    if op == "select":
        return b.select(args[0], args[1])
    if op == "store":
        return b.store(args[0], args[1], args[2])
    if op == "apply":
        return b.apply(value, *args)
    if op == "forall":
        return b.forall(value, args[0])
    if op == "exists":
        return b.exists(value, args[0])
    return mk(op, tuple(args), value)


def _rebuild_raw(op: str, args, value) -> Term:
    return mk(op, tuple(args), value)


def _subst(term: Term, mapping: Mapping[str, Term],
           rebuild: Callable, cache: Dict[int, Term]) -> Term:
    hit = cache.get(term._id)
    if hit is not None:
        return hit
    return run_trampoline(_subst_gen(term, mapping, rebuild, cache))


def _subst_gen(term: Term, mapping: Mapping[str, Term],
               rebuild: Callable, cache: Dict[int, Term]):
    """Generator-recursive substitution driven by ``run_trampoline``.

    The substitution cache is per (mapping, binder context): descending
    under a quantifier changes the mapping, so the body walk gets a fresh
    cache, exactly as the context argument would change in the recursive
    formulation.
    """
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
            # Capture check: if a replacement mentions a bound name, rename
            # the bound variable first.
            replaced_frees = set()
            for v in inner.values():
                replaced_frees |= v.free_vars()
            if replaced_frees & bound:
                term = rename_bound(term, replaced_frees | set(inner))
                bound = set(term.value)
                inner = {k: v for k, v in mapping.items() if k not in bound}
            body = yield _subst_gen(term.args[0], inner, rebuild, {})
            result = rebuild(term.op, (body,), term.value)
    else:
        new_args = []
        for a in term.args:
            h = cache.get(a._id)
            if h is None:
                h = yield _subst_gen(a, mapping, rebuild, cache)
            new_args.append(h)
        new_args = tuple(new_args)
        if all(n is o for n, o in zip(new_args, term.args)):
            result = term
        else:
            result = rebuild(term.op, new_args, term.value)
    cache[term._id] = result
    return result


def rename_bound(quant: Term, avoid) -> Term:
    """Alpha-rename the bound variables of a quantifier away from ``avoid``."""
    fresh_map = {}
    new_names = []
    for name in quant.value:
        if name in avoid:
            new = f"{name}~{next(_fresh_counter)}"
            while new in avoid:
                new = f"{name}~{next(_fresh_counter)}"
            fresh_map[name] = builders.var(new)
            new_names.append(new)
        else:
            new_names.append(name)
    body = _subst(quant.args[0], fresh_map, _rebuild_raw, {}) if fresh_map else quant.args[0]
    return mk(quant.op, (body,), tuple(new_names))


def substitute(term: Term, mapping: Mapping[str, Term]) -> Term:
    """Shape-preserving parallel substitution (raw rebuild)."""
    if not mapping:
        return term
    return _subst(term, mapping, _rebuild_raw, {})


def substitute_simplifying(term: Term, mapping: Mapping[str, Term]) -> Term:
    """Substitution that folds through the smart constructors."""
    if not mapping:
        return term
    return _subst(term, mapping, rebuild_smart, {})
