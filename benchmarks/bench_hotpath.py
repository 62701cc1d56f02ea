"""Hot-path benchmark: head-op rule indexing + the cross-obligation
normalization cache (DESIGN.md section 13).

Three legs:

* **rewrite microbench** -- the prover's actual hot path, reproduced
  exactly: one *fresh* rewriter per VC (as ``AutoProver._prove`` builds a
  fresh ``Simplifier`` per obligation) over the full refactored-AES VC
  corpus.  The linear-scan reference (``index=False``, no shared cache)
  races the optimized configuration (head-op dispatch + a
  :class:`~repro.logic.normcache.NormalizationCache` scope per
  subprogram).  The optimized path must be at least
  ``_MIN_SPEEDUP``x faster *and* bit-identical;
* **implementation proof** -- the full 6.2.3 pipeline end to end (serial
  backend), recording wall time, rewrite work units and the hot-path
  counters;
* **implication proof** -- the full 6.2.4 pipeline end to end.

Results are written to ``results/BENCH_pr5.json`` (gitignored) with a
stable schema (``bench-hotpath/v1``): wall times, rewrite work units and
cache hit rates per stage.

Runnable standalone (``python benchmarks/bench_hotpath.py [--check]``)
or under pytest (``python -m pytest benchmarks/bench_hotpath.py -q -s``).
``--check`` -- the CI gate, same spirit as ``REPRO_BENCH_CHECK=1`` --
runs the full differential gate and asserts the speedup floor; without
it the floor failure is reported but non-fatal (exploratory runs on
loaded machines).
"""

import json
import os
import sys
import time
from pathlib import Path

from repro.aes import refactored_package
from repro.aes.annotations import annotated_package
from repro.aes.fips197 import fips197_theory
from repro.aes.proof_scripts import aes_proof_scripts
from repro.exec import ExecConfig
from repro.extract import extract_specification
from repro.implication import prove_implication
from repro.logic import NormalizationCache, Rewriter, default_rules
from repro.prover import ImplementationProof
from repro.vcgen import generate_obligations
from repro.vcgen.simplifier import TypeBoundHook

CHECK_MODE = os.environ.get("REPRO_BENCH_CHECK", "") not in ("", "0")

#: The optimized configuration (indexing + cross-obligation cache) must
#: beat the linear-scan reference by at least this factor on the per-VC
#: fresh protocol (the acceptance floor; measured ~2.4x on an idle core).
_MIN_SPEEDUP = 1.3

_ROUNDS = 5

_OUT = Path(__file__).resolve().parent.parent / "results" \
    / "BENCH_pr5.json"


def _corpus():
    typed = refactored_package()
    out = []
    for sp in typed.package.subprograms:
        obls = generate_obligations(typed, typed.signatures[sp.name])
        if obls:
            out.append((sp.name, [o.term for o in obls]))
    return typed, out


def _run_linear(typed, corpus, collect=None):
    """One fresh linear-scan rewriter per VC (the pre-PR-5 hot path)."""
    results = []
    for name, terms in corpus:
        hook = TypeBoundHook(typed, name)
        for t in terms:
            rw = Rewriter(default_rules(hook=hook), index=False)
            results.append(rw.normalize(t))
            if collect is not None:
                collect.append(rw.stats)
    return results


def _run_optimized(typed, corpus, collect=None):
    """One fresh indexed rewriter per VC sharing a per-subprogram
    normalization-cache scope (exactly what ``AutoProver._prove`` does
    through ``Simplifier(shared=...)``)."""
    cache = NormalizationCache()
    results = []
    for name, terms in corpus:
        hook = TypeBoundHook(typed, name)
        scope = cache.scope(f"bench|{name}|")
        for t in terms:
            rw = Rewriter(default_rules(hook=hook), shared=scope)
            results.append(rw.normalize(t))
            if collect is not None:
                collect.append(rw.stats)
    return results, cache


def _best_of(fn, rounds=_ROUNDS):
    best = float("inf")
    for _ in range(rounds):
        t0 = time.perf_counter()
        fn()
        best = min(best, time.perf_counter() - t0)
    return best


def _microbench():
    typed, corpus = _corpus()
    vc_count = sum(len(terms) for _, terms in corpus)

    # Differential gate first (also warms the interning table so the
    # timed rounds pay no construction costs).  Indexing alone must be
    # invisible: bit-identical normal forms AND bit-identical per-VC
    # RewriteStats (field(compare=False) on the instrumentation counters
    # means == compares exactly the semantic outcome: nodes, rewrites,
    # exhaustions).  The shared cache legitimately *skips* traversal
    # work, so its guarantee is result identity, not stats identity.
    lin_stats, idx_stats, opt_stats = [], [], []
    ref = _run_linear(typed, corpus, collect=lin_stats)
    idx = []
    for name, terms in corpus:
        hook = TypeBoundHook(typed, name)
        for t in terms:
            rw = Rewriter(default_rules(hook=hook))
            idx.append(rw.normalize(t))
            idx_stats.append(rw.stats)
    assert all(a is b for a, b in zip(ref, idx)), \
        "indexed rewriting diverged from the linear-scan reference"
    assert lin_stats == idx_stats, \
        "per-VC RewriteStats diverged between linear and indexed runs"
    got, cache = _run_optimized(typed, corpus, collect=opt_stats)
    assert all(a is b for a, b in zip(ref, got)), \
        "indexed+shared rewriting diverged from the linear-scan reference"
    assert len(ref) == len(got) == vc_count
    index_hits = sum(s.index_hits for s in opt_stats)
    index_skipped = sum(s.index_skipped_rules for s in opt_stats)
    cross_hits = sum(s.cross_vc_hits for s in opt_stats)
    assert index_hits > 0 and index_skipped > 0 and cross_hits > 0
    assert all(s.index_hits == 0 and s.cross_vc_hits == 0
               for s in lin_stats)

    linear_s = _best_of(lambda: _run_linear(typed, corpus))
    optimized_s = _best_of(lambda: _run_optimized(typed, corpus))
    lookups = cache.hits + cache.misses
    return {
        "subprograms": len(corpus),
        "vcs": vc_count,
        "linear_ms": round(linear_s * 1000, 3),
        "optimized_ms": round(optimized_s * 1000, 3),
        "speedup": round(linear_s / optimized_s, 3),
        "work_units": sum(s.work for s in opt_stats),
        "index_hits": index_hits,
        "index_skipped_rules": index_skipped,
        "cross_vc_hits": cross_hits,
        "norm_cache_hit_rate": round(cache.hits / lookups, 4)
        if lookups else 0.0,
        "norm_cache_entries": len(cache),
    }


def _impl_proof():
    typed = annotated_package()
    t0 = time.perf_counter()
    result = ImplementationProof(
        typed, scripts=aes_proof_scripts(),
        exec=ExecConfig(jobs=1, backend="serial", cache=False)).run()
    wall = time.perf_counter() - t0
    report = result.report
    assert result.feasible
    return {
        "wall_seconds": round(wall, 3),
        "total_vcs": result.total_vcs,
        "auto_percent": round(result.auto_percent, 2),
        "work_units": report.work_units,
        "index_hits": report.index_hits,
        "index_skipped_rules": report.index_skipped_rules,
        "cross_vc_hits": report.cross_vc_hits,
    }


def _implication_proof():
    typed = annotated_package()
    extraction = extract_specification(typed)
    t0 = time.perf_counter()
    result = prove_implication(
        fips197_theory(), extraction.theory,
        exec=ExecConfig(jobs=1, backend="serial", cache=False))
    wall = time.perf_counter() - t0
    assert result.holds
    return {
        "wall_seconds": round(wall, 3),
        "lemma_count": result.lemma_count,
        "tcc_total": result.tcc_total,
        "holds": result.holds,
    }


def run_hotpath_bench(check: bool):
    payload = {
        "schema": "bench-hotpath/v1",
        "min_speedup": _MIN_SPEEDUP,
        "check_mode": check,
        "rewrite_microbench": _microbench(),
        "implementation_proof": _impl_proof(),
        "implication_proof": _implication_proof(),
    }
    _OUT.parent.mkdir(exist_ok=True)
    _OUT.write_text(json.dumps(payload, indent=2) + "\n")

    micro = payload["rewrite_microbench"]
    impl = payload["implementation_proof"]
    imp = payload["implication_proof"]
    print()
    print(f"corpus            {micro['vcs']} VCs over "
          f"{micro['subprograms']} subprograms")
    print(f"linear scan       {micro['linear_ms']:.1f} ms (per-VC fresh)")
    print(f"indexed+shared    {micro['optimized_ms']:.1f} ms "
          f"(speedup {micro['speedup']:.2f}x; "
          f"{micro['index_skipped_rules']} rule scans skipped, "
          f"{micro['cross_vc_hits']} cross-VC hits, "
          f"cache hit rate {100 * micro['norm_cache_hit_rate']:.1f}%)")
    print(f"impl proof        {impl['wall_seconds']:.1f} s end to end "
          f"({impl['total_vcs']} VCs, {impl['auto_percent']:.1f}% auto, "
          f"{impl['cross_vc_hits']} cross-VC hits)")
    print(f"implication proof {imp['wall_seconds']:.1f} s end to end "
          f"({imp['lemma_count']} lemmas, holds={imp['holds']})")
    print(f"results           results/{_OUT.name}")

    floor_ok = micro["speedup"] >= _MIN_SPEEDUP
    if check:
        assert floor_ok, (
            f"indexed+shared speedup {micro['speedup']:.2f}x below the "
            f"{_MIN_SPEEDUP}x floor over the linear-scan reference")
    elif not floor_ok:
        print(f"WARNING: speedup {micro['speedup']:.2f}x below the "
              f"{_MIN_SPEEDUP}x floor (non-fatal without --check)")
    return payload


def bench_hotpath_indexing(benchmark):
    """Pytest leg: the differential gate always runs; the speedup floor
    is enforced in check mode (``REPRO_BENCH_CHECK=1``) and locally."""
    benchmark.pedantic(lambda: run_hotpath_bench(check=True),
                       rounds=1, iterations=1)


def main(argv=None) -> int:
    argv = argv if argv is not None else sys.argv[1:]
    check = "--check" in argv or CHECK_MODE
    unknown = [a for a in argv if a not in ("--check",)]
    if unknown:
        raise SystemExit(f"usage: python benchmarks/bench_hotpath.py "
                         f"[--check] (got {unknown!r})")
    run_hotpath_bench(check=check)
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
