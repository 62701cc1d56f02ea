"""Serve-layer benchmark: warm-cache speedup + the daemon-vs-batch
differential gate (DESIGN.md §14).

Legs:

* **differential gate** -- daemon verdicts on the sampled AES corpus
  must be bit-identical to the serial batch reference in every serving
  mode: cold cache, warm cache, the interactive lane, and after a
  journal replay (the request is admitted into a zero-capacity lane,
  the service is abandoned mid-queue, and a fresh service replays it
  from the journal -- the in-process equivalent of ``kill -9``);
* **warm-cache speedup** -- the second identical request of a namespace
  must run at least ``_MIN_SPEEDUP``x faster than the first: every
  obligation is served from the tenant's warm ``ResultCache`` and every
  normal form from its ``NormalizationCache``.

Results are written to ``results/BENCH_pr6.json`` (gitignored)
(``bench-serve/v1``).  Runnable standalone
(``python benchmarks/bench_serve.py [--check]``) or under pytest
(``python -m pytest benchmarks/bench_serve.py -q -s``).  The
differential gate always runs; the speedup floor is asserted in check
mode (``--check`` / ``REPRO_BENCH_CHECK=1``) and reported otherwise.
"""

import asyncio
import json
import os
import sys
from pathlib import Path

from repro.aes.annotations import annotated_package
from repro.aes.proof_scripts import aes_proof_scripts
from repro.exec import ExecConfig
from repro.prover import ImplementationProof
from repro.serve import ServeConfig, VerificationService

CHECK_MODE = os.environ.get("REPRO_BENCH_CHECK", "") not in ("", "0")

#: The warm repeat must beat the cold first run by at least this factor
#: (the acceptance floor; a pure cache replay measures far higher).
_MIN_SPEEDUP = 2.0

_OUT = Path(__file__).resolve().parent.parent / "results" \
    / "BENCH_pr6.json"


def _verdict_keys(result_message):
    return [(v["subprogram"], v["vc"], v["vc_kind"], v["stage"],
             v["proved"]) for v in result_message["result"]["verdicts"]]


def _reference_keys(typed, scripts, sample):
    outcomes = ImplementationProof(
        typed, scripts=scripts,
        exec=ExecConfig(jobs=1, backend="serial",
                        cache=False)).run(sample).outcomes
    return [(o.vc.subprogram, o.vc.name, o.vc.kind, o.stage,
             o.result.proved if o.result else None) for o in outcomes]


def _submit(sample, lane="bulk", namespace="bench", request_id=None):
    message = {"op": "submit", "kind": "prove",
               "package": {"corpus": "aes"}, "namespace": namespace,
               "subprograms": sample, "lane": lane}
    if request_id is not None:
        message["id"] = request_id
    return message


async def _serve_legs(sample, state_dir):
    """cold / warm / interactive-lane results from one daemon, plus a
    replayed result from a second daemon over the same journal."""
    service = VerificationService(ServeConfig())
    await service.start()
    try:
        results = {}
        for leg, lane, namespace in (
                ("cold", "bulk", "bench"),
                ("warm", "bulk", "bench"),        # same namespace: warm
                ("interactive", "interactive", "bench")):
            accepted = await service.submit(_submit(
                sample, lane=lane, namespace=namespace))
            results[leg] = await service.wait(accepted["id"])
    finally:
        await service.stop()

    # replay leg: admit into a zero-capacity bulk lane (journaled,
    # acknowledged, never run), abandon the service, replay elsewhere
    admit_only = VerificationService(ServeConfig(
        state_dir=state_dir, lanes={"interactive": 1, "bulk": 0}))
    await admit_only.start()
    try:
        await admit_only.submit(_submit(sample, request_id="replayed-1"))
    finally:
        await admit_only.stop()

    replayer = VerificationService(ServeConfig(state_dir=state_dir))
    replayed = await replayer.start()
    assert replayed == 1, "journal replay did not resume the request"
    try:
        results["replay"] = await replayer.wait("replayed-1")
    finally:
        await replayer.stop()
    return results


def run_serve_bench(check: bool, state_dir=None):
    typed = annotated_package()
    scripts = aes_proof_scripts()
    sample = sorted(typed.signatures)[:6]
    reference = _reference_keys(typed, scripts, sample)

    import tempfile
    if state_dir is None:
        state_dir = Path(tempfile.mkdtemp(prefix="bench_serve_")) / "state"
    results = asyncio.run(_serve_legs(sample, state_dir))

    for leg, result in results.items():
        assert result["status"] == "ok", (leg, result.get("error"))
        assert _verdict_keys(result) == reference, \
            f"{leg} verdicts diverge from the serial batch reference"
    warm_stats = results["warm"]["exec_stats"]
    assert warm_stats["cache_misses"] == 0, \
        "warm repeat was not fully served from cache"

    cold_seconds = results["cold"]["run_seconds"]
    warm_seconds = results["warm"]["run_seconds"]
    speedup = cold_seconds / warm_seconds if warm_seconds > 0 \
        else float("inf")

    payload = {
        "schema": "bench-serve/v1",
        "min_speedup": _MIN_SPEEDUP,
        "check_mode": check,
        "sample_subprograms": sample,
        "total_vcs": results["cold"]["result"]["total_vcs"],
        "cold_seconds": cold_seconds,
        "warm_seconds": warm_seconds,
        "warm_speedup": speedup,
        "warm_cache_hits": warm_stats["cache_hits"],
        "legs_identical_to_reference": True,
        "replayed_requests": 1,
    }
    _OUT.parent.mkdir(exist_ok=True)
    _OUT.write_text(json.dumps(payload, indent=2) + "\n")

    print()
    print(f"sample        {len(sample)} subprograms, "
          f"{payload['total_vcs']} VCs")
    print(f"cold request  {cold_seconds * 1000:.1f} ms")
    print(f"warm request  {warm_seconds * 1000:.1f} ms "
          f"(speedup {speedup:.1f}x, "
          f"{warm_stats['cache_hits']} cache hits)")
    print("differential  cold == warm == interactive == replayed "
          "== serial batch reference")
    print(f"results       results/{_OUT.name}")

    floor_ok = speedup >= _MIN_SPEEDUP
    if check:
        assert floor_ok, (
            f"warm repeat speedup {speedup:.2f}x below the "
            f"{_MIN_SPEEDUP}x floor over the cold first request")
    elif not floor_ok:
        print(f"WARNING: speedup {speedup:.2f}x below the "
              f"{_MIN_SPEEDUP}x floor (non-fatal without --check)")
    return payload


def bench_serve_warm_cache(benchmark):
    """Pytest leg: the differential gate always runs; the warm-cache
    speedup floor is enforced in check mode and locally."""
    benchmark.pedantic(lambda: run_serve_bench(check=True),
                       rounds=1, iterations=1)


def main(argv=None) -> int:
    argv = argv if argv is not None else sys.argv[1:]
    check = "--check" in argv or CHECK_MODE
    unknown = [a for a in argv if a not in ("--check",)]
    if unknown:
        raise SystemExit(f"usage: python benchmarks/bench_serve.py "
                         f"[--check] (got {unknown!r})")
    run_serve_bench(check=check)
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
