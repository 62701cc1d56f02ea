"""Payload tests: one definition of each obligation kind's work, run by
every backend; live payload fields that pickle as their rebuildable
form; and the bounded per-process memos behind that rebuilding."""

import gc
import os
import pickle
import weakref
from collections import OrderedDict, deque
from dataclasses import dataclass, replace
from typing import Any

import pytest

import repro.exec.payload as payload_mod
import repro.lang.typecheck as typecheck
from repro.equiv.symbolic import SymbolicExecutor
from repro.exec import (
    BatchPayload, CallPayload, EquivTrialPayload, ExecConfig, LemmaPayload,
    ObligationPayload, ObligationScheduler, Telemetry, TheoryPair, VCPayload,
    package_fingerprint,
)
from repro.exec.remote import worker
from repro.exec.remote.link import decode_blob, encode_blob
from repro.exec.retry import RetryPolicy
from repro.extract import extract_specification
from repro.implication import prove_implication
from repro.lang import analyze, parse_package
from repro.logic import (
    NormalizationCache, apply, default_norm_cache, eq, intc, var, xor,
)
from repro.prover import ImplementationProof
from repro.prover.tactics import Expand, ProofScript
from repro.spec import parse_theory

from tests.test_exec_scheduler import SRC
from tests.test_extract_implication import CODE, SPEC
from tests.test_plan import make_planner
from tests.test_refactor import UNROLLED


def _square(x):
    return x * x


@dataclass(frozen=True)
class _Logged(ObligationPayload):
    """Run ``inner`` after logging the running pid and the inner payload's
    class, one line per run."""

    inner: Any
    log: str

    def run(self):
        with open(self.log, "a") as handle:
            handle.write(f"{os.getpid()} {type(self.inner).__name__}\n")
        return self.inner.run()

    def encode_result(self, value):
        return self.inner.encode_result(value)


def _captured(monkeypatch, drive):
    """The obligations ``drive()`` hands to any scheduler."""
    captured = []
    real = ObligationScheduler.run

    def run(self, obligations, stop_on=None):
        obligations = list(obligations)
        captured.extend(obligations)
        return real(self, obligations, stop_on)

    monkeypatch.setattr(ObligationScheduler, "run", run)
    drive()
    monkeypatch.setattr(ObligationScheduler, "run", real)
    return captured


SERIAL = ExecConfig(jobs=1, backend="serial", cache=False)


def _prove_vcs():
    ImplementationProof(analyze(parse_package(SRC)), exec=SERIAL).run()


def _prove_lemmas():
    extracted = extract_specification(analyze(parse_package(CODE))).theory
    prove_implication(parse_theory(SPEC), extracted, exec=SERIAL)


def _plan():
    make_planner(check="differential", trials=2, exec=SERIAL).plan()


class TestOneDefinitionPerKind:
    @pytest.mark.parametrize("kind,payload_type,drive", [
        ("vc", VCPayload, _prove_vcs),
        ("lemma", LemmaPayload, _prove_lemmas),
        ("equiv_trial", EquivTrialPayload, _plan),
        ("plan_eval", CallPayload, _plan),
    ])
    def test_serial_and_process_run_the_same_payload(
            self, monkeypatch, tmp_path, kind, payload_type, drive):
        obligations = [ob for ob in _captured(monkeypatch, drive)
                       if ob.kind == kind]
        assert obligations
        assert all(type(ob.payload) is payload_type for ob in obligations)
        values = {}
        for backend, jobs in (("serial", 1), ("process", 2)):
            log = tmp_path / backend
            logged = [replace(ob, payload=_Logged(ob.payload, str(log)))
                      for ob in obligations]
            outcomes = ObligationScheduler(
                jobs=jobs, backend=backend, cache=False,
                telemetry=Telemetry()).run(logged)
            assert all(o.ok for o in outcomes), backend
            values[backend] = [o.value for o in outcomes]
            runs = [line.split() for line in log.read_text().splitlines()]
            assert len(runs) == len(obligations), backend
            assert {name for _, name in runs} == {payload_type.__name__}
            pids = {int(pid) for pid, _ in runs}
            if backend == "serial":
                assert pids == {os.getpid()}
            else:
                assert os.getpid() not in pids
        assert values["serial"] == values["process"]


class TestLiveFieldsPickle:
    def test_norm_cache_lands_as_the_process_default(self):
        own = NormalizationCache()
        assert pickle.loads(pickle.dumps(own)) is default_norm_cache()

    def test_typed_package_reanalyzed_once_per_process(self, monkeypatch):
        monkeypatch.setattr(typecheck, "_UNPICKLED", OrderedDict())
        typed = analyze(parse_package(UNROLLED))
        first = pickle.loads(pickle.dumps(typed))
        second = pickle.loads(pickle.dumps(typed))
        assert first is second is not typed
        assert package_fingerprint(first) == package_fingerprint(typed)

    def test_hotpath_tally_pickles_empty(self):
        tally = payload_mod.HotpathTally()
        tally["Q"] = {"index_hits": 3}
        clone = pickle.loads(pickle.dumps(tally))
        assert type(clone) is payload_mod.HotpathTally
        assert clone == {}


def _variant(k):
    """UNROLLED with its xor mask changed: a distinct package per k."""
    return analyze(parse_package(UNROLLED.replace("xor 255",
                                                  f"xor {k}")))


def _trial(left, right):
    return EquivTrialPayload(left=left, right=right, left_name="Q",
                             right_name="Q",
                             initial=(("A", (1, 2, 3, 4)),))


_XOR_F = """
package P is
   type Byte is mod 256;
   function F (X : in Byte) return Byte is
   begin
      return X xor %d;
   end F;
end P;
"""


def _round_trip(payload):
    return pickle.loads(pickle.dumps(payload))


class TestBoundedMemos:
    def test_unpickled_packages_stay_bounded(self, monkeypatch):
        monkeypatch.setattr(typecheck, "UNPICKLED_PACKAGES", 3)
        monkeypatch.setattr(typecheck, "_UNPICKLED", OrderedDict())
        typed = [_variant(k) for k in range(1, 8)]
        trials = [_trial(typed[k], typed[k + 1]) for k in range(6)]
        expected = [trial.run() for trial in trials]
        assert all(cx is not None for cx in expected)
        # twice round: the second pass re-analyzes evicted packages
        for _ in range(2):
            for trial, cx in zip(trials, expected):
                assert _round_trip(trial).run() == cx
                assert len(typecheck._UNPICKLED) <= 3

    def test_evicted_package_summaries_die_with_it(self, monkeypatch):
        # Packages differing only in F's body, shipped through a memo
        # that evicts them: each Expand verdict must be its own body's,
        # even when a new package lands at an evicted package's address.
        monkeypatch.setattr(typecheck, "UNPICKLED_PACKAGES", 2)
        monkeypatch.setattr(typecheck, "_UNPICKLED", OrderedDict())
        script = ProofScript(name="expand-f", tactics=(Expand("F"),))
        goal = eq(apply("F", var("y")), xor(var("y"), intc(5)))
        payloads = [VCPayload(typed=analyze(parse_package(_XOR_F % k)),
                              subprogram="F", term=goal, scripts=(script,),
                              auto_timeout=None,
                              norm_cache=NormalizationCache(),
                              hotpath=payload_mod.HotpathTally())
                    for k in range(1, 9)]
        expected = [p.run()[0] for p in payloads]
        assert expected.count("interactive") == 1
        assert expected.count("undischarged") == 7
        for _ in range(3):
            summaries = []
            for payload, verdict in zip(payloads, expected):
                clone = _round_trip(payload)
                assert clone.run()[0] == verdict
                assert len(typecheck._UNPICKLED) <= 2
                summaries.append(weakref.ref(
                    SymbolicExecutor(clone.typed).execute_cached("F")))
                del clone
                gc.collect()
            # an evicted package's summary is gone, not left to be found
            # again through a reused key
            assert all(ref() is None for ref in summaries[:-2])

    def test_theory_pairs_stay_bounded(self, monkeypatch):
        monkeypatch.setattr(payload_mod, "THEORY_PAIRS_PER_PROCESS", 2)
        monkeypatch.setattr(payload_mod, "_THEORY_PAIRS", OrderedDict())
        extracted = extract_specification(
            analyze(parse_package(CODE))).theory
        table = ", ".join(str((i * 7 + 3) % 256) for i in range(256))
        pairs = [TheoryPair(parse_theory(SPEC.replace(
            table, ", ".join(str((i * m + 3) % 256) for i in range(256)))),
            extracted) for m in (7, 9, 11, 13, 15)]
        payloads = [LemmaPayload(theories=pair, lemma_name=lemma.name,
                                 seed=1)
                    for pair in pairs for lemma in pair.lemmas[:2]]
        expected = [p.encode_result(p.run()) for p in payloads]
        assert len({str(e) for e in expected}) > 1   # verdicts differ
        for _ in range(2):
            for payload, wire in zip(payloads, expected):
                clone = _round_trip(payload)
                assert clone.encode_result(clone.run()) == wire
                assert len(payload_mod._THEORY_PAIRS) <= 2


class _Link:
    def __init__(self):
        self.sent = []

    def send(self, message):
        self.sent.append(message)


def _lease(link, local_cache, i):
    batch = BatchPayload(((i, CallPayload(_square, (i,)), f"t{i}", f"k{i}"),))
    worker._handle_lease(link, {
        "op": "lease", "lease": f"l{i}", "indices": [i], "timeout": None,
        "blob": encode_blob((batch, RetryPolicy()))},
        False, local_cache, deque())
    reply = link.sent[-1]
    return reply["served"][0], decode_blob(reply["blob"])[0][:3]


class TestWorkerLocalCache:
    def test_local_cache_stays_bounded(self, monkeypatch):
        monkeypatch.setattr(worker, "LOCAL_CACHE_ENTRIES", 4)
        local_cache = worker._local_cache()
        link = _Link()
        for i in range(10):
            assert _lease(link, local_cache, i) == \
                ("computed", (i, "ok", i * i))
            assert len(local_cache) <= 4
        # the most recent keys answer locally; evicted ones recompute,
        # with identical verdicts either way
        assert _lease(link, local_cache, 9) == ("local", (9, "ok", 81))
        assert _lease(link, local_cache, 0) == ("computed", (0, "ok", 0))
        assert len(local_cache) <= 4
