"""The uniform proof-obligation type and adapters over the proof layers.

An :class:`Obligation` is one schedulable, cacheable unit of proof work:

* a VC discharge (``kind='vc'``): one verification condition pushed
  through :meth:`repro.prover.auto.AutoProver.prove` and, on failure, the
  subprogram's interactive proof scripts;
* an equivalence trial (``kind='equiv_trial'``): one differential-test
  trial of a semantics-preservation theorem
  (:mod:`repro.equiv.differential`);
* an implication lemma (``kind='lemma'``): one
  :func:`repro.implication.prover.discharge_lemma` step.

The work itself is written once, as the obligation's ``payload``
(:mod:`repro.exec.payload`): every backend runs ``payload.run()`` --
the serial backend inline on the caller's live objects, the process and
remote backends in a worker after the payload is pickled across.  The
adapters below only attach a stable cache key (content-addressed over
term fingerprints + program/theory text + prover configuration) and,
where the result is plain data, JSON codecs for the on-disk cache layer.

Obligations in the same ``group`` are executed serially in submission
order even under a parallel scheduler -- this is how per-subprogram prover
state (memo caches, fresh-name counters) keeps its exact serial-run
discipline while distinct subprograms fan out.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Callable, Optional

from .cache import make_key, package_fingerprint, theory_fingerprint

__all__ = [
    "Obligation",
    "vc_obligation", "equiv_trial_obligation", "lemma_obligation",
    "VC", "EQUIV_TRIAL", "LEMMA",
]

VC = "vc"
EQUIV_TRIAL = "equiv_trial"
LEMMA = "lemma"


@dataclass
class Obligation:
    """One unit of proof work for the scheduler."""

    kind: str                        # 'vc' | 'equiv_trial' | 'lemma' | ...
    label: str                       # human-readable; shows up in telemetry
    #: The work (:class:`~repro.exec.payload.ObligationPayload`): run
    #: inline by the serial backend, shipped by the parallel ones.
    payload: Any
    cache_key: Optional[str] = None  # None: never cached
    group: Optional[str] = None      # same group => serial, in order
    #: JSON codecs for the on-disk cache layer; absent => memory-only.
    #: ``decode`` also maps a payload's ``encode_result`` wire back.
    encode: Optional[Callable[[Any], Any]] = None
    decode: Optional[Callable[[Any], Any]] = None

    def __post_init__(self):
        if not callable(getattr(self.payload, "run", None)):
            raise TypeError(f"obligation {self.label!r} needs a payload "
                            f"with a run() method, got {self.payload!r}")


# ---------------------------------------------------------------------------
# VC discharge
# ---------------------------------------------------------------------------

def _encode_vc_result(value):
    stage, result = value
    return {"stage": stage,
            "result": None if result is None else
            [bool(result.proved), result.method, result.detail]}


def _decode_vc_result(payload):
    from ..prover.auto import ProofResult
    raw = payload["result"]
    result = None if raw is None else \
        ProofResult(proved=raw[0], method=raw[1], detail=raw[2])
    return payload["stage"], result


def vc_obligation(vc, payload, *, config: str = "") -> Obligation:
    """Wrap the discharge of one :class:`~repro.vcgen.examiner.VCRecord`.

    ``payload`` is its :class:`~repro.exec.payload.VCPayload`, whose run
    returns ``(stage, ProofResult-or-None)`` -- the stage/result pair the
    implementation-proof session records as a
    :class:`~repro.prover.session.VCOutcome`.  The key covers the
    simplified VC term, the VC's identity, the package text, and the
    prover configuration (timeouts, available scripts), so any change to
    code, annotations, or setup is a miss.
    """
    from ..logic import fingerprint
    key = make_key(VC, package_fingerprint(payload.typed), vc.subprogram,
                   vc.name, vc.kind,
                   fingerprint(vc.simplified.simplified), config)
    return Obligation(
        kind=VC, label=f"{vc.subprogram}/{vc.name}", payload=payload,
        cache_key=key, group=f"sp:{vc.subprogram}",
        encode=_encode_vc_result, decode=_decode_vc_result)


# ---------------------------------------------------------------------------
# Equivalence trials
# ---------------------------------------------------------------------------

def _state_token(state) -> str:
    """Canonical serialization of an initial interpreter state (dict of
    name -> int/bool/tuple)."""
    return repr(sorted(state.items()))


def equiv_trial_obligation(index: int, payload) -> Obligation:
    """Wrap one differential trial (an
    :class:`~repro.exec.payload.EquivTrialPayload`, whose run returns a
    Counterexample or None).  Cached in memory only (counterexamples
    carry interpreter states, which we do not serialize to disk)."""
    name = payload.left_name
    key = make_key(EQUIV_TRIAL, package_fingerprint(payload.left),
                   package_fingerprint(payload.right), name,
                   _state_token(dict(payload.initial)))
    return Obligation(
        kind=EQUIV_TRIAL, label=f"{name}#trial{index}", payload=payload,
        cache_key=key)


# ---------------------------------------------------------------------------
# Implication lemmas
# ---------------------------------------------------------------------------

def _encode_lemma_outcome(outcome):
    """Scalar fields of a LemmaOutcome -- shared by the on-disk cache
    codec and the parallel backends' result wire."""
    return {"proved": outcome.proved, "evidence": outcome.evidence,
            "is_proof": outcome.is_proof, "detail": outcome.detail,
            "manual_steps": outcome.manual_steps}


def lemma_obligation(lemma, payload) -> Obligation:
    """Wrap one implication-lemma discharge (a
    :class:`~repro.exec.payload.LemmaPayload` returning the
    :class:`~repro.implication.prover.LemmaOutcome`).  The codec stores
    the outcome's scalar fields and re-attaches ``lemma`` on decode."""

    def decode(wire):
        from ..implication.prover import LemmaOutcome
        return LemmaOutcome(lemma=lemma, proved=wire["proved"],
                            evidence=wire["evidence"],
                            is_proof=wire["is_proof"],
                            detail=wire["detail"],
                            manual_steps=wire["manual_steps"])

    pair = payload.theories
    key = make_key(LEMMA, theory_fingerprint(pair.original),
                   theory_fingerprint(pair.extracted), lemma.name,
                   lemma.kind, lemma.original, lemma.extracted,
                   f"seed={payload.seed}")
    return Obligation(
        kind=LEMMA, label=f"lemma:{lemma.name}", payload=payload,
        cache_key=key, encode=_encode_lemma_outcome, decode=decode)
