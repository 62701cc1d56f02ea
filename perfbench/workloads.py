"""The three benchmark workloads, driven through ``repro``'s public API.

Each workload repeats its *set-up* (timed; ``setup_s`` is the median)
and then measures whole *units* of work until at least ``seconds`` have
been measured.  Every unit's output is checked against a known answer; a
miss is recorded as a failure, never skipped.

* ``prove_cold`` -- a unit is the section 6.2.3 implementation proof of
  the annotated AES: proof scripts on, result cache off, process backend
  with two workers.
* ``plan_search`` -- a unit is one planner discovery from the optimized
  AES with a bounded number of expansions: serial backend, no plan cache.
* ``edit_stream`` -- a unit is one pass of an edit stream sent by a
  closed-loop client to an in-process verification daemon: rounds of a
  seeded mutation of the annotated AES, then a revert to the base
  source, each an incremental ``prove`` request.

``prove_cold`` and ``plan_search`` run the paper's fixed case-study
inputs, so their inputs do not depend on the seed; ``edit_stream`` draws
its edits from it.
"""

from __future__ import annotations

import asyncio
import hashlib
import itertools
import json
import random
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import Dict, List, Optional

#: The edit stream works on the annotated AES minus these five
#: subprograms, which take 9-16 s each to prove cold (the whole package
#: takes ~66 s serially).  One mutation in their cone would cost 10-60 s,
#: so a run's length would hinge on the seed.  ``prove_cold`` covers them.
EDIT_EXCLUDED = ("Mix_Columns", "Inv_Mix_Columns", "Key_Schedule_128",
                 "Key_Schedule_192", "Key_Schedule_256")

#: Proved by the edit stream but never mutated: a mutation of these
#: top-level wrappers makes their VCs false, and re-verifying it mostly
#: waits out the auto prover's 3 s per-VC timeout (1.6-3.4 s a round), a
#: constant no change to the code moves.  Such rounds took half of each
#: pass.
EDIT_UNMUTATED = ("AES128", "AES192", "AES256", "Inv_AES128", "Inv_AES192",
                  "Inv_AES256")

#: Size presets; ``tiny`` exists for the benchmark's own smoke tests.
SIZES = {
    "full": {
        "prove_cold": {"subprograms": None},
        "plan_search": {"max_expansions": 1},
        "edit_stream": {"subprograms": None},
    },
    "tiny": {
        "prove_cold": {"subprograms": ["Sub_Bytes", "Add_Round_Key",
                                       "Rcon_Word"]},
        "plan_search": {"max_expansions": 0},
        "edit_stream": {"subprograms": ["GF_Mul3", "Sub_Bytes",
                                        "Add_Round_Key"]},
    },
}

#: Set-ups per run (``setup_s`` is their median): a parse and
#: typecheck or a planner build takes 0.1-0.3 s, so a run repeats it
#: nine times; a daemon start with its cold warm-up proof takes ~0.8 s.
SETUPS = {"prove_cold": 9, "plan_search": 9, "edit_stream": 5}

#: ``prove_cold``'s process workers: the configuration a user of a
#: two-core machine runs.
PROVE_JOBS = 2

#: Child processes that run ``edit_stream``'s cold reference proofs.
REFERENCE_JOBS = 2

HERE = Path(__file__).resolve().parent
SRC = HERE.parent / "src"


@dataclass
class Unit:
    """One measured unit of work."""

    wall: float
    requests: int = 1       # replies the client waited for
    vcs: int = 0            # VC verdicts delivered
    evals: int = 0          # evaluations: candidates, or VC obligations


@dataclass
class Measurement:
    """What one run of a workload produced."""

    setup_walls: List[float] = field(default_factory=list)
    units: List[Unit] = field(default_factory=list)
    #: One per interaction the client waits on: a proof, a plan, or an
    #: edit round (a mutation's re-verification plus its revert's).
    latencies: List[float] = field(default_factory=list)
    attempted: int = 0      # checked operations
    failures: List[str] = field(default_factory=list)
    exec_stats: List[dict] = field(default_factory=list)
    extra: Dict[str, float] = field(default_factory=dict)
    answers: Dict[str, object] = field(default_factory=dict)
    peak_rss_mb: float = 0.0

    def add(self, unit: Unit) -> None:
        """Append a measured unit.  The peak RSS is read after the first
        one, so it covers the same work however many units fit in a run
        (an edit stream's memory grows with every pass)."""
        self.units.append(unit)
        if len(self.units) == 1:
            self.peak_rss_mb = peak_rss_mb()

    @property
    def measured_s(self) -> float:
        return sum(unit.wall for unit in self.units)

    def check(self, answers: dict, reference: dict) -> None:
        """Count one checked operation; a key that differs from the
        reference is a failure."""
        self.answers = answers
        self.attempted += 1
        self.failures.extend(
            f"{key}: got {answers.get(key)!r}, expected {value!r}"
            for key, value in reference.items() if answers.get(key) != value)


def verdict_digest(rows) -> str:
    """SHA-256 over the sorted ``(subprogram, vc, kind, stage, proved)``
    verdict rows."""
    text = json.dumps(sorted(list(row) for row in rows))
    return hashlib.sha256(text.encode()).hexdigest()


def _outcome_rows(outcomes) -> list:
    return [(o.vc.subprogram, o.vc.name, o.vc.kind, o.stage,
             o.stage != "undischarged") for o in outcomes]


def _reply_rows(reply: dict) -> list:
    return [(v["subprogram"], v["vc"], v["vc_kind"], v["stage"],
             v["stage"] != "undischarged")
            for v in reply["result"]["verdicts"]]


def _base_source() -> str:
    """The annotated AES as MiniAda text: what a client would send."""
    from repro.aes.annotations import annotated_source_package
    from repro.lang import print_package
    return print_package(annotated_source_package())


def peak_rss_mb() -> float:
    """Peak resident set of this process plus the largest peak among its
    finished child processes (``getrusage``; Linux reports KiB)."""
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    children = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return (own + children) / 1024.0


def _setups(setup, count: int, walls: List[float]) -> list:
    """Time ``count`` set-ups into ``walls``; keep only the last state
    (the first unit's), so the others hold no memory."""
    state = None
    for _ in range(count):
        state = _timed(setup, walls)
    return [state]


def _timed(fn, walls: List[float]):
    started = time.perf_counter()
    value = fn()
    walls.append(time.perf_counter() - started)
    return value


class _Traced:
    """Switches the tracer (if any) on for the enclosed block."""

    def __init__(self, tracer):
        self.tracer = tracer

    def __enter__(self):
        if self.tracer is not None:
            self.tracer.active = True

    def __exit__(self, *exc):
        if self.tracer is not None:
            self.tracer.active = False
        return False


# ---------------------------------------------------------------------------
# prove_cold
# ---------------------------------------------------------------------------

class ProveCold:
    name = "prove_cold"

    def __init__(self, params: dict, reference: dict, workdir: Path):
        self.params = params
        self.reference = reference
        self.source = _base_source()

    def _setup(self):
        from repro.aes.proof_scripts import aes_proof_scripts
        from repro.lang import analyze, parse_package
        return analyze(parse_package(self.source)), aes_proof_scripts()

    def run(self, seconds: float, seed: int, serial: bool,
            tracer=None) -> Measurement:
        from repro.exec import ExecConfig, Telemetry
        from repro.prover import ImplementationProof
        out = Measurement()
        states = _setups(self._setup, SETUPS[self.name], out.setup_walls)
        backend, jobs = ("serial", 1) if serial \
            else ("process", PROVE_JOBS)
        while not out.units or out.measured_s < seconds:
            # Every unit proves a freshly set-up package: nothing warm
            # carries over from the previous proof.
            typed, scripts = states.pop() if states \
                else _timed(self._setup, out.setup_walls)
            telemetry = Telemetry()
            config = ExecConfig(backend=backend, jobs=jobs, cache=False,
                                telemetry=telemetry)
            proof = ImplementationProof(typed, scripts=scripts, exec=config)
            with _Traced(tracer):
                started = time.perf_counter()
                result = proof.run(self.params["subprograms"])
                wall = time.perf_counter() - started
            stats = telemetry.stats().to_json()
            out.add(Unit(wall, vcs=result.total_vcs,
                         evals=sum(stats["obligations"].values())))
            out.latencies.append(wall)
            out.exec_stats.append(stats)
            out.extra["simplifier_vcs"] = out.extra.get(
                "simplifier_vcs", 0) + sum(
                1 for o in result.outcomes if o.stage == "simplifier")
            out.check({
                "verdict_digest": verdict_digest(
                    _outcome_rows(result.outcomes)),
                "total_vcs": result.total_vcs,
                "auto_discharged": result.auto_discharged,
                "subprograms": len({o.vc.subprogram
                                    for o in result.outcomes}),
                "fully_automatic": len(result.fully_automatic_subprograms()),
            }, self.reference)
        return out


# ---------------------------------------------------------------------------
# plan_search
# ---------------------------------------------------------------------------

class _ProbeTap:
    """Counts the VCs the planner's probe tier examined, read off the
    evaluations ``evaluate_candidate`` returns.  It re-binds that one
    function where the planner looks it up and does no timing."""

    def __init__(self):
        self.vcs = 0

    def __enter__(self):
        import repro.plan.search as search
        self._module = search
        self._original = original = search.evaluate_candidate

        def tapped(*args, **kwargs):
            value = original(*args, **kwargs)
            self.vcs += value.get("probe_total") or 0
            return value

        search.evaluate_candidate = tapped
        return self

    def __exit__(self, *exc):
        self._module.evaluate_candidate = self._original
        return False


class PlanSearch:
    name = "plan_search"

    def __init__(self, params: dict, reference: dict, workdir: Path):
        self.params = params
        self.reference = reference

    def _setup(self):
        # The construction ``repro.plan.plan_aes`` performs, with its
        # defaults, split out so the planner's set-up is timed apart
        # from its search.
        from repro.aes.blocks import cipher_sampler
        from repro.aes.fips197 import fips197_theory
        from repro.aes.optimized import optimized_source
        from repro.exec import ExecConfig, Telemetry
        from repro.lang import parse_package
        from repro.plan import Planner, aes_catalog
        telemetry = Telemetry()
        planner = Planner(
            parse_package(optimized_source()),
            observables=["Cipher", "Inv_Cipher"],
            reference=fips197_theory(), catalog=aes_catalog(),
            max_expansions=self.params["max_expansions"],
            check="differential", trials=2,
            samplers={"Cipher": cipher_sampler,
                      "Inv_Cipher": cipher_sampler},
            exec=ExecConfig(backend="serial", jobs=1, cache=False,
                            telemetry=telemetry))
        return planner, telemetry

    def run(self, seconds: float, seed: int, serial: bool,
            tracer=None) -> Measurement:
        out = Measurement()
        states = _setups(self._setup, SETUPS[self.name], out.setup_walls)
        while not out.units or out.measured_s < seconds:
            planner, telemetry = states.pop() if states \
                else _timed(self._setup, out.setup_walls)
            with _ProbeTap() as tap, _Traced(tracer):
                started = time.perf_counter()
                result = planner.plan()
                wall = time.perf_counter() - started
            out.add(Unit(wall, vcs=tap.vcs,
                         evals=result.evaluations))
            out.latencies.append(wall)
            out.exec_stats.append(telemetry.stats().to_json())
            out.check({"chain_digest": result.chain_digest,
                       "evaluations": result.evaluations,
                       "validations": result.validations,
                       "steps": result.step_count}, self.reference)
        return out


# ---------------------------------------------------------------------------
# edit_stream
# ---------------------------------------------------------------------------

class _SiteCursor(random.Random):
    """The ``rng`` handed to ``random_mutation``: its ``choice`` over
    mutation sites walks one subprogram's sites in a seeded order, a new
    site per call, so the seeder's own operators mutate that subprogram
    and successive passes visit different sites before any repeats."""

    def __init__(self, seed: str, target: str):
        super().__init__(seed)
        self.target = target
        self._order: Optional[List[int]] = None
        self._next = 0

    def choice(self, seq):
        sites = [site for site in seq if site[1] == self.target]
        if self._order is None:
            self._order = list(range(len(sites)))
            self.shuffle(self._order)
        site = sites[self._order[self._next % len(sites)]]
        self._next += 1
        return site


@dataclass
class _Daemon:
    service: object
    state_dir: Path
    warm_rows: list


class EditStream:
    name = "edit_stream"

    def __init__(self, params: dict, reference: dict, workdir: Path):
        from repro.defects.seeder import mutation_sites
        from repro.lang import analyze, parse_package
        self.params = params
        self.reference = reference
        self.workdir = workdir
        self.source = _base_source()
        self.base = analyze(parse_package(self.source))
        names = [sp.name for sp in self.base.package.subprograms]
        chosen = params["subprograms"] or \
            [n for n in names if n not in EDIT_EXCLUDED]
        self.subprograms = [n for n in names if n in chosen]
        sited = {site[1] for site in mutation_sites(self.base)}
        self.targets = [n for n in self.subprograms
                        if n in sited and n not in EDIT_UNMUTATED]

    def run(self, seconds: float, seed: int, serial: bool,
            tracer=None) -> Measurement:
        # One event loop for the whole run: the daemon's queues and
        # worker tasks belong to the loop that started it.
        return asyncio.run(self._run(seconds, seed, tracer))

    def rounds(self, seed: int):
        """The seeded stream as ``(target, mutated source)`` rounds, one
        pass at a time.  A pass mutates every target once, in a seeded
        order, with a ``defects.seeder.random_mutation`` confined to it;
        each mutation is followed by a revert to the base source.  Every
        pass has the same mix of cone sizes, and each target's sites are
        visited in a seeded order without repeats, so a run's cost varies
        little from seed to seed."""
        from repro.defects.seeder import random_mutation
        from repro.lang import print_package
        cursors = {target: _SiteCursor(f"{seed}:{target}", target)
                   for target in self.targets}
        for number in itertools.count():
            order = list(self.targets)
            random.Random(f"{seed}:{number}").shuffle(order)
            rounds = []
            for target in order:
                mutation = random_mutation(self.base, cursors[target])
                if mutation is not None:
                    rounds.append((target, print_package(mutation.package)))
            yield rounds

    async def _start(self) -> _Daemon:
        """Set-up: start a daemon on a fresh durable state dir and prove
        the base source once, cold."""
        from repro.exec import ExecConfig
        from repro.serve import ServeConfig, VerificationService
        state_dir = Path(tempfile.mkdtemp(prefix="serve-",
                                          dir=self.workdir))
        service = VerificationService(ServeConfig(
            state_dir=state_dir, lanes={"interactive": 1, "bulk": 0},
            default_exec=ExecConfig(backend="serial", jobs=1),
            telemetry_out=state_dir / "telemetry.json"))
        await service.start()
        reply = await self._prove(service, self.source)
        if reply.get("status") != "ok":
            raise RuntimeError(f"warm-up proof failed: {reply.get('error')}")
        return _Daemon(service, state_dir, _reply_rows(reply))

    async def _prove(self, service, source: str) -> dict:
        accepted = await service.submit({
            "kind": "prove", "lane": "interactive",
            "package": {"source": source}, "incremental": True,
            "subprograms": self.subprograms})
        return await service.wait(accepted["id"])

    async def _run(self, seconds, seed, tracer) -> Measurement:
        out = Measurement()
        daemon = None
        for _ in range(SETUPS[self.name]):
            if daemon is not None:      # keep only the last one running
                await daemon.service.stop()
                shutil.rmtree(daemon.state_dir, ignore_errors=True)
            started = time.perf_counter()
            daemon = await self._start()
            out.setup_walls.append(time.perf_counter() - started)

        done = []       # (kind, target, source, verdict rows or None, error)
        costs = {}      # index in done -> a mutation's re-verification wall
        queue_ms, run_ms = [], []
        replayed = rechecked = simplifier = 0
        passes = self.rounds(seed)
        while not out.units or out.measured_s < seconds:
            unit = Unit(0.0, requests=0)
            for target, mutant in next(passes):
                round_wall = 0.0
                for kind, source in (("mutation", mutant),
                                     ("revert", self.source)):
                    with _Traced(tracer):
                        started = time.perf_counter()
                        reply = await self._prove(daemon.service, source)
                        latency = time.perf_counter() - started
                    round_wall += latency
                    unit.requests += 1
                    if reply.get("status") != "ok":
                        done.append((kind, target, source, None,
                                     reply.get("error")))
                        continue
                    result = reply["result"]
                    stats = reply["exec_stats"]
                    rows = _reply_rows(reply)
                    unit.vcs += len(rows)
                    unit.evals += sum(stats["obligations"].values())
                    out.exec_stats.append(stats)
                    queue_ms.append(1e3 * reply["queue_seconds"])
                    run_ms.append(1e3 * reply["run_seconds"])
                    incremental = result.get("incremental") or {}
                    replayed += incremental.get("incr_replayed", 0)
                    rechecked += incremental.get("incr_rechecked", 0)
                    simplifier += sum(1 for row in rows
                                      if row[3] == "simplifier")
                    if kind == "mutation":
                        costs[len(done)] = latency
                    done.append((kind, target, source, rows, None))
                unit.wall += round_wall
                out.latencies.append(round_wall)
            out.add(unit)
        status = daemon.service.status()
        await daemon.service.stop()
        telemetry_bytes = daemon.service.config.telemetry_out.stat().st_size
        shutil.rmtree(daemon.state_dir, ignore_errors=True)

        out.extra.update({
            "serve.queue_ms": _median(queue_ms),
            "serve.run_ms": _median(run_ms),
            "serve.results_held": status["results_held"],
            "serve.telemetry_dump_bytes": telemetry_bytes,
            "incr.replayed_vcs": replayed,
            "incr.rechecked_vcs": rechecked,
            "simplifier_vcs": simplifier,
        })
        # Known answers, outside the timed region.
        out.check({"warm_digest": verdict_digest(daemon.warm_rows),
                   "warm_vcs": len(daemon.warm_rows)}, self.reference)
        cold = self._cold_proofs({index: done[index][1:3]
                                  for index in costs}, costs)
        for index, (kind, target, source, rows, error) in enumerate(done):
            out.attempted += 1
            where = f"edit {index} ({kind} of {target})"
            if rows is None:
                out.failures.append(f"{where}: request failed: {error}")
                continue
            expected = daemon.warm_rows if kind == "revert" else \
                _merge(self.subprograms, daemon.warm_rows, *cold[index])
            if rows != expected:
                out.failures.append(f"{where}: verdicts differ from the "
                                    f"reference")
        return out

    def _cold_proofs(self, jobs: Dict[int, tuple],
                     costs: Dict[int, float]) -> dict:
        """``{index: (cone, rows)}``: the cold reference proof of each
        mutation ``{index: (target, source)}``, run in ``REFERENCE_JOBS``
        child processes.  Jobs are dealt longest first (by the mutation's
        re-verification wall) to the least loaded child.  Every child is
        started with ``subprocess`` and waited for before this returns,
        on every path: a ``multiprocessing`` pool would leave its
        resource tracker process running after the benchmark exits."""
        shards = [[] for _ in range(REFERENCE_JOBS)]
        loads = [0.0] * REFERENCE_JOBS
        for index in sorted(jobs, key=lambda i: -costs[i]):
            least = loads.index(min(loads))
            shards[least].append(index)
            loads[least] += costs[index]
        children = []
        try:
            for number, shard in enumerate(shards):
                if not shard:
                    continue
                request = self.workdir / f"cone-{number}.in.json"
                reply = self.workdir / f"cone-{number}.out.json"
                request.write_text(json.dumps({
                    "subprograms": self.subprograms,
                    "jobs": [jobs[index] for index in shard]}))
                children.append((shard, reply, subprocess.Popen(
                    [sys.executable, "-c", _CONE_CHILD, str(HERE), str(SRC),
                     str(request), str(reply)])))
            cold = {}
            for shard, reply, child in children:
                if child.wait() != 0:
                    raise RuntimeError(f"reference proof child exited "
                                       f"with {child.returncode}")
                results = json.loads(reply.read_text())
                for index, (cone, rows) in zip(shard, results):
                    cold[index] = (cone, [tuple(row) for row in rows])
            return cold
        finally:
            for _, _, child in children:
                if child.poll() is None:
                    child.kill()
                child.wait()


#: A reference-proof child: ``python -c _CONE_CHILD PERFBENCH SRC IN OUT``.
_CONE_CHILD = ("import sys; sys.path[:0] = sys.argv[1:3]; "
               "import workloads; workloads.cone_proofs(*sys.argv[3:5])")


def cone_proofs(request: str, reply: str) -> None:
    """Run :func:`cone_proof` on each job of the JSON file ``request``
    and write the ``(cone, rows)`` list to ``reply``."""
    spec = json.loads(Path(request).read_text())
    Path(reply).write_text(json.dumps(
        [cone_proof(spec["subprograms"], target, source)
         for target, source in spec["jobs"]]))


def cone_proof(subprograms, target: str, source: str):
    """``(cone, rows)``: the affected cone of a mutation -- each
    subprogram in ``subprograms`` whose reference closure reaches
    ``target`` -- and the verdict rows of a cold serial proof of it."""
    from repro.exec import ExecConfig
    from repro.incr import reference_closure
    from repro.lang import analyze, parse_package
    from repro.prover import ImplementationProof
    typed = analyze(parse_package(source))
    closure = reference_closure(typed)
    cone = [n for n in subprograms if target in closure[n]]
    result = ImplementationProof(typed, scripts={}, exec=ExecConfig(
        backend="serial", jobs=1, cache=False)).run(cone)
    return cone, _outcome_rows(result.outcomes)


def _merge(subprograms, warm_rows, cone, cone_rows) -> list:
    """Expected verdicts after a mutation: the cold proof's inside the
    cone, the warm-up's elsewhere, in request order."""
    rows_of: Dict[str, list] = {name: [] for name in subprograms}
    for row in warm_rows:
        if row[0] not in cone:
            rows_of[row[0]].append(row)
    for row in cone_rows:
        rows_of[row[0]].append(row)
    return [row for name in subprograms for row in rows_of[name]]


def _median(values) -> float:
    return statistics.median(values) if values else 0.0


WORKLOADS = {cls.name: cls for cls in (ProveCold, PlanSearch, EditStream)}
