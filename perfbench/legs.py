"""The three legs of the benchmark: solve, serve and patch.

A workload runs exactly one leg.  Each leg builds its inputs from a seed
(its constructor).  :meth:`run_pass` is a generator: it yields after every
timed operation (one solve, one serve round, one patch batch), so a caller
can interleave the operations of two passes; the generator returns the
pass's :class:`PassResult`.  Each pass checks its outputs against the
scipy oracle outside the timed regions.

The solve leg repeats one round of solves on every pass, so its modeled
numbers must repeat exactly.  The serve and patch legs draw every pass
from its own seed (:func:`pass_leg`): one pass of them covers too few
queries or updates for its cost to be the same from one seed to the next
(the median patch batch moves by 14 % between seeds), and a run that
averages over several draws is steadier.

All solves and the service share one device: a V100 whose memory is cut
to 1/4096 (4 MiB), so every out-of-core driver really runs out of core.

Graph *topologies* come from the generators at a fixed seed; the run's seed
draws the edge weights, the query stream and the updates.  A fixed
topology keeps one boundary plan in every run: across generator seeds the
k-search lands on different plans whose solve times differ several-fold.
"""

from __future__ import annotations

import dataclasses
import shutil
import sys
import tempfile
import time
import traceback
from contextlib import contextmanager
from pathlib import Path

import numpy as np

from perfbench import oracle, speed
from repro.core.api import solve_apsp
from repro.dynamic.patch import DynamicAPSP
from repro.gpu.device import V100
from repro.graphs.csr import CSRGraph
from repro.graphs.generators import erdos_renyi, road_like
from repro.serve.loadgen import generate_queries, generate_updates
from repro.serve.request import AdmissionError, Query
from repro.serve.service import APSPService

SPEC = dataclasses.replace(V100, memory_bytes=V100.memory_bytes // 4096)

TOPOLOGY_SEED = 0
SERVE_ROUNDS = 6
SERVE_BURST = 64
SERVE_UPDATES = 4
PATCH_BATCHES = 128
PATCH_UPDATES = 4


def seeded_weights(graph: CSRGraph, seed: int) -> CSRGraph:
    """``graph``'s topology with integer weights in [1, 100] drawn from
    ``seed``; both directions of an edge get the same weight."""
    src, dst, _ = graph.edge_array()
    n = graph.num_vertices
    pair = np.minimum(src, dst) * n + np.maximum(src, dst)
    keys, inverse = np.unique(pair, return_inverse=True)
    weights = np.random.default_rng(seed).integers(1, 101, size=keys.size)
    return CSRGraph.from_edges(n, src, dst, weights[inverse].astype(np.float64), name=graph.name)


class Clock:
    """Wall time of the timed regions.  Between regions it runs the
    host-speed probe (untimed, see :mod:`perfbench.speed`): once before the
    first region and once per ``PROBE_EVERY_S`` of timed work after that.
    With a tracer, its layer wrappers are installed just before each region
    starts and removed just after it ends, so untimed work (input
    generation, oracle checks, probes) is never traced."""

    PROBE_EVERY_S = 0.25

    def __init__(self, tracer=None) -> None:
        self.tracer = tracer
        self.last = 0.0
        self.total = 0.0
        self.probes: list[float] = []

    def scale(self) -> float:
        """Factor that rescales this clock's times to the reference host."""
        return speed.scale(self.probes)

    @contextmanager
    def timed(self):
        while len(self.probes) <= self.total / self.PROBE_EVERY_S:
            self.probes.append(speed.probe())
        if self.tracer is not None:
            self.tracer.install()
        t0 = time.perf_counter()
        try:
            yield
        finally:
            self.last = time.perf_counter() - t0
            self.total += self.last
            if self.tracer is not None:
                self.tracer.uninstall()


@dataclasses.dataclass
class PassResult:
    """One pass of one leg: its samples, metrics and operation tally.

    ``inputs`` is the seed of the leg that ran the pass: passes over the
    same inputs must agree on ``modeled``, the simulator's exact numbers.
    ``latencies`` holds one wall-clock sample per operation the user waits
    on (a solve round, a query, a patch batch); ``completed`` counts the
    units of work behind ``throughput`` (solves, answered queries, applied
    updates).  ``wall`` holds per-operation wall details the traced run
    reports.  ``unexpected`` counts exceptions other than legitimate
    admission refusals.
    """

    inputs: int
    wall_s: float = 0.0
    latencies: list[float] = dataclasses.field(default_factory=list)
    completed: int = 0
    wall: dict[str, float] = dataclasses.field(default_factory=dict)
    modeled: dict[str, float] = dataclasses.field(default_factory=dict)
    attempted: int = 0
    refused: int = 0
    raised: int = 0
    wrong: int = 0
    unexpected: int = 0

    @property
    def failed(self) -> int:
        return self.refused + self.raised + self.wrong


def pass_leg(leg, index: int):
    """The leg that runs pass ``index`` of a run set up as ``leg``:
    ``leg`` itself for pass 0 and for legs whose passes repeat, otherwise
    a fresh leg on inputs drawn from the run's seed and ``index``."""
    if index == 0 or not leg.distinct_passes:
        return leg
    seed = int(np.random.SeedSequence([leg.seed, index]).generate_state(1)[0])
    return type(leg)(seed, leg.workdir)


def _report(leg: str, exc: BaseException) -> None:
    print(f"[{leg}] operation raised:", file=sys.stderr)
    traceback.print_exception(exc, file=sys.stderr)


def interleave(passes: dict) -> dict:
    """Drive the ``run_pass`` generators in ``passes`` (name -> generator)
    one operation each in turn; returns name -> :class:`PassResult`."""
    results = {}
    while len(results) < len(passes):
        for name, gen in passes.items():
            if name in results:
                continue
            try:
                next(gen)
            except StopIteration as stop:
                results[name] = stop.value
    return results


def drive(gen) -> PassResult:
    """Run one ``run_pass`` generator to its end."""
    return interleave({"pass": gen})["pass"]


class SolveLeg:
    """Out-of-core ``solve_apsp`` calls, each algorithm on the graph class
    the paper picks it for.  One pass is one round of the three solves;
    the round is the operation whose latency is reported."""

    name = "solve"
    ALGORITHMS = ("johnson", "fw", "boundary")
    #: every pass repeats the round: the oracle of road(4000) is too dear
    #: to compute again for every pass
    distinct_passes = False

    def __init__(self, seed: int, workdir: Path) -> None:
        self.seed = seed
        self.workdir = workdir
        topologies = {
            "johnson": road_like(600, 2.5, seed=TOPOLOGY_SEED),
            # dense band: 24·1536 edges is 1.56 % density
            "fw": erdos_renyi(1536, 24 * 1536, seed=TOPOLOGY_SEED),
            "boundary": road_like(4000, 2.5, seed=TOPOLOGY_SEED),
        }
        self.graphs = {alg: seeded_weights(g, seed) for alg, g in topologies.items()}
        self._expected: dict[str, np.ndarray] = {}

    def _solve(self, alg: str, scratch: Path):
        graph = self.graphs[alg]
        if alg == "johnson":
            return solve_apsp(graph, algorithm="johnson", device=SPEC)
        if alg == "fw":
            return solve_apsp(
                graph, algorithm="floyd-warshall", device=SPEC,
                store_mode="disk", store_dir=str(scratch),
                checkpoint_dir=str(scratch / "checkpoint"),
            )
        return solve_apsp(graph, algorithm="boundary", device=SPEC, num_components=16)

    def _check(self, alg: str, dist: np.ndarray) -> int:
        if alg not in self._expected:
            self._expected[alg] = oracle.apsp(self.graphs[alg])
        return oracle.count_wrong(self._expected[alg], dist)

    def run_pass(self, clock: Clock):
        out = PassResult(inputs=self.seed)
        for alg in self.ALGORITHMS:
            out.attempted += 1
            scratch = Path(tempfile.mkdtemp(dir=self.workdir / "tmp"))
            try:
                with clock.timed():
                    result = self._solve(alg, scratch)
            except Exception as exc:  # counted as a failed operation
                _report(self.name, exc)
                out.raised += 1
                out.unexpected += 1
            else:
                out.wall_s += clock.last
                out.completed += 1
                out.wall[f"solve.{alg}.wall_s"] = clock.last
                out.modeled[f"solve.{alg}.modeled_s"] = result.simulated_seconds
                wrong = self._check(alg, result.to_array())
                if wrong:
                    print(f"[solve] {alg}: {wrong} distances differ from scipy", file=sys.stderr)
                    out.wrong += 1
                del result
            finally:
                shutil.rmtree(scratch, ignore_errors=True)
            yield
        if out.completed == len(self.ALGORITHMS):
            out.latencies.append(out.wall_s)
        return out


class ServeLeg:
    """A closed loop against one ``APSPService``: per round, one client
    submits a burst of point and SSSP queries at the service's modeled
    time, drains, then mutates the graph.  One pass is the life of one
    fresh service.  Full queries are left out of the stream because of a
    known defect (:meth:`probe_known_defect`), which each run reports
    instead."""

    name = "serve"
    distinct_passes = True

    def __init__(self, seed: int, workdir: Path) -> None:
        self.seed = seed
        self.workdir = workdir
        self.graph = seeded_weights(road_like(1024, 2.5, seed=TOPOLOGY_SEED), seed)

    def _submit(self, svc, query, at, out: PassResult):
        """Submit ``query``; a refusal is counted and returns ``None``."""
        try:
            return svc.submit(query, at=at)
        except AdmissionError:  # over the admission budget: a legitimate refusal
            out.refused += 1
        except Exception as exc:
            _report(self.name, exc)
            out.refused += 1
            out.unexpected += 1
        return None

    def probe_known_defect(self) -> tuple[bool, bool]:
        """Untimed check of the known defect: ``submit(Query.full())`` on
        this middle-density road graph raises ``KeyError: 'johnson'``.
        Returns ``(present, ok)``: ``present`` while that exact error is
        raised; ``ok`` is false if anything else goes wrong, or if a full
        query, once answered, differs from the oracle."""
        cache_dir = tempfile.mkdtemp(dir=self.workdir / "tmp")
        try:
            svc = APSPService(self.graph, spec=SPEC, cache_dir=cache_dir)
            try:
                svc.submit(Query.full())
            except KeyError as exc:
                if exc.args == ("johnson",):
                    return True, True
                _report(self.name, exc)
                return False, False
            responses = svc.drain()
            return False, len(responses) == 1 and oracle.check_responses(self.graph, responses) == 0
        except Exception as exc:
            _report(self.name, exc)
            return False, False
        finally:
            shutil.rmtree(cache_dir, ignore_errors=True)

    def run_pass(self, clock: Clock):
        out = PassResult(inputs=self.seed)
        modeled_lat: list[float] = []
        cache_dir = tempfile.mkdtemp(dir=self.workdir / "tmp")
        try:
            svc = APSPService(self.graph, spec=SPEC, cache_dir=cache_dir)
            for rnd in range(SERVE_ROUNDS):
                rseed = self.seed * 1000 + rnd
                queries = generate_queries(
                    svc.graph, num_queries=SERVE_BURST, seed=rseed,
                    point_fraction=0.5,
                )
                updates = generate_updates(svc.graph, num_updates=SERVE_UPDATES, seed=rseed)
                graph = svc.graph
                submitted: dict[int, float] = {}
                responses = []
                out.attempted += len(queries)
                with clock.timed():
                    at = svc.now
                    for query in queries:
                        t_submit = time.perf_counter()
                        ticket = self._submit(svc, query, at, out)
                        if ticket is not None:
                            submitted[ticket.ticket_id] = t_submit
                    try:
                        responses = svc.drain()
                    except Exception as exc:  # its tickets stay unanswered
                        _report(self.name, exc)
                        out.unexpected += 1
                    t_drained = time.perf_counter()
                    try:
                        svc.mutate(updates)
                    except Exception as exc:
                        _report(self.name, exc)
                        out.unexpected += 1
                out.wall_s += clock.last
                for resp in responses:
                    out.latencies.append(t_drained - submitted.pop(resp.ticket_id))
                    modeled_lat.append(resp.latency)
                out.completed += len(responses)
                out.raised += len(submitted)  # admitted but never answered
                out.wrong += oracle.check_responses(graph, responses)
                yield
        finally:
            shutil.rmtree(cache_dir, ignore_errors=True)
        if modeled_lat:
            out.wall["serve.wall_p95_ms"] = 1e3 * float(np.percentile(out.latencies, 95))
            out.modeled["serve.modeled_p50_ms"] = 1e3 * float(np.percentile(modeled_lat, 50))
            out.modeled["serve.modeled_p95_ms"] = 1e3 * float(np.percentile(modeled_lat, 95))
        return out


class PatchLeg:
    """Seeded edge-update batches through ``DynamicAPSP.apply`` on a solved
    road graph.  One pass applies the whole sequence to a fresh copy of the
    solved state; each batch is an operation."""

    name = "patch"
    distinct_passes = True

    def __init__(self, seed: int, workdir: Path) -> None:
        self.seed = seed
        self.workdir = workdir
        self.graph = seeded_weights(road_like(200, 2.5, seed=TOPOLOGY_SEED), seed)
        self.dist = solve_apsp(self.graph, algorithm="johnson", device=SPEC).to_array().copy()

    def run_pass(self, clock: Clock):
        out = PassResult(inputs=self.seed)
        dyn = DynamicAPSP(self.graph, self.dist.copy())
        moved = 0
        for batch in range(PATCH_BATCHES):
            updates = generate_updates(
                dyn.graph, num_updates=PATCH_UPDATES, seed=self.seed * 1000 + batch
            )
            out.attempted += 1
            try:
                with clock.timed():
                    result = dyn.apply(updates)
            except Exception as exc:
                _report(self.name, exc)
                out.unexpected += 1
                # the closure state is unknown: this and every later batch fail
                out.raised += PATCH_BATCHES - batch
                out.attempted += PATCH_BATCHES - batch - 1
                break
            out.wall_s += clock.last
            out.latencies.append(clock.last)
            out.completed += len(updates)
            moved += result.bytes_moved
            out.wrong += oracle.count_wrong(oracle.apsp(dyn.graph), dyn.dist) > 0
            yield
        out.modeled["dynamic.modeled_bytes"] = float(moved)
        return out


LEGS = {"solve-ooc": SolveLeg, "serve-road": ServeLeg, "patch-road": PatchLeg}
