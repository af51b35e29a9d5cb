"""The benchmark's three workloads and the rounds they repeat.

Every workload is a closed loop: one caller, one thread, each call waiting
for the previous reply. A run sets the workload up (several times, to time
set-up), then repeats identical rounds until its time is spent. A round
replays the same chain of steps from the set-up state, through the library
and through the CLI:

- library: enroll the step's transmitters (on fresh copies of the index,
  `enroll_repeats` times, keeping the last), revoke the step's
  transmitters, time `authorize` on every query, then `authorize_batch`
  over the same queries;
- CLI, in-process through `lshauth.cli.main`: `build` from the pool file
  (`build_repeats` times), then per step `enroll`, `revoke` when the step
  revokes, and `authorize` on the query file.

Every program output is checked against `reference` outside the timed
regions; each mismatch is one failed operation.
"""

from __future__ import annotations

import contextlib
import ctypes
import gc
import io
import os
import pickle
import resource
import shutil
import time
import traceback
from dataclasses import dataclass, field
from pathlib import Path
from typing import Optional

import numpy as np

from lshauth import (CostParams, Dataset, ExperimentConfig, LshIndex,
                     TransmitterRegistry, TxStatus, authorize, authorize_batch,
                     build_index, cli, enroll, exact_nn, fit_pca,
                     predict_inference_cost, project, revoke, save_dataset,
                     save_index, save_projector, save_registry, split_dataset)
from lshauth.bench import build_instance_dataset

import reference as ref
from spans import Stopwatch, Tracer, self_times
from stats import median, tail

WARMUP = 100  # leading queries of every batch left out of latency figures
EXACT_SAMPLE = 20  # queries per step also sent to oracle.exact_nn
# Cluster geometry, split and hyperplanes are drawn from this fixed seed, so
# that two runs differ by what the program does, not by the draw: with them
# drawn from the run seed, mean candidates per query at L=5, K=16 ranged
# 753-1,466 over five seeds, and the PCA fit's set-up time 0.37-0.69 s.
# The run's --seed picks the enrolled and revoked transmitters and the
# queries.
INSTANCE_SEED = 0

try:
    _malloc_trim = ctypes.CDLL("libc.so.6").malloc_trim
except (OSError, AttributeError):  # not glibc
    _malloc_trim = None


def settle() -> None:
    """Collect garbage, then hand the C allocator's free pages back to the
    system. Runs before every timed phase, outside it. An lshauth index sits
    in a reference cycle (its tables point back at it), so only a collection
    frees a dropped one; and pages freed but kept by the allocator made
    selective-large's peak RSS read 203 or 218 MB at random on one seed."""
    gc.collect()
    if _malloc_trim is not None:
        _malloc_trim(0)


@dataclass(frozen=True)
class WorkloadSpec:
    num_authorized: int
    num_known: int
    num_outliers: int
    num_tables: int
    hash_bits: int
    steps: tuple[tuple[int, int], ...]  # (transmitters enrolled, revoked)
    # seeded test samples drawn from every transmitter of the test split, so
    # the mix of authorized, enrolled, revoked and unseen queries is the same
    # in every run; a step's queries must leave >= 1,000 after warm-up
    queries_per_tx: int
    query_passes: int  # per-query loop + authorize_batch passes per step
    dimred: bool
    enroll_repeats: int
    build_repeats: int
    setup_repeats: int  # setup_s is the median over these
    dim: int = 64
    samples_per_tx: int = 100


WORKLOADS = {
    # The paper's configuration: the union covers ~99% of N, so the union
    # and the distance scan are almost the whole cost of a query.
    "paper-dense": WorkloadSpec(
        num_authorized=10, num_known=15, num_outliers=30,
        num_tables=20, hash_bits=1, steps=((5, 0),) * 4,
        queries_per_tx=28, query_passes=1, dimred=False,
        enroll_repeats=10, build_repeats=10, setup_repeats=21),
    # ~23.5k records, few candidates for most queries: per-query overhead
    # and snapshot build/save/load dominate; the scan is small. (At ~47k
    # records a 20 s run held too few CLI timings to be steady.)
    "selective-large": WorkloadSpec(
        num_authorized=300, num_known=25, num_outliers=50,
        num_tables=5, hash_bits=16, steps=((10, 0),) * 2,
        queries_per_tx=4, query_passes=5, dimred=False,
        enroll_repeats=5, build_repeats=2, setup_repeats=3),
    # Writes beside reads through snapshot files, every query projected
    # through a PCA fit once to dim/4.
    "churn-dimred": WorkloadSpec(
        num_authorized=80, num_known=35, num_outliers=60,
        num_tables=10, hash_bits=12, steps=((3, 2),) * 4,
        queries_per_tx=8, query_passes=1, dimred=True,
        enroll_repeats=8, build_repeats=6, setup_repeats=5),
}


def child_seed(seed: int, tag: int) -> int:
    return int(np.random.SeedSequence([seed, tag]).generate_state(1, np.uint64)[0])


@dataclass
class Instance:
    """What set-up leaves for the rounds: inputs, files and the base index."""

    spec: WorkloadSpec
    workdir: Path
    index_seed: int
    pool: Dataset  # initial pool in index space
    batches: list[Dataset]  # per step, original space
    enrolled: list[list[int]]
    revoked: list[list[int]]
    queries: Dataset  # original space
    projector: object
    center: np.ndarray
    index: LshIndex
    statuses: dict[int, str]  # the benchmark's own registry at set-up

    def path(self, name: str) -> str:
        return str(self.workdir / name)


def setup(spec: WorkloadSpec, seed: int, workdir: Path, clock) -> Instance:
    """Generate, split, fit, write the files and build the first index."""
    config = ExperimentConfig(
        seed=INSTANCE_SEED, dim=spec.dim, num_authorized=spec.num_authorized,
        num_known_outliers=spec.num_known, num_outliers=spec.num_outliers,
        samples_per_tx=spec.samples_per_tx)
    (data, a_ids, k_ids, o_ids), _ = clock.run(
        "data.generate", build_instance_dataset, config,
        count=spec.samples_per_tx * (spec.num_authorized + spec.num_known
                                     + spec.num_outliers))
    rng = np.random.Generator(np.random.PCG64(child_seed(seed, 1)))
    outliers = [int(t) for t in rng.permutation(o_ids)]
    authorized = [int(t) for t in rng.permutation(a_ids)]
    enrolled, revoked = [], []
    for n_in, n_out in spec.steps:
        enrolled.append(sorted(outliers[:n_in]))
        outliers = outliers[n_in:]
        revoked.append(sorted(authorized[:n_out]))
        authorized = authorized[n_out:]
    added = [t for ids in enrolled for t in ids]
    split, _ = clock.run("data.split", split_dataset, data, TransmitterRegistry(),
                         a_ids + added, k_ids, outliers,
                         seed=child_seed(INSTANCE_SEED, 2))
    full_pool = split.combined_train_val
    pool = full_pool.filter_tx(a_ids + k_ids)
    batches = [full_pool.filter_tx(ids) for ids in enrolled]
    test_tx = split.test.tx_ids
    picks = [rng.choice(np.flatnonzero(test_tx == t), size=spec.queries_per_tx,
                        replace=False) for t in np.unique(test_tx)]
    queries = split.test.subset(np.sort(np.concatenate(picks)))

    projector = None
    if spec.dimred:
        projector, _ = clock.run("dimreduce.fit_pca", fit_pca, pool, spec.dim // 4)
        pool, _ = clock.run("dimreduce.project", project, projector, pool,
                            count=len(pool))
    center = pool.matrix_f64().mean(axis=0)
    index_seed = child_seed(INSTANCE_SEED, 3)

    def first_build():
        index = build_index(pool.dim, spec.num_tables, spec.hash_bits,
                            index_seed, center=center)
        index.insert_dataset(pool)
        return index
    index, _ = clock.run("lsh.build", first_build, count=len(pool))

    statuses = {t: ref.AUTHORIZED for t in a_ids}
    statuses.update({t: ref.KNOWN_OUTLIER for t in k_ids})
    workdir.mkdir(parents=True)
    inst = Instance(spec, workdir, index_seed, pool, batches, enrolled, revoked,
                    queries, projector, center, index, statuses)
    clock.run("formats.save_dataset", save_dataset, pool, inst.path("pool.bin"))
    clock.run("formats.save_dataset", save_dataset, queries, inst.path("queries.bin"))
    for s, batch in enumerate(batches):
        clock.run("formats.save_dataset", save_dataset, batch, inst.path(f"new{s}.bin"))
    clock.run("formats.registry_io", save_registry, program_registry(statuses),
              inst.path("registry.csv"))
    if projector is not None:
        save_projector(projector, inst.path("proj.prj"))
    clock.run("lsh.save_index", save_index, index, inst.path("base.idx"))
    return inst


_STATUS = {ref.AUTHORIZED: TxStatus.AUTHORIZED,
           ref.KNOWN_OUTLIER: TxStatus.KNOWN_OUTLIER,
           ref.REVOKED: TxStatus.REVOKED}


def program_registry(statuses: dict[int, str]) -> TransmitterRegistry:
    reg = TransmitterRegistry()
    for t, s in statuses.items():
        reg.set_status(t, _STATUS[s])
    return reg


@dataclass
class StepReference:
    """Reference results for one step's index, computed once per run."""

    lsh: ref.ReferenceLsh
    neighbors: list  # Optional[ref.Neighbor] per query
    candidates: list[int]
    queries: list  # the vectors the program was queried with (index space)
    size: int
    exact: list = field(default_factory=list)  # full-scan neighbours of a sample


@dataclass
class Samples:
    """Everything a run measures, pooled over its rounds."""

    query_ns: list[int] = field(default_factory=list)
    # per batch: p99 of each query's CPU time, and of its wall time
    batch_p99_ns: list[float] = field(default_factory=list)
    batch_p99_wall_ns: list[float] = field(default_factory=list)
    batch_s: dict[int, list[float]] = field(default_factory=dict)
    enroll_s: dict[int, list[float]] = field(default_factory=dict)
    cli_build_s: list[float] = field(default_factory=list)
    cli_enroll_s: dict[int, list[float]] = field(default_factory=dict)
    cli_authorize_s: dict[int, list[float]] = field(default_factory=dict)
    # traced run only: per query, after warm-up
    cc_ns: list[int] = field(default_factory=list)
    ann_ns: list[int] = field(default_factory=list)
    auth_ns: list[int] = field(default_factory=list)
    transform_ns: list[int] = field(default_factory=list)
    candidates: list[int] = field(default_factory=list)
    scan_fraction: list[float] = field(default_factory=list)
    no_neighbor: int = 0
    accuracy: dict[int, float] = field(default_factory=dict)


class Workload:
    """Runs the rounds of one workload against one instance."""

    def __init__(self, inst: Instance, clock, tally: ref.Tally):
        self.inst = inst
        self.clock = clock
        self.traced = isinstance(clock, Tracer)
        self.tally = tally
        self.samples = Samples()
        self.refs: list[StepReference] = []
        self.base_idx_bytes = Path(inst.path("base.idx")).read_bytes()
        self.rounds = 0

    # -- library chain -----------------------------------------------------

    def round(self) -> None:
        self.library_round()
        self.cli_round()
        self.rounds += 1

    def library_round(self) -> None:
        inst, clock, spec = self.inst, self.clock, self.inst.spec
        index = inst.index.copy()
        registry = program_registry(inst.statuses)
        statuses = dict(inst.statuses)
        for s, batch in enumerate(inst.batches):
            ids = inst.enrolled[s]
            for _ in range(spec.enroll_repeats):
                # the last trial copy is dropped and collected before the
                # next is made, so no dead index lingers
                trial = trial_reg = None
                settle()
                trial, trial_reg = index.copy(), registry.copy()
                settle()
                clock.new_op()
                t0 = time.perf_counter_ns()
                indexed = batch
                if inst.projector is not None:
                    indexed, _ = clock.run("dimreduce.project", project,
                                           inst.projector, batch, count=len(batch))
                clock.run("authorize.enroll", enroll, trial, trial_reg, indexed, ids)
                self.samples.enroll_s.setdefault(s, []).append(
                    (time.perf_counter_ns() - t0) / 1e9)
            index, registry = trial, trial_reg
            statuses.update({t: ref.AUTHORIZED for t in ids})
            step_ref = self.step_reference(s, indexed)
            self.tally.record(len(index) == step_ref.size and self.check_projection(
                batch, indexed), f"library enroll step {s}")
            if inst.revoked[s]:
                clock.new_op()
                clock.run("authorize.revoke", revoke, registry, inst.revoked[s])
                statuses.update({t: ref.REVOKED for t in inst.revoked[s]})
            self.query_step(s, index, registry, statuses)

    def step_reference(self, s: int, indexed: Dataset) -> StepReference:
        """Reference LSH over the records indexed after step s (cached)."""
        if s < len(self.refs):
            return self.refs[s]
        inst = self.inst
        if s == 0:
            lsh = ref.ReferenceLsh(inst.index_seed, inst.spec.num_tables,
                                   inst.spec.hash_bits, inst.pool.dim, inst.center)
            lsh = lsh.extended(inst.pool.tx_ids, inst.pool.sample_ids, inst.pool.matrix)
        else:
            lsh = self.refs[s - 1].lsh
        lsh = lsh.extended(indexed.tx_ids, indexed.sample_ids, indexed.matrix)
        self.refs.append(StepReference(lsh, [], [], [], len(lsh)))
        return self.refs[s]

    def check_projection(self, original: Dataset, indexed: Dataset) -> bool:
        p = self.inst.projector
        if p is None:
            return indexed is original
        return ref.projection_matches(indexed.matrix,
                                      ref.project(original.matrix, p.matrix, p.mean))

    def query_step(self, s: int, index: LshIndex, registry, statuses) -> None:
        for _ in range(self.inst.spec.query_passes):
            self.query_pass(s, index, registry, statuses)
        step_ref = self.refs[s]
        lsh = step_ref.lsh
        # built per step and dropped after: exact_nn caches a float64 copy
        data = Dataset(lsh.vectors.shape[1], lsh.tx, lsh.sm, lsh.vectors)
        for i, want in enumerate(step_ref.exact):
            self.clock.new_op()
            got, _ = self.clock.run("oracle.exact_nn", exact_nn, data,
                                    step_ref.queries[i])
            self.tally.record(
                got is not None and (got[0].tx_id, got[0].sample_id) ==
                (want.tx_id, want.sample_id) and np.isclose(
                    got[1], want.distance, rtol=ref.DIST_RTOL),
                f"exact_nn step {s} query {i}")

    def query_pass(self, s: int, index: LshIndex, registry, statuses) -> None:
        """Time authorize on every query, then authorize_batch; check both."""
        inst, clock = self.inst, self.clock
        step_ref = self.refs[s]
        rows = inst.queries.matrix
        settle()
        if self.traced:
            decisions, vectors = self.traced_queries(index, registry, rows)
        else:
            decisions, vectors = self.timed_queries(index, registry, rows)
        if not step_ref.queries:
            step_ref.queries = vectors
            (step_ref.neighbors, step_ref.candidates), step_ref.exact = in_child(
                reference_neighbors, step_ref.lsh, vectors)
        if inst.projector is not None:
            own = ref.project(rows, inst.projector.matrix, inst.projector.mean)
            self.tally.record(ref.projection_matches(np.stack(vectors), own),
                              f"query projection step {s}")
        self.check_decisions(decisions, step_ref, statuses, f"authorize step {s}")
        truth = [statuses.get(int(t)) == ref.AUTHORIZED for t in inst.queries.tx_ids]
        self.samples.accuracy[s] = float(np.mean(
            [(d.verdict.value == "accept") == t for d, t in zip(decisions, truth)]))

        settle()
        (batch, _lat), dt = clock.run("authorize.batch", authorize_batch, index,
                                      registry, inst.queries,
                                      projector=inst.projector)
        self.samples.batch_s.setdefault(s, []).append(dt)
        self.check_decisions(batch, step_ref, statuses, f"authorize_batch step {s}")

    def timed_queries(self, index, registry, rows):
        projector = self.inst.projector
        pc, cpu = time.perf_counter_ns, time.process_time_ns
        decisions, vectors, lat, lat_cpu = [], [], [], []
        for i in range(len(rows)):
            v = rows[i]
            c0 = cpu()
            t0 = pc()
            if projector is not None:
                v = projector.transform_vector(v)
            d = authorize(index, registry, v)
            t1 = pc()
            c1 = cpu()
            decisions.append(d)
            vectors.append(v)
            lat.append(t1 - t0)
            lat_cpu.append(c1 - c0)
        self.samples.query_ns.extend(lat[WARMUP:])
        self.samples.batch_p99_ns.append(tail(lat_cpu[WARMUP:], 99))
        self.samples.batch_p99_wall_ns.append(tail(lat[WARMUP:], 99))
        return decisions, vectors

    def traced_queries(self, index, registry, rows):
        tracer, projector, smp = self.clock, self.inst.projector, self.samples
        decisions, vectors = [], []
        for i in range(len(rows)):
            tracer.new_op()
            v = rows[i]
            if projector is not None:
                v, dt = tracer.run("dimreduce.transform", projector.transform_vector, v)
                if i >= WARMUP:
                    smp.transform_ns.append(dt * 1e9)
            count, cc = tracer.run("lsh.candidate_count", index.candidate_count, v)
            _, ann = tracer.run("lsh.ann_search", index.ann_search, v)
            d, auth = tracer.run("authorize.authorize", authorize, index, registry, v)
            decisions.append(d)
            vectors.append(v)
            if i >= WARMUP:
                smp.cc_ns.append(cc * 1e9)
                smp.ann_ns.append(ann * 1e9)
                smp.auth_ns.append(auth * 1e9)
                smp.candidates.append(count)
                smp.scan_fraction.append(count / len(index))
            smp.no_neighbor += count == 0
        return decisions, vectors

    def check_decisions(self, decisions, step_ref: StepReference, statuses,
                        what: str) -> None:
        self.tally.record(len(decisions) == len(step_ref.neighbors),
                          f"{what}: decision count")
        for i, (d, nb) in enumerate(zip(decisions, step_ref.neighbors)):
            ev = d.evidence
            evidence = None if ev is None else (ev.tx_id, ev.sample_id, ev.distance)
            self.tally.record(ref.decision_matches(
                d.verdict.value, d.reason.value, evidence, step_ref.lsh, nb,
                statuses, step_ref.queries[i]), f"{what} query {i}")

    # -- CLI chain ---------------------------------------------------------

    def cli(self, name: str, argv: list[str]) -> float:
        settle()
        self.clock.new_op()
        with contextlib.redirect_stdout(io.StringIO()):
            code, dt = self.clock.run(name, cli.main, argv)
        self.tally.record(code == 0, f"{' '.join(argv)} exited {code}")
        return dt

    def cli_round(self) -> None:
        inst, spec = self.inst, self.inst.spec
        path = inst.path
        for _ in range(spec.build_repeats):
            self.samples.cli_build_s.append(self.cli("cli.build", [
                "build", "--data", path("pool.bin"), "--l-tables",
                str(spec.num_tables), "--hash-bits", str(spec.hash_bits),
                "--seed", str(inst.index_seed), "--center", "mean",
                "--out", path("build.idx")]))
            self.tally.record(Path(path("build.idx")).read_bytes() ==
                              self.base_idx_bytes, "cli build snapshot")
        projector = ["--projector", path("proj.prj")] if inst.projector else []
        idx, pool, reg = path("base.idx"), path("pool.bin"), path("registry.csv")
        statuses = dict(inst.statuses)
        for s, ids in enumerate(inst.enrolled):
            before = ref.read_snapshot_header(idx)
            out_idx, out_pool, out_reg = (path(f"step{s}.idx"), path(f"step{s}.bin"),
                                          path(f"step{s}.csv"))
            self.samples.cli_enroll_s.setdefault(s, []).append(self.cli("cli.enroll", [
                "enroll", "--index", idx, "--data", pool, "--new", path(f"new{s}.bin"),
                "--tx-ids", ",".join(map(str, ids)), "--registry", reg,
                *projector, "--out-index", out_idx, "--out-data", out_pool,
                "--out-registry", out_reg]))
            statuses.update({t: ref.AUTHORIZED for t in ids})
            after = ref.read_snapshot_header(out_idx)
            self.tally.record(
                after.prefix == before.prefix
                and after.size == before.size + len(inst.batches[s])
                and ref.read_registry(out_reg) == statuses, f"cli enroll step {s}")
            idx, pool, reg = out_idx, out_pool, out_reg
            if inst.revoked[s]:
                snapshot = Path(idx).read_bytes()
                rev_reg = path(f"step{s}-revoked.csv")
                self.cli("cli.revoke", [
                    "revoke", "--registry", reg, "--tx-ids",
                    ",".join(map(str, inst.revoked[s])), "--out-registry", rev_reg])
                statuses.update({t: ref.REVOKED for t in inst.revoked[s]})
                self.tally.record(Path(idx).read_bytes() == snapshot
                                  and ref.read_registry(rev_reg) == statuses,
                                  f"cli revoke step {s}")
                reg = rev_reg
            out = path(f"decisions{s}.csv")
            self.samples.cli_authorize_s.setdefault(s, []).append(self.cli(
                "cli.authorize", ["authorize", "--index", idx, "--data", pool,
                                  "--queries", path("queries.bin"), "--registry", reg,
                                  *projector, "--out", out]))
            self.check_csv(out, s, statuses)

    def check_csv(self, path: str, s: int, statuses) -> None:
        step_ref = self.refs[s]
        rows = ref.read_decisions(path)
        self.tally.record([r[0] for r in rows] == list(range(len(step_ref.neighbors))),
                          f"cli authorize step {s}: one row per query")
        revoked_hits = 0
        for (q, verdict, reason, evidence), nb in zip(rows, step_ref.neighbors):
            self.tally.record(ref.decision_matches(
                verdict, reason, evidence, step_ref.lsh, nb, statuses,
                step_ref.queries[q]), f"cli authorize step {s} query {q}")
            revoked_hits += nb is not None and statuses[nb.tx_id] == ref.REVOKED
        if self.inst.revoked[s]:
            # the revoke check must have queries whose neighbour was revoked
            self.tally.record(revoked_hits > 0, f"cli revoke step {s} exercised")


def reference_neighbors(lsh: ref.ReferenceLsh, vectors):
    """The reference's neighbours and candidate counts of every query, and
    the full-scan neighbours of the first EXACT_SAMPLE."""
    return lsh.neighbors(vectors), lsh.neighbors(vectors[:EXACT_SAMPLE], exact=True)[0]


def in_child(fn, *args):
    """fn(*args), computed in a forked child process and sent back pickled,
    so the memory it takes never counts in this process's peak RSS."""
    read_fd, write_fd = os.pipe()
    pid = os.fork()
    if pid == 0:
        code = 1
        try:
            os.close(read_fd)
            with os.fdopen(write_fd, "wb") as out:
                pickle.dump(fn(*args), out)
            code = 0
        except BaseException:
            traceback.print_exc()
        finally:
            os._exit(code)
    os.close(write_fd)
    with os.fdopen(read_fd, "rb") as pipe:
        payload = pipe.read()
    _, status = os.waitpid(pid, 0)
    if os.waitstatus_to_exitcode(status) != 0:
        raise RuntimeError(f"{fn.__name__} failed in its child process")
    return pickle.loads(payload)


# -- metrics -------------------------------------------------------------------

def total_rate(amounts: dict[int, float], times: dict[int, list[float]]) -> float:
    """Sum of each step's amount over the sum of its median time."""
    return sum(amounts.values()) / sum(median(times[s]) for s in amounts)


def mean_of_step_medians(times: dict[int, list[float]]) -> float:
    return float(np.mean([median(v) for v in times.values()]))


def end_to_end(w: Workload, setup_s: list[float], peak_rss_mb: float) -> dict:
    smp, inst = w.samples, w.inst
    nq = len(inst.queries)
    return {
        "query_p50_us": (median(smp.query_ns) / 1e3, "us"),
        "query_p99_us": (median(smp.batch_p99_ns) / 1e3, "us"),
        "authorize_qps": (total_rate({s: nq for s in smp.batch_s}, smp.batch_s),
                          "queries/s"),
        "enroll_records_per_s": (total_rate(
            {s: len(b) for s, b in enumerate(inst.batches)}, smp.enroll_s),
            "records/s"),
        "cli_build_s": (median(smp.cli_build_s), "s"),
        "cli_enroll_s": (mean_of_step_medians(smp.cli_enroll_s), "s"),
        "cli_authorize_s": (mean_of_step_medians(smp.cli_authorize_s), "s"),
        "setup_s": (median(setup_s), "s"),
        "peak_rss_mb": (peak_rss_mb, "MB"),
    }


def probe_unexercised_layers(w: Workload) -> None:
    """Traced run only: time layers this workload's rounds do not call, so
    every workload reports every per-layer metric."""
    inst, tracer = w.inst, w.clock
    if inst.projector is None:
        projector, _ = tracer.run("dimreduce.fit_pca", fit_pca, inst.pool,
                                  inst.pool.dim // 4)
        tracer.run("dimreduce.project", project, projector, inst.pool,
                   count=len(inst.pool))
        rows = inst.queries.matrix
        for i in range(len(rows)):
            _, dt = tracer.run("dimreduce.transform", projector.transform_vector,
                               rows[i])
            if i >= WARMUP:
                w.samples.transform_ns.append(dt * 1e9)
    if not any(inst.revoked):
        authorized = [t for t, s in inst.statuses.items() if s == ref.AUTHORIZED]
        for i in range(200):
            reg = program_registry(inst.statuses)
            tracer.run("authorize.revoke", revoke, reg, [authorized[i % len(authorized)]])


def gemm_exact_us(step_ref: StepReference) -> float:
    """Per-query time of one exact nearest-neighbour pass over all queries,
    as a single ||q||^2 - 2 q.m + ||m||^2 matrix product (the benchmark's own
    batched exact baseline)."""
    m = step_ref.lsh.vectors.astype(np.float64)
    q = np.stack([np.asarray(v, dtype=np.float64) for v in step_ref.queries])
    times = []
    for _ in range(5):
        t0 = time.perf_counter_ns()
        d2 = (q * q).sum(1)[:, None] - 2.0 * (q @ m.T) + (m * m).sum(1)[None, :]
        d2.argmin(axis=1)
        times.append((time.perf_counter_ns() - t0) / 1e3 / len(q))
    return median(times)


def span_cost_ns() -> float:
    """Added wall time of running a no-op through the tracer, per call."""
    def noop():
        return None
    tracer = Tracer()
    n = 20000
    t0 = time.perf_counter_ns()
    for _ in range(n):
        noop()
    bare = time.perf_counter_ns() - t0
    t0 = time.perf_counter_ns()
    for _ in range(n):
        tracer.run("noop", noop)
    traced = time.perf_counter_ns() - t0
    return (traced - bare) / n


def per_layer(w: Workload, tracer: Tracer) -> dict:
    smp, inst, spec = w.samples, w.inst, w.inst.spec
    spans = tracer.spans
    own = self_times(spans)

    def med_s(name):
        return median(tracer.durations(name)) / 1e9

    def rate(name):
        hits = [s for s in spans if s.name == name]
        return sum(s.count for s in hits) / (sum(s.duration_ns for s in hits) / 1e9)

    scan = [a - c for a, c in zip(smp.ann_ns, smp.cc_ns)]
    nonempty = [(d, c) for d, c in zip(scan, smp.candidates) if c > 0]
    cli_self = [t for s, t in zip(spans, own) if s.name.startswith("cli.")]
    base = inst.index
    stats = base.bucket_stats()
    last_ref = w.refs[-1]
    return {
        "lsh.hash_union_us": (median(smp.cc_ns) / 1e3, "us"),
        "lsh.candidates_per_query": (float(np.mean(smp.candidates)), "count"),
        "lsh.scan_fraction": (float(np.mean(smp.scan_fraction)), "ratio"),
        "lsh.indexed_records": (float(last_ref.size), "count"),
        "distance.scan_us": (median(scan) / 1e3, "us"),
        "distance.ns_per_candidate": (sum(d for d, _ in nonempty)
                                      / sum(c for _, c in nonempty), "ns"),
        "authorize.decide_us": (median([a - n for a, n in zip(smp.auth_ns, smp.ann_ns)])
                                / 1e3, "us"),
        "lsh.no_neighbor_queries": (
            smp.no_neighbor / (w.rounds * spec.query_passes), "count"),
        "dimreduce.transform_us": (median(smp.transform_ns) / 1e3, "us"),
        "dimreduce.fit_pca_s": (med_s("dimreduce.fit_pca"), "s"),
        "dimreduce.project_records_per_s": (rate("dimreduce.project"), "records/s"),
        "lsh.insert_records_per_s": (rate("lsh.insert"), "records/s"),
        "authorize.enroll_ms": (med_s("authorize.enroll") * 1e3, "ms"),
        "authorize.revoke_us": (med_s("authorize.revoke") * 1e6, "us"),
        "lsh.save_index_s": (med_s("lsh.save_index"), "s"),
        "lsh.load_index_s": (med_s("lsh.load_index"), "s"),
        "lsh.snapshot_bytes": (float(len(w.base_idx_bytes)), "bytes"),
        "lsh.nonempty_buckets": (float(sum(t.nonempty_buckets for t in stats.per_table)),
                                 "count"),
        "lsh.max_bucket": (float(max(t.max_occupancy for t in stats.per_table)), "count"),
        "formats.load_dataset_s": (med_s("formats.load_dataset"), "s"),
        "formats.save_dataset_s": (med_s("formats.save_dataset"), "s"),
        "formats.registry_io_s": (med_s("formats.registry_io"), "s"),
        "data.generate_s": (med_s("data.generate"), "s"),
        "data.split_s": (med_s("data.split"), "s"),
        "cli.self_s": (float(np.mean(cli_self)) / 1e9, "s"),
        "oracle.exact_nn_us": (med_s("oracle.exact_nn") * 1e6, "us"),
        "oracle.gemm_exact_us": (gemm_exact_us(last_ref), "us"),
        "costmodel.predicted_ops_per_query": (predict_inference_cost(CostParams(
            spec.num_tables, spec.hash_bits, inst.pool.dim, last_ref.size)), "ops"),
        "trace.authorize_us": (median(smp.auth_ns) / 1e3, "us"),
        "trace.span_cost_ns": (span_cost_ns(), "ns"),
    }


def instrument(tracer: Tracer):
    """Wrap the lshauth calls a CLI command makes so each becomes a child
    span; returns a context manager that undoes the wrapping."""
    def size(*args):
        return len(args[-1])

    targets = [
        (cli, "load_dataset", "formats.load_dataset", None),
        (cli, "save_dataset", "formats.save_dataset", None),
        (cli, "load_registry", "formats.registry_io", None),
        (cli, "save_registry", "formats.registry_io", None),
        (cli, "load_index", "lsh.load_index", None),
        (cli, "save_index", "lsh.save_index", None),
        (cli, "load_projector", "dimreduce.load_projector", None),
        (cli, "project", "dimreduce.project", size),
        (cli, "build_index", "lsh.build_index", None),
        (cli, "enroll", "authorize.enroll", None),
        (cli, "revoke", "authorize.revoke", None),
        (cli, "authorize_batch", "authorize.batch", None),
        (LshIndex, "insert_dataset", "lsh.insert", size),
    ]
    stack = contextlib.ExitStack()
    for owner, attr, name, count_of in targets:
        original = getattr(owner, attr)
        setattr(owner, attr, tracer.wrap(name, original, count_of))
        stack.callback(setattr, owner, attr, original)
    return stack


def run(name: str, seed: int, seconds: float, traced: bool, scratch: Path):
    """Set up, run rounds for `seconds`, check, and return
    (metrics, tally, info, spans or None)."""
    spec = WORKLOADS[name]
    clock = Tracer() if traced else Stopwatch()
    tally = ref.Tally()
    with contextlib.ExitStack() as stack:
        if traced:
            stack.enter_context(instrument(clock))
        setup_s = []
        inst = None
        for i in range(spec.setup_repeats):
            if inst is not None:
                shutil.rmtree(inst.workdir)
                inst = None
                settle()
            t0 = time.perf_counter_ns()
            inst = setup(spec, seed, scratch / f"setup{i}", clock)
            setup_s.append((time.perf_counter_ns() - t0) / 1e9)
        w = Workload(inst, clock, tally)
        # the benchmark's own long-lived objects stay out of collections
        # that would otherwise land inside timed calls
        settle()
        gc.freeze()
        deadline = time.monotonic() + seconds
        while w.rounds == 0 or time.monotonic() < deadline:
            w.round()
            if w.rounds == 1:
                peak = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
        if traced:
            probe_unexercised_layers(w)
    metrics = per_layer(w, clock) if traced else end_to_end(w, setup_s, peak)
    info = {
        "rounds": w.rounds,
        "queries_per_step": len(inst.queries),
        "steps": len(spec.steps),
        "indexed_records": [r.size for r in w.refs],
        "mean_candidates": [float(np.mean(r.candidates)) for r in w.refs],
        "accuracy": [w.samples.accuracy[s] for s in range(len(spec.steps))],
        "setup_s": setup_s,
        # the wall-time tail, which the host's other tenants set (README)
        "query_p99_wall_us": (median(w.samples.batch_p99_wall_ns) / 1e3
                              if w.samples.batch_p99_wall_ns else None),
        "failures": tally.messages,
    }
    return metrics, tally, info, clock.to_json() if traced else None
