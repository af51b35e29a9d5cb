"""Experiment harness: synthetic instances, metric reports, and the two
standard sweeps (authorized-set growth, and the tables-x-bits grid).

Synthetic instance geometry: the embeddings this harness stands in for come
from a feature extractor trained to discriminate the authorized population,
which maps unfamiliar transmitters into a common far-away region of feature
space rather than scattering them uniformly. The instance builder mirrors
that: authorized clusters sit on a sphere of radius cluster_radius around
the origin; all outlier clusters live on a sphere of twice that radius
around a seeded offset direction at six times the radius; known-outlier
clusters sit at the core of that outlier region (one fifth of the radius
around the same offset). Every cluster that must be individually recognized
is separable from everything else, unseen outliers resolve to known-outlier
neighbors rather than authorized ones, and the regional offset exercises
the mean-centering the hasher applies (a plain uniform arrangement would
make the open-set task unsolvable for a threshold-free nearest-neighbor
rule: an unseen transmitter's nearest cluster would be authorized about as
often as not, no matter how separable the clusters are).

Every non-timing output is a pure function of the config: all randomness is
drawn from PCG64 child seeds derived from config.seed with fixed tags, so
two runs of the same config produce identical decisions and any grid cell
can be reproduced by a standalone run with that table/bit setting. Timing
columns (latency, retrain time) are the only nondeterministic outputs.

Positive class convention: a query flagged unauthorized (a reject) counts
as a positive. Ground truth calls a query an outlier when its transmitter
is not currently authorized, so revoked and never-seen transmitters are
both true outliers.

Retraining time covers projecting (when a reducer is active) and indexing
the newly enrolled records only; embeddings are assumed precomputed, so no
feature-extraction time is measurable or included. Query latency covers
projection, hashing and the bucket scan, and excludes dataset loading.

Cells run sequentially; timed regions are never parallelized.
"""

from __future__ import annotations

import statistics
import time
from dataclasses import dataclass, fields, replace
from typing import Callable, Optional, Sequence

import numpy as np

from .authorize import (DEFAULT_LATENCY_WARMUP, AuthDecision, Verdict,
                        authorize_batch, enroll)
from .costmodel import measured_scan_fraction
from .data import (Dataset, SplitResult, SyntheticSpec, TransmitterRegistry,
                   TxStatus, concat_datasets, generate_synthetic,
                   split_dataset)
from .dimreduce import Projector, fit_pca, project
from .errors import ValidationError
from .lsh import LshIndex, build_index

SCHEMES = ("lsh", "lsh_small", "lsh_dimred", "lsh_dimred_small")

ADD_SWEEP_COLUMNS = ("scheme", "n_added", "accuracy", "precision", "recall",
                     "mean_latency_ns", "p95_latency_ns", "retrain_ms")
GRID_COLUMNS = ("L", "K", "accuracy", "precision", "recall",
                "mean_latency_ns", "mean_candidates")
ADD_SWEEP_TIMING_COLUMNS = ("mean_latency_ns", "p95_latency_ns", "retrain_ms")
GRID_TIMING_COLUMNS = ("mean_latency_ns",)

# child-seed tags; the derivation is part of the determinism contract
_TAG_DATASET = 1
_TAG_REGION_DIRECTION = 2
_TAG_SPLIT_INITIAL = 3
_TAG_ADD_SHUFFLE = 4
_TAG_SPLIT_NEW = 5
_TAG_SPLIT_COMBINED = 6
_TAG_INDEX = 7

# synthetic region layout, in multiples of cluster_radius
OUTLIER_OFFSET_FACTOR = 6.0  # distance of the outlier region from the origin
OUTLIER_SHELL_FACTOR = 2.0  # outlier cluster means: sphere around the offset
KNOWN_CORE_FACTOR = 0.2  # known-outlier means: tight core of the region


def child_seed(seed: int, *tags: int) -> int:
    return int(np.random.SeedSequence([seed, *tags]).generate_state(1, np.uint64)[0])


@dataclass(frozen=True)
class ExperimentConfig:
    seed: int = 0
    dim: int = 64
    num_authorized: int = 10
    num_known_outliers: int = 15
    num_outliers: int = 30
    samples_per_tx: int = 100
    cluster_radius: float = 10.0
    noise_sigma: float = 1.0
    num_tables: int = 20  # L
    hash_bits: int = 1  # K
    add_counts: tuple[int, ...] = (5, 10, 15, 20)
    grid_tables: tuple[int, ...] = (1, 2, 3, 4, 5)
    grid_bits: tuple[int, ...] = (5, 10, 15, 20, 25)
    scheme: str = "lsh"
    small_db_per_class: int = 30
    dimred_out: int = 0  # 0 means dim // 4
    latency_warmup: int = DEFAULT_LATENCY_WARMUP

    def validate(self) -> None:
        if self.scheme not in SCHEMES:
            raise ValidationError(
                f"scheme must be one of {SCHEMES}, got {self.scheme!r}")
        for name in ("num_authorized", "num_known_outliers", "num_outliers",
                     "samples_per_tx", "dim", "num_tables",
                     "small_db_per_class"):
            if getattr(self, name) < 1:
                raise ValidationError(f"{name} must be >= 1")
        if self.hash_bits < 0:
            raise ValidationError("hash_bits must be >= 0")
        if not self.add_counts:
            raise ValidationError("add_counts must be non-empty")
        if not self.grid_tables or not self.grid_bits:
            raise ValidationError("grid_tables and grid_bits must be non-empty")
        if any(c < 0 for c in self.add_counts):
            raise ValidationError("add_counts entries must be >= 0")
        if self.dimred_out < 0 or self.dimred_out > self.dim:
            raise ValidationError("dimred_out must be in [0, dim]")
        if self.latency_warmup < 0:
            raise ValidationError("latency_warmup must be >= 0")

    @property
    def uses_small_db(self) -> bool:
        return self.scheme in ("lsh_small", "lsh_dimred_small")

    @property
    def uses_dimred(self) -> bool:
        return self.scheme in ("lsh_dimred", "lsh_dimred_small")

    @property
    def effective_dimred_out(self) -> int:
        return self.dimred_out if self.dimred_out else max(1, self.dim // 4)


@dataclass
class MetricsReport:
    accuracy: float
    precision: float
    recall: float
    tp: int
    fp: int
    tn: int
    fn: int
    mean_latency_ns: Optional[float] = None
    median_latency_ns: Optional[float] = None
    p95_latency_ns: Optional[float] = None
    retrain_ns: Optional[int] = None
    bucket_summary: Optional[dict] = None


def compute_metrics(decisions: Sequence[AuthDecision],
                    ground_truth_outlier: Sequence[bool]) -> MetricsReport:
    """Counts and rates with reject-as-positive.

    An empty denominator yields 1.0 for both precision and recall (nothing
    was claimed, so nothing was claimed wrongly).
    """
    if len(decisions) != len(ground_truth_outlier):
        raise ValidationError(
            f"{len(decisions)} decisions vs {len(ground_truth_outlier)} labels")
    tp = fp = tn = fn = 0
    for decision, is_outlier in zip(decisions, ground_truth_outlier):
        rejected = decision.verdict is Verdict.REJECT
        if rejected and is_outlier:
            tp += 1
        elif rejected:
            fp += 1
        elif is_outlier:
            fn += 1
        else:
            tn += 1
    total = tp + fp + tn + fn
    return MetricsReport(
        accuracy=(tp + tn) / total if total else 1.0,
        precision=tp / (tp + fp) if tp + fp else 1.0,
        recall=tp / (tp + fn) if tp + fn else 1.0,
        tp=tp, fp=fp, tn=tn, fn=fn,
    )


def latency_summary(latencies_ns: Sequence[int],
                    warmup: int = DEFAULT_LATENCY_WARMUP
                    ) -> tuple[float, float, float]:
    """(mean, median, p95) over samples after the warm-up prefix.

    Falls back to the full sample when fewer than warmup+1 measurements
    exist. p95 is nearest-rank. Returns zeros for an empty input.
    """
    kept = list(latencies_ns[warmup:]) if len(latencies_ns) > warmup \
        else list(latencies_ns)
    if not kept:
        return 0.0, 0.0, 0.0
    ordered = sorted(kept)
    rank = max(int(np.ceil(0.95 * len(ordered))) - 1, 0)
    return (statistics.fmean(kept), float(statistics.median(kept)),
            float(ordered[rank]))


def time_block(action: Callable[[], object]) -> int:
    """Run the action once; nanoseconds elapsed on the monotonic clock."""
    t0 = time.perf_counter_ns()
    action()
    return time.perf_counter_ns() - t0


def cap_per_class(data: Dataset, cap: int) -> Dataset:
    """First `cap` samples of every transmitter present, in dataset order."""
    if cap < 1:
        raise ValidationError(f"cap must be >= 1, got {cap}")
    counts: dict[int, int] = {}
    keep: list[int] = []
    tx_list = data.tx_ids.tolist()
    for i, t in enumerate(tx_list):
        seen = counts.get(t, 0)
        if seen < cap:
            keep.append(i)
            counts[t] = seen + 1
    short = [t for t, c in counts.items() if c < cap]
    if short:
        raise ValidationError(
            f"transmitters {sorted(short)} have fewer than {cap} samples")
    return data.subset(keep)


@dataclass
class InitialState:
    """Everything the sweeps derive from a config before any addition."""

    config: ExperimentConfig
    data: Dataset
    authorized_ids: list[int]
    known_outlier_ids: list[int]
    outlier_ids: list[int]
    registry: TransmitterRegistry
    split: SplitResult
    projector: Optional[Projector]
    index: LshIndex
    indexed_dataset: Dataset  # exactly what sits in the index, in index space
    addition_order: list[int]  # seeded shuffle of outlier ids; prefixes form additions


def _database_view(config: ExperimentConfig, pool: Dataset,
                   projector: Optional[Projector]) -> Dataset:
    db = cap_per_class(pool, config.small_db_per_class) \
        if config.uses_small_db else pool
    if projector is not None:
        db = project(projector, db)
    return db


def _shifted_block(num_tx: int, tx_offset: int, radius: float, shift,
                   config: ExperimentConfig, seed: int) -> Dataset:
    raw = generate_synthetic(SyntheticSpec(
        num_tx=num_tx, samples_per_tx=config.samples_per_tx, dim=config.dim,
        cluster_radius=radius, noise_sigma=config.noise_sigma, seed=seed))
    matrix = raw.matrix.astype(np.float64) + shift
    return Dataset(config.dim, raw.tx_ids + np.uint32(tx_offset),
                   raw.sample_ids, matrix.astype(np.float32))


def build_instance_dataset(config: ExperimentConfig
                           ) -> tuple[Dataset, list[int], list[int], list[int]]:
    """The three-region synthetic instance (see module docstring).

    Returns (dataset, authorized ids, known-outlier ids, outlier ids);
    transmitter ids are assigned in that block order.
    """
    direction_rng = np.random.Generator(
        np.random.PCG64(child_seed(config.seed, _TAG_REGION_DIRECTION)))
    direction = direction_rng.standard_normal(config.dim)
    direction /= np.linalg.norm(direction)
    offset = OUTLIER_OFFSET_FACTOR * config.cluster_radius * direction

    n_a, n_k, n_o = (config.num_authorized, config.num_known_outliers,
                     config.num_outliers)
    authorized = _shifted_block(n_a, 0, config.cluster_radius, 0.0, config,
                                child_seed(config.seed, _TAG_DATASET, 0))
    known = _shifted_block(n_k, n_a,
                           KNOWN_CORE_FACTOR * config.cluster_radius, offset,
                           config, child_seed(config.seed, _TAG_DATASET, 1))
    outliers = _shifted_block(n_o, n_a + n_k,
                              OUTLIER_SHELL_FACTOR * config.cluster_radius,
                              offset, config,
                              child_seed(config.seed, _TAG_DATASET, 2))
    data = concat_datasets([authorized, known, outliers])
    return (data, list(range(n_a)), list(range(n_a, n_a + n_k)),
            list(range(n_a + n_k, n_a + n_k + n_o)))


def build_initial_state(config: ExperimentConfig) -> InitialState:
    config.validate()
    data, a_ids, k_ids, o_ids = build_instance_dataset(config)

    registry = TransmitterRegistry()
    split = split_dataset(data, registry, a_ids, k_ids, o_ids,
                          seed=child_seed(config.seed, _TAG_SPLIT_INITIAL))
    pool = split.combined_train_val

    projector = None
    if config.uses_dimred:
        projector = fit_pca(pool, config.effective_dimred_out)

    indexed = _database_view(config, pool, projector)
    center = (indexed.matrix_f64().mean(axis=0) if len(indexed)
              else np.zeros(indexed.dim))
    index = build_index(indexed.dim, config.num_tables, config.hash_bits,
                        seed=child_seed(config.seed, _TAG_INDEX), center=center)
    index.insert_dataset(indexed)

    shuffle_rng = np.random.Generator(
        np.random.PCG64(child_seed(config.seed, _TAG_ADD_SHUFFLE)))
    addition_order = [o_ids[i] for i in shuffle_rng.permutation(len(o_ids))]

    return InitialState(config=config, data=data, authorized_ids=a_ids,
                        known_outlier_ids=k_ids, outlier_ids=o_ids,
                        registry=registry, split=split, projector=projector,
                        index=index, indexed_dataset=indexed,
                        addition_order=addition_order)


@dataclass
class AdditionEval:
    """One addition step: the enlarged system and its evaluation."""

    n_added: int
    added_ids: list[int]
    index: LshIndex
    registry: TransmitterRegistry
    queries: Dataset  # combined test split, original embedding space
    ground_truth_outlier: list[bool]
    decisions: list[AuthDecision]
    latencies_ns: list[int]
    retrain_ns: int
    metrics: MetricsReport


def apply_addition(state: InitialState, count: int) -> AdditionEval:
    """Enroll `count` new transmitters drawn from the outlier pool and
    evaluate on the combined test split. The initial state is not mutated."""
    config = state.config
    if count > len(state.outlier_ids):
        raise ValidationError(
            f"cannot add {count} transmitters; only {len(state.outlier_ids)} "
            f"outliers are available")
    added = sorted(state.addition_order[:count])
    remaining_outliers = sorted(set(state.outlier_ids) - set(added))

    new_split = split_dataset(
        state.data, TransmitterRegistry(), added, state.known_outlier_ids,
        remaining_outliers + state.authorized_ids,
        seed=child_seed(config.seed, _TAG_SPLIT_NEW, count))
    combined_split = split_dataset(
        state.data, TransmitterRegistry(),
        state.authorized_ids + added, state.known_outlier_ids,
        remaining_outliers,
        seed=child_seed(config.seed, _TAG_SPLIT_COMBINED, count))

    batch = new_split.combined_train_val.filter_tx(added)
    if config.uses_small_db and len(batch):
        batch = cap_per_class(batch, config.small_db_per_class)

    index = state.index.copy()
    registry = state.registry.copy()

    t0 = time.perf_counter_ns()
    if state.projector is not None:
        batch = project(state.projector, batch)
    enroll(index, registry, batch, added)
    retrain_ns = time.perf_counter_ns() - t0

    queries = combined_split.test
    decisions, latencies = authorize_batch(index, registry, queries,
                                           projector=state.projector)
    truth = [not (registry.is_registered(t)
                  and registry.status_of(t) is TxStatus.AUTHORIZED)
             for t in queries.tx_ids.tolist()]

    metrics = compute_metrics(decisions, truth)
    mean_ns, median_ns, p95_ns = latency_summary(latencies,
                                                 config.latency_warmup)
    stats = index.bucket_stats()
    metrics.mean_latency_ns = mean_ns
    metrics.median_latency_ns = median_ns
    metrics.p95_latency_ns = p95_ns
    metrics.retrain_ns = retrain_ns
    metrics.bucket_summary = {
        "max_occupancy": max(t.max_occupancy for t in stats.per_table),
        "mean_occupancy": statistics.fmean(
            t.mean_occupancy for t in stats.per_table),
        "empty_fraction": statistics.fmean(
            t.empty_fraction for t in stats.per_table),
    }
    return AdditionEval(n_added=count, added_ids=added, index=index,
                        registry=registry, queries=queries,
                        ground_truth_outlier=truth, decisions=decisions,
                        latencies_ns=latencies, retrain_ns=retrain_ns,
                        metrics=metrics)


def run_add_auth_sweep(config: ExperimentConfig) -> list[dict]:
    """One row per addition count for the configured scheme."""
    state = build_initial_state(config)
    rows = []
    for count in config.add_counts:
        ev = apply_addition(state, count)
        m = ev.metrics
        rows.append({
            "scheme": config.scheme,
            "n_added": count,
            "accuracy": m.accuracy,
            "precision": m.precision,
            "recall": m.recall,
            "mean_latency_ns": m.mean_latency_ns,
            "p95_latency_ns": m.p95_latency_ns,
            "retrain_ms": ev.retrain_ns / 1e6,
        })
    return rows


def run_grid_sweep(config: ExperimentConfig) -> list[dict]:
    """Full factorial over grid_tables x grid_bits, one row per cell.

    Each cell enrolls the first add_counts entry's worth of new transmitters
    (the sweep's fixed addition size) and evaluates on the combined test
    split; cells are mutually independent and individually reproducible.
    """
    config.validate()
    add_count = config.add_counts[0]
    rows = []
    for num_tables in config.grid_tables:
        for hash_bits in config.grid_bits:
            cell_cfg = replace(config, num_tables=num_tables,
                               hash_bits=hash_bits)
            state = build_initial_state(cell_cfg)
            ev = apply_addition(state, add_count)
            queries = ev.queries
            if state.projector is not None:
                queries = project(state.projector, queries)
            scan = measured_scan_fraction(ev.index, queries)
            m = ev.metrics
            rows.append({
                "L": num_tables,
                "K": hash_bits,
                "accuracy": m.accuracy,
                "precision": m.precision,
                "recall": m.recall,
                "mean_latency_ns": m.mean_latency_ns,
                "mean_candidates": scan * ev.index.size,
            })
    return rows


def write_csv(rows: Sequence[dict], columns: Sequence[str], path) -> None:
    def fmt(value) -> str:
        if isinstance(value, float):
            return repr(value)
        return str(value)

    with open(path, "w", newline="") as fh:
        fh.write(",".join(columns) + "\n")
        for row in rows:
            fh.write(",".join(fmt(row[c]) for c in columns) + "\n")


def parse_config_file(path) -> dict[str, str]:
    """Read `key = value` lines; '#' starts a comment, blanks are skipped."""
    values: dict[str, str] = {}
    with open(path) as fh:
        for lineno, line in enumerate(fh, start=1):
            stripped = line.split("#", 1)[0].strip()
            if not stripped:
                continue
            if "=" not in stripped:
                raise ValidationError(
                    f"{path}:{lineno}: expected 'key = value', got {line.rstrip()!r}")
            key, _, value = stripped.partition("=")
            values[key.strip()] = value.strip()
    return values


def config_from_mapping(values: dict[str, str],
                        base: ExperimentConfig | None = None) -> ExperimentConfig:
    """Coerce string values onto ExperimentConfig fields by declared type."""
    base = base or ExperimentConfig()
    known = {f.name: f for f in fields(ExperimentConfig)}
    updates = {}
    for key, raw in values.items():
        if key not in known:
            raise ValidationError(f"unknown config key {key!r}")
        current = getattr(base, key)
        if isinstance(current, bool):  # none today; guard against surprises
            updates[key] = raw.lower() in ("1", "true", "yes")
        elif isinstance(current, int):
            updates[key] = int(raw)
        elif isinstance(current, float):
            updates[key] = float(raw)
        elif isinstance(current, tuple):
            parts = [p for p in raw.split(",") if p.strip()]
            updates[key] = tuple(int(p) for p in parts)
        else:
            updates[key] = raw
    return replace(base, **updates)
