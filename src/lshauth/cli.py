"""Command-line interface.

Subcommands cover the full workflow: generate or split datasets, build an
index snapshot, run single-shot authorization over query files, enroll and
revoke transmitters, run the two benchmark sweeps, and inspect bucket
occupancy. The sweep flags are generated from ExperimentConfig's fields; a
plain-text config file with one `key = value` per line may supply any of
them, with explicit flags taking precedence.

Decision output is CSV with one row per query:
    query_idx,verdict,reason,nn_tx,nn_sample,distance,latency_ns
The nn_* and distance fields are empty when no neighbor exists.
"""

from __future__ import annotations

import argparse
import re
import sys

from . import bench
from .authorize import authorize_batch, enroll, revoke
from .bench import (SETTING_DEFAULTS, ExperimentConfig, parse_config_file,
                    parse_setting)
from .data import (SyntheticSpec, TransmitterRegistry, TxStatus,
                   concat_datasets, generate_synthetic, split_dataset)
from .dimreduce import load_projector, project
from .errors import LshAuthError, ValidationError
from .formats import load_dataset, load_registry, save_dataset, save_registry
from .lsh import build_index, load_index, save_index

DECISION_COLUMNS = "query_idx,verdict,reason,nn_tx,nn_sample,distance,latency_ns"
_ID_RANGE = re.compile(r"\s*(\d+)\s*(?:-\s*(\d+)\s*)?")


def parse_id_set(text: str) -> list[int]:
    """Parse '1,4,7-10' into a sorted id list."""
    ids: set[int] = set()
    for chunk in text.split(","):
        if not chunk.strip():
            continue
        m = _ID_RANGE.fullmatch(chunk)
        if m is None or int(m[2] or m[1]) < int(m[1]):
            raise ValidationError(
                f"bad id range {chunk.strip()!r} in id set {text!r}")
        ids.update(range(int(m[1]), int(m[2] or m[1]) + 1))
    return sorted(ids)


def _write_decisions(path, decisions, latencies) -> None:
    with open(path, "w", newline="") as fh:
        fh.write(DECISION_COLUMNS + "\n")
        for i, (d, ns) in enumerate(zip(decisions, latencies)):
            if d.evidence is None:
                nn_tx = nn_sample = distance = ""
            else:
                nn_tx = str(d.evidence.tx_id)
                nn_sample = str(d.evidence.sample_id)
                distance = repr(d.evidence.distance)
            fh.write(f"{i},{d.verdict.value},{d.reason.value},"
                     f"{nn_tx},{nn_sample},{distance},{ns}\n")


def _registry_from_args(args) -> TransmitterRegistry:
    if args.registry:
        return load_registry(args.registry)
    reg = TransmitterRegistry()
    if args.authorized:
        reg.set_status(parse_id_set(args.authorized), TxStatus.AUTHORIZED)
    if args.known_outliers:
        reg.set_status(parse_id_set(args.known_outliers), TxStatus.KNOWN_OUTLIER)
    if args.revoked:
        reg.set_status(parse_id_set(args.revoked), TxStatus.REVOKED)
    if not len(reg):
        raise ValidationError(
            "provide --registry or at least one of --authorized/"
            "--known-outliers/--revoked")
    return reg


def _add_registry_args(sub) -> None:
    sub.add_argument("--registry", help="registry csv (tx_id,status)")
    sub.add_argument("--authorized", help="id set, e.g. 0-9,12")
    sub.add_argument("--known-outliers", help="id set")
    sub.add_argument("--revoked", help="id set")


# sweep flags whose spelling is not their ExperimentConfig field's
_FLAG_SPELLINGS = {"num_tables": "l-tables", "grid_tables": "grid-l",
                   "grid_bits": "grid-k", "small_db_per_class": "small-per-class"}


def _setting_type(name: str):
    def parse(text: str):
        try:
            return parse_setting(name, text)
        except ValidationError as e:
            raise argparse.ArgumentTypeError(str(e)) from None
    return parse


def _add_experiment_flags(sub) -> None:
    sub.add_argument("--config", help="key = value config file; flags override")
    for name, default in SETTING_DEFAULTS.items():
        if isinstance(default, tuple):
            default = ",".join(map(str, default))
        flag = _FLAG_SPELLINGS.get(name, name.replace("_", "-"))
        sub.add_argument(f"--{flag}", dest=name, type=_setting_type(name),
                         help=f"config key {name}, default {default}")


def _experiment_config(args) -> ExperimentConfig:
    settings = parse_config_file(args.config) if args.config else {}
    settings.update((name, getattr(args, name)) for name in SETTING_DEFAULTS
                    if getattr(args, name) is not None)
    return ExperimentConfig(**settings)


def _cmd_generate(args) -> int:
    spec = SyntheticSpec(num_tx=args.num_tx, samples_per_tx=args.samples_per_tx,
                         dim=args.dim, cluster_radius=args.cluster_radius,
                         noise_sigma=args.noise_sigma, seed=args.seed)
    data = generate_synthetic(spec)
    save_dataset(data, args.out, args.format)
    print(f"wrote {len(data)} records (dim {data.dim}) to {args.out}")
    return 0


def _cmd_split(args) -> int:
    data = load_dataset(args.data, args.format)
    registry = TransmitterRegistry()
    result = split_dataset(data, registry,
                           parse_id_set(args.authorized),
                           parse_id_set(args.known_outliers),
                           parse_id_set(args.outliers),
                           seed=args.seed)
    fmt = args.out_format
    for name, part in (("train", result.train), ("val", result.val),
                       ("test", result.test), ("pool", result.combined_train_val)):
        path = f"{args.out_prefix}_{name}.{fmt}"
        save_dataset(part, path, fmt)
        print(f"wrote {len(part)} records to {path}")
    reg_path = f"{args.out_prefix}_registry.csv"
    save_registry(registry, reg_path)
    print(f"wrote registry to {reg_path}")
    return 0


def _cmd_build(args) -> int:
    data = load_dataset(args.data, args.format)
    center = None
    if args.center == "mean" and len(data):
        center = data.matrix_f64().mean(axis=0)
    index = build_index(data.dim, args.l_tables, args.hash_bits, args.seed,
                        center=center)
    index.insert_dataset(data)
    save_index(index, args.out)
    print(f"indexed {index.size} records into {args.l_tables} tables "
          f"({args.hash_bits} bits) at {args.out}")
    return 0


def _cmd_authorize(args) -> int:
    data = load_dataset(args.data, args.format)
    index = load_index(args.index, data)
    registry = _registry_from_args(args)
    queries = load_dataset(args.queries, args.format)
    projector = load_projector(args.projector) if args.projector else None
    decisions, latencies = authorize_batch(index, registry, queries,
                                           projector=projector)
    _write_decisions(args.out, decisions, latencies)
    accepted = sum(d.verdict.value == "accept" for d in decisions)
    print(f"{len(decisions)} queries: {accepted} accepted, "
          f"{len(decisions) - accepted} rejected -> {args.out}")
    return 0


def _cmd_enroll(args) -> int:
    data = load_dataset(args.data, args.format)
    index = load_index(args.index, data)
    registry = load_registry(args.registry)
    new_records = load_dataset(args.new, args.format)
    tx_ids = parse_id_set(args.tx_ids) if args.tx_ids \
        else sorted(new_records.transmitters())
    if args.projector:
        new_records = project(load_projector(args.projector), new_records)
    enroll(index, registry, new_records, tx_ids)
    save_index(index, args.out_index)
    save_registry(registry, args.out_registry)
    merged = concat_datasets([data, new_records]) if len(new_records) else data
    save_dataset(merged, args.out_data, args.format)
    print(f"enrolled {len(tx_ids)} transmitters ({len(new_records)} records); "
          f"index size {index.size}")
    return 0


def _cmd_revoke(args) -> int:
    registry = load_registry(args.registry)
    ids = parse_id_set(args.tx_ids)
    revoke(registry, ids)
    save_registry(registry, args.out_registry)
    print(f"revoked {len(ids)} transmitters -> {args.out_registry}")
    return 0


def _cmd_bench_add(args) -> int:
    config = _experiment_config(args)
    rows = bench.run_add_auth_sweep(config)
    bench.write_csv(rows, bench.ADD_SWEEP_COLUMNS, args.out)
    print(f"wrote {len(rows)} rows to {args.out}")
    return 0


def _cmd_bench_grid(args) -> int:
    config = _experiment_config(args)
    rows = bench.run_grid_sweep(config)
    bench.write_csv(rows, bench.GRID_COLUMNS, args.out)
    print(f"wrote {len(rows)} rows to {args.out}")
    return 0


def _cmd_stats(args) -> int:
    data = load_dataset(args.data, args.format)
    index = load_index(args.index, data)
    stats = index.bucket_stats()
    print(f"index: {stats.size} records, {len(stats.per_table)} tables, "
          f"{stats.hash_bits} bits")
    for t, ts in enumerate(stats.per_table):
        print(f"table {t}: {ts.nonempty_buckets} buckets, "
              f"max occupancy {ts.max_occupancy}, "
              f"mean occupancy {ts.mean_occupancy:.2f}, "
              f"empty fraction {ts.empty_fraction:.6f}")
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="lshauth",
        description="Hash-indexed open-set transmitter authorization toolkit")
    subs = parser.add_subparsers(dest="command", required=True)

    sub = subs.add_parser("generate", help="write a synthetic dataset")
    sub.add_argument("--seed", type=int, default=0)
    sub.add_argument("--dim", type=int, default=64)
    sub.add_argument("--num-tx", type=int, required=True)
    sub.add_argument("--samples-per-tx", type=int, required=True)
    sub.add_argument("--cluster-radius", type=float, default=10.0)
    sub.add_argument("--noise-sigma", type=float, default=1.0)
    sub.add_argument("--format", choices=("bin", "csv"), default="bin")
    sub.add_argument("--out", required=True)
    sub.set_defaults(func=_cmd_generate)

    sub = subs.add_parser("split", help="train/val/test split of a dataset")
    sub.add_argument("--data", required=True)
    sub.add_argument("--format", choices=("bin", "csv"), default="bin")
    sub.add_argument("--authorized", required=True, help="id set, e.g. 0-9")
    sub.add_argument("--known-outliers", required=True)
    sub.add_argument("--outliers", required=True)
    sub.add_argument("--seed", type=int, default=0)
    sub.add_argument("--out-prefix", required=True)
    sub.add_argument("--out-format", choices=("bin", "csv"), default="bin")
    sub.set_defaults(func=_cmd_split)

    sub = subs.add_parser("build", help="index a dataset into a snapshot")
    sub.add_argument("--data", required=True)
    sub.add_argument("--format", choices=("bin", "csv"), default="bin")
    sub.add_argument("--l-tables", type=int, default=20)
    sub.add_argument("--hash-bits", type=int, default=1)
    sub.add_argument("--seed", type=int, default=0)
    sub.add_argument("--center", choices=("zero", "mean"), default="mean")
    sub.add_argument("--out", required=True)
    sub.set_defaults(func=_cmd_build)

    sub = subs.add_parser("authorize", help="decide a file of query vectors")
    sub.add_argument("--index", required=True)
    sub.add_argument("--data", required=True,
                     help="dataset the snapshot was built from")
    sub.add_argument("--queries", required=True)
    sub.add_argument("--format", choices=("bin", "csv"), default="bin")
    sub.add_argument("--projector", help="apply this projector to queries")
    _add_registry_args(sub)
    sub.add_argument("--out", required=True)
    sub.set_defaults(func=_cmd_authorize)

    sub = subs.add_parser("enroll", help="add transmitters to the index")
    sub.add_argument("--index", required=True)
    sub.add_argument("--data", required=True)
    sub.add_argument("--new", required=True, help="records to enroll")
    sub.add_argument("--tx-ids", help="defaults to all tx in --new")
    sub.add_argument("--format", choices=("bin", "csv"), default="bin")
    sub.add_argument("--registry", required=True)
    sub.add_argument("--projector", help="project new records before insert")
    sub.add_argument("--out-index", required=True)
    sub.add_argument("--out-data", required=True,
                     help="merged dataset for future loads")
    sub.add_argument("--out-registry", required=True)
    sub.set_defaults(func=_cmd_enroll)

    sub = subs.add_parser("revoke", help="flip transmitters to revoked")
    sub.add_argument("--registry", required=True)
    sub.add_argument("--tx-ids", required=True)
    sub.add_argument("--out-registry", required=True)
    sub.set_defaults(func=_cmd_revoke)

    sub = subs.add_parser("bench-add", help="authorized-set growth sweep")
    _add_experiment_flags(sub)
    sub.add_argument("--out", required=True)
    sub.set_defaults(func=_cmd_bench_add)

    sub = subs.add_parser("bench-grid", help="tables x bits factorial sweep")
    _add_experiment_flags(sub)
    sub.add_argument("--out", required=True)
    sub.set_defaults(func=_cmd_bench_grid)

    sub = subs.add_parser("stats", help="bucket occupancy of a snapshot")
    sub.add_argument("--index", required=True)
    sub.add_argument("--data", required=True)
    sub.add_argument("--format", choices=("bin", "csv"), default="bin")
    sub.set_defaults(func=_cmd_stats)

    return parser


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except (LshAuthError, OSError) as e:
        print(f"error: {e}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
