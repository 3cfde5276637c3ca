"""Command-line interface.

Exit codes: 0 success, 2 usage error (argparse), 3 bad data,
configuration or model dump, 4 runtime failure inside a computation.
"""
from __future__ import annotations

import argparse
import functools
import os
import sys

from . import __version__
from .data import (
    DataError,
    ingest_csv,
    load_schema,
    one_hot_transform,
    save_schema,
    write_csv,
    write_table,
)
from .experiment import ConfigError, load_experiment_config, run_experiment
from .forest import (
    ForestConfig,
    _grow_settings,
    load_forest,
    predict_rows,
    prediction_columns,
    save_forest,
    train_forest,
)
from .heuristics import Heuristic, parse_heuristic
from .seeding import Coins

EXIT_OK = 0
EXIT_DATA = 3
EXIT_RUNTIME = 4


def _add_data_args(p: argparse.ArgumentParser, schema_help: str = "schema JSON file") -> None:
    p.add_argument("--data", required=True, help="CSV file of rows")
    p.add_argument("--schema", required=True, help=schema_help)
    p.add_argument("--missing-token", default="?", help="field value that drops a row (default '?')")
    p.add_argument("--skip-header", action="store_true", help="ignore the first CSV row")


def _read_data(args, schema, response, require_response: bool):
    """The ``--data`` CSV read against a schema: (dataset, dropped rows)."""
    return ingest_csv(
        args.data,
        schema,
        response,
        missing_token=args.missing_token,
        skip_header=args.skip_header,
        require_response=require_response,
    )


def _write_out(args, header: list[str], columns) -> None:
    """Write a table to ``--out``, or to stdout when it is not given."""
    if args.out is None:
        write_table(sys.stdout, header, columns)
        return
    with open(args.out, "w", encoding="utf-8", newline="") as fh:
        write_table(fh, header, columns)


def _cmd_train(args) -> int:
    dataset, dropped = _read_data(args, *load_schema(args.schema), require_response=True)
    grow = _grow_settings(dataset, {"mtry": args.mtry, "min_node_size": args.min_node_size})
    cfg = ForestConfig(n_trees=args.trees, sample_size=args.sample_size, seed=args.seed, grow=grow)
    forest = train_forest(dataset, cfg, workers=args.workers)
    save_forest(forest, args.out)
    print(
        f"trained {forest.n_trees} trees on {dataset.n_rows} rows "
        f"({dropped} dropped) -> {args.out}",
        file=sys.stderr,
    )
    return EXIT_OK


def _cmd_predict(args) -> int:
    forest = load_forest(args.model)
    if load_schema(args.schema) != (forest.schema, forest.response):
        raise DataError(f"{args.schema}: schema differs from the one in the model dump {args.model}")
    policy = parse_heuristic(args.heuristic)
    if policy is Heuristic.ONE_HOT:
        raise DataError(
            "onehot cannot route observations; train a model on transformed data instead"
        )
    dataset, dropped = _read_data(args, forest.schema, forest.response, require_response=False)
    coins = Coins(master=forest.config.seed if args.coin_seed is None else args.coin_seed)
    preds = predict_rows(forest, dataset.matrix(), [policy], coins)[policy]
    header, columns = prediction_columns(preds, forest.response.classes)
    _write_out(args, header + ["absent_trees"], columns + [preds.absent_tree_counts])
    if dropped:
        print(f"dropped {dropped} rows containing the missing token", file=sys.stderr)
    return EXIT_OK


def _cmd_experiment(args) -> int:
    cfg = load_experiment_config(args.config)
    result = run_experiment(cfg, verbose=args.verbose)
    print(f"experiment complete: {result.output_dir}", file=sys.stderr)
    return EXIT_OK


def _cmd_transform(args) -> int:
    dataset, dropped = _read_data(args, *load_schema(args.schema), require_response=False)
    onehot = one_hot_transform(dataset)
    write_csv(onehot, args.out_data)
    save_schema(args.out_schema, onehot.schema, onehot.response)
    print(
        f"wrote {onehot.n_rows} rows x {onehot.n_predictors} columns "
        f"({dropped} dropped) -> {args.out_data}",
        file=sys.stderr,
    )
    return EXIT_OK


def _cmd_inspect(args) -> int:
    forest = load_forest(args.model)  # checks every tree, so the fields below convert
    rows = []
    for tree in forest.tree_dicts:
        for node in tree["nodes"]:
            split = node["split"]
            if split is None or split["kind"] != "categorical":
                continue
            spec, pseudo = forest.schema[int(split["predictor"])], split["pseudo_split"]
            names = [
                "|".join(spec.levels[q - 1] for q in sorted(set(map(int, split[key]))))
                for key in ("present", "absent", "left_levels")
            ]
            rows.append(
                [
                    int(tree["tree_id"]),
                    int(node["id"]),
                    spec.name,
                    *names,
                    int(split["bitmask"]),
                    None if pseudo is None else float(pseudo),
                    int(split["left_size"]),
                    int(split["right_size"]),
                ]
            )
    header = [
        "tree",
        "node",
        "predictor",
        "present_levels",
        "absent_levels",
        "left_levels",
        "bitmask",
        "pseudo_split",
        "left_size",
        "right_size",
    ]
    _write_out(args, header, list(zip(*rows)))
    return EXIT_OK


@functools.cache  # built once per process; parsing leaves it unchanged
def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="absentrf",
        description="Random forests with explicit handling for absent categorical levels",
    )
    parser.add_argument("--version", action="version", version=f"%(prog)s {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("train", help="train a forest and write a model dump")
    _add_data_args(p)
    p.add_argument("--out", required=True, help="model dump path (JSON)")
    p.add_argument("--trees", type=int, default=500)
    p.add_argument("--sample-size", type=int, default=None)
    p.add_argument("--mtry", type=int, default=None)
    p.add_argument("--min-node-size", type=int, default=None)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--workers", type=int, default=1)
    p.set_defaults(func=_cmd_train)

    p = sub.add_parser("predict", help="predict rows with a trained model")
    _add_data_args(p, "schema JSON file; must equal the schema in the model dump")
    p.add_argument("--model", required=True, help="model dump from 'train'")
    p.add_argument("--heuristic", required=True, help="routing heuristic token")
    p.add_argument(
        "--coin-seed",
        type=int,
        default=None,
        help="master seed of the routing coins, Coins(master=S); defaults to the forest's training seed",
    )
    p.add_argument("--out", default=None, help="predictions CSV (default stdout)")
    p.set_defaults(func=_cmd_predict)

    p = sub.add_parser("experiment", help="run a replicated heuristic comparison")
    p.add_argument("--config", required=True, help="experiment config JSON")
    p.add_argument("--verbose", action="store_true")
    p.set_defaults(func=_cmd_experiment)

    p = sub.add_parser("transform", help="one-hot encode the categorical columns")
    _add_data_args(p)
    p.add_argument("--out-data", required=True, help="transformed CSV path")
    p.add_argument("--out-schema", required=True, help="transformed schema path")
    p.set_defaults(func=_cmd_transform)

    p = sub.add_parser("inspect", help="audit categorical splits of a model dump")
    p.add_argument("--model", required=True, help="model dump from 'train'")
    p.add_argument("--out", default=None, help="audit CSV (default stdout)")
    p.set_defaults(func=_cmd_inspect)
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except BrokenPipeError:
        # downstream consumer (e.g. `head`) closed our stdout; not an error
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return EXIT_OK
    except (DataError, ConfigError, ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_DATA
    except (RuntimeError, MemoryError) as exc:  # numpy names a refused allocation
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_RUNTIME


if __name__ == "__main__":
    sys.exit(main())
