"""Command-line front end.

Subcommands: gen, split, score, arrange, train, simulate, compare. Every
stochastic step is seeded through flags or the run-config document, so any
invocation is reproducible. Exit codes: 0 success, 1 usage or invalid
configuration, 2 unreadable or malformed data files, 3 numerical failure.
"""

from __future__ import annotations

import argparse
import csv
import json
import re
import sys
import typing
from contextlib import contextmanager
from dataclasses import replace
from pathlib import Path

import numpy as np

from . import data_io, neural, scoring, solvers
from .core import ArchConfig, BlockPattern, apply_permutation, brief, check_seed
from .errors import ArrangeError, InvalidArgument, NonFiniteLoss
from .retention import RetentionConfig, channel_ber

EXIT_OK = 0
EXIT_USAGE = 1
EXIT_DATA = 2
EXIT_NUMERIC = 3


# A command-line value that argparse repeats whole in a usage error, quoted
# ("invalid int value: '...'") or not ("unrecognized arguments: ...").
_LONG_VALUE = re.compile(r"'?([^\s']{65,})'?")


class _Parser(argparse.ArgumentParser):
    # argparse exits with 2 on usage errors; the contract reserves 2 for data.
    def error(self, message):
        # Like core.brief: a long value is shown by its size.
        message = _LONG_VALUE.sub(lambda m: f"<{len(m[1])}-character value>", message)
        self.print_usage(sys.stderr)
        self.exit(EXIT_USAGE, f"{self.prog}: error: {message}\n")


class _DataError(Exception):
    """Wraps any failure while reading an input file (exit 2). Writes are not
    wrapped: a failed write exits 1 with its OSError."""


@contextmanager
def _reading(what: str):
    """Turn a failure to read ``what`` into a _DataError (exit 2).

    ValueError covers text that is not UTF-8 and malformed JSON."""
    try:
        yield
    except (ArrangeError, OSError, ValueError) as exc:
        raise _DataError(f"cannot read {what}: {type(exc).__name__}: {exc}") from exc


def _load_pattern(path: str) -> BlockPattern:
    with _reading(f"pattern {path}"):
        pattern = data_io.load_pattern(path)
        # A well-formed file may still hold a block no ArchConfig admits (N<3, C=0).
        ArchConfig(num_wordlines=pattern.num_wordlines, cells_per_page=pattern.cells_per_page)
    return pattern


def _load_blocks(data_dir: str) -> tuple[list[str], list[BlockPattern]]:
    paths = sorted(str(p) for p in Path(data_dir).glob("*.pdap"))
    if not paths:
        raise _DataError(f"no .pdap files found in {data_dir}")
    return paths, [_load_pattern(p) for p in paths]


def _arch_for(blocks: list[BlockPattern], document: dict | None = None) -> ArchConfig:
    """The dataset's geometry, with the run config's 'arch' section when given."""
    n, c = blocks[0].num_wordlines, blocks[0].cells_per_page
    for b in blocks[1:]:
        if (b.num_wordlines, b.cells_per_page) != (n, c):
            raise InvalidArgument("blocks in the dataset have inconsistent dimensions")
    return _section(document or {}, "arch", num_wordlines=n, cells_per_page=c)


# ---------------------------------------------------------------------------
# Run-config document (strict JSON): one section per config dataclass.

_SECTIONS = {
    "arch": ArchConfig,
    "network": neural.NetworkConfig,
    "train": neural.TrainConfig,
    "retention": RetentionConfig,
}


class _LongInteger:
    """A run-config integer with more digits than int() reads; parse_run_config
    refuses it as configuration."""

    def __init__(self, digits: int):
        self.digits = digits


def _json_int(token: str):
    try:
        return int(token)
    except ValueError:  # past the interpreter's limit on integer digits
        return _LongInteger(len(token.lstrip("-")))


def parse_run_config(document: dict) -> dict:
    """Check every section of a run-config mapping: its keys are fields of
    its dataclass, and each value has the JSON type the field's annotation
    names. An int field takes an integer, a float field any number up to the
    largest float, ``float | None`` also null; a bool is never a number."""
    if not isinstance(document, dict):
        raise InvalidArgument("run config must be a JSON object")
    for name, values in document.items():
        if name not in _SECTIONS:
            raise InvalidArgument(f"unknown config section '{name}'")
        if not isinstance(values, dict):
            raise InvalidArgument(f"config section '{name}' must be an object")
        hints = typing.get_type_hints(_SECTIONS[name])
        for key, value in values.items():
            if key not in hints:
                raise InvalidArgument(f"unknown key '{key}' in '{name}'")
            if isinstance(value, _LongInteger):
                raise InvalidArgument(
                    f"{name}.{key} is an integer of {value.digits} digits, too many to read"
                )
            hint = hints[key]
            accepted = set(typing.get_args(hint)) or {hint}
            if float in accepted:
                accepted.add(int)
            if type(value) not in accepted:
                hint_name = getattr(hint, "__name__", hint)
                raise InvalidArgument(f"{name}.{key} must be {hint_name}, got {value!r}")
            if float in accepted and type(value) is int and abs(value) > sys.float_info.max:
                raise InvalidArgument(f"{name}.{key} is an integer beyond the float range")
    return document


def _not_json(token: str):
    raise ValueError(f"{token} is not a JSON value")


def _read_config_file(path: str | None) -> dict:
    if path is None:
        return {}
    with _reading(f"config {path}"):
        document = json.loads(
            Path(path).read_text(encoding="utf-8"), parse_int=_json_int, parse_constant=_not_json
        )
    return parse_run_config(document)


def _section(document: dict, name: str, **fixed):
    """Build the dataclass of checked run-config section ``name``. ``fixed``
    holds fields the data decides; the section may repeat them only with the
    same value."""
    values = document.get(name, {})
    for key, value in fixed.items():
        if key in values and values[key] != value:
            raise InvalidArgument(
                f"{name}.{key}={brief(values[key])} disagrees with the data's {value}"
            )
    return _SECTIONS[name](**{**values, **fixed})


# ---------------------------------------------------------------------------
# Subcommands.

def cmd_gen(args) -> int:
    if args.blocks < 1:
        raise InvalidArgument(f"--blocks must be positive, got {brief(args.blocks)}")
    cfg = ArchConfig(num_wordlines=args.wordlines, cells_per_page=args.cells)
    check_seed(args.seed)
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    manifest = {
        "generator": data_io.GENERATOR_ID,
        "wordlines": args.wordlines,
        "cells": args.cells,
        "base_seed": args.seed,
        "blocks": [],
    }
    for k in range(args.blocks):
        seed = args.seed + k
        name = f"block_{k:04d}.pdap"
        data_io.save_pattern(out / name, data_io.gen_random_block(cfg, seed))
        manifest["blocks"].append({"file": name, "seed": seed})
    (out / "manifest.json").write_text(json.dumps(manifest, indent=2) + "\n")
    print(f"wrote {args.blocks} blocks ({args.wordlines}x{args.cells}) to {out}")
    return EXIT_OK


def cmd_split(args) -> int:
    paths, blocks = _load_blocks(args.data_dir)
    _arch_for(blocks)
    names = [Path(p).name for p in paths]
    train_idx, test_idx = data_io.split_indices(len(names), args.seed)
    manifest = {
        "seed": args.seed,
        "train": [names[i] for i in train_idx],
        "test": [names[i] for i in test_idx],
    }
    out = Path(args.out) if args.out else Path(args.data_dir) / "split_manifest.json"
    out.write_text(json.dumps(manifest, indent=2) + "\n")
    print(f"split {len(names)} blocks into {len(train_idx)} train / {len(test_idx)} test ({out})")
    return EXIT_OK


def cmd_score(args) -> int:
    pattern = _load_pattern(args.infile)
    cfg = _arch_for([pattern])
    print(repr(scoring.block_score(pattern, cfg)))
    return EXIT_OK


def _lstm(pattern: BlockPattern, cfg: ArchConfig, schedule, model):
    if model is None:
        raise InvalidArgument("--solver lstm requires --model")
    return solvers.lstm_arrange(pattern, cfg, model)


# name -> solver(pattern, cfg, schedule, model): the names arrange --solver and
# compare --solvers accept. The flags of every run form one checked AnnealSchedule.
SOLVERS = {
    "exhaustive": lambda pattern, cfg, schedule, model: solvers.exhaustive_best(pattern, cfg),
    "random": lambda pattern, cfg, schedule, model: solvers.random_search(
        pattern, cfg, schedule.iterations, schedule.seed
    ),
    "greedy": lambda pattern, cfg, schedule, model: solvers.greedy_arrange(pattern, cfg),
    "sa": lambda pattern, cfg, schedule, model: solvers.simulated_annealing(
        pattern, cfg, schedule
    ),
    "lstm": _lstm,
}


def _load_model(path: str | None):
    if path is None:
        return None
    with _reading(f"model {path}"):
        return neural.load_checkpoint(path)


def cmd_arrange(args) -> int:
    builds_before = scoring.tensor_build_count()
    pattern = _load_pattern(args.infile)
    cfg = _arch_for([pattern])
    model = _load_model(args.model)
    schedule = solvers.AnnealSchedule(args.t0, args.cooling, args.iterations, args.seed)
    original = scoring.block_score(pattern, cfg)
    result = SOLVERS[args.solver](pattern, cfg, schedule, model)
    if args.out_map:
        data_io.save_mapping_table(args.out_map, result.perm)
    uplift = 100.0 * (result.score - original) / original
    print(
        f"original={original!r} arranged={result.score!r} uplift_pct={uplift:.4f} "
        f"evaluations={result.evaluations} elapsed={result.elapsed:.3f}s"
    )
    if args.stats:
        print(f"tensor_builds={scoring.tensor_build_count() - builds_before}")
    return EXIT_OK


def cmd_train(args) -> int:
    config = _read_config_file(args.config)
    _, blocks = _load_blocks(args.data_dir)
    cfg = _arch_for(blocks, config)
    traincfg = _section(config, "train")
    config.setdefault("network", {}).setdefault("hidden_size", 16)  # the CLI's default width
    netcfg = _section(config, "network", input_dim=cfg.cells_per_page, output_dim=cfg.num_wordlines)
    train_blocks, test_blocks = data_io.split_dataset(blocks, traincfg.seed)
    tensors = [scoring.build_score_tensor(block, cfg) for block in train_blocks]

    def mean_expected(params):
        total = 0.0
        for block, tensor in zip(train_blocks, tensors):
            p = neural.head_forward(neural.lstm_forward(block, params, netcfg), params, netcfg)
            pac = neural.combination_probability(neural.seqgen_transform(p))
            total += neural.expected_score(pac, tensor)
        return total / len(train_blocks)

    initial = mean_expected(neural.init_params(netcfg, traincfg.seed))
    params, history = neural.train(train_blocks, netcfg, traincfg, tensors)
    final = mean_expected(params)

    neural.save_checkpoint(args.out_model, params, netcfg)
    loss_csv = args.out_loss or f"{args.out_model}.loss.csv"
    with open(loss_csv, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["epoch", "mean_loss"])
        for epoch, loss in enumerate(history):
            writer.writerow([epoch, repr(loss)])
    print(
        f"initial_mean_score={initial!r} final_mean_score={final!r} "
        f"epochs={traincfg.epochs} train_blocks={len(train_blocks)} test_blocks={len(test_blocks)}"
    )
    print(f"model={args.out_model} loss_csv={loss_csv}")
    return EXIT_OK


def cmd_simulate(args) -> int:
    pattern = _load_pattern(args.infile)
    cfg = _arch_for([pattern])
    if args.map:
        with _reading(f"mapping {args.map}"):
            table = data_io.load_mapping_table(args.map)
        pattern = apply_permutation(pattern, table.as_permutation())
    rcfg = _section(_read_config_file(args.retention_config), "retention")
    if args.seed is not None:
        rcfg = replace(rcfg, seed=args.seed)
    score = scoring.block_score(pattern, cfg)
    ber = channel_ber(pattern, cfg, rcfg)
    print(f"score={score!r} ber={ber:.6f}")
    return EXIT_OK


def cmd_compare(args) -> int:
    requested = [s.strip() for s in args.solvers.split(",") if s.strip()]
    if not requested or set(requested) - set(SOLVERS):
        raise InvalidArgument(f"--solvers {args.solvers!r}: choose from {', '.join(SOLVERS)}")
    _, blocks = _load_blocks(args.data_dir)
    cfg = _arch_for(blocks)
    model = _load_model(args.model)
    schedule = solvers.AnnealSchedule(iterations=args.iterations, seed=args.seed)
    identity_scores = [scoring.block_score(b, cfg) for b in blocks]

    text = [f"{'solver':<12}{'mean_score':>16}{'min_score':>16}{'max_score':>16}{'uplift%':>10}{'time_s':>10}"]
    rows = ["solver,mean_score,min_score,max_score,mean_uplift_pct,wall_time_s"]
    failed = False
    for name in requested:
        scores, uplifts = [], []
        elapsed = 0.0
        try:
            for index, (block, identity) in enumerate(zip(blocks, identity_scores)):
                result = SOLVERS[name](block, cfg, replace(schedule, seed=args.seed + index), model)
                scores.append(result.score)
                uplifts.append(100.0 * (result.score - identity) / identity)
                elapsed += result.elapsed
        except ArrangeError as exc:
            failed = True
            text.append(f"{name:<12}  error: {type(exc).__name__}: {exc}")
            rows.append(f"{name},error,error,error,error,error")
            continue
        mean, low, high = float(np.mean(scores)), float(np.min(scores)), float(np.max(scores))
        uplift = float(np.mean(uplifts))
        text.append(
            f"{name:<12}{mean:>16.2f}{low:>16.2f}{high:>16.2f}{uplift:>10.3f}{elapsed:>10.3f}"
        )
        rows.append(f"{name},{mean!r},{low!r},{high!r},{uplift!r},{elapsed!r}")
    print("\n".join(text))
    if args.csv:
        Path(args.csv).write_text("\n".join(rows) + "\n")
    return EXIT_USAGE if failed else EXIT_OK


# ---------------------------------------------------------------------------

def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(prog="nandarrange", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("gen", help="generate random pattern files + manifest")
    p.add_argument("--out", required=True)
    p.add_argument("--blocks", type=int, required=True)
    p.add_argument("--wordlines", type=int, default=16)
    p.add_argument("--cells", type=int, default=64)
    p.add_argument("--seed", type=int, default=0)
    p.set_defaults(func=cmd_gen)

    p = sub.add_parser("split", help="write a 7:3 train/test split manifest")
    p.add_argument("--data-dir", required=True)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--out")
    p.set_defaults(func=cmd_split)

    p = sub.add_parser("score", help="print the block score of a pattern file")
    p.add_argument("--in", dest="infile", required=True)
    p.set_defaults(func=cmd_score)

    p = sub.add_parser("arrange", help="arrange one block and write its mapping table")
    p.add_argument("--in", dest="infile", required=True)
    p.add_argument("--solver", choices=SOLVERS, required=True)
    p.add_argument("--model", help="PDAW checkpoint (required for --solver lstm)")
    p.add_argument("--out-map")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--iterations", type=int, default=solvers.SA_DEFAULT_ITERATIONS)
    p.add_argument("--t0", type=float, default=None, help="SA start temperature (default: auto)")
    p.add_argument("--cooling", type=float, default=solvers.SA_DEFAULT_COOLING)
    p.add_argument("--stats", action="store_true", help="print score-tensor build count")
    p.set_defaults(func=cmd_arrange)

    p = sub.add_parser("train", help="train the network on a directory of pattern files")
    p.add_argument("--data-dir", required=True)
    p.add_argument("--config", help="JSON run config (strict keys)")
    p.add_argument("--out-model", required=True)
    p.add_argument("--out-loss", help="loss CSV path (default: <out-model>.loss.csv)")
    p.set_defaults(func=cmd_train)

    p = sub.add_parser("simulate", help="run the retention channel, print score and BER")
    p.add_argument("--in", dest="infile", required=True)
    p.add_argument("--map", help="PDAM mapping table to apply first")
    p.add_argument("--retention-config", help="JSON run config with a 'retention' section")
    p.add_argument("--seed", type=int, default=None, help="override the retention seed")
    p.set_defaults(func=cmd_simulate)

    p = sub.add_parser("compare", help="run several solvers over a dataset and report")
    p.add_argument("--data-dir", required=True)
    p.add_argument("--solvers", default="greedy,sa,random")
    p.add_argument("--model")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--iterations", type=int, default=solvers.SA_DEFAULT_ITERATIONS)
    p.add_argument("--csv", help="also write the report as CSV")
    p.set_defaults(func=cmd_compare)

    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except _DataError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_DATA
    except NonFiniteLoss as exc:
        print(f"error: NonFiniteLoss: {exc}", file=sys.stderr)
        return EXIT_NUMERIC
    except (ArrangeError, OSError) as exc:
        print(f"error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return EXIT_USAGE


if __name__ == "__main__":
    sys.exit(main())
