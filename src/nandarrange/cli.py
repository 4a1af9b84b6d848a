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
import sys
import time
import typing
from dataclasses import dataclass, replace
from pathlib import Path

import numpy as np

from . import data_io, neural, scoring, solvers
from .core import ArchConfig, BlockPattern, apply_permutation
from .errors import (
    ArrangeError,
    CodecError,
    InvalidArgument,
    NonFiniteGradient,
    NonFiniteLoss,
)
from .retention import RetentionConfig, measure_ber, read_back, simulate_retention

EXIT_OK = 0
EXIT_USAGE = 1
EXIT_DATA = 2
EXIT_NUMERIC = 3


class _Parser(argparse.ArgumentParser):
    # argparse exits with 2 on usage errors; the contract reserves 2 for data.
    def error(self, message):
        self.print_usage(sys.stderr)
        self.exit(EXIT_USAGE, f"{self.prog}: error: {message}\n")


class _DataError(Exception):
    """Wraps any failure while reading or writing artifact files."""


def _fail_data(exc: Exception, context: str) -> "_DataError":
    return _DataError(f"{context}: {type(exc).__name__}: {exc}")


def _load_pattern(path: str) -> BlockPattern:
    try:
        pattern = data_io.load_pattern(path)
        # A well-formed file may still hold a block no ArchConfig admits (N<3, C=0).
        ArchConfig(num_wordlines=pattern.num_wordlines, cells_per_page=pattern.cells_per_page)
    except (ArrangeError, OSError) as exc:
        raise _fail_data(exc, f"cannot read pattern {path}") from exc
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
    return _section(document or {}, "arch", ArchConfig, num_wordlines=n, cells_per_page=c)


# ---------------------------------------------------------------------------
# Run-config document (strict JSON: unknown keys anywhere are errors).

_CONFIG_SCHEMA = {
    "arch": {"num_wordlines", "cells_per_page", "k1", "k2", "alpha"},
    "network": {"hidden_size", "num_linear_layers"},
    "train": {
        "epochs",
        "learning_rate",
        "seed",
        "beta1",
        "beta2",
        "gradient_clip_norm",
    },
    "anneal": {"initial_temperature", "cooling_factor", "iterations", "seed"},
    "retention": {"coupling", "time", "saturation_gain", "noise_sigma", "seed"},
    "paths": {"data_dir", "model", "out"},
}


def parse_run_config(document: dict) -> dict:
    """Validate a run-config mapping against the documented key set."""
    if not isinstance(document, dict):
        raise InvalidArgument("run config must be a JSON object")
    unknown = set(document) - set(_CONFIG_SCHEMA)
    if unknown:
        raise InvalidArgument(f"unknown config section(s): {sorted(unknown)}")
    for section, content in document.items():
        if not isinstance(content, dict):
            raise InvalidArgument(f"config section '{section}' must be an object")
        bad = set(content) - _CONFIG_SCHEMA[section]
        if bad:
            raise InvalidArgument(f"unknown key(s) in '{section}': {sorted(bad)}")
    return document


def _read_config_file(path: str | None) -> dict:
    if path is None:
        return {}
    try:
        document = json.loads(Path(path).read_text())
    except OSError as exc:
        raise _fail_data(exc, f"cannot read config {path}") from exc
    except json.JSONDecodeError as exc:
        raise _fail_data(exc, f"config {path} is not valid JSON") from exc
    return parse_run_config(document)


def _section(document: dict, name: str, cls, **fixed):
    """Build the dataclass ``cls`` from run-config section ``name``.

    Each value must have the JSON type its field annotation names: an int
    field takes an integer, a float field any number, ``float | None`` also
    null; a bool is never a number. ``fixed`` holds fields the data decides;
    the section may repeat them only with the same value.
    """
    values = document.get(name, {})
    hints = typing.get_type_hints(cls)
    for key, value in values.items():
        hint = hints[key]
        accepted = set(typing.get_args(hint)) or {hint}
        if float in accepted:
            accepted.add(int)
        if type(value) not in accepted:
            hint_name = getattr(hint, "__name__", hint)
            raise InvalidArgument(f"{name}.{key} must be {hint_name}, got {value!r}")
        if key in fixed and value != fixed[key]:
            raise InvalidArgument(f"{name}.{key}={value!r} disagrees with the data's {fixed[key]}")
    return cls(**{**values, **fixed})


# ---------------------------------------------------------------------------
# Subcommands.

def cmd_gen(args) -> int:
    if args.wordlines < 3:
        raise InvalidArgument(f"--wordlines must be >= 3, got {args.wordlines}")
    if args.cells < 1 or args.blocks < 1:
        raise InvalidArgument("--cells and --blocks must be positive")
    cfg = ArchConfig(num_wordlines=args.wordlines, cells_per_page=args.cells)
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
    paths, _ = _load_blocks(args.data_dir)
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


@dataclass(frozen=True)
class _SolverOptions:
    iterations: int
    seed: int
    t0: float | None = None
    cooling: float = solvers.SA_DEFAULT_COOLING
    model: tuple | None = None


def _anneal(pattern: BlockPattern, cfg: ArchConfig, opts: _SolverOptions):
    schedule = solvers.AnnealSchedule(opts.t0, opts.cooling, opts.iterations, opts.seed)
    return solvers.simulated_annealing(pattern, cfg, schedule)


def _lstm(pattern: BlockPattern, cfg: ArchConfig, opts: _SolverOptions):
    if opts.model is None:
        raise InvalidArgument("--solver lstm requires --model")
    started = time.perf_counter()
    perm = neural.arrange(pattern, *opts.model)
    score = scoring.block_score(apply_permutation(pattern, perm), cfg)
    return solvers.SolverResult(perm, score, 0, time.perf_counter() - started)


# name -> solver(pattern, cfg, opts): the names arrange --solver and compare --solvers accept.
SOLVERS = {
    "exhaustive": lambda pattern, cfg, opts: solvers.exhaustive_best(pattern, cfg),
    "random": lambda pattern, cfg, opts: solvers.random_search(
        pattern, cfg, opts.iterations, opts.seed
    ),
    "greedy": lambda pattern, cfg, opts: solvers.greedy_arrange(pattern, cfg),
    "sa": _anneal,
    "lstm": _lstm,
}


def _load_model(path: str | None):
    if path is None:
        return None
    try:
        return neural.load_checkpoint(path)
    except (ArrangeError, OSError) as exc:
        raise _fail_data(exc, f"cannot read model {path}") from exc


def cmd_arrange(args) -> int:
    builds_before = scoring.tensor_build_count()
    pattern = _load_pattern(args.infile)
    cfg = _arch_for([pattern])
    model = _load_model(args.model)
    original = scoring.block_score(pattern, cfg)
    opts = _SolverOptions(args.iterations, args.seed, args.t0, args.cooling, model)
    result = SOLVERS[args.solver](pattern, cfg, opts)
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
    traincfg = _section(config, "train", neural.TrainConfig)
    config.setdefault("network", {}).setdefault("hidden_size", 16)  # the CLI's default width
    netcfg = _section(
        config, "network", neural.NetworkConfig,
        input_dim=cfg.cells_per_page, output_dim=cfg.num_wordlines,
    )
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
    params, history = neural.train(train_blocks, netcfg, traincfg, cfg, tensors=tensors)
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
        try:
            table = data_io.load_mapping_table(args.map)
        except (ArrangeError, OSError) as exc:
            raise _fail_data(exc, f"cannot read mapping {args.map}") from exc
        pattern = apply_permutation(pattern, table.as_permutation())
    rcfg = _section(_read_config_file(args.retention_config), "retention", RetentionConfig)
    if args.seed is not None:
        rcfg = replace(rcfg, seed=args.seed)
    score = scoring.block_score(pattern, cfg)
    voltages = simulate_retention(pattern, cfg, rcfg)
    ber = measure_ber(pattern, read_back(voltages))
    print(f"score={score!r} ber={ber:.6f}")
    return EXIT_OK


def cmd_compare(args) -> int:
    requested = [s.strip() for s in args.solvers.split(",") if s.strip()]
    for name in requested:
        if name not in SOLVERS:
            raise InvalidArgument(f"unknown solver '{name}' (choose from {', '.join(SOLVERS)})")
    _, blocks = _load_blocks(args.data_dir)
    cfg = _arch_for(blocks)
    model = _load_model(args.model)
    identity_scores = [scoring.block_score(b, cfg) for b in blocks]

    text = [f"{'solver':<12}{'mean_score':>16}{'min_score':>16}{'max_score':>16}{'uplift%':>10}{'time_s':>10}"]
    rows = ["solver,mean_score,min_score,max_score,mean_uplift_pct,wall_time_s"]
    failed = False
    for name in requested:
        scores, uplifts = [], []
        elapsed = 0.0
        try:
            for index, (block, identity) in enumerate(zip(blocks, identity_scores)):
                opts = _SolverOptions(args.iterations, args.seed + index, model=model)
                result = SOLVERS[name](block, cfg, opts)
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
    except (NonFiniteLoss, NonFiniteGradient) as exc:
        suffix = f" (epoch {exc.epoch})" if getattr(exc, "epoch", None) is not None else ""
        print(f"error: {type(exc).__name__}: {exc}{suffix}", file=sys.stderr)
        return EXIT_NUMERIC
    except CodecError as exc:
        print(f"error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return EXIT_DATA
    except (ArrangeError, OSError) as exc:
        print(f"error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return EXIT_USAGE


if __name__ == "__main__":
    sys.exit(main())
