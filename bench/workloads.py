"""The benchmark's workloads: inputs made by `gen`/`split`, one op per CLI flow.

Every op runs the nandarrange CLI in process through ``cli.main(argv)`` with
its stdout captured, then checks every output it wrote against the library:
mapping tables must decode to a bijection of exactly 2N+7 bytes, printed
scores must equal ``block_score`` recomputed bit for bit, and ``compare`` must
rank exhaustive search first. Each op also hashes its deterministic outputs
(permutations, score reprs, BERs, checkpoint and loss-CSV bytes) into a digest.
All paths passed to the CLI are relative to the run's work directory, so the
digests do not depend on where the checkout lives.
"""

from __future__ import annotations

import contextlib
import csv
import hashlib
import io
import json
import math
import statistics
import time
from dataclasses import dataclass, field
from pathlib import Path

from nandarrange import cli, data_io, neural, scoring
from nandarrange.core import ArchConfig, apply_permutation


class CheckFailed(Exception):
    """An output of the program is wrong; the op counts as failed."""


@dataclass
class OpResult:
    seconds: float = 0.0
    times: dict[str, list[float]] = field(default_factory=dict)
    figures: dict[str, float] = field(default_factory=dict)
    digest: str = ""
    error: str | None = None


class Op:
    """Runs one op's CLI calls, timing each and hashing what they produce."""

    def __init__(self):
        self.result = OpResult()
        self._hash = hashlib.sha256()

    def cli(self, *argv: str) -> str:
        out = io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()) as err:
            started = time.perf_counter()
            code = cli.main(list(argv))
            seconds = time.perf_counter() - started
        self.result.seconds += seconds
        self.result.times.setdefault(argv[0], []).append(seconds)
        if code != 0:
            raise CheckFailed(f"{' '.join(argv)} exited {code}: {err.getvalue().strip()}")
        return out.getvalue()

    def hash(self, *parts) -> None:
        for part in parts:
            self._hash.update(part if isinstance(part, bytes) else repr(part).encode())
            self._hash.update(b"\0")

    def finish(self) -> OpResult:
        self.result.digest = self._hash.hexdigest()
        return self.result


def fields(line: str) -> dict[str, str]:
    return dict(token.split("=", 1) for token in line.split() if "=" in token)


def arrange(op: Op, path: Path, pattern, cfg: ArchConfig, solver: str, *extra: str):
    """Run `arrange` with --out-map; check both printed scores and the PDAM file."""
    out = Path(f"{solver}.pdam")
    values = fields(op.cli(
        "arrange", "--in", str(path), "--solver", solver, *extra, "--out-map", str(out)
    ).splitlines()[0])
    original, arranged = float(values["original"]), float(values["arranged"])
    if original != scoring.block_score(pattern, cfg):
        raise CheckFailed(f"arrange printed original={original!r} for {path}")
    raw = out.read_bytes()
    n = pattern.num_wordlines
    if len(raw) != 2 * n + 7:
        raise CheckFailed(f"{out} holds {len(raw)} bytes, expected {2 * n + 7}")
    perm = data_io.read_mapping_table(raw).as_permutation()
    if len(perm) != n:
        raise CheckFailed(f"{out} maps {len(perm)} wordlines, block has {n}")
    expected = scoring.block_score(apply_permutation(pattern, perm), cfg)
    if expected != arranged:
        raise CheckFailed(f"{out}: printed score {arranged!r}, recomputed {expected!r}")
    op.hash(raw, values["original"], values["arranged"], values["evaluations"])
    return original, arranged


def uplift(original: float, arranged: float) -> float:
    return 100.0 * (arranged - original) / original


class Workload:
    name = ""
    # Ops that make up the fingerprint; op i >= cycle repeats op i - cycle.
    cycle = 1

    def setup(self, seed: int) -> None:
        """Write the inputs into the current directory."""
        raise NotImplementedError

    def load(self) -> None:
        """Read the inputs back for the output checks (not timed)."""

    def op(self, index: int) -> OpResult:
        op = Op()
        try:
            self.run(op, index)
        except CheckFailed as exc:
            op.result.error = str(exc)
        return op.finish()

    def run(self, op: Op, index: int) -> None:
        raise NotImplementedError

    def summary(self, ops: list[OpResult]) -> dict[str, float]:
        """The workload's own figures over all ops: uplift and latencies."""
        figures: dict[str, float] = {}
        if not ops:
            return figures
        for key in ops[0].figures:
            figures[key] = statistics.fmean(op.figures[key] for op in ops)
        for command in ops[0].times:
            samples = [t for op in ops for t in op.times[command]]
            figures[f"{command}_p50_s"] = statistics.median(samples)
            figures[f"{command}_samples"] = len(samples)
        return figures


class _BlockWorkload(Workload):
    """Ops cycle over `cycle` generated blocks of one shape."""

    wordlines = 0
    cells = 0

    def setup(self, seed: int) -> None:
        Op().cli(
            "gen", "--out", "blocks", "--blocks", str(self.cycle),
            "--wordlines", str(self.wordlines), "--cells", str(self.cells),
            "--seed", str(seed * 1000),
        )

    def load(self) -> None:
        self.paths = sorted(Path("blocks").glob("*.pdap"))
        self.patterns = [data_io.load_pattern(p) for p in self.paths]
        self.cfg = ArchConfig(num_wordlines=self.wordlines, cells_per_page=self.cells)

    def arrange(self, op: Op, index: int, solver: str) -> tuple[float, float]:
        k = index % self.cycle
        return arrange(op, self.paths[k], self.patterns[k], self.cfg, solver)


class PaperArrange(_BlockWorkload):
    """The paper's scale: SA arrangement plus mapped and unmapped retention."""

    name = "paper-arrange"
    cycle = 2
    wordlines = 16
    cells = 147_456

    def run(self, op: Op, index: int) -> None:
        original, arranged = self.arrange(op, index, "sa")
        block = str(self.paths[index % self.cycle])
        bers = []
        for printed_score, extra in ((arranged, ["--map", "sa.pdam"]), (original, [])):
            values = fields(op.cli("simulate", "--in", block, *extra))
            if float(values["score"]) != printed_score:
                raise CheckFailed(f"simulate score {values['score']} != {printed_score!r}")
            ber = float(values["ber"])
            if not 0.0 < ber < 1.0:
                raise CheckFailed(f"simulate printed ber={values['ber']}")
            op.hash(values["score"], values["ber"])
            bers.append(ber)
        op.result.figures = {
            "uplift_pct": uplift(original, arranged),
            "ber_drop_pct": 100.0 * (bers[1] - bers[0]) / bers[1],
        }


class WideSearch(_BlockWorkload):
    """Many wordlines, short pages: greedy and SA dominate, tensor build is small."""

    name = "wide-search"
    cycle = 8
    wordlines = 64
    cells = 64

    def run(self, op: Op, index: int) -> None:
        _, greedy = self.arrange(op, index, "greedy")
        original, annealed = self.arrange(op, index, "sa")
        # SA starts from the greedy order and returns the best state it visits.
        if annealed < greedy * (1.0 - 1e-9):
            raise CheckFailed(f"sa score {annealed!r} below its greedy start {greedy!r}")
        op.result.figures = {"uplift_pct": uplift(original, annealed)}


class DeskPipeline(Workload):
    """The desk workflow: train the LSTM, compare all solvers, arrange held-out blocks."""

    name = "desk-pipeline"
    solvers = ("exhaustive", "greedy", "sa", "random", "lstm")
    epochs = 300
    train_seed = 1

    def setup(self, seed: int) -> None:
        op = Op()
        op.cli("gen", "--out", "blocks", "--blocks", "100", "--wordlines", "8",
               "--cells", "32", "--seed", str(seed * 1000))
        op.cli("split", "--data-dir", "blocks", "--seed", str(self.train_seed))
        Path("run.json").write_text(json.dumps({
            "network": {"hidden_size": 16},
            "train": {"epochs": self.epochs, "seed": self.train_seed},
        }))

    def load(self) -> None:
        manifest = json.loads(Path("blocks/split_manifest.json").read_text())
        self.heldout = [Path("blocks") / name for name in manifest["test"]]
        self.patterns = {p: data_io.load_pattern(p) for p in self.heldout}
        self.cfg = ArchConfig(num_wordlines=8, cells_per_page=32)

    def run(self, op: Op, index: int) -> None:
        op.cli("train", "--data-dir", "blocks", "--config", "run.json",
               "--out-model", "model.pdaw", "--out-loss", "loss.csv")
        model = Path("model.pdaw").read_bytes()
        _, netcfg = neural.read_checkpoint(model)
        if (netcfg.input_dim, netcfg.hidden_size, netcfg.output_dim) != (32, 16, 8):
            raise CheckFailed(f"checkpoint holds an unexpected network {netcfg}")
        loss = Path("loss.csv").read_bytes()
        losses = [float(row[1]) for row in list(csv.reader(io.StringIO(loss.decode())))[1:]]
        if len(losses) != self.epochs or not all(map(math.isfinite, losses)):
            raise CheckFailed(f"loss CSV holds {len(losses)} rows or a non-finite loss")
        op.hash(model, loss)

        op.cli("compare", "--data-dir", "blocks", "--solvers", ",".join(self.solvers),
               "--iterations", "2000", "--model", "model.pdaw", "--csv", "compare.csv")
        rows = {row["solver"]: row for row in csv.DictReader(io.StringIO(Path("compare.csv").read_text()))}
        if sorted(rows) != sorted(self.solvers) or any(r["mean_score"] == "error" for r in rows.values()):
            raise CheckFailed(f"compare reported rows {sorted(rows)} or an error row")
        means = {name: float(row["mean_score"]) for name, row in rows.items()}
        if any(means["exhaustive"] < mean for mean in means.values()):
            raise CheckFailed(f"exhaustive mean is not the best: {means}")
        for name in self.solvers:
            op.hash(name, *(rows[name][key] for key in ("mean_score", "min_score", "max_score", "mean_uplift_pct")))

        uplifts = []
        for path in self.heldout:
            original, arranged = arrange(
                op, path, self.patterns[path], self.cfg, "lstm", "--model", "model.pdaw"
            )
            uplifts.append(uplift(original, arranged))

        op.result.figures = {
            "uplift_pct": float(rows["sa"]["mean_uplift_pct"]),
            "lstm_heldout_uplift_pct": statistics.fmean(uplifts),
            "heldout_win_frac": sum(u > 0 for u in uplifts) / len(uplifts),
            **{
                f"{name}_opt_gap_pct": 100.0 * (1.0 - means[name] / means["exhaustive"])
                for name in ("lstm", "sa")
            },
        }


WORKLOADS = {w.name: w for w in (PaperArrange, WideSearch, DeskPipeline)}
