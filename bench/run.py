"""Run one benchmark workload against the nandarrange sources of this checkout.

    python3 bench/run.py --workload paper-arrange --seed 1 --seconds 20 --trace 0

It imports ``nandarrange`` from the ``src/`` of the checkout that holds this
file, and exits nonzero without a result when that is missing. One process
runs one workload as a closed loop with a single client: set-up makes the
inputs with ``gen``/``split`` from ``--seed`` (three times, timed), then ops
run back to back while the next can be expected to end within ``--seconds``,
and at least until every input has been processed once. Every op's outputs
are checked; a failed check or a nonzero exit fails the op.

``--trace 0`` prints the end-to-end metrics named in BENCHMARK.json, measured
with tracing off. ``--trace 1`` is a separate run that wraps each layer's
functions in spans and prints the per-layer metrics, per op. The last line of
stdout is the JSON result; the line before it holds the details (environment,
fingerprint, workload figures, exact counters and self-checks).

Work files live in ``.bench_out/`` and are removed at exit. Each run leaves a
small record there keyed by workload, seed and a hash of the code, so a rerun
of the same code on the same seed is checked for an identical fingerprint and
identical work counts, and a traced run reports its overhead against the last
untraced run.
"""

from __future__ import annotations

import argparse
import ctypes
import hashlib
import json
import os
import platform
import resource
import shutil
import statistics
import sys
import time
import traceback
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
SETUP_REPEATS = 3


def parse_args(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def blas_threads() -> int | None:
    import numpy

    libs = Path(numpy.__file__).parent.parent / "numpy.libs"
    for path in sorted(libs.glob("*openblas*")):
        lib = ctypes.CDLL(str(path))
        for symbol in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_",
                       "openblas_get_num_threads"):
            if hasattr(lib, symbol):
                return int(getattr(lib, symbol)())
    return None


def environment(seed: int) -> dict:
    import numpy

    cpu = ""
    try:
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                cpu = line.split(":", 1)[1].strip()
                break
    except OSError:
        pass
    blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "nproc": len(os.sched_getaffinity(0)),
        "cpu": cpu or platform.machine(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_threads": blas_threads(),
        "seed": seed,
    }


def import_program() -> float:
    """Import nandarrange from this checkout's src/ and return the seconds taken."""
    src = ROOT / "src"
    if not (src / "nandarrange" / "__init__.py").is_file():
        sys.exit(f"error: {src}/nandarrange not found; run from a full checkout")
    sys.path.insert(0, str(src))
    started = time.perf_counter()
    import nandarrange.cli  # noqa: F401

    seconds = time.perf_counter() - started
    if Path(nandarrange.cli.__file__).resolve().parent.parent != src:
        sys.exit(f"error: imported nandarrange from {nandarrange.cli.__file__}, not {src}")
    return seconds


def load_record(path: Path) -> dict:
    try:
        return json.loads(path.read_text())
    except (OSError, ValueError):
        return {}


def code_hash() -> str:
    digest = hashlib.sha256()
    for path in sorted((ROOT / "src").rglob("*.py")) + sorted(Path(__file__).parent.glob("*.py")):
        digest.update(path.relative_to(ROOT).as_posix().encode() + b"\0" + path.read_bytes())
    return digest.hexdigest()[:16]


def run_ops(workload, seconds: float, tracer) -> list:
    """Closed loop, one client: start another op only while it can be expected
    to end within `seconds` (the last op's time is the guess)."""
    from workloads import OpResult

    ops = []
    started = time.perf_counter()
    elapsed = last = 0.0
    while len(ops) < workload.cycle or elapsed + last <= seconds:
        if tracer:
            tracer.op = len(ops)
        try:
            ops.append(workload.op(len(ops)))
        except Exception:
            ops.append(OpResult(error=traceback.format_exc(limit=-3)))
        last = time.perf_counter() - started - elapsed
        elapsed += last
    return ops


def check_trace(tracer, ops: list, cycle: int, builds: int, errors: list[str]) -> list[dict]:
    """Span-tree and work-count checks of a traced run; returns each input's counts."""
    counts = [tracer.op_counts(i) for i in range(len(ops))]
    for i, op in enumerate(ops):
        problems = tracer.check_tree(i)
        if i >= cycle and counts[i] != counts[i - cycle]:
            problems.append(f"op {i}: work counts differ from op {i - cycle}")
        if problems and not op.error:
            op.error = "; ".join(problems)
    spans = sum(1 for s in tracer.spans if s[0] == "scoring.build_score_tensor")
    if spans != builds:
        errors.append(f"{spans} build_score_tensor spans, tensor_build_count() rose by {builds}")
    return counts[:cycle]


def main(argv=None) -> int:
    args = parse_args(argv)
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    import_s = import_program()

    from nandarrange import scoring
    from tracer import Tracer
    from workloads import WORKLOADS

    if args.workload not in WORKLOADS:
        sys.exit(f"error: unknown workload {args.workload!r}; choose from {sorted(WORKLOADS)}")
    workload = WORKLOADS[args.workload]()
    out_dir = ROOT / ".bench_out"
    work = out_dir / f"work-{os.getpid()}"
    tracer = Tracer() if args.trace else None
    setup_times = []
    try:
        for k in range(SETUP_REPEATS):
            (work / f"setup{k}").mkdir(parents=True)
            os.chdir(work / f"setup{k}")
            started = time.perf_counter()
            workload.setup(args.seed)
            setup_times.append(time.perf_counter() - started)
        workload.load()
        builds = scoring.tensor_build_count()
        if tracer:
            tracer.install()
        try:
            ops = run_ops(workload, args.seconds, tracer)
        finally:
            if tracer:
                tracer.uninstall()
        builds = scoring.tensor_build_count() - builds
    finally:
        os.chdir(ROOT)
        shutil.rmtree(work, ignore_errors=True)

    errors: list[str] = []
    cycle = workload.cycle
    # Op i >= cycle reprocesses the input of op i - cycle: outputs must repeat.
    for i in range(cycle, len(ops)):
        if not ops[i].error and not ops[i - cycle].error and ops[i].digest != ops[i - cycle].digest:
            ops[i].error = f"outputs differ from op {i - cycle} on the same input"
    fingerprint = hashlib.sha256("".join(op.digest for op in ops[:cycle]).encode()).hexdigest()
    counts = check_trace(tracer, ops, cycle, builds, errors) if tracer else None

    out_dir.mkdir(exist_ok=True)
    code = code_hash()
    record_path = out_dir / f"record-{workload.name}-{args.seed}-{code}.json"
    record = load_record(record_path)
    if record.get("fingerprint", fingerprint) != fingerprint:
        errors.append(f"fingerprint {fingerprint} differs from an earlier run's {record['fingerprint']}")
    if counts is not None and record.get("counts", counts) != counts:
        errors.append("exact work counts differ from an earlier run on this seed")
    failed = [op for op in ops if op.error]
    if not failed and not errors:
        record["fingerprint"] = fingerprint
        if counts is not None:
            record["counts"] = counts
        record_path.write_text(json.dumps(record, indent=1) + "\n")

    op_p50_s = statistics.median(op.seconds for op in ops)
    values = {
        "setup_s": import_s + statistics.median(setup_times),
        "op_p50_s": op_p50_s,
        "peak_rss_mib": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    }
    detail = {}
    untraced_path = out_dir / f"untraced-{workload.name}-{code}.json"
    if tracer:
        values.update(tracer.per_op(len(ops)))
        values["trace.op_p50_s"] = op_p50_s
        untraced = load_record(untraced_path).get("op_p50_s")
        detail["trace_overhead_pct"] = 100.0 * (op_p50_s / untraced - 1.0) if untraced else None
        detail["tensor_builds"] = builds
        detail["exact_counts_per_input"] = counts
        (out_dir / f"spans-{workload.name}-{args.seed}.json").write_text(json.dumps(tracer.dump()))
    elif not failed:
        untraced_path.write_text(json.dumps({"op_p50_s": op_p50_s}) + "\n")

    metrics = {}
    for metric in spec["per_layer" if tracer else "end_to_end"]:
        # A layer that an op never entered did no work in it.
        value = values.get(metric["name"], 0.0 if tracer else None)
        if value is None:
            errors.append(f"metric {metric['name']} was not measured")
            continue
        metrics[metric["name"]] = {"value": value, "unit": metric["unit"]}
        print(f"{metric['name']:<44} {value:>16.6g} {metric['unit']}")
    detail.update({
        "workload": workload.name,
        "environment": environment(args.seed),
        "code": code,
        "fingerprint": fingerprint,
        "ops": len(ops),
        "op_samples_s": [op.seconds for op in ops],
        "error_frac": len(failed) / len(ops),
        "errors": errors + [f"op {i}: {op.error}" for i, op in enumerate(ops) if op.error],
        "import_s": import_s,
        "setup_samples_s": setup_times,
        "figures": workload.summary([op for op in ops if not op.error]),
    })
    print(json.dumps({"detail": detail}, sort_keys=True))
    # A run-level error (fingerprint, counts, tensor builds) taints every op.
    print(json.dumps({
        "correct": not failed and not errors,
        "attempted": len(ops),
        "failed": len(ops) if errors else len(failed),
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
