"""The diagram-spectra benchmark.

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a source checkout; the package is imported from ./src,
nothing needs installing. Each run starts one fresh worker interpreter
(bench/worker.py) that runs the workload's job list pass after pass, one job
at a time (a closed loop with a single client), and checks every output.
Between passes the worker times fresh interpreters importing the package,
for setup_s. The last line of stdout is one JSON object:
{"correct", "attempted", "failed", "metrics"}, with the end-to-end metrics
for --trace 0 and the per-layer metrics for --trace 1. The lines before it
name every metric with its unit, then the failures and the environment; the
same record, and the spans of a traced run, go to .bench_out/.

`--quick` runs reduced job lists (used by bench/selftest.py).
`--write-spec` rewrites BENCHMARK.json from SPEC below and exits.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"
OUT_DIR = ROOT / ".bench_out"

WORKER_TIMEOUT_S = 165
# one BLAS thread: at or below nproc on any machine, and steadier than more
# on a shared one; the charpoly matmuls (side <= 126) gain nothing from two
BLAS_THREADS = 1

SPEC = {
    "command": ["python3", "bench/run.py"],
    "paths": ["bench"],
    "run_seconds": 24,
    "workloads": [
        {"name": "sdm-certify", "why": "criterion-2 certificate sweep, 54 shapes up to side 126: the CRT charpoly path dominates"},
        {"name": "gram-det", "why": "Gram determinant sweep for k <= 6 within the det cap: Bareiss det_poly over Z[x] dominates, charpoly never runs"},
        {"name": "build-scale", "why": "construction only at sides 520-3003: cell count, memory and the partition join dominate, no oracle"},
        {"name": "cli-batch", "why": "all six subcommands as subprocesses in json/csv/table: interpreter start, imports and output dominate"},
    ],
    "end_to_end": [
        {"name": "wall_s", "unit": "s", "better": "lower", "bound": 0.25},
        {"name": "cmd_p50_s", "unit": "s", "better": "lower", "bound": 0.25},
        {"name": "cmd_p90_s", "unit": "s", "better": "lower", "bound": 0.25},
        {"name": "setup_s", "unit": "s", "better": "lower", "bound": 0.25},
        {"name": "peak_rss_mb", "unit": "MB", "better": "lower", "bound": 0.1},
        {"name": "pass_ratio", "unit": "ratio", "better": "higher", "bound": 0.01},
    ],
    "per_layer": [
        {"name": name, "unit": unit, "better": better}
        for name, unit, better in (
            ("combinat.k_subsets.self_s", "s", "lower"),
            ("combinat.set_partitions.self_s", "s", "lower"),
            ("sdm.build.self_s", "s", "lower"),
            ("sdm.build.cells", "count", "lower"),
            ("sdm.substitute.self_s", "s", "lower"),
            ("spectrum.distinct_eigenvalues.self_s", "s", "lower"),
            ("oracle.charpoly.self_s", "s", "lower"),
            ("oracle.charpoly.calls", "count", "lower"),
            ("oracle.charpoly.crt_calls", "count", "lower"),
            ("oracle.charpoly.side_max", "count", "lower"),
            ("oracle.det_poly.self_s", "s", "lower"),
            ("oracle.det_poly.calls", "count", "lower"),
            ("oracle.det_poly.side_max", "count", "lower"),
            ("oracle.verify_sdm_spectrum.self_s", "s", "lower"),
            ("oracle.verify_gram_det.self_s", "s", "lower"),
            ("gram_partition.build_gram.self_s", "s", "lower"),
            ("gram_partition.build_gram.entries", "count", "lower"),
            ("gram_partition.block_spectrum.self_s", "s", "lower"),
            ("gram_partition.semisimple_exceptions.self_s", "s", "lower"),
            ("gram_signed_z2.block_spectrum_tensor.self_s", "s", "lower"),
            ("cli.import_s", "s", "lower"),
            ("cli.import_numpy_s", "s", "lower"),
            ("cli.main_s", "s", "lower"),
            ("trace.overhead_s", "s", "lower"),
            ("trace.coverage", "ratio", "higher"),
        )
    ],
}
WORKLOADS = [w["name"] for w in SPEC["workloads"]]


def _child_env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join([str(SRC)] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else []))
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        env[var] = str(BLAS_THREADS)
    env.pop("DIAGRAM_SPECTRA_FORMAT", None)
    return env


def _git_commit() -> str:
    """HEAD of the checkout, read from .git without running git (the checkout
    may be no repository at all)."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).exists():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


def _quantile(values: list[float], q: int) -> float:
    """The q-th percentile (q in 1..99), inclusive method."""
    return statistics.quantiles(values, n=100, method="inclusive")[q - 1]


def end_to_end(result: dict, cli: bool) -> dict[str, float]:
    """A command is one subprocess in cli-batch; on the in-process workloads
    it is the sweep a user runs as one command, so there cmd_p50_s is wall_s."""
    plain = result["plain"]
    passes = plain["pass_walls"]
    samples = [t for ts in plain["times"].values() for t in ts] if cli else passes
    return {
        "wall_s": statistics.median(passes),
        "cmd_p50_s": statistics.median(samples),
        "cmd_p90_s": _quantile(samples, 90),
        "setup_s": statistics.median(result["setup"]),
        "peak_rss_mb": result["peak_rss_mb"]["children" if cli else "self"],
        "pass_ratio": 1 - len(plain["failures"]) / plain["attempted"],
    }


def per_layer(result: dict) -> dict[str, float]:
    traced = result["traced"]
    out = {}
    for key in traced["layers"][0]:
        if key == "top_level_s":
            continue
        name = "trace.coverage" if key == "coverage" else key
        out[name] = statistics.median(layer[key] for layer in traced["layers"])
    cli = traced["cli"]
    for i, name in enumerate(("cli.import_s", "cli.import_numpy_s", "cli.main_s")):
        out[name] = statistics.median(row[i] for row in cli) if cli else 0.0
    out["trace.overhead_s"] = statistics.median(traced["pass_walls"]) - statistics.median(result["plain"]["pass_walls"])
    return out


def main(argv: list[str] | None = None) -> int:
    ap = argparse.ArgumentParser(description="diagram-spectra benchmark")
    ap.add_argument("--workload", choices=WORKLOADS)
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--seconds", type=float, default=SPEC["run_seconds"])
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--quick", action="store_true", help="reduced job lists")
    ap.add_argument("--write-spec", action="store_true", help="rewrite BENCHMARK.json")
    args = ap.parse_args(argv)

    if args.write_spec:
        (ROOT / "BENCHMARK.json").write_text(json.dumps(SPEC, indent=2) + "\n")
        return 0
    if args.workload is None:
        ap.error("--workload is required")
    if not (SRC / "diagram_spectra" / "__init__.py").is_file():
        sys.stderr.write(f"error: no package source at {SRC}/diagram_spectra; run from a checkout\n")
        return 2

    env = _child_env()
    cmd = [sys.executable, str(BENCH_DIR / "worker.py"), args.workload, str(args.seed),
           str(args.seconds), str(args.trace), str(int(args.quick))]
    proc = subprocess.run(cmd, capture_output=True, text=True, env=env, cwd=ROOT, timeout=WORKER_TIMEOUT_S)
    if proc.returncode != 0:
        sys.stderr.write(proc.stderr)
        sys.stderr.write(f"error: worker exited with {proc.returncode}\n")
        return 1
    result = json.loads(proc.stdout.splitlines()[-1])

    plain, traced = result["plain"], result["traced"]
    attempted = plain["attempted"] + traced["attempted"]
    failures = plain["failures"] + traced["failures"]
    if args.trace:
        values = per_layer(result)
        units = {m["name"]: m["unit"] for m in SPEC["per_layer"]}
    else:
        values = end_to_end(result, args.workload == "cli-batch")
        units = {m["name"]: m["unit"] for m in SPEC["end_to_end"]}
    metrics = {name: {"value": values[name], "unit": units[name]} for name in units}

    environment = dict(result["environment"])
    environment.update(
        nproc=len(os.sched_getaffinity(0)),
        blas_threads=BLAS_THREADS,
        git_commit=_git_commit(),
        seed=args.seed,
        workload=args.workload,
        trace=args.trace,
        passes=result["passes"],
        jobs=len(result["jobs"]),
    )
    record = {
        "environment": environment,
        "metrics": metrics,
        "attempted": attempted,
        "failed": len(failures),
        "fail_ratio": len(failures) / attempted,
        "failures": failures,
        "setup_samples": result["setup"],
        "job_times": {"plain": plain["times"], "traced": traced["times"]},
    }
    OUT_DIR.mkdir(exist_ok=True)
    stem = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    (OUT_DIR / f"result-{stem}.json").write_text(json.dumps(record, indent=1) + "\n")
    if args.trace:
        (OUT_DIR / f"spans-{stem}.json").write_text(json.dumps(traced["spans"]) + "\n")

    for name, m in metrics.items():
        print(f"{name:45s} {m['value']:.6g} {m['unit']}")
    print(f"{'fail_ratio':45s} {record['fail_ratio']:.6g} ratio  ({len(failures)} of {attempted} job runs)")
    for job_id, reason in failures:
        print(f"FAILED {job_id}: {reason}")
    print("environment " + json.dumps(environment, sort_keys=True))
    print(json.dumps({"correct": not failures, "attempted": attempted, "failed": len(failures), "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
