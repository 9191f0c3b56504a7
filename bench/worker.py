"""One workload run, in the fresh interpreter that bench/run.py starts for it.

    python3 bench/worker.py WORKLOAD SEED SECONDS TRACE QUICK

Runs passes over the workload's job list, one job at a time, for about
SECONDS (at least the workload's minimum number of passes), and times
fresh-interpreter imports between passes. Every job's output is checked, and
must repeat exactly in every pass. With TRACE=1, untraced and traced passes
alternate: the untraced ones give the overhead baseline, the traced ones the
per-layer spans. Prints one JSON line: job timings, failures with job ids and
reasons, per-layer summaries, setup samples and the environment. Never raises
on a job.
"""

from __future__ import annotations

import contextlib
import json
import resource
import subprocess
import sys
import time
import traceback

import tracing
import workloads

# no new pass starts after this, whatever SECONDS says, so a run stays well
# inside its time limit on a slow machine
HARD_STOP_S = 120.0
SETUP_PROBES_PER_PASS = 4


def _environment() -> dict:
    import diagram_spectra
    import numpy

    blas = {}
    try:
        blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
    except (TypeError, KeyError):
        pass
    return {
        "python": sys.version.split()[0],
        "numpy": numpy.__version__,
        "blas": f"{blas.get('name', 'unknown')} {blas.get('version', '')}".strip(),
        "package_file": diagram_spectra.__file__,
    }


def run_pass(jobs, traced: bool, record: dict, cutoff: int) -> None:
    """Run every job once, appending timings, failures and (traced) the
    pass's per-layer summary to `record`."""
    tracer = tracing.Tracer() if traced else None
    layers = None
    pass_wall = 0.0
    for job in jobs:
        record["attempted"] += 1
        elapsed = 0.0
        try:
            with tracer.patched() if traced else contextlib.nullcontext():
                start = time.perf_counter()
                try:
                    out = job.run(traced)
                finally:
                    elapsed = time.perf_counter() - start
            pass_wall += elapsed
            record["times"].setdefault(job.id, []).append(elapsed)
        except Exception:  # a job failure is a result, not a crash
            record["failures"].append([job.id, _last_line()])
            continue
        try:
            reason = job.check(out)
            digest = job.digest(out)
        except Exception:
            reason, digest = "check raised " + _last_line(), None
        if reason is None and digest != record["digests"].setdefault(job.id, digest):
            reason = "output differs from an earlier pass" + (" (traced)" if traced else "")
        if reason is not None:
            record["failures"].append([job.id, reason])
        if isinstance(out, workloads.CliOutput) and out.spans is not None:
            top = {name: end - begin for name, begin, end, parent, _ in out.spans if parent is None}
            record["cli"].append([top.get("cli.import", 0.0), out.numpy_import_s, top.get("cli.main", 0.0)])
            record["spans"].append(out.spans)
            got = tracing.summarize(out.spans, cutoff)
            layers = got if layers is None else tracing.merge(layers, got)
        del out
    record["pass_walls"].append(pass_wall)
    if tracer is not None:
        record["spans"].append(tracer.spans)
        got = tracing.summarize(tracer.spans, cutoff)
        layers = got if layers is None else tracing.merge(layers, got)
        layers["coverage"] = layers["top_level_s"] / pass_wall if pass_wall else 0.0
        record["layers"].append(layers)


def _last_line() -> str:
    return traceback.format_exc(limit=2).strip().splitlines()[-1]


def run_workload(name: str, seed: int, seconds: float, trace: bool, quick: bool) -> dict:
    """Passes over the workload for about `seconds`; with `trace`, every
    second pass is traced."""
    import diagram_spectra.oracle as oracle

    cutoff = getattr(oracle, "_PLAIN_FL_MAX", 12)
    make_jobs, min_passes = workloads.WORKLOADS[name]
    jobs = make_jobs(seed, quick)
    if trace:
        min_passes = 2  # at least one untraced, one traced
    digests: dict = {}  # shared: traced passes must repeat untraced output
    plain, traced = (
        {"attempted": 0, "times": {}, "pass_walls": [], "failures": [], "digests": digests,
         "spans": [], "cli": [], "layers": []}
        for _ in range(2)
    )
    module = "diagram_spectra.cli" if name == "cli-batch" else "diagram_spectra"
    setup_probe(module)  # warm-up: bytecode caches are written once, not per run
    setup: list[float] = []
    start = time.perf_counter()
    passes, last = 0, 0.0
    # after the minimum, a pass starts only if it should end by the deadline
    while passes < min_passes or time.perf_counter() - start + last <= min(seconds, HARD_STOP_S):
        began = time.perf_counter()
        is_traced = trace and passes % 2 == 1
        run_pass(jobs, is_traced, traced if is_traced else plain, cutoff)
        # the probes are spread over the run, so that setup_s sees the same
        # machine as the passes
        setup.extend(setup_probe(module) for _ in range(SETUP_PROBES_PER_PASS))
        passes += 1
        last = time.perf_counter() - began
    for record in (plain, traced):
        del record["digests"]
    return {"passes": passes, "jobs": [j.id for j in jobs], "plain": plain, "traced": traced, "setup": setup}


def setup_probe(module: str) -> float:
    """Seconds from starting a fresh interpreter until `import module` is done."""
    code = f"import sys; import {module}; sys.stdout.write('ok\\n'); sys.stdout.flush()"
    start = time.perf_counter()
    with subprocess.Popen([sys.executable, "-c", code], stdout=subprocess.PIPE) as proc:
        line = proc.stdout.readline()
        elapsed = time.perf_counter() - start
        proc.wait(timeout=60)
    if line != b"ok\n" or proc.returncode != 0:
        raise RuntimeError(f"import {module} failed in a fresh interpreter")
    return elapsed


def main() -> int:
    name, seed, seconds, trace, quick = sys.argv[1:6]
    result = run_workload(name, int(seed), float(seconds), trace == "1", quick == "1")
    result["peak_rss_mb"] = {
        "self": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
        "children": resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss / 1024,
    }
    result["environment"] = _environment()
    sys.stdout.write(json.dumps(result) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
