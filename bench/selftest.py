"""Self-test of the benchmark, at reduced size.

    python3 bench/selftest.py

Checks that BENCHMARK.json matches bench/run.py's SPEC; that every workload,
traced and untraced, prints every metric named there with its unit and no
failure; that a wrong result injected into each workload is counted as a
failed job with its id and reason, never raised; and that the benchmark
refuses to run without the package source. Exits 0 when all hold.
"""

from __future__ import annotations

import dataclasses
import json
import os
import shutil
import subprocess
import sys
from pathlib import Path
from unittest import mock

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
sys.path[:0] = [str(ROOT / "src"), str(BENCH_DIR)]

import run  # noqa: E402
import worker  # noqa: E402
import workloads  # noqa: E402
from diagram_spectra import gram_partition, sdm, spectrum  # noqa: E402
from diagram_spectra.poly import Polynomial  # noqa: E402

# the in-process runs below start subprocesses, which need run.py's settings
os.environ.update(run._child_env())


def check_spec() -> None:
    got = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert got == run.SPEC, "BENCHMARK.json differs from run.SPEC; rerun bench/run.py --write-spec"
    assert [w["name"] for w in got["workloads"]] == list(workloads.WORKLOADS)


def check_metrics_emitted() -> None:
    for name in workloads.WORKLOADS:
        for trace in (0, 1):
            cmd = [sys.executable, str(BENCH_DIR / "run.py"), "--workload", name, "--seed", "5",
                   "--seconds", "0", "--trace", str(trace), "--quick"]
            proc = subprocess.run(cmd, capture_output=True, text=True, cwd=ROOT, timeout=170)
            assert proc.returncode == 0, (name, trace, proc.stderr[-2000:])
            last = json.loads(proc.stdout.splitlines()[-1])
            assert set(last) == {"correct", "attempted", "failed", "metrics"}, last.keys()
            assert last["correct"] and last["failed"] == 0 and last["attempted"] >= 1, (name, trace, proc.stdout)
            listed = run.SPEC["per_layer" if trace else "end_to_end"]
            assert list(last["metrics"]) == [m["name"] for m in listed], (name, trace)
            for m in listed:
                got = last["metrics"][m["name"]]
                assert got["unit"] == m["unit"] and isinstance(got["value"], (int, float)), (name, m, got)
            print(f"ok   {name} trace={trace}: {len(listed)} metrics with units")


def _run(name: str) -> dict:
    """The workload in this process at reduced size: its failed job runs."""
    result = worker.run_workload(name, seed=5, seconds=0, trace=False, quick=True)
    return result["plain"]["failures"]


def _expect_failures(label: str, failures: list, fragment: str) -> None:
    assert failures, f"{label}: injected wrong result was not counted"
    assert all(len(f) == 2 and f[0] and f[1] for f in failures), failures
    assert any(fragment in f[1] for f in failures), (label, failures)
    print(f"ok   {label}: {len(failures)} failed job runs, e.g. {failures[0][0]}: {failures[0][1][:70]}")


def check_injected_failures() -> None:
    assert not _run("sdm-certify") and not _run("gram-det"), "clean runs must not fail"

    # a perturbed eigenvalue: every certificate must reject it
    real = spectrum.distinct_eigenvalues

    def perturbed(s, r):
        forms = real(s, r)
        bad = dataclasses.replace(forms[-1], coeffs=(forms[-1].coeffs[0] + 1,) + forms[-1].coeffs[1:])
        return forms[:-1] + [bad]

    with mock.patch.object(spectrum, "distinct_eigenvalues", perturbed):
        _expect_failures("sdm-certify, perturbed eigenvalue", _run("sdm-certify"), "not passed")

    # a wrong block eigenpolynomial: the determinant identity must fail
    real_block = gram_partition.block_spectrum

    def wrong_block(k, s, r):
        spec = real_block(k, s, r)
        l, poly, mult = spec.eigenpolys[0]
        return dataclasses.replace(spec, eigenpolys=((l, poly * Polynomial.x_minus(7), mult),) + spec.eigenpolys[1:])

    with mock.patch.object(gram_partition, "block_spectrum", wrong_block):
        _expect_failures("gram-det, wrong eigenpolynomial", _run("gram-det"), "not passed")

    # a spurious semisimplicity exception, with the determinant still right
    real_exc = gram_partition.semisimple_exceptions
    with mock.patch.object(gram_partition, "semisimple_exceptions", lambda k, s: real_exc(k, s) | {2 * k}):
        _expect_failures("gram-det, spurious exception", _run("gram-det"), "integer zeros of det")

    # a symmetric change to one substituted pair: only the row sums see it
    real_sub = sdm.substitute

    def shifted(m, values):
        inst = real_sub(m, values)
        inst[0][1] += 1
        inst[1][0] += 1
        return inst

    with mock.patch.object(sdm, "substitute", shifted):
        _expect_failures("build-scale, shifted entry", _run("build-scale"), "sums to")

    # one half diagram lost from the Gram basis
    real_gram = gram_partition.build_gram

    def short_gram(k, s, max_size=gram_partition.DEFAULT_MAX_SIZE):
        g = real_gram(k, s, max_size)
        return dataclasses.replace(g, diagrams=g.diagrams[:-1], entries=tuple(r[:-1] for r in g.entries[:-1]))

    with mock.patch.object(gram_partition, "build_gram", short_gram):
        _expect_failures("build-scale, short Gram basis", _run("build-scale"), "side")

    # the CLI's reference: a perturbed eigenvalue in to_json_dict
    real_json = spectrum.to_json_dict

    def wrong_json(s, r):
        data = real_json(s, r)
        data["eigenvalues"][0]["coeffs"][0] += 1
        return data

    with mock.patch.object(spectrum, "to_json_dict", wrong_json):
        _expect_failures("cli-batch, perturbed eigenvalue", _run("cli-batch"), "differ")

    # output that changes between repeats of the same invocation
    real_cli = workloads._run_cli
    calls: dict = {}

    def drifting(entry, argv, traced):
        out = real_cli(entry, argv, traced)
        key = tuple(argv)
        calls[key] = calls.get(key, 0) + 1
        if calls[key] > 1 and "json" in argv:
            out.stdout += "\n"
        return out

    with mock.patch.object(workloads, "_run_cli", drifting):
        _expect_failures("cli-batch, output drift across repeats", _run("cli-batch"), "earlier pass")


def check_refuses_without_source() -> None:
    bare = run.OUT_DIR / "bare"
    shutil.rmtree(bare, ignore_errors=True)
    bare.mkdir(parents=True)
    try:
        shutil.copy(ROOT / "BENCHMARK.json", bare)
        shutil.copytree(BENCH_DIR, bare / "bench", ignore=shutil.ignore_patterns("__pycache__"))
        proc = subprocess.run(
            [sys.executable, "bench/run.py", "--workload", "gram-det", "--seed", "1", "--seconds", "1", "--trace", "0"],
            capture_output=True, text=True, cwd=bare, timeout=170,
        )
    finally:
        shutil.rmtree(bare, ignore_errors=True)
    assert proc.returncode != 0 and not proc.stdout.strip(), (proc.returncode, proc.stdout)
    print(f"ok   without src/: exit {proc.returncode}, no result printed")


def main() -> int:
    check_spec()
    check_injected_failures()
    check_refuses_without_source()
    check_metrics_emitted()
    print("selftest passed")
    return 0


if __name__ == "__main__":
    sys.exit(main())
