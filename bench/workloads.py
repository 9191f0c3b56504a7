"""The benchmark's workloads: fixed job lists made from a seed, with a check
for every job's output.

A job is one call a user would make: a library call for the in-process
workloads, one `sdm`/`gram` subprocess for cli-batch. `run(traced)` does the
work and returns its output; `check(output)` returns None or the reason the
output is wrong; `digest(output)` is what must repeat exactly across passes.
Checks are independent of the code under test where they can be: shape laws
and row counts for built matrices, root sets evaluated on the certified
determinant, CLI stdout parsed and compared with the library's to_json_dict.
"""

from __future__ import annotations

import json
import os
import random
import re
import subprocess
import sys
import tempfile
from collections import Counter
from dataclasses import dataclass
from operator import itemgetter
from pathlib import Path
from typing import Callable

from diagram_spectra import gram_partition, gram_signed_z2, oracle, sdm, spectrum
from diagram_spectra.combinat import binomial, stirling2

BENCH_DIR = Path(__file__).resolve().parent
OUT_DIR = BENCH_DIR.parent / ".bench_out"

# trials per shape in sdm-certify; the criterion-2 sweep uses 5, and the cost
# of a shape is linear in it, so one trial keeps every layer's share while a
# run fits several passes
SDM_TRIALS = 1


@dataclass
class Job:
    id: str
    run: Callable[[bool], object]
    check: Callable[[object], str | None]
    digest: Callable[[object], object]


def _symmetric(rows) -> bool:
    # column by column, so the check holds no transposed copy in memory
    return all(tuple(map(itemgetter(i), rows)) == tuple(row) for i, row in enumerate(rows))


# ---------------------------------------------------------------- sdm-certify


def sdm_certify(seed: int, quick: bool) -> list[Job]:
    """verify_sdm_spectrum for every shape with s + r <= 9 (sides up to 126)."""
    top = 6 if quick else 9
    shapes = [(s, n - s) for n in range(1, top + 1) for s in range(n + 1)]

    def job(s: int, r: int) -> Job:
        def check(rep) -> str | None:
            if rep.trials != SDM_TRIALS or rep.failures or not rep.passed:
                return f"not passed: trials={rep.trials} failures={rep.failures}"
            return None

        return Job(
            id=f"verify_sdm_spectrum({s},{r})",
            run=lambda traced: oracle.verify_sdm_spectrum(s, r, trials=SDM_TRIALS, seed=seed),
            check=check,
            digest=lambda rep: json.dumps(rep.to_json_dict(), sort_keys=True),
        )

    return [job(s, r) for s, r in shapes]


# -------------------------------------------------------------------- gram-det


def gram_side(k: int, s: int) -> int:
    return sum(stirling2(k, s + r) * binomial(s + r, s) for r in range(0, k - s + 1))


def _eval_json_poly(coeffs: list[str], x: int) -> int:
    acc = 0
    for c in reversed(coeffs):
        acc = acc * x + int(c)
    return acc


def gram_det(seed: int, quick: bool) -> list[Job]:
    """verify_gram_det plus semisimple_exceptions for every (k <= 6, s) whose
    side is within det_poly's cap."""
    top = 4 if quick else 6
    shapes = [
        (k, s)
        for k in range(1, top + 1)
        for s in range(0, k + 1)
        if gram_side(k, s) <= oracle.DEFAULT_DET_CAP
    ]

    def job(k: int, s: int) -> Job:
        def run(traced):
            return oracle.verify_gram_det(k, s), gram_partition.semisimple_exceptions(k, s)

        def check(out) -> str | None:
            rep, exceptions = out
            if not rep.passed or rep.extra.get("epsilon") not in (1, -1):
                return f"not passed: failures={rep.failures}"
            # every root of a block eigenpolynomial lies in [-1, 2k]
            window = range(-2, 2 * k + 3)
            zeros = {x for x in window if _eval_json_poly(rep.extra["det"], x) == 0}
            if not exceptions <= set(window) or zeros != exceptions:
                return f"exceptions {sorted(exceptions)} != integer zeros of det {sorted(zeros)}"
            return None

        return Job(
            id=f"verify_gram_det({k},{s})",
            run=run,
            check=check,
            digest=lambda out: (json.dumps(out[0].to_json_dict(), sort_keys=True), sorted(out[1])),
        )

    jobs = [job(k, s) for k, s in shapes]
    # the workload has no random input: the seed only fixes the job order
    random.Random(f"gram-det:{seed}").shuffle(jobs)
    return jobs


# ----------------------------------------------------------------- build-scale


def build_scale(seed: int, quick: bool) -> list[Job]:
    """sdm.build + sdm.substitute at sides 924 and 3003 and build_gram(6, s)
    at sides 520-856, with no verification."""
    rng = random.Random(f"build-scale:{seed}")
    # (7, 7), side 3432, is left out: (6, 8) at side 3003 runs the same code
    # at the same scale, and two passes of the list then fit in a run
    sdm_shapes = [(3, 3), (4, 4)] if quick else [(6, 6), (6, 8)]
    gram_shapes = [(4, 1), (4, 2)] if quick else [(6, 1), (6, 2), (6, 3)]

    def sdm_job(s: int, r: int) -> Job:
        lo = min(s, r)
        values = [rng.randint(-9, 9) for _ in range(lo + 1)]
        n = binomial(s + r, s)
        counts = {lo - f: binomial(s, f) * binomial(r, f) for f in range(lo + 1)}
        row_sum = sum(c * values[v] for v, c in counts.items())

        def run(traced):
            m = sdm.build(s, r)
            return m, sdm.substitute(m, values)

        def check(out) -> str | None:
            m, inst = out
            if m.n != n or len(m.levels) != n or len(inst) != n:
                return f"side {m.n}, {len(m.levels)} rows, {len(inst)} substituted rows; want {n}"
            if not _symmetric(m.levels) or not _symmetric(inst):
                return "not symmetric"
            for i, (row, srow) in enumerate(zip(m.levels, inst)):
                if row[i] != lo or Counter(row) != counts:
                    return f"row {i}: diagonal {row[i]} or level counts {dict(Counter(row))}"
                if sum(srow) != row_sum:
                    return f"substituted row {i} sums to {sum(srow)}, want {row_sum}"
            return None

        return Job(
            id=f"sdm.build+substitute({s},{r})",
            run=run,
            check=check,
            digest=lambda out: (hash(out[0].levels), hash(tuple(map(hash, map(tuple, out[1]))))),
        )

    def gram_job(k: int, s: int) -> Job:
        n = gram_side(k, s)

        def check(g) -> str | None:
            if g.n != n or len(g.entries) != n:
                return f"side {g.n}, want {n}"
            if not _symmetric(g.entries):
                return "not symmetric"
            for i, d in enumerate(g.diagrams):
                # U_i U_i: the join is U_i's own partition, every horizontal
                # block closes to a loop
                if g.entries[i][i].coeffs != (0,) * d.r + (1,):
                    return f"diagonal {i} is {g.entries[i][i]}, want x^{d.r}"
            return None

        return Job(
            id=f"build_gram({k},{s})",
            run=lambda traced: gram_partition.build_gram(k, s),
            check=check,
            digest=lambda g: hash(g.entries),
        )

    jobs = [sdm_job(s, r) for s, r in sdm_shapes] + [gram_job(k, s) for k, s in gram_shapes]
    rng.shuffle(jobs)
    return jobs


# ------------------------------------------------------------------- cli-batch


@dataclass
class CliOutput:
    code: int
    stdout: str
    stderr: str
    spans: list | None = None
    numpy_import_s: float | None = None


def _run_cli(entry: str, argv: list[str], traced: bool) -> CliOutput:
    if not traced:
        cmd = [
            sys.executable,
            "-c",
            f"import sys; from diagram_spectra.cli import {entry}_main; sys.exit({entry}_main())",
            *argv,
        ]
        proc = subprocess.run(cmd, capture_output=True, text=True, timeout=60)
        return CliOutput(proc.returncode, proc.stdout, proc.stderr)
    OUT_DIR.mkdir(exist_ok=True)
    fd, span_file = tempfile.mkstemp(dir=OUT_DIR, prefix="cli-spans-", suffix=".json")
    os.close(fd)
    try:
        cmd = [sys.executable, "-X", "importtime", str(BENCH_DIR / "clishim.py"), span_file, entry, *argv]
        proc = subprocess.run(cmd, capture_output=True, text=True, timeout=60)
        with open(span_file) as fh:
            spans = json.load(fh) if proc.returncode == 0 else None
    finally:
        os.unlink(span_file)
    numpy_us = 0
    stderr = []
    for line in proc.stderr.splitlines(keepends=True):
        if line.startswith("import time:"):
            fields = line.split("|")
            if fields[-1].strip() == "numpy":
                numpy_us = int(fields[1])
        else:
            stderr.append(line)
    return CliOutput(proc.returncode, proc.stdout, "".join(stderr), spans, numpy_us / 1e6)


def _cells(line: str) -> list[str]:
    # pretty-table cells are padded and joined by two spaces; no cell
    # contains two spaces in a row
    return re.split(r"\s{2,}", line.strip())


def _monomial(coeffs: list[str]) -> str:
    if not coeffs:
        return "0"
    d = len(coeffs) - 1
    return "1" if d == 0 else ("x" if d == 1 else f"x^{d}")


def _draw_cli(rng: random.Random, cmd: str) -> tuple[str, list[str], Callable[[], dict]]:
    """Parameters for one invocation and a function giving the library's
    to_json_dict for them."""
    if cmd in ("build", "verify"):
        n = rng.randint(1, 7)
        s = rng.randint(0, n)
        r = n - s
    if cmd == "build":
        return "sdm", ["build", "--s", str(s), "--r", str(r)], lambda: sdm.build(s, r).to_json_dict()
    if cmd == "eig":
        s, r = rng.randint(0, 10), rng.randint(1, 10)
        return "sdm", ["eig", "--s", str(s), "--r", str(r)], lambda: spectrum.to_json_dict(s, r)
    if cmd == "verify":
        trials, vseed = rng.randint(1, 3), rng.randint(0, 999)
        argv = ["verify", "--s", str(s), "--r", str(r), "--trials", str(trials), "--seed", str(vseed)]
        return "sdm", argv, lambda: oracle.verify_sdm_spectrum(s, r, trials, vseed).to_json_dict()
    if cmd == "partition":
        k = rng.randint(1, 4)
        s = rng.randint(0, k)
        matrix, roots = rng.random() < 0.5, rng.random() < 0.5
        det = k <= 3 and rng.random() < 0.5
        argv = ["partition", "--k", str(k), "--s", str(s)]
        argv += ["--matrix"] * matrix + ["--det"] * det + ["--roots"] * roots

        def ref() -> dict:
            rep = oracle.verify_gram_det(k, s) if det else None
            data = gram_partition.to_json_dict(
                k,
                s,
                include_matrix=matrix,
                det_sign=rep.extra["epsilon"] if det else None,
                singular_x=gram_partition.semisimple_exceptions(k, s) if roots else None,
            )
            if det:
                data["det"] = rep.extra["det"]
            return data

        return "gram", argv, ref
    k = rng.randint(1, 6)
    s1 = rng.randint(0, k - 1)
    s2 = rng.randint(0, k - 1 - s1)
    argv = [cmd, "--k", str(k), "--s1", str(s1), "--s2", str(s2)]
    return "gram", argv, lambda: gram_signed_z2.to_json_dict(k, s1, s2, cmd)


def _expected_rows(cmd: str, fmt: str, ref: dict) -> list[list[str]]:
    """The rows a csv or pretty-table output must hold, from to_json_dict.
    For pretty-table only the leading key columns and the last column are
    compared."""
    if cmd == "build":
        return [[f"x{v}" for v in row] for row in ref["levels"]]
    if cmd == "eig":
        if fmt == "csv":
            return [[str(e["l"]), str(e["multiplicity"])] + [str(c) for c in e["coeffs"]] for e in ref["eigenvalues"]]
        return [[str(e["l"]), str(e["multiplicity"])] for e in ref["eigenvalues"]]
    if cmd == "partition":
        if fmt == "csv" and "matrix" in ref:
            return [[_monomial(p) for p in row] for row in ref["matrix"]["entries"]]
        if fmt == "csv":
            return [
                [str(b["r"]), str(e["l"]), str(e["multiplicity"]), ";".join(e["poly"])]
                for b in ref["blocks"]
                for e in b["eigen"]
            ]
        return [[str(b["r"]), str(e["l"]), str(e["multiplicity"])] for b in ref["blocks"] for e in b["eigen"]]
    # z2 / signed
    if fmt == "csv":
        return [
            [str(b["r1"]), str(b["r2"]), str(e["l1"]), str(e["l2"]), str(e["multiplicity_per_copy"]), ";".join(e["poly"])]
            for b in ref["blocks"]
            for e in b["eigen"]
        ]
    return [
        [str(b["r1"]), str(b["r2"]), str(e["l1"]), str(e["l2"]), str(e["multiplicity_per_copy"])]
        for b in ref["blocks"]
        for e in b["eigen"]
    ]


def _check_cli(cmd: str, fmt: str, ref: dict, out: CliOutput) -> str | None:
    if out.code != 0 or out.stderr:
        return f"exit {out.code}, stderr {out.stderr[-200:]!r}"
    if fmt == "json":
        got = json.loads(out.stdout)
        return None if got == ref else "json output differs from to_json_dict"
    lines = out.stdout.splitlines()
    if cmd == "verify":
        if not ref["passed"]:
            return "reference report did not pass"
        want = (
            ["target,s,r,trials,passed", f"sdm_spectrum,{ref['params']['s']},{ref['params']['r']},{ref['trials']},true"]
            if fmt == "csv"
            else [f"PASS sdm spectrum s={ref['params']['s']} r={ref['params']['r']} trials={ref['trials']}"]
        )
        return None if lines == want else f"got {lines!r}, want {want!r}"
    want = _expected_rows(cmd, fmt, ref)
    headed = not (cmd == "build" and fmt == "csv") and not (cmd == "partition" and fmt == "csv" and "matrix" in ref)
    if fmt == "csv":
        got = [line.split(",") for line in lines[1 if headed else 0 :]]
        return None if got == want else "csv rows differ from to_json_dict"
    # pretty-table: header, rule, data rows, then partition's trailer lines
    body = lines[2 : 2 + len(want)]
    width = len(want[0]) if want else 0
    got = [_cells(line) for line in body]
    if cmd != "build":
        got = [c[: width - 1] + c[-1:] for c in got]
    if got != want:
        return "table rows differ from to_json_dict"
    trailer = lines[2 + len(want) :]
    want_trailer = []
    if cmd == "partition":
        if "det_sign" in ref:
            want_trailer.append(f"det sign: {ref['det_sign']:+d}")
        if "singular_x" in ref:
            want_trailer.append(f"singular x: {ref['singular_x']}")
        n_matrix = ref["matrix"]["n"] if "matrix" in ref else 0
        if trailer[: len(want_trailer)] != want_trailer or len(trailer) != len(want_trailer) + n_matrix:
            return f"table trailer {trailer[:3]!r} does not match"
    elif trailer:
        return f"unexpected trailing lines {trailer[:3]!r}"
    return None


CLI_COMMANDS = ("build", "eig", "verify", "partition", "z2", "signed")
CLI_FORMATS = ("json", "csv", "pretty-table")


def cli_batch(seed: int, quick: bool) -> list[Job]:
    """Every subcommand in every output format, as subprocesses, at small
    parameters drawn from the seed."""
    rng = random.Random(f"cli-batch:{seed}")
    pairs = [(c, f) for c in CLI_COMMANDS for f in CLI_FORMATS]
    if quick:
        pairs = [(c, CLI_FORMATS[i % 3]) for i, c in enumerate(CLI_COMMANDS)]

    def job(cmd: str, fmt: str) -> Job:
        entry, argv, reference = _draw_cli(rng, cmd)
        argv = argv + ["--out", fmt]
        ref: dict = {}

        def check(out: CliOutput) -> str | None:
            if not ref:  # computed once, at the first check
                ref.update(reference())
            return _check_cli(cmd, fmt, ref, out)

        return Job(
            id=f"{entry} {' '.join(argv)}",
            run=lambda traced: _run_cli(entry, argv, traced),
            check=check,
            digest=lambda out: (out.code, out.stdout),
        )

    jobs = [job(c, f) for c, f in pairs]
    rng.shuffle(jobs)
    return jobs


# name -> (job list maker, fewest passes). Every job runs at least twice, so
# its output can be compared across repeats and its best time taken.
WORKLOADS = {
    "sdm-certify": (sdm_certify, 3),
    "gram-det": (gram_det, 2),
    "build-scale": (build_scale, 2),
    "cli-batch": (cli_batch, 3),
}
