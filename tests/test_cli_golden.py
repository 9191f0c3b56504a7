"""Golden corpus of CLI invocations: exit code and output digests.

Every invocation of `corpus()` runs in-process through `sdm_main` or
`gram_main`, and its exit code and the sha256 of its stdout and of its
stderr must equal the line recorded in cli_golden.txt. The corpus covers the
six subcommands in all three output formats at small parameters
(s, r <= 4; k <= 4; --det only at k <= 3), the format environment variable,
usage errors (exit 1) and size-cap errors (exit 2), the det degree cap at
k = 7 and build_gram's join-work cap at k = 76 among them, and `sdm eig`
at min(s, r) = 127, the largest under the Eberlein cap, at r = 10^12, and
refused on its digits at r = 10^200.
Digests are cut to 128 bits to keep the file small.

Regenerate the file only for an intended output change, and review its diff:

    PYTHONPATH=src python tests/test_cli_golden.py
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import os
from pathlib import Path

from diagram_spectra.cli import FORMAT_ENV_VAR, gram_main, sdm_main

GOLDEN = Path(__file__).with_name("cli_golden.txt")
FORMATS = ("json", "csv", "pretty-table")
ENV_PREFIX = FORMAT_ENV_VAR + "="


def _with_formats(argv: list[str]) -> list[list[str]]:
    return [argv + ["--out", fmt] for fmt in FORMATS]


def corpus() -> list[list[str]]:
    """Invocations as [FORMAT_ENV_VAR=value] tool args..."""
    out: list[list[str]] = []
    shapes = [(s, r) for s in range(5) for r in range(5)]
    for s, r in shapes:
        out += _with_formats(["sdm", "build", "--s", str(s), "--r", str(r)])
    for s, r in shapes + [(-1, 2), (2, -1)]:
        out += _with_formats(["sdm", "eig", "--s", str(s), "--r", str(r)])
    for s, r in shapes:
        if s + r > 5:
            continue
        for trials, seed in ((1, 0), (3, 7)):
            argv = ["sdm", "verify", "--s", str(s), "--r", str(r)]
            out += _with_formats(argv + ["--trials", str(trials), "--seed", str(seed)])
    # sides 35 and 70: the largest verify sides in the corpus
    out += _with_formats(["sdm", "verify", "--s", "3", "--r", "4", "--trials", "1"])
    out += _with_formats(["sdm", "verify", "--s", "4", "--r", "4", "--trials", "1"])

    for k in range(1, 5):
        for s in range(k + 1):
            for matrix in (False, True):
                for det in (False, True) if k <= 3 else (False,):
                    for roots in (False, True):
                        argv = ["gram", "partition", "--k", str(k), "--s", str(s)]
                        argv += ["--matrix"] * matrix + ["--det"] * det + ["--roots"] * roots
                        out += _with_formats(argv)
    for mode in ("z2", "signed"):
        for k in range(1, 5):
            for s1 in range(k + 1):
                for s2 in range(k + 1):
                    argv = ["gram", mode, "--k", str(k), "--s1", str(s1), "--s2", str(s2)]
                    out += _with_formats(argv)

    # the format from the environment, and --out winning over it
    for fmt in FORMATS + ("yaml",):
        env = [ENV_PREFIX + fmt]
        out.append(env + ["sdm", "build", "--s", "2", "--r", "1"])
        out.append(env + ["sdm", "eig", "--s", "2", "--r", "2"])
        out.append(env + ["gram", "partition", "--k", "3", "--s", "1", "--matrix", "--roots"])
        out.append(env + ["gram", "z2", "--k", "3", "--s1", "1", "--s2", "0"])
        out.append(env + ["sdm", "build", "--s", "1", "--r", "1", "--out", "json"])

    # usage errors: exit 1
    for argv in (
        ["sdm"],
        ["sdm", "frobnicate"],
        ["sdm", "build", "--s", "1"],
        ["sdm", "build", "--s", "x", "--r", "1"],
        ["sdm", "eig", "--r", "2"],
        ["sdm", "verify", "--s", "1", "--r", "1", "--trials", "two"],
        ["sdm", "verify", "--s", "0", "--r", "0"],
        ["sdm", "verify", "--s", "-1", "--r", "2"],
        ["gram"],
        ["gram", "partition", "--k", "2"],
        ["gram", "partition", "--k", "0", "--s", "0"],
        ["gram", "partition", "--k", "2", "--s", "3"],
        ["gram", "partition", "--k", "2", "--s", "-1", "--det"],
        ["gram", "z2", "--k", "2", "--s1", "1"],
        ["gram", "z2", "--k", "-1", "--s1", "0", "--s2", "0"],
        ["gram", "signed", "--k", "2", "--s1", "-1", "--s2", "0"],
    ):
        out += _with_formats(argv)
    out.append(["sdm", "build", "--s", "1", "--r", "1", "--out", "yaml"])
    out.append(["gram", "signed", "--k", "2", "--s1", "1", "--s2", "1", "--out", "xml"])

    # size caps: exit 2
    for argv in (
        ["sdm", "build", "--s", "30", "--r", "30"],
        ["sdm", "build", "--s", "4", "--r", "4", "--max-size", "69"],
        ["sdm", "verify", "--s", "2", "--r", "2", "--max-size", "5"],
        ["gram", "partition", "--k", "4", "--s", "1", "--matrix", "--max-size", "5"],
        ["gram", "partition", "--k", "3", "--s", "1", "--det", "--max-size", "5"],
        ["gram", "partition", "--k", "3", "--s", "0", "--matrix", "--det", "--max-size", "4"],
        ["gram", "partition", "--k", "7", "--s", "0", "--det"],
    ):
        out += _with_formats(argv)
    # side 2926 under the side cap, past build_gram's join-work cap
    out.append(["gram", "partition", "--k", "76", "--s", "75", "--matrix", "--out", "json"])

    # Eberlein tables at the largest d under MAX_EBERLEIN_TERMS, at a huge r
    # and at r > s, pinned from the direct binomial sums; then the cap itself
    out.append(["sdm", "eig", "--s", "127", "--r", "127", "--out", "csv"])
    out.append(["sdm", "eig", "--s", "120", "--r", "1000000000000", "--out", "json"])
    out.append(["sdm", "eig", "--s", "3", "--r", "40", "--out", "pretty-table"])
    out.append(["sdm", "eig", "--s", "128", "--r", "128", "--out", "json"])
    # an entry past the interpreter's int-to-str digit limit: refused from
    # the valencies, before the table is formed
    out += _with_formats(["sdm", "eig", "--s", "127", "--r", str(10**200)])
    return out


def _digest(text: str) -> str:
    return hashlib.sha256(text.encode()).hexdigest()[:32]


def run(invocation: list[str]) -> str:
    """One corpus line: exit code, stdout digest, stderr digest, invocation."""
    env = invocation[0][len(ENV_PREFIX):] if invocation[0].startswith(ENV_PREFIX) else None
    tool, *argv = invocation[1:] if env is not None else invocation
    main = {"sdm": sdm_main, "gram": gram_main}[tool]
    saved = {name: os.environ.get(name) for name in (FORMAT_ENV_VAR, "COLUMNS")}
    os.environ.pop(FORMAT_ENV_VAR, None)
    if env is not None:
        os.environ[FORMAT_ENV_VAR] = env
    # argparse wraps usage lines to the terminal width
    os.environ["COLUMNS"] = "80"
    stdout, stderr = io.StringIO(), io.StringIO()
    try:
        with contextlib.redirect_stdout(stdout), contextlib.redirect_stderr(stderr):
            code = main(argv)
    finally:
        for name, value in saved.items():
            if value is None:
                os.environ.pop(name, None)
            else:
                os.environ[name] = value
    digests = [_digest(stdout.getvalue()), _digest(stderr.getvalue())]
    return " ".join([str(code), *digests, *invocation])


def test_cli_golden_corpus():
    expected = GOLDEN.read_text().splitlines()
    got = [run(invocation) for invocation in corpus()]
    assert len(got) == len(expected)
    mismatched = [(e, g) for e, g in zip(expected, got) if e != g]
    assert not mismatched, f"{len(mismatched)} invocations differ, first: {mismatched[0]}"


if __name__ == "__main__":
    GOLDEN.write_text("".join(run(invocation) + "\n" for invocation in corpus()))
