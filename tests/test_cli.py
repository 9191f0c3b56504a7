import json
import math
import os
import subprocess
import sys
import time
from dataclasses import replace
from pathlib import Path

import pytest

import diagram_spectra
from diagram_spectra import gram_partition, gram_signed_z2, oracle, sdm, spectrum
from diagram_spectra.cli import (
    EXIT_CAP,
    EXIT_OK,
    EXIT_USAGE,
    EXIT_VERIFY,
    FORMAT_ENV_VAR,
    _table,
    gram_main,
    sdm_main,
)
from diagram_spectra.oracle import VerifyReport
from diagram_spectra.poly import Polynomial, factor_product


@pytest.fixture(autouse=True)
def _clean_format_env(monkeypatch):
    monkeypatch.delenv(FORMAT_ENV_VAR, raising=False)


def test_sdm_build_json(capsys):
    assert sdm_main(["build", "--s", "1", "--r", "1"]) == EXIT_OK
    data = json.loads(capsys.readouterr().out)
    assert data == {"s": 1, "r": 1, "n": 2, "levels": [[1, 0], [0, 1]]}


def test_sdm_build_csv(capsys):
    assert sdm_main(["build", "--s", "1", "--r", "1", "--out", "csv"]) == EXIT_OK
    assert capsys.readouterr().out == "x1,x0\nx0,x1\n"


def test_sdm_build_pretty(capsys):
    assert sdm_main(["build", "--s", "1", "--r", "1", "--out", "pretty-table"]) == EXIT_OK
    lines = capsys.readouterr().out.splitlines()
    assert lines[0] == "c0  c1"
    assert set(lines[1]) == {"-", " "}
    assert lines[2] == "x1  x0"
    assert lines[3] == "x0  x1"


def test_sdm_eig_json(capsys):
    assert sdm_main(["eig", "--s", "1", "--r", "1"]) == EXIT_OK
    data = json.loads(capsys.readouterr().out)
    assert data == {
        "s": 1,
        "r": 1,
        "eigenvalues": [
            {"l": 0, "coeffs": [1, 1], "multiplicity": 1},
            {"l": 1, "coeffs": [-1, 1], "multiplicity": 1},
        ],
    }


def test_sdm_eig_csv(capsys):
    assert sdm_main(["eig", "--s", "1", "--r", "1", "--out", "csv"]) == EXIT_OK
    assert capsys.readouterr().out == "l,multiplicity,c0,c1\n0,1,1,1\n1,1,-1,1\n"


def test_sdm_eig_pretty(capsys):
    assert sdm_main(["eig", "--s", "2", "--r", "1", "--out", "pretty-table"]) == EXIT_OK
    out = capsys.readouterr().out
    lines = out.splitlines()
    assert lines[0].split() == ["l", "eigenvalue", "multiplicity"]
    assert "x1 + 2x0" in out and "x1 - x0" in out


def test_sdm_verify_json(capsys):
    assert sdm_main(["verify", "--s", "2", "--r", "1", "--trials", "2"]) == EXIT_OK
    data = json.loads(capsys.readouterr().out)
    assert data["passed"] is True
    assert data["trials"] == 2
    assert data["params"] == {"s": 2, "r": 1, "seed": 0}
    assert data["failures"] == []


def test_sdm_verify_csv(capsys):
    code = sdm_main(["verify", "--s", "1", "--r", "1", "--trials", "2", "--out", "csv"])
    assert code == EXIT_OK
    assert capsys.readouterr().out == (
        "target,s,r,trials,passed\nsdm_spectrum,1,1,2,true\n"
    )


def test_sdm_verify_failure_exit(monkeypatch, capsys):
    def fake(s, r, trials, seed, max_size):
        return VerifyReport(
            target="sdm_spectrum",
            params={"s": s, "r": r, "seed": seed},
            trials=trials,
            passed=False,
            failures=[{"trial": 0, "substitution": [1], "expected": [], "got": []}],
        )

    monkeypatch.setattr(oracle, "verify_sdm_spectrum", fake)
    code = sdm_main(["verify", "--s", "1", "--r", "1", "--out", "csv"])
    assert code == EXIT_VERIFY
    assert "false" in capsys.readouterr().out


def test_sdm_verify_unwitnessed_failure_table(monkeypatch, capsys):
    # a closed form whose fault the one witness trial misses (see
    # test_oracle::test_verify_sdm_spectrum_unwitnessed_failure_names_the_step)
    forms = spectrum.distinct_eigenvalues(3, 4)
    coeffs = (forms[1].coeffs[0] + 1,) + forms[1].coeffs[1:]
    forms[1] = replace(forms[1], coeffs=coeffs)
    monkeypatch.setattr(spectrum, "distinct_eigenvalues", lambda s, r: forms)
    argv = ["verify", "--s", "3", "--r", "4", "--trials", "1", "--seed", "17"]
    assert sdm_main(argv + ["--out", "pretty-table"]) == EXIT_VERIFY
    assert capsys.readouterr().out == (
        "FAIL sdm spectrum s=3 r=4 trials=1\n"
        "  characters: family 1 fails the recurrence at distance 2\n"
    )
    assert sdm_main(argv) == EXIT_VERIFY
    assert json.loads(capsys.readouterr().out)["failures"][0]["step"] == "characters"


@pytest.mark.parametrize(
    "headers, rows, text",
    [
        (["l", "eigenvalue"], [], "l  eigenvalue\n-  ----------\n"),
        (["c0"], [["x10"], ["x1"]], "c0\n---\nx10\nx1\n"),
        (
            ["l", "e", "m"],
            [["0", "x0 + 2x1", "1"], ["10", "", "5"]],
            "l   e         m\n--  --------  -\n0   x0 + 2x1  1\n10            5\n",
        ),
    ],
    ids=["no-rows", "one-column", "padded"],
)
def test_table_pads_each_column_to_its_widest_cell(headers, rows, text):
    # trailing spaces are stripped from every line
    assert _table(headers, rows) == text


@pytest.mark.parametrize("trials", ["0", "-3"])
def test_sdm_verify_rejects_no_trials(trials, capsys):
    argv = ["verify", "--s", "1", "--r", "1", "--trials", trials, "--out", "pretty-table"]
    assert sdm_main(argv) == EXIT_USAGE
    out, err = capsys.readouterr()
    assert out == ""
    assert "trials" in err


_LIBRARY = (
    "combinat", "errors", "gram_partition", "gram_signed_z2", "oracle", "poly", "sdm", "spectrum"
)


def _lib(*names):
    return {f"diagram_spectra.{name}" for name in names}


# a module "ran" when its code executed: a lazily registered submodule sits
# in sys.modules from `import diagram_spectra` on, and reading its __dict__
# through object.__getattribute__ does not load it
_RAN = (
    "import json, sys\n"
    "{run}\n"
    "ran = [k for k, m in sys.modules.items()\n"
    "       if '__builtins__' in object.__getattribute__(m, '__dict__')]\n"
    "print(json.dumps([code, ran]))\n"
)


@pytest.mark.parametrize(
    "entry, argv, absent",
    [
        pytest.param(None, None, {"numpy"} | _lib(*_LIBRARY), id="import cli"),
        pytest.param(
            "sdm",
            ["build", "--s", "2", "--r", "3", "--out", "csv"],
            _lib("oracle", "spectrum", "gram_partition", "gram_signed_z2"),
            id="sdm build",
        ),
        pytest.param(
            "sdm",
            ["eig", "--s", "3", "--r", "2", "--out", "csv"],
            _lib("oracle", "sdm", "gram_partition", "gram_signed_z2"),
            id="sdm eig",
        ),
        # the certificate stays in Python integers
        pytest.param(
            "sdm",
            ["verify", "--s", "4", "--r", "5", "--out", "csv"],
            {"fractions"} | _lib("gram_partition", "gram_signed_z2"),
            id="sdm verify no fractions",
        ),
        # a whole verify run at side C(7,3) = 35 loads no numpy either
        pytest.param(
            "sdm",
            ["verify", "--s", "3", "--r", "4", "--out", "csv"],
            {"numpy"} | _lib("gram_partition", "gram_signed_z2"),
            id="sdm verify no numpy",
        ),
        pytest.param(
            "gram",
            ["z2", "--k", "3", "--s1", "1", "--s2", "0"],
            _lib("oracle", "sdm"),
            id="gram z2",
        ),
        pytest.param(
            "gram",
            ["signed", "--k", "3", "--s1", "1", "--s2", "0"],
            _lib("oracle", "sdm"),
            id="gram signed",
        ),
        pytest.param(
            "gram",
            ["partition", "--k", "3", "--s", "1", "--matrix", "--roots"],
            _lib("oracle"),
            id="gram partition",
        ),
    ],
)
def test_command_runs_only_the_modules_it_calls(entry, argv, absent):
    if entry is None:
        run = "import diagram_spectra.cli; code = None"
    else:
        run = f"from diagram_spectra.cli import {entry}_main; code = {entry}_main({argv!r})"
    src = str(Path(diagram_spectra.__file__).parents[1])
    proc = subprocess.run(
        [sys.executable, "-c", _RAN.format(run=run)],
        capture_output=True,
        text=True,
        check=True,
        env={**os.environ, "PYTHONPATH": src},
    )
    code, ran = json.loads(proc.stdout.splitlines()[-1])
    assert code == (None if entry is None else EXIT_OK)
    assert absent.intersection(ran) == set()
    assert "diagram_spectra.cli" in ran


def test_sdm_byte_identical(capsys):
    sdm_main(["eig", "--s", "3", "--r", "2"])
    first = capsys.readouterr().out
    sdm_main(["eig", "--s", "3", "--r", "2"])
    assert capsys.readouterr().out == first


def test_format_env_var(monkeypatch, capsys):
    monkeypatch.setenv(FORMAT_ENV_VAR, "csv")
    sdm_main(["build", "--s", "1", "--r", "1"])
    assert capsys.readouterr().out == "x1,x0\nx0,x1\n"
    # explicit --out beats the environment
    sdm_main(["build", "--s", "1", "--r", "1", "--out", "json"])
    assert capsys.readouterr().out.startswith("{")


def test_format_env_var_invalid(monkeypatch, capsys):
    monkeypatch.setenv(FORMAT_ENV_VAR, "yaml")
    assert sdm_main(["build", "--s", "1", "--r", "1"]) == EXIT_USAGE
    assert "unknown output format" in capsys.readouterr().err


def test_sdm_usage_errors(capsys):
    assert sdm_main(["build", "--s", "1"]) == EXIT_USAGE
    assert sdm_main([]) == EXIT_USAGE
    assert sdm_main(["frobnicate"]) == EXIT_USAGE
    assert sdm_main(["build", "--s", "0", "--r", "0"]) == EXIT_USAGE
    capsys.readouterr()


def test_sdm_cap_exit(capsys):
    assert sdm_main(["build", "--s", "30", "--r", "30"]) == EXIT_CAP
    assert "exceeds cap" in capsys.readouterr().err


def test_sdm_build_memory_cap_exits_before_building(monkeypatch, capsys):
    # side 48 620, about 2.4 G cells: refused on the side, before any
    # through set is enumerated
    def refuse(*args, **kwargs):
        raise AssertionError("A^{18,9} must not be built past the cap")

    monkeypatch.setattr(sdm, "k_subsets", refuse)
    assert sdm_main(["build", "--s", "9", "--r", "9"]) == EXIT_CAP
    out, err = capsys.readouterr()
    assert out == ""
    assert err == f"error: A^{{18,9}}: size 48620 exceeds cap {sdm.DEFAULT_MAX_SIZE}\n"


@pytest.mark.parametrize(
    "argv,points",
    [
        (["build", "--s", str(10**12), "--r", "0"], 10**12),
        (["verify", "--s", "0", "--r", str(10**30)], 10**30),
        (["build", "--s", str(10**6), "--r", str(10**6)], 2 * 10**6),
        (["verify", "--s", str(10**6), "--r", str(10**6)], 2 * 10**6),
    ],
)
def test_sdm_points_cap_exits_at_once(capsys, argv, points):
    # the side is 1 at s = 0 or r = 0, and C(2*10^6, 10^6) takes seconds:
    # the s + r points are refused first, with no traceback
    start = time.perf_counter()
    assert sdm_main(argv + ["--out", "pretty-table"]) == EXIT_CAP
    assert time.perf_counter() - start < 1
    out, err = capsys.readouterr()
    assert out == ""
    cap = sdm.DEFAULT_MAX_SIZE if argv[0] == "build" else oracle.DEFAULT_CHARPOLY_CAP
    what = f"points of A^{{{points},{argv[2]}}}"
    assert err == f"error: {what}: size {points} exceeds cap {cap}\n"


def test_sdm_eig_work_cap_exit(capsys):
    # about 4M Eberlein coefficients: refused before any is computed
    assert sdm_main(["eig", "--s", "2000", "--r", "2000"]) == EXIT_CAP
    out, err = capsys.readouterr()
    assert out == ""
    assert err == "error: Eberlein terms (min(s,r)+1)^2: size 4004001 exceeds cap 16384\n"


@pytest.mark.parametrize("fmt", ["json", "csv", "pretty-table"])
def test_sdm_eig_digit_cap_exits_before_the_table(monkeypatch, capsys, fmt):
    # C(127,t) C(10^200,t) outgrows the interpreter's int-to-str limit at
    # t = 22: refused from the valencies alone, before any Eberlein term
    def refuse(*args, **kwargs):
        raise AssertionError("the table must not be formed past the digit cap")

    monkeypatch.setattr(spectrum, "distinct_eigenvalues", refuse)
    argv = ["eig", "--s", "127", "--r", str(10**200), "--out", fmt]
    assert sdm_main(argv) == EXIT_CAP
    out, err = capsys.readouterr()
    assert out == ""
    limit = sys.get_int_max_str_digits()
    assert err == f"error: decimal digits of an eig table entry: size 4404 exceeds cap {limit}\n"


def test_sdm_eig_digit_cap_is_the_largest_entry(capsys):
    # at s = 2 the largest entry is m_2 = (r+2)(r-1)/2: the last r whose m_2
    # has `limit` digits prints, and the next one is refused
    limit = sys.get_int_max_str_digits()
    r = math.isqrt(2 * 10**limit) - 2
    while (r + 3) * r // 2 < 10**limit:
        r += 1
    assert sdm_main(["eig", "--s", "2", "--r", str(r), "--out", "csv"]) == EXIT_OK
    rows = capsys.readouterr().out.splitlines()
    assert max(len(cell) for row in rows for cell in row.split(",")) == limit
    assert sdm_main(["eig", "--s", "2", "--r", str(r + 1), "--out", "csv"]) == EXIT_CAP
    size = limit + 1
    assert capsys.readouterr().err.endswith(f"size {size} exceeds cap {limit}\n")


def test_gram_partition_json(capsys):
    code = gram_main(["partition", "--k", "2", "--s", "1", "--det", "--roots"])
    assert code == EXIT_OK
    data = json.loads(capsys.readouterr().out)
    assert data["k"] == 2 and data["s"] == 1
    assert data["det_sign"] == 1
    assert data["singular_x"] == [0, 2]
    assert data["det"] == ["0", "-2", "1"]
    assert [b["r"] for b in data["blocks"]] == [0, 1]
    assert data["blocks"][1]["eigen"][0]["poly"] == ["-2", "1"]


def test_gram_partition_matrix_csv(capsys):
    code = gram_main(["partition", "--k", "2", "--s", "1", "--matrix", "--out", "csv"])
    assert code == EXIT_OK
    assert capsys.readouterr().out == "1,1,1\n1,x,0\n1,0,x\n"


def test_gram_partition_spectrum_csv(capsys):
    code = gram_main(["partition", "--k", "2", "--s", "1", "--out", "csv"])
    assert code == EXIT_OK
    assert capsys.readouterr().out.splitlines() == [
        "r,l,multiplicity,poly",
        "0,0,1,1",
        "1,0,1,-2;1",
        "1,1,1,0;1",
    ]


def test_gram_partition_pretty(capsys):
    code = gram_main(
        ["partition", "--k", "2", "--s", "1", "--det", "--roots", "--out", "pretty-table"]
    )
    assert code == EXIT_OK
    out = capsys.readouterr().out
    assert out.splitlines()[0].split() == ["r", "l", "eigenpoly", "multiplicity"]
    assert "det sign: +1" in out
    assert "singular x: [0, 2]" in out


def test_gram_partition_range_error(capsys):
    assert gram_main(["partition", "--k", "2", "--s", "3"]) == EXIT_USAGE
    assert gram_main(["partition", "--k", "0", "--s", "0"]) == EXIT_USAGE
    capsys.readouterr()


def test_gram_partition_cap(capsys):
    code = gram_main(
        ["partition", "--k", "4", "--s", "1", "--matrix", "--max-size", "5"]
    )
    assert code == EXIT_CAP
    assert "exceeds cap" in capsys.readouterr().err


def test_gram_partition_det_cap_exits_before_enumerating(capsys):
    # det degree 15 682 216 against the degree cap of 2000
    assert gram_main(["partition", "--k", "11", "--s", "1", "--det"]) == EXIT_CAP
    assert "exceeds cap" in capsys.readouterr().err


@pytest.mark.parametrize("s", [0, 1, 2, 3])
def test_gram_partition_det_k7_exits_before_building(monkeypatch, capsys, s):
    # det degrees 3263..10 668: past the degree cap, checked before G_s or
    # any block is built
    def refuse(*args, **kwargs):
        raise AssertionError("G_s must not be built past a cap")

    monkeypatch.setattr(gram_partition, "build_gram", refuse)
    assert gram_main(["partition", "--k", "7", "--s", str(s), "--det"]) == EXIT_CAP
    out, err = capsys.readouterr()
    assert out == ""
    assert err.startswith("error: ") and "exceeds cap" in err


def test_gram_partition_det_k7_s4_certifies_without_building(monkeypatch, capsys):
    # side 1400, det degree 1435: certified from (k, s), with no G_s built
    def refuse(*args, **kwargs):
        raise AssertionError("the certificate must not build G_s")

    monkeypatch.setattr(gram_partition, "build_gram", refuse)
    assert gram_main(["partition", "--k", "7", "--s", "4", "--det"]) == EXIT_OK
    data = json.loads(capsys.readouterr().out)
    det = Polynomial.of(map(int, data["det"]))
    assert det.degree() == 1435
    expected = factor_product(
        gram_partition.product_form(4, b["r"], e["l"]).pow(e["multiplicity"])
        for b in data["blocks"]
        for e in b["eigen"]
    )
    assert det == expected


def test_gram_partition_builds_one_gram(monkeypatch, capsys):
    calls = {"build_gram": 0, "block_spectrum": 0}
    for name in calls:

        def counted(*args, _real=getattr(gram_partition, name), _name=name, **kwargs):
            calls[_name] += 1
            return _real(*args, **kwargs)

        monkeypatch.setattr(gram_partition, name, counted)
    argv = ["partition", "--k", "3", "--s", "1", "--matrix", "--det", "--roots"]
    assert gram_main(argv) == EXIT_OK
    # one G_s; block_spectrum for each of r = 0, 1, 2 once to render and
    # once in the certificate, which takes no block list from the caller
    assert calls == {"build_gram": 1, "block_spectrum": 6}
    assert json.loads(capsys.readouterr().out)["det_sign"] == 1
    # --det without --matrix builds none
    calls.update(build_gram=0, block_spectrum=0)
    assert gram_main(["partition", "--k", "3", "--s", "1", "--det", "--roots"]) == EXIT_OK
    assert calls == {"build_gram": 0, "block_spectrum": 6}
    capsys.readouterr()


def _gram_in_subprocess(argv):
    """Run gram_main(argv) in a fresh interpreter; check it exits 0 with no
    traceback and return its JSON output."""
    src = str(Path(diagram_spectra.__file__).parents[1])
    code = f"import sys; from diagram_spectra.cli import gram_main; sys.exit(gram_main({argv!r}))"
    proc = subprocess.run(
        [sys.executable, "-c", code],
        capture_output=True,
        text=True,
        env={**os.environ, "PYTHONPATH": src},
        timeout=60,
    )
    assert proc.returncode == EXIT_OK
    assert "Traceback" not in proc.stderr
    return json.loads(proc.stdout)


def test_gram_partition_many_points_no_traceback():
    # stirling2(1200, 1199) is far past the interpreter's recursion limit
    data = _gram_in_subprocess(["partition", "--k", "1200", "--s", "1199"])
    assert [b["copies"] for b in data["blocks"]] == [1200 * 1199 // 2, 1]


@pytest.mark.parametrize("flag", ["--matrix", "--det"])
def test_gram_partition_one_partition_many_points_no_traceback(flag):
    # G_1200 on 1200 points has side 1, but its one partition has 1200 blocks
    data = _gram_in_subprocess(["partition", "--k", "1200", "--s", "1200", flag])
    if flag == "--matrix":
        assert data["matrix"]["n"] == 1 and data["matrix"]["entries"] == [[["1"]]]
    else:
        assert (data["det_sign"], data["det"]) == (1, ["1"])


def test_gram_partition_det_k2000_exits_on_the_digit_cap_promptly():
    # degree 2000, within the degree cap: the certificate counts everything
    # it checks, so the run reaches the digit cap on printing the det at
    # once, with no level matrix of side 2000 built first
    src = str(Path(diagram_spectra.__file__).parents[1])
    code = (
        "import sys; from diagram_spectra.cli import gram_main; "
        "sys.exit(gram_main(['partition', '--k', '2000', '--s', '1999', '--det']))"
    )
    start = time.perf_counter()
    proc = subprocess.run(
        [sys.executable, "-c", code],
        capture_output=True,
        text=True,
        env={**os.environ, "PYTHONPATH": src},
        timeout=60,
    )
    assert time.perf_counter() - start < 5
    assert proc.returncode == EXIT_CAP
    assert "Traceback" not in proc.stderr
    assert proc.stderr.startswith("error: ") and "exceeds cap" in proc.stderr


@pytest.mark.parametrize("extra", [[], ["--det"]], ids=["report", "det"])
def test_gram_partition_report_cap_exits_before_stirling2(extra):
    # S(3000, b) for b = 2000..3000 would take minutes by inclusion-exclusion;
    # the report's coefficients, sum_r (min(s,r)+1)(r+1), are counted first
    src = str(Path(diagram_spectra.__file__).parents[1])
    argv = ["partition", "--k", "3000", "--s", "2000", *extra]
    code = f"import sys; from diagram_spectra.cli import gram_main; sys.exit(gram_main({argv!r}))"
    start = time.perf_counter()
    proc = subprocess.run(
        [sys.executable, "-c", code],
        capture_output=True,
        text=True,
        env={**os.environ, "PYTHONPATH": src},
        timeout=60,
    )
    assert time.perf_counter() - start < 5
    assert proc.returncode == EXIT_CAP
    assert "Traceback" not in proc.stderr
    cap = gram_partition.MAX_REPORT_COEFFS
    assert proc.stderr == (
        f"error: gram partition report coefficients: size 334835501 exceeds cap {cap}\n"
    )


def test_gram_partition_matrix_join_work_cap_exits_at_once():
    # side 2926 passes the side cap, but 2851 runs on 76 points are past the
    # join-work cap, which is counted before anything is enumerated
    src = str(Path(diagram_spectra.__file__).parents[1])
    argv = ["partition", "--k", "76", "--s", "75", "--matrix"]
    code = f"import sys; from diagram_spectra.cli import gram_main; sys.exit(gram_main({argv!r}))"
    start = time.perf_counter()
    proc = subprocess.run(
        [sys.executable, "-c", code],
        capture_output=True,
        text=True,
        env={**os.environ, "PYTHONPATH": src},
        timeout=60,
    )
    assert time.perf_counter() - start < 5
    assert proc.returncode == EXIT_CAP
    assert "Traceback" not in proc.stderr
    cap = gram_partition.MAX_JOIN_WORK
    work = 2851**2 * 76
    assert proc.stderr == f"error: join work of G_75 on 76 points: size {work} exceeds cap {cap}\n"


def test_gram_partition_matrix_mask_bits_cap_exits_at_once(capsys):
    # side 1 and one run, but a join of 10^6 blocks, each with a mask of up
    # to 10^6 bits: refused before anything is enumerated
    start = time.perf_counter()
    argv = ["partition", "--k", str(10**6), "--s", str(10**6), "--matrix", "--out", "csv"]
    assert gram_main(argv) == EXIT_CAP
    assert time.perf_counter() - start < 1
    out, err = capsys.readouterr()
    assert out == ""
    cap = gram_partition.MAX_JOIN_WORK
    what = "block-mask bits of G_1000000 on 1000000 points"
    assert err == f"error: {what}: size {10**12} exceeds cap {cap}\n"


def test_gram_partition_roots_many_points_no_traceback():
    # read off the linear factors of the E_{r,l}, whose trailing
    # coefficients reach 111 bits, with no search for roots
    data = _gram_in_subprocess(["partition", "--k", "30", "--s", "3", "--roots"])
    assert data["singular_x"] == [2, 3, 4] + list(range(6, 33))


def test_gram_z2_json(capsys):
    code = gram_main(["z2", "--k", "2", "--s1", "1", "--s2", "0"])
    assert code == EXIT_OK
    data = json.loads(capsys.readouterr().out)
    assert data["mode"] == "z2"
    assert [(b["r1"], b["r2"]) for b in data["blocks"]] == [
        (0, 0), (0, 1), (1, 0), (1, 1),
    ]


def test_gram_signed_r2_truncation(capsys):
    code = gram_main(["signed", "--k", "3", "--s1", "1", "--s2", "0"])
    assert code == EXIT_OK
    data = json.loads(capsys.readouterr().out)
    assert data["mode"] == "signed"
    assert len(data["blocks"]) == 6
    assert max(b["r2"] for b in data["blocks"]) == 1


def test_gram_signed_empty_blocks(capsys):
    code = gram_main(["signed", "--k", "2", "--s1", "1", "--s2", "1"])
    assert code == EXIT_OK
    data = json.loads(capsys.readouterr().out)
    assert data["blocks"] == []


@pytest.mark.parametrize("mode", ["z2", "signed"])
@pytest.mark.parametrize("k", ["50", str(10**12)])
def test_gram_z2_signed_work_cap_exits_before_any_polynomial(monkeypatch, capsys, mode, k):
    # (50, 10, 10) would emit about 4.3 M coefficients (241 MB of JSON); the
    # count is closed-form, so a huge k is refused just as fast
    def refuse(*args, **kwargs):
        raise AssertionError("no block may be formed past the cap")

    monkeypatch.setattr(gram_signed_z2, "block_spectrum_tensor", refuse)
    assert gram_main([mode, "--k", k, "--s1", "10", "--s2", "10"]) == EXIT_CAP
    out, err = capsys.readouterr()
    assert out == ""
    assert err.startswith(f"error: gram {mode} report coefficients: size ")
    assert err.endswith(f" exceeds cap {gram_signed_z2.MAX_REPORT_COEFFS}\n")


def test_gram_partition_shape_error_is_the_library_one(capsys):
    # the one shape check, gram_partition._check_shape, words the CLI error
    with pytest.raises(ValueError) as exc:
        gram_partition.build_gram(0, 0)
    assert gram_main(["partition", "--k", "0", "--s", "0"]) == EXIT_USAGE
    assert capsys.readouterr().err == f"error: {exc.value}\n"
    assert str(exc.value) == "need k >= 1 and 0 <= s <= k, got k=0, s=0"


def test_gram_csv_signed(capsys):
    code = gram_main(["z2", "--k", "2", "--s1", "1", "--s2", "0", "--out", "csv"])
    assert code == EXIT_OK
    lines = capsys.readouterr().out.splitlines()
    assert lines[0] == "r1,r2,l1,l2,multiplicity_per_copy,poly"
    assert "1,0,0,0,1,-4;-1;1" in lines


def test_gram_byte_identical(capsys):
    gram_main(["partition", "--k", "3", "--s", "1", "--det", "--roots"])
    first = capsys.readouterr().out
    gram_main(["partition", "--k", "3", "--s", "1", "--det", "--roots"])
    assert capsys.readouterr().out == first


@pytest.mark.parametrize("fmt", ["csv", "pretty-table"])
@pytest.mark.parametrize(
    "invocation",
    [
        ["sdm", "build", "--s", "2", "--r", "3"],
        ["sdm", "eig", "--s", "3", "--r", "2"],
        ["sdm", "verify", "--s", "2", "--r", "2", "--trials", "1"],
        ["gram", "partition", "--k", "3", "--s", "1"],
        ["gram", "partition", "--k", "3", "--s", "1", "--matrix", "--det", "--roots"],
        ["gram", "z2", "--k", "3", "--s1", "1", "--s2", "0"],
        ["gram", "signed", "--k", "3", "--s1", "1", "--s2", "0"],
    ],
    ids=" ".join,
)
def test_csv_and_table_build_no_json_object(monkeypatch, capsys, fmt, invocation):
    # csv and pretty-table render from the library's values; the JSON
    # object is built only for --out json
    def refuse(*args, **kwargs):
        raise AssertionError("to_json_dict ran for a non-json format")

    for owner in (sdm.EntryMatrix, spectrum, gram_partition, gram_signed_z2, VerifyReport):
        monkeypatch.setattr(owner, "to_json_dict", refuse)
    tool, *argv = invocation
    main = {"sdm": sdm_main, "gram": gram_main}[tool]
    assert main(argv + ["--out", fmt]) == EXIT_OK
    out, err = capsys.readouterr()
    assert out and not err


def _gram_stdout(capsys, argv):
    assert gram_main(argv) == EXIT_OK
    return capsys.readouterr().out


def _monomial_token(coeffs):
    """The csv text of a Gram cell from its JSON coefficients, which must be
    those of 0 or x^m."""
    if not coeffs:
        return "0"
    assert coeffs[-1] == "1" and set(coeffs[:-1]) <= {"0"}
    return {1: "1", 2: "x"}.get(len(coeffs), f"x^{len(coeffs) - 1}")


@pytest.mark.parametrize(
    "argv",
    [
        ["partition", "--k", "5", "--s", "1", "--matrix"],
        ["partition", "--k", "5", "--s", "2", "--matrix"],
        ["partition", "--k", "5", "--s", "2"],
        ["z2", "--k", "6", "--s1", "1", "--s2", "1"],
        ["signed", "--k", "6", "--s1", "1", "--s2", "1"],
    ],
    ids=" ".join,
)
def test_csv_rows_agree_with_json_output(capsys, argv):
    # past the golden corpus's shapes: the csv rows are what the json
    # stdout of the same invocation implies
    data = json.loads(_gram_stdout(capsys, argv + ["--out", "json"]))
    rows = [line.split(",") for line in _gram_stdout(capsys, argv + ["--out", "csv"]).splitlines()]
    if "--matrix" in argv:
        want = [[_monomial_token(p) for p in row] for row in data["matrix"]["entries"]]
        assert len(want) == data["matrix"]["n"] > 0
    elif argv[0] == "partition":
        want = [["r", "l", "multiplicity", "poly"]] + [
            [str(b["r"]), str(e["l"]), str(e["multiplicity"]), ";".join(e["poly"])]
            for b in data["blocks"]
            for e in b["eigen"]
        ]
    else:
        want = [["r1", "r2", "l1", "l2", "multiplicity_per_copy", "poly"]] + [
            [str(b["r1"]), str(b["r2"]), str(e["l1"]), str(e["l2"])]
            + [str(e["multiplicity_per_copy"]), ";".join(e["poly"])]
            for b in data["blocks"]
            for e in b["eigen"]
        ]
        assert len(want) > 1
    assert rows == want
