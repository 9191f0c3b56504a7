"""Command-line surface.

Two entry points are installed:

* sdm: symmetric diagram matrices (build / eig / verify)
* gram: Gram-matrix spectra (partition / z2 / signed)

All commands are batch-style and deterministic: the same invocation produces
byte-identical output. Output format is json (default), csv, or
pretty-table; the default can be overridden with the DIAGRAM_SPECTRA_FORMAT
environment variable, and --out always wins.

Exit codes: 0 success, 1 usage or range error, 2 size cap exceeded,
3 verification failure.
"""

from __future__ import annotations

import argparse
import functools
import json
import os
import sys
from typing import Callable, Sequence

from . import errors, gram_partition, gram_signed_z2, oracle, poly, sdm, spectrum

EXIT_OK = 0
EXIT_USAGE = 1
EXIT_CAP = 2
EXIT_VERIFY = 3

FORMATS = ("json", "csv", "pretty-table")
FORMAT_ENV_VAR = "DIAGRAM_SPECTRA_FORMAT"

# a handler's exit code and its renderers: the JSON object, the csv text
# and the pretty-table text
Result = tuple[int, Callable[[], object], Callable[[], str], Callable[[], str]]


class _Parser(argparse.ArgumentParser):
    # argparse exits 2 on usage errors by default; 2 is reserved for caps here
    def error(self, message: str):
        self.print_usage(sys.stderr)
        self.exit(EXIT_USAGE, f"{self.prog}: error: {message}\n")


def _resolve_format(explicit: str | None) -> str:
    fmt = explicit or os.environ.get(FORMAT_ENV_VAR) or "json"
    if fmt not in FORMATS:
        raise ValueError(
            f"unknown output format {fmt!r} (choose from {', '.join(FORMATS)})"
        )
    return fmt


def _table(headers: list[str], rows: list[list[str]]) -> str:
    widths = [max(map(len, col)) for col in zip(headers, *rows)]
    lines = [headers, ["-" * w for w in widths], *rows]
    return "".join("  ".join(map(str.ljust, cells, widths)).rstrip() + "\n" for cells in lines)


def _emit(
    fmt: str, data: Callable[[], object], csv: Callable[[], str], table: Callable[[], str]
) -> None:
    """Write one result: data() as JSON, or the text of the csv or table
    renderer. Only the renderer of the chosen format runs."""
    if fmt == "json":
        sys.stdout.write(json.dumps(data(), indent=2) + "\n")
    else:
        sys.stdout.write((csv if fmt == "csv" else table)())


def _add_out_flag(p: argparse.ArgumentParser) -> None:
    p.add_argument(
        "--out",
        choices=FORMATS,
        default=None,
        help=f"output format (default json; env {FORMAT_ENV_VAR} overrides)",
    )


# ---------------------------------------------------------------- sdm entry


def _sdm_build(args: argparse.Namespace) -> Result:
    cap = sdm.DEFAULT_MAX_SIZE if args.max_size is None else args.max_size
    m = sdm.build(args.s, args.r, max_size=cap)

    def table() -> str:
        name = m.level_names().__getitem__
        rows = [list(map(name, row)) for row in m.levels]
        return _table([f"c{j}" for j in range(m.n)], rows)

    return EXIT_OK, m.to_json_dict, m.to_csv, table


def _sdm_eig(args: argparse.Namespace) -> Result:
    s, r = args.s, args.r
    # refused before any renderer forms the table, after its shape checks
    for bound in spectrum.table_bounds(s, r):
        poly.check_str_digits("decimal digits of an eig table entry", bound)

    def csv() -> str:
        forms = spectrum.distinct_eigenvalues(s, r)
        lines = ["l,multiplicity," + ",".join(f"c{v}" for v in range(min(s, r) + 1))]
        lines += [f"{f.l},{f.multiplicity}," + ",".join(map(str, f.coeffs)) for f in forms]
        return "\n".join(lines) + "\n"

    def table() -> str:
        forms = spectrum.distinct_eigenvalues(s, r)
        rows = [[str(f.l), str(f), str(f.multiplicity)] for f in forms]
        return _table(["l", "eigenvalue", "multiplicity"], rows)

    return EXIT_OK, lambda: spectrum.to_json_dict(s, r), csv, table


def _sdm_verify(args: argparse.Namespace) -> Result:
    cap = oracle.DEFAULT_CHARPOLY_CAP if args.max_size is None else args.max_size
    report = oracle.verify_sdm_spectrum(
        args.s, args.r, trials=args.trials, seed=args.seed, max_size=cap
    )

    def csv() -> str:
        passed = str(report.passed).lower()
        return (
            "target,s,r,trials,passed\n"
            f"sdm_spectrum,{args.s},{args.r},{report.trials},{passed}\n"
        )

    def table() -> str:
        verdict = "PASS" if report.passed else "FAIL"
        lines = [f"{verdict} sdm spectrum s={args.s} r={args.r} trials={report.trials}"]
        for f in report.failures:
            if f["trial"] is None:
                lines.append(f"  {f['step']}: {f['detail']}")
            else:
                lines.append(f"  trial {f['trial']}: substitution {f['substitution']}")
        return "\n".join(lines) + "\n"

    return EXIT_OK if report.passed else EXIT_VERIFY, report.to_json_dict, csv, table


def sdm_main(argv: Sequence[str] | None = None) -> int:
    parser = _Parser(prog="sdm", description="Symmetric diagram matrices.")
    sub = parser.add_subparsers(dest="command", required=True)

    p_build = sub.add_parser("build", parents=[], help="construct the level matrix")
    p_build.add_argument("--s", type=int, required=True, help="through classes")
    p_build.add_argument("--r", type=int, required=True, help="horizontal edges")
    # None: the handler reads its module's cap, so parsing runs no library module
    p_build.add_argument("--max-size", type=int, default=None)
    _add_out_flag(p_build)
    p_build.set_defaults(handler=_sdm_build)

    p_eig = sub.add_parser("eig", help="closed-form distinct eigenvalues")
    p_eig.add_argument("--s", type=int, required=True)
    p_eig.add_argument("--r", type=int, required=True)
    _add_out_flag(p_eig)
    p_eig.set_defaults(handler=_sdm_eig)

    p_verify = sub.add_parser("verify", help="oracle check of the closed form")
    p_verify.add_argument("--s", type=int, required=True)
    p_verify.add_argument("--r", type=int, required=True)
    p_verify.add_argument("--trials", type=int, default=5)
    p_verify.add_argument("--seed", type=int, default=0)
    p_verify.add_argument("--max-size", type=int, default=None)
    _add_out_flag(p_verify)
    p_verify.set_defaults(handler=_sdm_verify)

    return _dispatch(parser, argv)


# --------------------------------------------------------------- gram entry


def _gram_partition(args: argparse.Namespace) -> Result:
    k, s = args.k, args.s
    # the certificate builds no G_s; --max-size bounds only the G_s of --matrix
    det_report = oracle.verify_gram_det(k, s) if args.det else None
    det_sign = det_report.extra["epsilon"] if det_report is not None else None
    cap = gram_partition.DEFAULT_MAX_SIZE if args.max_size is None else args.max_size
    gram = gram_partition.build_gram(k, s, cap) if args.matrix else None
    singular = gram_partition.semisimple_exceptions(k, s) if args.roots else None

    def data() -> dict:
        out = gram_partition.to_json_dict(
            k,
            s,
            include_matrix=args.matrix,
            det_sign=det_sign,
            singular_x=singular,
            gram=gram,
        )
        if det_report is not None:
            out["det"] = det_report.extra["det"]
        return out

    def eigen() -> list[tuple]:
        """(r, l, E_{r,l}, multiplicity) over the blocks."""
        return [(b.r, *e) for b in gram_partition.block_spectra(k, s) for e in b.eigenpolys]

    def matrix(cell: Callable[[object], str], sep: str) -> str:
        """G_s a row a line; a cell is 0 or x^m, so cell runs once per value."""
        text = functools.cache(cell)
        return "".join(sep.join(map(text, row)).rstrip() + "\n" for row in gram.entries)

    def csv() -> str:
        if args.matrix:
            return matrix(str, ",")
        lines = ["r,l,multiplicity,poly"]
        lines += [f"{r},{l},{m},{';'.join(p.to_json())}" for r, l, p, m in eigen()]
        return "\n".join(lines) + "\n"

    def table() -> str:
        rows = [[str(c) for c in e] for e in eigen()]
        text = _table(["r", "l", "eigenpoly", "multiplicity"], rows)
        if det_sign is not None:
            text += f"det sign: {det_sign:+d}\n"
        if singular is not None:
            text += f"singular x: {sorted(singular)}\n"
        if args.matrix:
            text += matrix(lambda p: str(p).rjust(3), "  ")
        return text

    failed = det_report is not None and not det_report.passed
    return EXIT_VERIFY if failed else EXIT_OK, data, csv, table


def _gram_signed_like(args: argparse.Namespace) -> Result:
    shape = (args.k, args.s1, args.s2, args.command)

    def eigen() -> list[tuple]:
        """(r1, r2, l1, l2, eigenpoly, multiplicity per copy) over the blocks."""
        blocks = gram_signed_z2.block_spectra(*shape)
        return [(r1, r2, *e) for r1, r2, spec in blocks for e in spec]

    def csv() -> str:
        lines = ["r1,r2,l1,l2,multiplicity_per_copy,poly"]
        lines += [
            f"{r1},{r2},{l1},{l2},{m},{';'.join(p.to_json())}" for r1, r2, l1, l2, p, m in eigen()
        ]
        return "\n".join(lines) + "\n"

    def table() -> str:
        rows = [[str(c) for c in e] for e in eigen()]
        return _table(["r1", "r2", "l1", "l2", "eigenpoly", "mult/copy"], rows)

    return EXIT_OK, lambda: gram_signed_z2.to_json_dict(*shape), csv, table


def gram_main(argv: Sequence[str] | None = None) -> int:
    parser = _Parser(prog="gram", description="Gram-matrix block spectra.")
    sub = parser.add_subparsers(dest="command", required=True)

    p_part = sub.add_parser("partition", help="partition-algebra Gram blocks")
    p_part.add_argument("--k", type=int, required=True, help="points per row")
    p_part.add_argument("--s", type=int, required=True, help="through classes")
    p_part.add_argument("--matrix", action="store_true", help="emit the Gram matrix")
    p_part.add_argument("--det", action="store_true", help="oracle determinant check")
    p_part.add_argument("--roots", action="store_true", help="emit singular integer x")
    p_part.add_argument("--max-size", type=int, default=None)
    _add_out_flag(p_part)
    p_part.set_defaults(handler=_gram_partition)

    for mode in ("z2", "signed"):
        p_m = sub.add_parser(mode, help=f"{mode} tensor-block spectra")
        p_m.add_argument("--k", type=int, required=True)
        p_m.add_argument("--s1", type=int, required=True)
        p_m.add_argument("--s2", type=int, required=True)
        _add_out_flag(p_m)
        # the mode is the subcommand name, args.command
        p_m.set_defaults(handler=_gram_signed_like)

    return _dispatch(parser, argv)


def _dispatch(parser: argparse.ArgumentParser, argv: Sequence[str] | None) -> int:
    """Parse argv, run the chosen handler and emit its result in the
    resolved format; errors become exit codes."""
    try:
        args = parser.parse_args(argv)
    except SystemExit as e:
        return int(e.code or 0)
    try:
        fmt = _resolve_format(args.out)
        code, *renderers = args.handler(args)
        _emit(fmt, *renderers)
        return code
    except errors.SizeCapExceeded as e:
        sys.stderr.write(f"error: {e}\n")
        return EXIT_CAP
    except ValueError as e:
        sys.stderr.write(f"error: {e}\n")
        return EXIT_USAGE
