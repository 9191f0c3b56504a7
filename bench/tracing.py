"""Spans around calls into the library's public functions.

The library itself is not instrumented. `Tracer.patched()` replaces each
function listed in TARGETS, in every `diagram_spectra` module namespace that
binds it (the defining module and the modules that imported it by name), with
a wrapper that records a span, and restores the originals on exit. Spans stay
in memory as plain lists; callers aggregate or dump them at the end.

A span is (name, start, end, parent index, side). `side` is the matrix side
for the layers whose work grows with it, else None.
"""

from __future__ import annotations

import contextlib
import functools
import sys
import time
from typing import Callable

_clock = time.perf_counter


def _arg_side(args: tuple, kwargs: dict, result: object) -> int:
    return len(args[0] if args else kwargs["m"])


def _result_side(args: tuple, kwargs: dict, result: object) -> int:
    return result.n


# (module, function, side extractor). poly gets no span: it is called per
# matrix entry, and wrapping it would swamp what it measures.
TARGETS: tuple[tuple[str, str, Callable | None], ...] = (
    ("combinat", "k_subsets", None),
    ("combinat", "set_partitions", None),
    ("sdm", "build", _result_side),
    ("sdm", "substitute", None),
    ("spectrum", "distinct_eigenvalues", None),
    ("oracle", "charpoly", _arg_side),
    ("oracle", "det_poly", _arg_side),
    ("oracle", "verify_sdm_spectrum", None),
    ("oracle", "verify_gram_det", None),
    ("gram_partition", "build_gram", _result_side),
    ("gram_partition", "block_spectrum", None),
    ("gram_partition", "semisimple_exceptions", None),
    ("gram_signed_z2", "block_spectrum_tensor", None),
)

SPAN_NAMES = tuple(f"{mod}.{fn}" for mod, fn, _ in TARGETS)


class Tracer:
    def __init__(self) -> None:
        self.spans: list[list] = []
        self._stack: list[int] = []

    @contextlib.contextmanager
    def span(self, name: str):
        """A span around a block of the benchmark's own code."""
        idx = self._open(name)
        try:
            yield
        finally:
            self._close(idx, None)

    def _open(self, name: str) -> int:
        parent = self._stack[-1] if self._stack else None
        self.spans.append([name, _clock(), None, parent, None])
        idx = len(self.spans) - 1
        self._stack.append(idx)
        return idx

    def _close(self, idx: int, side: int | None) -> None:
        self.spans[idx][2] = _clock()
        self.spans[idx][4] = side
        self._stack.pop()

    def _wrap(self, name: str, fn: Callable, side_of: Callable | None) -> Callable:
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            idx = self._open(name)
            side = None
            try:
                result = fn(*args, **kwargs)
                if side_of is not None:
                    side = side_of(args, kwargs, result)
                return result
            finally:
                self._close(idx, side)

        return traced

    @contextlib.contextmanager
    def patched(self):
        """Route every listed library function through a span."""
        import diagram_spectra  # noqa: F401  (loads every submodule)

        modules = [
            m
            for key, m in sys.modules.items()
            if m is not None and (key == "diagram_spectra" or key.startswith("diagram_spectra."))
        ]
        saved: list[tuple[object, str, object]] = []
        try:
            for mod_name, fn_name, side_of in TARGETS:
                orig = getattr(sys.modules[f"diagram_spectra.{mod_name}"], fn_name)
                traced = self._wrap(f"{mod_name}.{fn_name}", orig, side_of)
                for m in modules:
                    for key, val in list(vars(m).items()):
                        if val is orig:
                            saved.append((m, key, orig))
                            setattr(m, key, traced)
            yield self
        finally:
            for m, key, orig in reversed(saved):
                setattr(m, key, orig)


def self_times(spans: list[list]) -> list[float]:
    """Duration of each span minus the durations of its direct children."""
    out = [end - start for _, start, end, _, _ in spans]
    for _, start, end, parent, _ in spans:
        if parent is not None:
            out[parent] -= end - start
    return out


def summarize(spans: list[list], plain_cutoff: int) -> dict[str, float]:
    """Per-layer totals over a list of spans: self time per name, call
    counts and sides for the oracle, cells and entries for the builders, and
    the time covered by top-level spans."""
    out: dict[str, float] = {f"{name}.self_s": 0.0 for name in SPAN_NAMES}
    for key in (
        "oracle.charpoly.calls",
        "oracle.charpoly.crt_calls",
        "oracle.charpoly.side_max",
        "oracle.det_poly.calls",
        "oracle.det_poly.side_max",
        "sdm.build.cells",
        "gram_partition.build_gram.entries",
        "top_level_s",
    ):
        out[key] = 0
    for span, own in zip(spans, self_times(spans)):
        name, start, end, parent, side = span
        if name in SPAN_NAMES:
            out[f"{name}.self_s"] += own
        if parent is None:
            out["top_level_s"] += end - start
        if side is None:
            continue
        if name in ("oracle.charpoly", "oracle.det_poly"):
            out[f"{name}.calls"] += 1
            out[f"{name}.side_max"] = max(out[f"{name}.side_max"], side)
            if name == "oracle.charpoly" and side > plain_cutoff:
                out["oracle.charpoly.crt_calls"] += 1
        elif name == "sdm.build":
            out["sdm.build.cells"] += side * side
        elif name == "gram_partition.build_gram":
            out["gram_partition.build_gram.entries"] += side * (side + 1) // 2
    return out


def merge(a: dict[str, float], b: dict[str, float]) -> dict[str, float]:
    """Combine two summaries: totals add, maxima take the larger."""
    return {
        key: max(a[key], b[key]) if key.endswith(".side_max") else a[key] + b[key]
        for key in a
    }
