"""Outside-in spans around xygap's layers, for the benchmark's traced run.

Every public function of each layer module is wrapped, and every binding of
it in any ``xygap`` module is replaced, because ``cli``, ``scaling``,
``verify`` and ``exactnum`` hold their own ``from .x import f`` references.
A span is ``[name, parent, request, start_ns, end_ns, attr]``: the layer is
the part of the name before the first dot, ``parent`` indexes the enclosing
span (-1 for a root), ``request`` numbers the CLI invocation, and ``attr`` is
a per-function detail (solve size, formatted bit length, ...).  Spans stay in
memory; :func:`layer_metrics` turns one pass's spans into the per-layer
metrics of :data:`PER_LAYER`, and the caller writes the spans out.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import sys
import time
from collections import Counter, defaultdict
from contextlib import contextmanager
from fractions import Fraction

PACKAGE = "xygap"
LAYERS = ("cli", "classical", "sector", "gaplaw", "sequences", "exactnum", "scaling", "verify")

NAME, PARENT, REQUEST, START, END, ATTR = range(6)
BIG_DENOMINATOR_BITS = 64  # gap rows whose field denominator exceeds 2**64 count as big
SMALL_N = 64               # sector solves up to this size are "small"
LADDER_SIZES = (1024, 4096, 16384, 65536)


def _bits(r) -> int:
    return max(r.numerator.bit_length(), r.denominator.bit_length())


# Details recorded from a call's positional arguments and result.
_ATTRS = {
    "sector.lowest_eigenvalues": lambda args, result: args[0].size,
    "gaplaw.gap_record": lambda args, result: Fraction(args[1]).denominator.bit_length() > BIG_DENOMINATOR_BITS,
    "exactnum.format_rational": lambda args, result: _bits(args[0]),
    "scaling.build_scaling_report": lambda args, result: f"{args[0].kind.value}.{args[0].rule}",
}
VERIFY_SUITES = ("exact_vs_numeric", "closed_form_routes", "appendix_bounds",
                 "dense_intervals", "injection_injective", "gauge_invariance")
for _suite in VERIFY_SUITES:
    _ATTRS[f"verify.check_{_suite}"] = lambda args, result: result.passed


class Tracer:
    """Installs span wrappers into the imported ``xygap`` package."""

    def __init__(self):
        self.spans: list[list] = []
        self.request = 0
        self._stack: list[int] = []
        wrappers = {}
        for layer in LAYERS:
            module = importlib.import_module(f"{PACKAGE}.{layer}")
            for name, fn in vars(module).items():
                if (inspect.isfunction(fn) and fn.__module__ == module.__name__
                        and not name.startswith("_") and name != "main"):
                    wrappers[id(fn)] = self._wrap(f"{layer}.{name}", fn)
        self._patches = [
            (module, attr, value, wrappers[id(value)])
            for mod_name, module in list(sys.modules.items())
            if mod_name == PACKAGE or mod_name.startswith(PACKAGE + ".")
            for attr, value in vars(module).items()
            if id(value) in wrappers
        ]

    def _wrap(self, name: str, fn):
        spans, stack, clock = self.spans, self._stack, time.perf_counter_ns
        attr = _ATTRS.get(name)

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            rec = [name, stack[-1] if stack else -1, self.request, clock(), 0, None]
            stack.append(len(spans))
            spans.append(rec)
            try:
                result = fn(*args, **kwargs)
            finally:
                rec[END] = clock()
                stack.pop()
            if attr is not None:
                rec[ATTR] = attr(args, result)
            return result

        return wrapper

    def install(self) -> None:
        for module, attr, _, wrapper in self._patches:
            setattr(module, attr, wrapper)

    def uninstall(self) -> None:
        for module, attr, original, _ in self._patches:
            setattr(module, attr, original)

    @contextmanager
    def root(self, name: str, request: int):
        """A root span around one CLI invocation."""
        self.request = request
        rec = [name, -1, request, time.perf_counter_ns(), 0, None]
        self._stack.append(len(self.spans))
        self.spans.append(rec)
        try:
            yield
        finally:
            rec[END] = time.perf_counter_ns()
            self._stack.pop()

    def take(self) -> list[list]:
        """Hand over the recorded spans and start an empty list."""
        spans = self.spans[:]
        self.spans.clear()
        return spans


def self_times_ns(spans: list[list]) -> list[int]:
    """Each span's duration minus the durations of its direct children."""
    own = [s[END] - s[START] for s in spans]
    for s in spans:
        if s[PARENT] >= 0:
            own[s[PARENT]] -= s[END] - s[START]
    return own


def layer_of(span: list) -> str:
    return span[NAME].split(".", 1)[0]


# ---------------------------------------------------------------------------
# per-layer metrics, name -> unit

PER_LAYER = {
    "cli.self_ms": "ms", "cli.bytes_out": "bytes",
    "classical.self_ms": "ms", "classical.points": "count",
    "classical.us_per_point": "us", "classical.serialize_ms": "ms",
    "sector.self_ms": "ms", "sector.solves": "count", "sector.solves.small": "count",
    **{f"sector.solves.N{n}": "count" for n in LADDER_SIZES},
    **{f"sector.solve_ms.N{n}": "ms" for n in LADDER_SIZES},
    "sector.small_solve_us": "us", "sector.build_ms": "ms",
    "gaplaw.self_ms": "ms", "gaplaw.rows": "count", "gaplaw.rows_per_s": "1/s",
    "gaplaw.big_rows_per_s": "1/s", "gaplaw.splits_per_row": "calls/row",
    "sequences.terms_calls": "count", "sequences.busy_ms": "ms",
    "exactnum.self_ms": "ms", "exactnum.format_ms": "ms", "exactnum.format_calls": "count",
    "exactnum.format_max_bits": "bits", "exactnum.decimal_ms": "ms",
    "exactnum.gamma_value_calls": "count", "exactnum.gamma_value_ms": "ms",
    "scaling.self_ms": "ms",
    "scaling.report_ms.double-exp.a_n": "ms", "scaling.report_ms.double-exp.2a_n": "ms",
    "scaling.report_ms.factorial.a_n": "ms",
    "scaling.rows": "count", "scaling.classify_ms": "ms", "scaling.json_ms": "ms",
    "verify.self_ms": "ms",
    **{f"verify.{suite}_ms": "ms" for suite in VERIFY_SUITES},
    "verify.suites_passed": "count",
    "trace.overhead_pct": "%",
}


def layer_metrics(spans: list[list], bytes_out: int) -> dict:
    """Per-layer metrics of one traced pass."""
    own = self_times_ns(spans)
    self_ns = Counter()
    total_ns = Counter()
    calls = Counter()
    by_attr = defaultdict(list)
    under_row = [False] * len(spans)
    for i, s in enumerate(spans):
        name, dur = s[NAME], s[END] - s[START]
        self_ns[layer_of(s)] += own[i]
        total_ns[name] += dur
        calls[name] += 1
        if s[ATTR] is not None:
            by_attr[name].append((s[ATTR], dur))
        parent = s[PARENT]
        under_row[i] = parent >= 0 and (
            spans[parent][NAME] == "gaplaw.gap_record" or under_row[parent])

    def ms(ns: float) -> float:
        return ns / 1e6

    def mean(durs, scale) -> float:
        return sum(durs) / len(durs) / scale if durs else 0.0

    def rate(count, ns) -> float:
        return count / (ns / 1e9) if ns else 0.0

    solves = by_attr["sector.lowest_eigenvalues"]
    rows = by_attr["gaplaw.gap_record"]
    big_rows = [dur for big, dur in rows if big]
    m = {"cli.bytes_out": bytes_out}
    for layer in LAYERS:
        if layer != "sequences":
            m[f"{layer}.self_ms"] = ms(self_ns[layer])
    points = calls["classical.phase_record"]
    m["classical.points"] = points
    m["classical.us_per_point"] = total_ns["classical.phase_record"] / 1e3 / points if points else 0.0
    m["classical.serialize_ms"] = ms(total_ns["classical.scan_csv_lines"] + total_ns["classical.scan_json"])
    m["sector.solves"] = len(solves)
    m["sector.solves.small"] = sum(1 for n, _ in solves if n <= SMALL_N)
    for size in LADDER_SIZES:
        durs = [dur for n, dur in solves if n == size]
        m[f"sector.solves.N{size}"] = len(durs)
        m[f"sector.solve_ms.N{size}"] = mean(durs, 1e6)
    m["sector.small_solve_us"] = mean([dur for n, dur in solves if n <= SMALL_N], 1e3)
    m["sector.build_ms"] = ms(total_ns["sector.build_sector_hamiltonian"])
    m["gaplaw.rows"] = len(rows)
    m["gaplaw.rows_per_s"] = rate(len(rows), total_ns["gaplaw.gap_record"])
    m["gaplaw.big_rows_per_s"] = rate(len(big_rows), sum(big_rows))
    splits = sum(1 for i, s in enumerate(spans)
                 if under_row[i] and s[NAME] == "gaplaw.delta_frac")
    m["gaplaw.splits_per_row"] = splits / len(rows) if rows else 0.0
    m["sequences.terms_calls"] = calls["sequences.terms"]
    m["sequences.busy_ms"] = ms(self_ns["sequences"])
    m["exactnum.format_ms"] = ms(total_ns["exactnum.format_rational"])
    m["exactnum.format_calls"] = calls["exactnum.format_rational"]
    m["exactnum.format_max_bits"] = max((bits for bits, _ in by_attr["exactnum.format_rational"]), default=0)
    m["exactnum.decimal_ms"] = ms(total_ns["exactnum.decimal_str"])
    m["exactnum.gamma_value_calls"] = calls["exactnum.gamma_value"]
    m["exactnum.gamma_value_ms"] = ms(total_ns["exactnum.gamma_value"])
    for key in ("double-exp.a_n", "double-exp.2a_n", "factorial.a_n"):
        m[f"scaling.report_ms.{key}"] = ms(sum(d for k, d in by_attr["scaling.build_scaling_report"] if k == key))
    m["scaling.rows"] = calls["scaling.scaling_row"]
    m["scaling.classify_ms"] = ms(total_ns["scaling.classify_scaling"])
    m["scaling.json_ms"] = ms(total_ns["scaling.report_to_json"])
    for suite in VERIFY_SUITES:
        m[f"verify.{suite}_ms"] = ms(total_ns[f"verify.check_{suite}"])
    m["verify.suites_passed"] = sum(
        1 for suite in VERIFY_SUITES for ok, _ in by_attr[f"verify.check_{suite}"] if ok)
    m["layer_self_ns"] = dict(self_ns)
    return m
