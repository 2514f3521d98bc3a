"""The ``phase-diagram`` command, compiled only when it runs (``cli`` docstring)."""

from __future__ import annotations

import math
from collections.abc import Iterator, Sequence

from .cli import EXIT_OK, UsageError, _write_chunks


class Grid(Sequence):
    """The points of an inclusive grid, each computed when asked for:
    ``lo + i*step`` for i < count - 1, then ``hi`` (a lazy sequence, like a
    ``range``)."""

    __slots__ = ("lo", "step", "hi", "count")

    def __init__(self, lo: float, step: float, hi: float, count: int):
        self.lo, self.step, self.hi, self.count = lo, step, hi, count

    def __len__(self) -> int:
        return self.count

    def __getitem__(self, i: int) -> float:
        i = range(self.count)[i]
        return self.hi if i == self.count - 1 else self.lo + i * self.step

    def __iter__(self) -> Iterator[float]:
        lo, step = self.lo, self.step
        for i in range(self.count - 1):
            yield lo + i * step
        yield self.hi

    def extremes(self) -> tuple[float, float]:
        """The smallest and the largest point.  Each rounding in ``lo +
        i*step`` is monotone, so the points before ``hi`` are monotone in i,
        and both lie among the first, the last but one and the last point."""
        ends = (self[0], self[max(self.count - 2, 0)], self[-1])
        return min(ends), max(ends)


def parse_grid(text: str) -> Grid:
    """Inclusive grid "lo:hi:count" as a lazy :class:`Grid`; count 1
    degenerates to [lo]."""
    parts = text.split(":")
    if len(parts) != 3:
        raise UsageError(f"grid must look like lo:hi:count, got {text!r}")
    try:
        lo, hi, count = float(parts[0]), float(parts[1]), int(parts[2])
    except ValueError as exc:
        raise UsageError(f"bad grid {text!r}: {exc}") from None
    if not (math.isfinite(lo) and math.isfinite(hi)):
        raise UsageError(f"grid endpoints must be finite, got {text!r}")
    if count < 1:
        raise UsageError(f"grid count must be >= 1, got {count}")
    if count == 1:
        return Grid(lo, 0.0, lo, 1)
    try:
        step = (hi - lo) / (count - 1)
    except OverflowError:  # the count is no double
        raise UsageError(f"grid count of {text!r} overflows a double") from None
    if not math.isfinite(step):
        raise UsageError(f"grid step of {text!r} overflows a double")
    return Grid(lo, step, hi, count)


def cmd_phase_diagram(args) -> int:
    from . import classical

    gammas = parse_grid(args.gamma)
    hs = parse_grid(args.h)
    gamma_low, gamma_high = gammas.extremes()
    if gamma_low < 0:
        raise UsageError("transverse field grid must be nonnegative")
    h_low, h_high = hs.extremes()
    reach = gamma_high + max(-h_low, h_high)
    if reach > classical.SAFE_REACH:  # the scan's input rule, at the grid's extremes
        raise UsageError(f"grid reaches gamma + |h| = {reach!r}, past {classical.SAFE_REACH!r}")
    text = classical.scan_json if args.format == "json" else classical.scan_csv
    _write_chunks(args.output, text(classical.scan_rows(gammas, hs)))
    return EXIT_OK
