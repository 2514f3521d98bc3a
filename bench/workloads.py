"""The benchmark's workloads: xygap command lines generated from a seed.

Each workload is a closed loop: one driver process runs its command list one
invocation at a time, on the CLI's default single-threaded path, and checks
every output with :mod:`checks`.  A workload joins two command groups:

* ``thermo-sector``, the float layers.
  - thermo-scan: ``phase-diagram`` over the README grid (CSV) and a smaller
    JSON grid, both spanning the first-order line and the paramagnetic
    region.  Only ``classical`` does real work.
  - sector-ladder: ``finite-gap`` at h != 0 on a size ladder up to
    N = 65536, including a near-degenerate field.  A few large ``sector``
    solves dominate.
* ``exact-certify``, the exact layers; ``classical`` and large solves are
  absent, so a faster scan or eigensolver leaves it unchanged.
  - exact-rows: ``finite-gap`` on h = 0 over long size ranges for
    small-denominator rational fields.  ``gaplaw`` rows and small-rational
    formatting dominate; the cross-check column makes many N <= 64 solves.
  - certify: the README's three ``scaling`` reports, ``verify`` and
    series-field rows.  Few huge rationals (5k to 65k bits) flow through
    ``exactnum``, ``sequences``, ``scaling`` and ``gaplaw``.

Two long workloads rather than four short ones: this host's cores slow down
for tens of seconds at a time under other tenants' load, and a run needs a
window long enough that one such burst does not decide its median.

The seed picks the rational fields of exact-rows, the field of the last
sector-ladder command, the upper gamma of the small thermo-scan grid, and
the ``verify --seed`` of certify; the program sees only the generated argv.
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass, field
from fractions import Fraction
from functools import partial
from pathlib import Path
from typing import Callable

import checks

# (gamma, h) points with recorded large-N reference gaps; sector-ladder draws
# its seeded field from here, see make_reference.py.
SECTOR_FIELDS = (
    ("0.25", "0.3"), ("0.75", "0.2"), ("1.5", "0.4"), ("0.9", "0.05"),
    ("1.25", "0.8"), ("0.4", "1"), ("2", "0.25"), ("0.6", "0.6"),
)
SECTOR_README = (("0", "0.5"), (16, 64, 256, 1024, 4096))
SECTOR_NEAR_DEGENERATE = (("0.5", "0.001"), (64, 1024, 4096, 16384))
SECTOR_SEEDED_SIZES = (1024, 4096, 16384, 65536)

CROSS_MAX = 64           # finite-gap's default --cross-max
BRUTE_FORCE_SAMPLE = 16  # rows per exact command checked by level enumeration
VERIFY_SUITE_COUNT = 6


@dataclass(frozen=True)
class Command:
    """One ``xygap`` invocation, the files it writes, and its output check."""

    argv: tuple[str, ...]
    outputs: tuple[str, ...]
    check: Callable = field(compare=False)


def _sizes(start: int, stop: int, step: int) -> list[int]:
    return list(range(start, stop + 1, step))


def _small_rational(rng: random.Random) -> str:
    while True:
        q = rng.randrange(5, 17)
        p = rng.randrange(1, q)
        if math.gcd(p, q) == 1:
            return f"{p}/{q}"


def _exact(out: Path, name: str, argv: tuple, gamma, sizes, seed: int) -> Command:
    path = str(out / name)
    check = partial(
        checks.exact_rows, path=path, gamma=gamma, sizes=sizes,
        cross_max=CROSS_MAX, sample=BRUTE_FORCE_SAMPLE, seed=seed,
    )
    return Command(("finite-gap", *argv, "-o", path), (path,), check)


def _sector(out: Path, name: str, point, sizes, reference) -> Command:
    path = str(out / name)
    gamma, h = point
    argv = ("finite-gap", "--gamma", gamma, "--h", h, "--N", ",".join(map(str, sizes)), "-o", path)
    check = partial(checks.sector_gaps, path=path, gamma=gamma, h=h, sizes=sizes, reference=reference)
    return Command(argv, (path,), check)


def thermo_scan(rng: random.Random, out: Path) -> list[Command]:
    g_hi = rng.choice(("1.5", "2", "2.5", "3"))
    big, small = str(out / "pd.csv"), str(out / "pd.json")
    return [
        Command(
            ("phase-diagram", "--gamma", "0:2:81", "--h", "-1:1:81", "-o", big), (big,),
            partial(checks.phase_diagram, path=big, fmt="csv", gamma="0:2:81", h="-1:1:81"),
        ),
        Command(
            ("phase-diagram", "--gamma", f"0:{g_hi}:21", "--h", "-1:1:41",
             "--format", "json", "-o", small), (small,),
            partial(checks.phase_diagram, path=small, fmt="json", gamma=f"0:{g_hi}:21", h="-1:1:41"),
        ),
    ]


def sector_ladder(rng: random.Random, out: Path) -> list[Command]:
    reference = checks.load_reference()
    return [
        _sector(out, "ladder.csv", *SECTOR_README, reference),
        _sector(out, "near.csv", *SECTOR_NEAR_DEGENERATE, reference),
        _sector(out, "seeded.csv", rng.choice(SECTOR_FIELDS), SECTOR_SEEDED_SIZES, reference),
    ]


def exact_rows(rng: random.Random, out: Path) -> list[Command]:
    first = _small_rational(rng)
    second = _small_rational(rng)
    while second == first:
        second = _small_rational(rng)
    seed = rng.randrange(2**32)
    return [
        _exact(out, "third.csv", ("--gamma", "1/3", "--N", "2:64:even"),
               Fraction(1, 3), _sizes(2, 64, 2), seed),
        _exact(out, "all.csv", ("--gamma", first, "--N", "1:8192:all"),
               Fraction(first), _sizes(1, 8192, 1), seed),
        _exact(out, "even.csv", ("--gamma", second, "--N", "2:16384:even"),
               Fraction(second), _sizes(2, 16384, 2), seed),
    ]


def certify(rng: random.Random, out: Path, seed: int) -> list[Command]:
    cmds = []
    for kind, rule, terms, stem in (
        ("double-exp", "a_n", 5, "exp"),
        ("double-exp", "2a_n", 5, "poly"),
        ("factorial", "a_n", 4, "fact"),
    ):
        js, cs = str(out / f"{stem}.json"), str(out / f"{stem}.csv")
        cmds.append(Command(
            ("scaling", "--seq", kind, "--rule", rule, "--K", str(terms), "-o", js, "--csv", cs),
            (js, cs),
            partial(checks.scaling_report, json_path=js, csv_path=cs, kind=kind, rule=rule, terms=terms),
        ))
    cmds.append(Command(
        ("verify", "--seed", str(seed)), (),
        partial(checks.verify_summary, suites=VERIFY_SUITE_COUNT),
    ))
    sample_seed = rng.randrange(2**32)
    for kind, terms, sizes, stem in (
        ("double-exp", 5, (1, 16), "series-exp"),
        ("factorial", 4, (1, 64), "series-fact"),
    ):
        cmds.append(_exact(
            out, f"{stem}.csv",
            ("--gamma-series", kind, "--terms", str(terms), "--N", f"{sizes[0]}:{sizes[1]}:all"),
            checks.series_field(kind, terms), _sizes(sizes[0], sizes[1], 1), sample_seed,
        ))
    return cmds


WORKLOADS = ("thermo-sector", "exact-certify")


def build(name: str, seed: int, out: Path) -> list[Command]:
    """The command list of one workload; the same seed gives the same argv."""
    rng = random.Random(f"{name}:{seed}")
    if name == "thermo-sector":
        return thermo_scan(rng, out) + sector_ladder(rng, out)
    if name == "exact-certify":
        return exact_rows(rng, out) + certify(rng, out, seed)
    raise ValueError(f"unknown workload {name!r}")


# One wrong value per command group, keyed by output file name.
_CORRUPTIONS = {
    "pd.csv": ("gap", "1.4"),
    "ladder.csv": ("gap_numeric", "0.5"),
    "third.csv": ("gap", "1/7"),
    "exp.json": ('"Exponential"', '"Polynomial"'),
}


def corruptions(files: dict[str, str]) -> list[dict[str, str]]:
    """Copies of one pass's outputs, each with one value changed."""
    out = []
    for path, text in files.items():
        if Path(path).name not in _CORRUPTIONS:
            continue
        what, value = _CORRUPTIONS[Path(path).name]
        if path.endswith(".json"):
            bad = text.replace(what, value)
        else:
            header, first, *rest = text.split("\n")
            cells = first.split(",")
            cells[header.split(",").index(what)] = value
            bad = "\n".join([header, ",".join(cells), *rest])
        out.append({**files, path: bad})
    return out
