"""xygap benchmark: the README's CLI invocations, timed end to end and by layer.

Run from the repository root:

    python3 bench/run.py --workload exact-certify --seed 1 --seconds 55 --trace 0
    python3 bench/run.py --workload all --seconds 10     # every workload, both modes

``--trace 0`` runs each command of the workload (see workloads.py) as a
subprocess ``python3 -m xygap ...`` with ``PYTHONPATH=src``, one at a time,
pass after pass for ``--seconds``, with three no-op ``--help`` calls (the
CLI's set-up cost) spread over each pass.  ``--trace 1`` calls
``xygap.cli.main(argv)`` in this process on the same command lists,
alternating passes with and without the span wrappers of spans.py, and
reports per-layer metrics from the median traced pass.

Timings are medians over the run: ``wall_s`` and ``cpu_s`` sum each
command's median invocation over the passes, ``setup_s`` is the median
no-op call, and ``peak_rss_mb`` is the largest child's.  On a shared host,
other tenants slow this machine's cores, from one invocation to the next
and for minutes at a time (CPU time grows with wall time, so it is
contention, not preemption).  Over three ten-seed sets on a 2-vCPU shared
Xeon these medians spread (IQR/median) 3-19 %, and each command's fastest
invocation 8-22 %; neither is steadier on every set, because most of the
spread is the slow minutes, which move every sample of a run.  The report
file keeps every invocation's wall and CPU time and every no-op call.

Every output of every pass is checked by checks.py; an invocation fails
when it exits non-zero or its output fails the check, and
``failed/attempted`` is the error rate.  Once per run, a corrupted copy of
one output of each command group must fail its check.

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``.  A report with the
machine and provenance block, per-command timings and output digests goes to
``.bench_build/xygap-bench/``, and the traced run's spans beside it.
Nothing here changes thread counts or any other machine setting.
"""

from __future__ import annotations

import argparse
import hashlib
import io
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import time
from collections import Counter
from contextlib import redirect_stderr, redirect_stdout
from dataclasses import dataclass, field
from importlib import metadata
from pathlib import Path

import spans as spanlib
import workloads

DEFAULT_SEED = 1
SETUP_PER_PASS = 3       # timed no-op invocations spread over each pass
INVOCATION_TIMEOUT_S = 120

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
WORK = ROOT / ".bench_build" / "xygap-bench"

END_TO_END = {
    "setup_s": "s", "wall_s": "s", "cpu_s": "s", "peak_rss_mb": "MB", "rows_per_s": "1/s",
}


@dataclass
class Outcome:
    """What one invocation returned."""

    rc: object
    stdout: str
    stderr: str
    wall_s: float
    cpu_s: float = 0.0
    rss_kb: int = 0


@dataclass
class Tally:
    attempted: int = 0
    failed: int = 0
    problems: list = field(default_factory=list)
    digests: dict = field(default_factory=dict)

    def fail(self, what: str) -> None:
        self.failed += 1
        if len(self.problems) < 20:
            self.problems.append(what)


def child_env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, (str(SRC), env.get("PYTHONPATH"))))
    return env


class Launcher:
    """A launcher.py process that forks the ``python3 -m xygap`` subprocesses."""

    def __init__(self, env: dict, cwd: Path):
        self.cwd = cwd
        self.proc = subprocess.Popen(
            [sys.executable, str(Path(__file__).with_name("launcher.py"))],
            stdin=subprocess.PIPE, stdout=subprocess.PIPE, text=True, env=env, cwd=cwd)

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        self.proc.stdin.close()
        self.proc.stdout.close()
        self.proc.wait(timeout=INVOCATION_TIMEOUT_S)

    def run(self, argv) -> Outcome:
        out, err = self.cwd / "stdout.txt", self.cwd / "stderr.txt"
        request = {"argv": [sys.executable, "-m", "xygap", *argv], "cwd": str(self.cwd),
                   "stdout": str(out), "stderr": str(err), "timeout": INVOCATION_TIMEOUT_S}
        self.proc.stdin.write(json.dumps(request) + "\n")
        self.proc.stdin.flush()
        reply = json.loads(self.proc.stdout.readline())
        return Outcome(reply["rc"], out.read_text(errors="replace"), err.read_text(errors="replace"),
                       reply["wall_s"], reply["cpu_s"], reply["rss_kb"])


def run_inprocess(argv, tracer, request: int) -> Outcome:
    from xygap import cli

    out, err = io.StringIO(), io.StringIO()
    start = time.perf_counter()
    with redirect_stdout(out), redirect_stderr(err):
        try:
            if tracer is None:
                rc = cli.main(list(argv))
            else:
                with tracer.root("cli.main", request):
                    rc = cli.main(list(argv))
        except Exception as exc:  # noqa: BLE001 - a crash is one failed invocation
            rc = f"{type(exc).__name__}: {exc}"
    return Outcome(rc, out.getvalue(), err.getvalue(), time.perf_counter() - start)


def run_pass(commands, invoke) -> tuple[float, list[Outcome]]:
    """One pass over the command list; its wall time sums the invocations'."""
    for cmd in commands:
        for path in cmd.outputs:
            Path(path).unlink(missing_ok=True)
    outcomes = [invoke(i, cmd) for i, cmd in enumerate(commands)]
    return sum(o.wall_s for o in outcomes), outcomes


def read_outputs(commands) -> dict[str, str]:
    files = {}
    for cmd in commands:
        for path in cmd.outputs:
            try:
                files[path] = Path(path).read_text(encoding="ascii")
            except (OSError, UnicodeDecodeError):
                files[path] = ""
    return files


def check_pass(commands, outcomes, tally: Tally) -> tuple[int, int, dict[str, str]]:
    """Check every invocation of a pass; returns (rows, bytes_out, files)."""
    files = read_outputs(commands)
    rows = bytes_out = 0
    for cmd, got in zip(commands, outcomes):
        tally.attempted += 1
        bytes_out += len(got.stdout.encode()) + sum(len(files[p].encode()) for p in cmd.outputs)
        for path in cmd.outputs:
            digest = hashlib.sha256(files[path].encode()).hexdigest()[:16]
            tally.digests.setdefault(Path(path).name, set()).add(digest)
        if got.rc != 0:
            tally.fail(f"{' '.join(cmd.argv[:3])}: exit {got.rc}: {got.stderr.strip()[-200:]}")
            continue
        n, problems = run_check(cmd, got, files)
        rows += n
        if problems:
            tally.fail(f"{' '.join(cmd.argv[:3])}: {problems[:3]}")
    return rows, bytes_out, files


def self_check(commands, files: dict[str, str], outcomes) -> bool:
    """The checks must reject every corrupted copy of one pass's outputs."""
    variants = workloads.corruptions(files)
    for bad in variants:
        changed = [(cmd, got) for cmd, got in zip(commands, outcomes)
                   if any(bad[p] != files[p] for p in cmd.outputs)]
        if len(changed) != 1 or not run_check(*changed[0], bad)[1]:
            return False
    return bool(variants)


def run_check(cmd, got: Outcome, files: dict[str, str]) -> tuple[int, list[str]]:
    """A check's verdict; output it cannot parse is a failure, not a crash."""
    try:
        return cmd.check(files, got.stdout)
    except (ValueError, KeyError, IndexError, TypeError, ZeroDivisionError) as exc:
        return 0, [f"malformed output: {type(exc).__name__}: {exc}"]


def summary(values) -> dict:
    """Sample count, minimum, median and maximum, for the report."""
    return {"n": len(values), "min": min(values), "median": statistics.median(values),
            "max": max(values)}


def timed_until(seconds: float, step) -> None:
    """Call ``step`` until the next call would overrun ``seconds``; at least once."""
    start = time.perf_counter()
    while True:
        t0 = time.perf_counter()
        step()
        now = time.perf_counter()
        if now + (now - t0) > start + seconds:
            return


# ---------------------------------------------------------------------------
# provenance

PROBE = r"""
import json, numpy, xygap
try:
    blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
    blas = f"{blas['name']} {blas.get('version', '')}".strip()
except (AttributeError, KeyError, TypeError):
    blas = "unknown"
threads = None
try:
    with open("/proc/self/status") as fh:
        threads = next(int(line.split()[1]) for line in fh if line.startswith("Threads:"))
except (OSError, StopIteration):
    pass
print(json.dumps({"xygap_file": xygap.__file__, "blas": blas, "threads_after_import": threads}))
"""


def _version(dist: str):
    try:
        return metadata.version(dist)
    except metadata.PackageNotFoundError:
        return None


def _loadavg():
    try:
        return list(os.getloadavg())
    except OSError:
        return None


def provenance(env: dict) -> dict:
    """Machine, library versions, what a child process sees, and the source measured."""
    probe = subprocess.run([sys.executable, "-c", PROBE], env=env, cwd=ROOT,
                           capture_output=True, text=True, timeout=INVOCATION_TIMEOUT_S)
    if probe.returncode != 0:
        raise SystemExit(f"cannot import xygap from {SRC}: {probe.stderr.strip()[-300:]}")
    child = json.loads(probe.stdout)
    if not Path(child["xygap_file"]).resolve().is_relative_to(SRC):
        raise SystemExit(f"xygap imported from {child['xygap_file']}, not from {SRC}")
    digest = hashlib.sha256()
    for path in sorted(SRC.rglob("*.py")):
        digest.update(path.relative_to(SRC).as_posix().encode() + b"\0" + path.read_bytes())
    commit = None
    if (ROOT / ".git").exists():
        got = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "HEAD"],
                             capture_output=True, text=True)
        commit = got.stdout.strip() or None
    return {
        "nproc": os.cpu_count(),
        "affinity": len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else None,
        "python": platform.python_version(),
        "numpy": _version("numpy"),
        "scipy": _version("scipy"),
        "blas": child["blas"],
        "child_threads_after_import": child["threads_after_import"],
        "loadavg_before": _loadavg(),
        "commit": commit,
        "source_sha256": digest.hexdigest(),
    }


# ---------------------------------------------------------------------------
# end to end, tracing off

def end_to_end(name: str, seed: int, seconds: float, out: Path, tally: Tally) -> dict:
    with Launcher(child_env(), out) as launcher:
        return _end_to_end(name, seed, seconds, out, tally, launcher)


def _end_to_end(name, seed, seconds, out, tally, launcher) -> dict:
    launcher.run(["--help"])  # let byte-compilation finish before timing
    commands = workloads.build(name, seed, out)
    probe_before = {round(k * len(commands) / SETUP_PER_PASS) for k in range(SETUP_PER_PASS)}
    setup = []
    passes = []
    selfcheck = []

    def invoke(i, cmd):
        if i in probe_before:
            got = launcher.run(["--help"])
            setup.append(got.wall_s)
            tally.attempted += 1
            if got.rc != 0 or "usage: xygap" not in got.stdout:
                tally.fail(f"--help: exit {got.rc}")
        return launcher.run(cmd.argv)

    def one_pass():
        wall, outcomes = run_pass(commands, invoke)
        rows, _, files = check_pass(commands, outcomes, tally)
        if not selfcheck:
            selfcheck.append(self_check(commands, files, outcomes))
        passes.append({"wall_s": wall, "rows": rows, "outcomes": outcomes})

    timed_until(seconds, one_pass)
    per_command = [{"argv": " ".join(cmd.argv[:5]),
                    "wall_s": [p["outcomes"][i].wall_s for p in passes],
                    "cpu_s": [p["outcomes"][i].cpu_s for p in passes]}
                   for i, cmd in enumerate(commands)]
    # A pass's time is the sum over its commands of each command's median.
    wall = sum(statistics.median(c["wall_s"]) for c in per_command)
    metrics = {
        "setup_s": statistics.median(setup),
        "wall_s": wall,
        "cpu_s": sum(statistics.median(c["cpu_s"]) for c in per_command),
        "peak_rss_mb": max(o.rss_kb for p in passes for o in p["outcomes"]) / 1024,
        "rows_per_s": passes[0]["rows"] / wall,
    }
    spread = {"setup_s": setup, "pass_wall_s": [p["wall_s"] for p in passes]}
    return {"metrics": metrics, "selfcheck": selfcheck[0], "argv": [c.argv for c in commands],
            "per_command": per_command, "setup_samples": setup,
            "samples": {k: summary(v) for k, v in spread.items()}}


# ---------------------------------------------------------------------------
# per layer, tracing on

def traced(name: str, seed: int, seconds: float, out: Path, tally: Tally, spans_path: Path) -> dict:
    sys.path.insert(0, str(SRC))
    import xygap.cli  # noqa: F401 - every layer module is imported by the CLI

    tracer = spanlib.Tracer()
    commands = workloads.build(name, seed, out)
    walls = {False: [], True: []}
    traced_passes = []
    selfcheck = []

    def one_pass(with_trace: bool):
        if with_trace:
            tracer.install()
        try:
            wall, outcomes = run_pass(
                commands, lambda i, cmd: run_inprocess(cmd.argv, tracer if with_trace else None, i))
        finally:
            tracer.uninstall()
        spans = tracer.take()
        _, bytes_out, files = check_pass(commands, outcomes, tally)
        if not selfcheck:
            selfcheck.append(self_check(commands, files, outcomes))
        walls[with_trace].append(wall)
        if with_trace:
            traced_passes.append((wall, spans, bytes_out))

    def pair():
        first = len(walls[True]) % 2 == 1  # alternate which side runs first
        one_pass(first)
        one_pass(not first)

    timed_until(seconds, pair)
    traced_passes.sort(key=lambda p: p[0])
    _, spans, bytes_out = traced_passes[(len(traced_passes) - 1) // 2]  # the median pass
    layers = spanlib.layer_metrics(spans, bytes_out)
    metrics = {key: layers[key] for key in spanlib.PER_LAYER if key in layers}
    untraced = statistics.median(walls[False])
    metrics["trace.overhead_pct"] = (statistics.median(walls[True]) - untraced) / untraced * 100
    whole = sum(layers["layer_self_ns"].values()) or 1
    by_command = [Counter() for _ in commands]
    for s, own in zip(spans, spanlib.self_times_ns(spans)):
        by_command[s[spanlib.REQUEST]][spanlib.layer_of(s)] += own
    fields = ["name", "parent", "request", "start_ns", "end_ns", "attr"]
    spans_path.write_text(json.dumps({"fields": fields, "spans": spans}))
    return {
        "metrics": metrics,
        "selfcheck": selfcheck[0],
        "argv": [c.argv for c in commands],
        "layer_self_share_pct": {
            k: 100 * v / whole for k, v in Counter(layers["layer_self_ns"]).most_common()},
        "layer_self_share_pct_by_command": [
            {"argv": " ".join(cmd.argv[:5]),
             **{k: 100 * v / (sum(c.values()) or 1) for k, v in c.most_common(3)}}
            for cmd, c in zip(commands, by_command)],
        "samples": {"untraced_wall_s": summary(walls[False]), "traced_wall_s": summary(walls[True])},
    }


# ---------------------------------------------------------------------------

def run_one(name: str, seed: int, seconds: float, trace: bool) -> dict:
    WORK.mkdir(parents=True, exist_ok=True)
    out = WORK / f"out-{name}-{os.getpid()}"
    out.mkdir(exist_ok=True)
    tally = Tally()
    stem = f"{name}.seed{seed}.trace{int(trace)}"
    try:
        prov = provenance(child_env())
        if trace:
            body = traced(name, seed, seconds, out, tally, WORK / f"{name}.seed{seed}.spans.json")
        else:
            body = end_to_end(name, seed, seconds, out, tally)
    finally:
        shutil.rmtree(out, ignore_errors=True)
    prov["loadavg_after"] = _loadavg()
    units = spanlib.PER_LAYER if trace else END_TO_END
    report = {
        "workload": name, "seed": seed, "seconds": seconds, "trace": trace,
        "provenance": prov,
        "correct": tally.failed == 0 and body["selfcheck"],
        "attempted": tally.attempted, "failed": tally.failed,
        "error_rate": tally.failed / max(tally.attempted, 1),
        "problems": tally.problems,
        "output_digests": {k: sorted(v) for k, v in tally.digests.items()},
        **body,
    }
    (WORK / f"{stem}.json").write_text(json.dumps(report, indent=1, default=str))
    report["metrics"] = {k: {"value": body["metrics"][k], "unit": u} for k, u in units.items()}
    return report


def print_report(report: dict) -> None:
    print(f"== {report['workload']} seed={report['seed']} trace={int(report['trace'])}")
    print(f"provenance: {json.dumps(report['provenance'])}")
    for problem in report["problems"]:
        print(f"FAILED {problem}")
    if not report["selfcheck"]:
        print("FAILED self-check: a corrupted output passed the checks")
    print(f"  {'error_rate':<36}{report['error_rate']:>16.6g} ratio "
          f"({report['failed']}/{report['attempted']} invocations)")
    for name, metric in report["metrics"].items():
        print(f"  {name:<36}{metric['value']:>16.6g} {metric['unit']}")
    for name, s in report["samples"].items():
        print(f"  samples {name}: n={s['n']} min={s['min']:.6g} median={s['median']:.6g} max={s['max']:.6g}")
    for row in report.get("per_command", ()):
        s = summary(row["wall_s"])
        print(f"    {row['argv']}: wall n={s['n']} min={s['min']:.6g} median={s['median']:.6g} max={s['max']:.6g}")
    if report["trace"]:
        shares = ", ".join(f"{k} {v:.1f}%" for k, v in report["layer_self_share_pct"].items())
        print(f"  layer self-time share: {shares}")
        for row in report["layer_self_share_pct_by_command"]:
            row = dict(row)
            argv = row.pop("argv")
            print(f"    {argv}: " + ", ".join(f"{k} {v:.1f}%" for k, v in row.items()))


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n", 1)[0])
    parser.add_argument("--workload", required=True, choices=(*workloads.WORKLOADS, "all"))
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=55.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0,
                        help="0: end-to-end metrics, 1: per-layer metrics (ignored with 'all')")
    args = parser.parse_args(argv)
    if not (SRC / "xygap" / "__init__.py").is_file():
        print(f"error: no xygap sources under {SRC}", file=sys.stderr)
        return 2
    if args.workload == "all":
        runs = [(w, t) for w in workloads.WORKLOADS for t in (False, True)]
    else:
        runs = [(args.workload, bool(args.trace))]
    reports = []
    for name, trace in runs:
        reports.append(run_one(name, args.seed, args.seconds, trace))
        print_report(reports[-1])
    if len(reports) == 1:
        metrics = reports[0]["metrics"]
    else:
        metrics = {f"{r['workload']}/{k}": v for r in reports for k, v in r["metrics"].items()}
    correct = all(r["correct"] for r in reports)
    print(json.dumps({
        "correct": correct,
        "attempted": sum(r["attempted"] for r in reports),
        "failed": sum(r["failed"] for r in reports),
        "metrics": metrics,
    }))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
