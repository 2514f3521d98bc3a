"""Runs xygap invocations for run.py and reports each one's wall time and rusage.

Reads one JSON request per line on standard input, ``{"argv", "cwd",
"stdout", "stderr", "timeout"}``, runs it to completion and answers with one
JSON line ``{"rc", "wall_s", "cpu_s", "rss_kb"}``.  It exits at end of input.

A child's ``ru_maxrss`` starts from the resident size of the process that
forked it, so children are forked from this small stdlib-only process rather
than from the benchmark driver, which holds numpy and the checked outputs.
"""

import json
import os
import subprocess
import sys
import threading
import time


def main() -> None:
    for line in sys.stdin:
        req = json.loads(line)
        with open(req["stdout"], "wb") as out, open(req["stderr"], "wb") as err:
            start = time.perf_counter()
            proc = subprocess.Popen(req["argv"], stdout=out, stderr=err, cwd=req["cwd"])
            timer = threading.Timer(req["timeout"], proc.kill)
            timer.start()
            try:
                _, status, usage = os.wait4(proc.pid, 0)
            finally:
                timer.cancel()
            wall = time.perf_counter() - start
        proc.returncode = os.waitstatus_to_exitcode(status)
        reply = {"rc": proc.returncode, "wall_s": wall,
                 "cpu_s": usage.ru_utime + usage.ru_stime, "rss_kb": usage.ru_maxrss}
        print(json.dumps(reply), flush=True)


if __name__ == "__main__":
    main()
