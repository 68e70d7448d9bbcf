"""Process launcher for the benchmark.

    python bench/launch.py    # reads one JSON request per line on stdin

Each request ``{"argv", "cwd", "env", "log", "timeout"}`` runs one command
in its own process group and answers with one JSON line: wall time from
spawn to exit, exit code, and the ``os.wait4`` rusage (peak RSS, CPU time).

The launcher exists for the peak-RSS figure. Linux carries a process's
peak RSS across ``exec``, and a child spawned from the benchmark's own
process starts from that process's memory; spawned from this small process
instead, a command's ``ru_maxrss`` is its own peak (or that of its largest
worker). The launcher exits when its stdin closes.
"""

import json
import os
import signal
import subprocess
import sys
import threading
import time


def _kill_group(pgid):
    try:
        os.killpg(pgid, signal.SIGKILL)
    except (ProcessLookupError, PermissionError):
        pass


def run(req):
    with open(req["log"], "wb") as fh:
        t0 = time.perf_counter()
        proc = subprocess.Popen(req["argv"], cwd=req["cwd"], env=req["env"], stdout=fh,
                                stderr=subprocess.STDOUT, start_new_session=True)
        timer = threading.Timer(max(req["timeout"], 0.0), _kill_group, (proc.pid,))
        timer.start()
        try:
            _, status, ru = os.wait4(proc.pid, 0)
        finally:
            timer.cancel()
        wall = time.perf_counter() - t0
    proc.returncode = os.waitstatus_to_exitcode(status)
    _kill_group(proc.pid)  # workers a crashed command left behind
    return {"wall_s": wall, "rc": proc.returncode, "timed_out": proc.returncode == -signal.SIGKILL,
            "peak_rss_mb": ru.ru_maxrss / 1024.0, "cpu_s": ru.ru_utime + ru.ru_stime}


def main():
    for line in sys.stdin:
        print(json.dumps(run(json.loads(line))), flush=True)


if __name__ == "__main__":
    main()
