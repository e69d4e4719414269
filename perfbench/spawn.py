"""Run one command; record its exit code, wall time and peak RSS.

    python3 perfbench/spawn.py RESULT.json TIMEOUT_S -- CMD [ARG...]

Linux counts the resident set a process had before ``exec`` in the peak
RSS it reports for it, and a forked child starts with its parent's. The
benchmark process holds a whole corpus, so it starts each timed command
through this small, fresh process instead of directly. The command
inherits this process's standard streams, environment and directory,
and is killed after TIMEOUT_S seconds.
"""

import json
import os
import subprocess
import sys
import threading
import time


def main(argv: list[str]) -> int:
    result_path, timeout = argv[0], float(argv[1])
    if argv[2] != "--" or len(argv) < 4:
        raise SystemExit(__doc__)
    start = time.perf_counter()
    proc = subprocess.Popen(argv[3:])
    watchdog = threading.Timer(timeout, proc.kill)
    watchdog.start()
    try:
        _, status, usage = os.wait4(proc.pid, 0)
    finally:
        watchdog.cancel()
    wall_s = time.perf_counter() - start
    proc.returncode = os.waitstatus_to_exitcode(status)
    with open(result_path, "w", encoding="utf-8") as fh:
        json.dump({"code": proc.returncode, "wall_s": wall_s,
                   "maxrss_kb": usage.ru_maxrss}, fh)
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
