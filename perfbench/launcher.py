"""Small stdlib-only process that starts the benchmark's child processes.

Linux carries a process's peak RSS across fork and exec, so a child started
by the benchmark itself (numpy, scipy and the checker loaded) would report
at least the benchmark's own RSS.  Children started from this small process
report their own peak.

Protocol: one JSON request per stdin line, {"argv", "cwd", "env", "stdout",
"stderr", "timeout"}; one JSON reply per stdout line, {"code", "wall",
"cpu", "rss_kb"}, where wall runs from just before the start to the reap.
"""

import json
import os
import subprocess
import sys
import threading
import time


def run(request: dict) -> dict:
    with open(request["stdout"], "wb") as out, open(request["stderr"], "wb") as err:
        start = time.perf_counter()
        proc = subprocess.Popen(
            request["argv"], cwd=request["cwd"], env=request["env"], stdout=out, stderr=err
        )
        timer = threading.Timer(request["timeout"], proc.kill)
        timer.start()
        try:
            _, status, usage = os.wait4(proc.pid, 0)
            proc.returncode = os.waitstatus_to_exitcode(status)
        finally:
            timer.cancel()
        wall = time.perf_counter() - start
    return {
        "code": proc.returncode,
        "wall": wall,
        "cpu": usage.ru_utime + usage.ru_stime,
        "rss_kb": usage.ru_maxrss,
    }


def main() -> None:
    for line in sys.stdin:
        print(json.dumps(run(json.loads(line))), flush=True)


if __name__ == "__main__":
    main()
