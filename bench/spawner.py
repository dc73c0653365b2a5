"""Starts the benchmark's children and measures each one; run.py talks to it.

Reads one JSON request per line on stdin, {"argv", "stdout", "stderr"},
runs that child to completion and answers one JSON line with its wall
seconds, ru_maxrss in KiB from os.wait4, and exit code. It exits at the
end of its input.

Why a separate process: a child started by fork or vfork begins in its
parent's memory, and Linux carries that memory's high-water mark into the
child's ru_maxrss. run.py grows while it checks large reports, so its own
children would report its peak instead of theirs. This process imports
nothing heavy and stays a few MiB.
"""

import json
import os
import subprocess
import sys
import time


def main() -> int:
    for line in sys.stdin:
        request = json.loads(line)
        with open(request["stdout"], "wb") as out, open(request["stderr"], "wb") as err:
            started = time.perf_counter()
            proc = subprocess.Popen(request["argv"], stdout=out, stderr=err)
            _, status, usage = os.wait4(proc.pid, 0)
            wall = time.perf_counter() - started
        proc.returncode = os.waitstatus_to_exitcode(status)
        print(json.dumps({"wall": wall, "maxrss_kib": usage.ru_maxrss, "code": proc.returncode}), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
