"""Start the benchmark's commands from a small process, so each peak RSS is the command's own.

On Linux a process's peak RSS can read no lower than the RSS of the process it
was forked from, because exec carries the old memory's high-water mark over.
run.py holds numpy and the outputs it checks, so it starts commands through
this process, which imports nothing heavy.

Reads one JSON request per stdin line, ``{"argv": [...], "log": path}``, runs
the command to completion with stdout and stderr in the log, and answers one
JSON line ``{"rc", "start", "end", "rss_kb"}`` (``time.perf_counter`` times).
"""

import json
import os
import subprocess
import sys
import time


def main() -> int:
    for line in sys.stdin:
        req = json.loads(line)
        with open(req["log"], "wb") as fh:
            start = time.perf_counter()
            proc = subprocess.Popen(req["argv"], stdout=fh, stderr=subprocess.STDOUT)
            try:
                _, status, usage = os.wait4(proc.pid, 0)
            except BaseException:
                proc.kill()
                proc.wait()
                raise
            end = time.perf_counter()
        proc.returncode = os.waitstatus_to_exitcode(status)
        print(json.dumps({"rc": proc.returncode, "start": start, "end": end,
                          "rss_kb": usage.ru_maxrss}), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
