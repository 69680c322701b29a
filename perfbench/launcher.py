"""Starts the benchmark's CLI children and reports what each one used.

Linux charges a child's memory from before its exec, a copy of its
parent's, to the child's peak RSS. The benchmark process grows as it
generates and checks documents, so it does not start the children
itself: this process stays small, and the peaks it reports are the
children's own.

Each line on stdin is one request,
{"argv": [...], "stdout": PATH, "timeout": SECONDS, "env": {...}, "cwd": PATH},
answered by one line on stdout: [exit code, wall seconds, peak RSS in KiB].
A child past its timeout is killed; its exit code is then -9.
"""

import json
import os
import signal
import subprocess
import sys
import threading
import time


def main() -> None:
    for line in sys.stdin:
        request = json.loads(line)
        with open(request["stdout"], "w", encoding="utf-8") as out:
            start = time.perf_counter()
            child = subprocess.Popen(request["argv"], stdin=subprocess.DEVNULL, stdout=out,
                                     stderr=subprocess.DEVNULL,
                                     env=request["env"], cwd=request["cwd"])
            killer = threading.Timer(request["timeout"], os.kill, (child.pid, signal.SIGKILL))
            killer.start()
            try:
                _, status, usage = os.wait4(child.pid, 0)
            except BaseException:
                child.kill()
                child.wait()
                raise
            finally:
                killer.cancel()
            wall = time.perf_counter() - start
        child.returncode = os.waitstatus_to_exitcode(status)
        print(json.dumps([child.returncode, wall, usage.ru_maxrss]), flush=True)


if __name__ == "__main__":
    main()
