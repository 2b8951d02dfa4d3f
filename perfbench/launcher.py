"""Child-process launcher for the end-to-end benchmark run.

``run.py`` starts this process before it builds any corpus, and asks it to
run each subcommand. The peak RSS that ``wait4`` reports for a child starts
from the peak of the address space the child was spawned from, so children
spawned by the (larger) benchmark process would all report the benchmark's
own peak instead of their own.

Protocol: one JSON request per line on stdin, ``[argv, stdout_path,
stderr_path]``; one JSON reply per line on stdout, ``[exit_code, wall_s,
maxrss_kib]``, where the wall time runs from spawn to reap. Children inherit
this process's environment.
"""

import json
import os
import sys
import time

FLAGS = os.O_WRONLY | os.O_CREAT | os.O_TRUNC


def main() -> None:
    for line in sys.stdin:
        argv, stdout, stderr = json.loads(line)
        actions = [
            (os.POSIX_SPAWN_OPEN, 1, stdout, FLAGS, 0o644),
            (os.POSIX_SPAWN_OPEN, 2, stderr, FLAGS, 0o644),
        ]
        start = time.perf_counter()
        pid = os.posix_spawn(argv[0], argv, os.environ, file_actions=actions)
        try:
            _, status, usage = os.wait4(pid, 0)
        except BaseException:
            os.kill(pid, 9)
            os.waitpid(pid, 0)
            raise
        wall = time.perf_counter() - start
        sys.stdout.write(json.dumps([os.waitstatus_to_exitcode(status), wall, usage.ru_maxrss]) + "\n")
        sys.stdout.flush()


if __name__ == "__main__":
    main()
