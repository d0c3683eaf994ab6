"""Run one program as the child of this small process and report its usage.

    python3 -I -S perfbench/launch.py CPU TIMEOUT_S PROGRAM [ARG ...]

Linux copies the resident-set high-water mark of the process that calls
exec into the new program's ``ru_maxrss``, so a program started straight
from the benchmark harness would report at least the harness's own RSS.
This launcher imports almost nothing (run it with ``-I -S``), so the
``ru_maxrss`` it reports is the program's own peak whenever that is above
the launcher's few MB.  The program's standard output goes to /dev/null;
standard error and the working directory are inherited.  A program still
running after TIMEOUT_S seconds is killed.  The program is pinned to CPU
(a CPU number; -1 leaves the affinity as inherited).

Prints one line: wall_s cpu_s maxrss_kb exit_code timed_out.
"""

import os
import select
import signal
import sys
import time


def main() -> int:
    cpu = int(sys.argv[1])
    timeout = float(sys.argv[2])
    argv = sys.argv[3:]
    if cpu >= 0:
        os.sched_setaffinity(0, {cpu})
    quiet = [(os.POSIX_SPAWN_OPEN, 1, os.devnull, os.O_WRONLY, 0)]
    start = time.perf_counter()
    pid = os.posix_spawn(argv[0], argv, os.environ, file_actions=quiet)
    pidfd = os.pidfd_open(pid)
    try:
        timed_out = not select.select([pidfd], [], [], timeout)[0]
        if timed_out:
            signal.pidfd_send_signal(pidfd, signal.SIGKILL)
        _, status, usage = os.wait4(pid, 0)
    finally:
        os.close(pidfd)
    wall = time.perf_counter() - start
    print(
        wall,
        usage.ru_utime + usage.ru_stime,
        usage.ru_maxrss,
        os.waitstatus_to_exitcode(status),
        int(timed_out),
    )
    return 0


if __name__ == "__main__":
    sys.exit(main())
