"""Run one command and report its own wall time and resource usage.

    python3 -S bench/launch.py TIMEOUT PROBE STDOUT STDERR PROGRAM [ARG...]

PROGRAM is an absolute path. PROBE is a kind from bench/probe.py, or
`none`. Prints one JSON line with returncode, wall_s, cpu_s,
maxrss_kib, speed and probes. The command is killed once it has run
TIMEOUT seconds, or when the launcher gets SIGTERM.

With a probe, the launcher times one probe before starting the
command, one after it ends, and one every PROBE_PERIOD_S while it
runs. For those it stops the command (SIGSTOP), so the probe has the
core to itself, and then lets it go on (SIGCONT). wall_s leaves the
stopped spells out; speed is the probe's reference time over its mean
time (see probe.py). Run the launcher on a single core so the probe
times the core the command runs on.

On Linux a child's ru_maxrss starts at the peak RSS of the process that
started it (it is carried over at exec), so the benchmark starts each
measured process from this small launcher, run with -S and importing
little, and not from the larger bench/run.py process.
"""

import json
import os
import select
import signal
import sys
from time import perf_counter

import probe

PROBE_PERIOD_S = 0.5


def send(pidfd, signum):
    """Signal the command through its pidfd, so never a reused pid."""
    try:
        signal.pidfd_send_signal(pidfd, signum)
    except ProcessLookupError:  # it has already been reaped
        pass


def probe_while_stopped(pid, pidfd, kind):
    """Stop the command, time one probe, let it go on.

    Returns the probe's time, or None if the command has exited.
    """
    send(pidfd, signal.SIGSTOP)
    state = os.waitid(os.P_PID, pid, os.WSTOPPED | os.WEXITED | os.WNOWAIT)
    if state.si_code != os.CLD_STOPPED:
        return None
    try:
        return probe.timed(kind)
    finally:
        send(pidfd, signal.SIGCONT)


def main(argv):
    timeout, kind, stdout_path, stderr_path, *command = argv
    deadline = perf_counter() + float(timeout)
    probes = [probe.timed(kind)] if kind != "none" else []
    create = os.O_WRONLY | os.O_CREAT | os.O_TRUNC
    actions = [
        (os.POSIX_SPAWN_OPEN, 0, os.devnull, os.O_RDONLY, 0),
        (os.POSIX_SPAWN_OPEN, 1, stdout_path, create, 0o644),
        (os.POSIX_SPAWN_OPEN, 2, stderr_path, create, 0o644),
    ]
    start = perf_counter()
    pid = os.posix_spawn(command[0], command, os.environ,
                         file_actions=actions)
    pidfd = os.pidfd_open(pid)
    signal.signal(signal.SIGTERM,
                  lambda signum, frame: send(pidfd, signal.SIGKILL))
    stopped_s = 0.0
    while True:
        left = deadline - perf_counter()
        if left <= 0:
            send(pidfd, signal.SIGKILL)
            break
        period = PROBE_PERIOD_S if probes else left
        if select.select([pidfd], [], [], min(period, left))[0]:
            break
        if probes:
            stop = perf_counter()
            probe_s = probe_while_stopped(pid, pidfd, kind)
            stopped_s += perf_counter() - stop
            if probe_s is None:
                break
            probes.append(probe_s)
    _, status, usage = os.wait4(pid, 0)
    wall_s = perf_counter() - start - stopped_s
    os.close(pidfd)
    if probes:
        probes.append(probe.timed(kind))
    print(json.dumps({
        "returncode": os.waitstatus_to_exitcode(status),
        "wall_s": wall_s,
        "cpu_s": usage.ru_utime + usage.ru_stime,
        "maxrss_kib": usage.ru_maxrss,
        "speed": (probe.REFERENCE_S[kind] * len(probes) / sum(probes)
                  if probes else None),
        "probes": len(probes),
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
