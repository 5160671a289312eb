"""Keep this process's CPU busy at idle priority until the parent exits.

    python3 perfbench/idle_spin.py

Started by ``harness.idle_spinner()`` on the CPU the benchmark is pinned to.
At ``SCHED_IDLE`` it runs only when nothing else on that CPU can, so the
virtual CPU never halts between two steps of a request and the program's
wake-ups are context switches, not a halted virtual CPU's wake-up.
"""

import ctypes
import os
import signal

try:
    # Die with the parent, however it ends.
    ctypes.CDLL(None, use_errno=True).prctl(1, signal.SIGKILL)  # PR_SET_PDEATHSIG
except (OSError, AttributeError):
    pass
try:
    os.sched_setscheduler(0, os.SCHED_IDLE, os.sched_param(0))
except (OSError, AttributeError):
    os.nice(19)
parent = os.getppid()
while os.getppid() == parent:
    for _ in range(100_000):
        pass
