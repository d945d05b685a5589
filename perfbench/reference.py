"""A fixed reference kernel that measures how fast the host runs right now.

On a shared host the CPU speed a process gets drifts by 20% and more over
seconds to minutes, and it moves the Python loops, numpy passes and LAPACK
calls of rtgmi together.  The benchmark therefore times this kernel next to
every job and set-up, and scales their CPU seconds to the kernel's nominal
speed (see ``NOMINAL_S``).

The kernel mixes the three kinds of work rtgmi does, each about a third of
its time: an interpreted Python loop, elementwise numpy passes over arrays
larger than the L2 cache, and a LAPACK Cholesky.  It runs in a process of
its own, so it neither adds to the program's peak RSS nor depends on the
heap the program leaves behind, and it allocates nothing while timed.

Run as a script it serves samples: each line on stdin holds a repetition
count, and each answer on stdout is the mean CPU seconds per repetition.
It exits at the end of stdin.
"""

import os
import subprocess
import sys
import time

# CPU seconds of one repetition on a quiet 2-vCPU Intel Xeon host with one
# BLAS thread; a reported time is CPU seconds * NOMINAL_S / sampled seconds
NOMINAL_S = 0.1
PY_STEPS = 360_000
ARRAY_LEN = 1 << 21        # 16 MiB per float64 array
ARRAY_PASSES = 3
CHOL_N = 384
CHOL_REPS = 30


class Kernel:
    def __init__(self):
        import numpy as np
        from scipy.linalg import lapack
        self._np, self._potrf = np, lapack.dpotrf
        rng = np.random.default_rng(0)
        self.a = rng.standard_normal(ARRAY_LEN)
        self.b = rng.standard_normal(ARRAY_LEN)
        self.t = np.empty(ARRAY_LEN)
        m = rng.standard_normal((CHOL_N, CHOL_N))
        self.spd = np.asfortranarray(m @ m.T + CHOL_N * np.eye(CHOL_N))
        self.work = np.empty_like(self.spd, order="F")
        self.parts()  # first touch of every page and code path

    def parts(self):
        """CPU seconds of the loop, the array passes and the Cholesky."""
        np, t = self._np, self.t
        out = []
        start = time.process_time()
        s = 0
        for i in range(PY_STEPS):
            s += i * i
        out.append(time.process_time() - start)
        start = time.process_time()
        for _ in range(ARRAY_PASSES):
            np.multiply(self.a, self.b, out=t)
            np.add(t, self.a, out=t)
            np.exp(t, out=t)
        out.append(time.process_time() - start)
        start = time.process_time()
        for _ in range(CHOL_REPS):
            self.work[...] = self.spd
            _, info = self._potrf(self.work, lower=1, overwrite_a=1)
            if info != 0:
                raise RuntimeError(f"dpotrf failed with info {info}")
        out.append(time.process_time() - start)
        return out


class Reference:
    """The kernel in a child process; ``sample(reps)`` gives seconds per rep.

    Use as a context manager: leaving it closes the child's stdin and waits
    for the child to end.  The constructor returns once the child is ready,
    so its start-up overlaps nothing that is timed.  ``env`` must pin the
    BLAS threads as the workers' does."""

    def __init__(self, env=None):
        self._proc = subprocess.Popen(
            [sys.executable, os.path.abspath(__file__)], stdin=subprocess.PIPE,
            stdout=subprocess.PIPE, text=True, env=env)
        try:
            self.sample(1)
        except BaseException:
            self.__exit__(None, None, None)
            raise

    def sample(self, reps=1):
        self._proc.stdin.write(f"{max(int(reps), 1)}\n")
        self._proc.stdin.flush()
        line = self._proc.stdout.readline()
        if not line:
            raise RuntimeError(f"reference kernel exited with {self._proc.poll()}")
        return float(line)

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        try:
            self._proc.stdin.close()
            self._proc.wait(timeout=10)
        except (OSError, subprocess.TimeoutExpired):
            self._proc.kill()
            self._proc.wait()
        self._proc.stdout.close()


def _serve():
    kernel = Kernel()
    for line in sys.stdin:
        reps = int(line)
        total = sum(sum(kernel.parts()) for _ in range(reps))
        print(repr(total / reps), flush=True)


if __name__ == "__main__":
    _serve()
