"""Machine-speed calibration: a fixed kernel timed next to every operation.

The shared machines this benchmark runs on change speed by tens of percent
from one second to the next, and superrad's two solvers slow down together
with them.  A kernel that does the same kinds of work, independent of
superrad, is timed just before and just after each operation; the
operation's time t is reported as t * REF_S / c, with c the mean of the
two.  Times then read as seconds on a machine where the kernel takes REF_S,
and the drift largely cancels: over 15 s windows it cut the spread of window
medians from 10-17% to about 3% on a 2-vCPU Xeon with a shared 300 MB L3.
"""

from __future__ import annotations

import time

import numpy as np
import scipy.sparse as sp
import scipy.sparse.linalg as spla
from scipy.integrate import solve_ivp

# The kernel's mean time on the 2-vCPU Xeon (one BLAS thread) on which the
# benchmark was defined.
REF_S = 0.0125


class Calibration:
    """An explicit stiff 7-variable integration, like the cumulant solver's,
    and a complex sparse LU factorisation, like the exact solver's."""

    def __init__(self):
        a = np.diag([-134.0, -0.3, -67.0, -67.0, -1.0, -1.0, -0.6])
        a[0, 3], a[2, 1] = 1.0, 0.5
        self._a = a
        lap = sp.diags([-1.0, 2.0, -1.0], [-1, 0, 1], shape=(40, 40))
        eye = sp.identity(40)
        self._m = (sp.kron(eye, lap) + sp.kron(lap, eye) + 0.1j * sp.identity(1600)).tocsc()

    def sample(self) -> float:
        """Seconds the kernel takes now."""
        started = time.perf_counter()
        solve_ivp(lambda _t, y: self._a @ y, (0.0, 2.0), np.ones(7), method="DOP853",
                  rtol=1e-10, atol=1e-12)
        spla.splu(self._m)
        return time.perf_counter() - started
