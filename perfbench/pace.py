"""Host pace: round and solve times are reported at a reference pace.

The host's speed drifts by up to ±20% over seconds to minutes, and the
drift is host-wide (see README, *Run-to-run spread*).  A raw time of a few
seconds therefore measures the host as much as the program.  So a fixed
calibration loop is timed beside the timed work, and each time is divided
by the host's slowness there, the loop's time over its reference time:

    reported = raw seconds / (calibration seconds / REFERENCE seconds)

The loops use numpy and scipy only, never ``mpcg``, so a change to the
program cannot move them.  Each loop resembles one kind of workload, since
the drift differs by resource: the ``small`` loop is per-call overhead on a
cache-resident n = 400 system, like the desk solves; the ``large`` loop
adds products with an n = 99856 system beyond L2, like the large solves.
A loop of the wrong kind tracks the drift worse than no loop at all.
"""

from __future__ import annotations

import statistics
import time

import numpy as np
import scipy.sparse as sp

# (grid side, iterations) of each part of a loop, and the loop's time at
# the reference pace: about its median on the README host, 2026-10-18.
PARTS = {"small": ((20, 3000),), "large": ((20, 3000), (316, 120))}
REFERENCE_S = {"small": 0.066, "large": 0.198}


def _laplacian(side: int) -> sp.csr_matrix:
    """2-D five-point Laplacian, shifted so that it is well conditioned."""
    T = sp.diags([-1.0, 2.05, -1.0], [-1, 0, 1], shape=(side, side))
    I = sp.eye(side)
    return (sp.kron(I, T) + sp.kron(T, I)).tocsr()


def _loop(M: sp.csr_matrix, iterations: int) -> float:
    """Normalised power iteration with a Rayleigh quotient per step: one
    product, two dot products, a norm and two vector updates."""
    p = np.ones(M.shape[0])
    rq = 0.0
    for _ in range(iterations):
        q = M @ p
        rq = float(p @ q) / float(p @ p)
        p = q / np.linalg.norm(q)
    return rq


class Pace:
    """The calibration loop of one kind: ``small`` for the desk workloads,
    ``large`` for the large one."""

    def __init__(self, kind: str):
        self.parts = [(_laplacian(side), iterations) for side, iterations in PARTS[kind]]
        self.reference = REFERENCE_S[kind]
        self.sample()  # warm up

    def sample(self) -> float:
        """Run the loop once; the host's slowness, 1.0 at the reference pace."""
        t0 = time.perf_counter()
        for M, iterations in self.parts:
            _loop(M, iterations)
        return (time.perf_counter() - t0) / self.reference


def paced(parts: list[dict], key: str) -> float:
    """The mean raw time ``key`` over the parts (rounds, use stage) that time
    it, divided by the mean slowness of the samples taken in those parts.
    Means, not medians: the drift is smooth, and a median of a few short
    samples snaps to whichever of them the host happened to favour.  Parts
    that take no samples give their raw time."""
    timed = [part for part in parts if key in part["raw"]]
    raw = statistics.mean(part["raw"][key] for part in timed)
    samples = [s for part in timed for s in part["slowness"]]
    return raw / statistics.mean(samples) if samples else raw
