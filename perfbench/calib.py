"""Host-speed calibration kernels for the speclat benchmark.

On a shared machine the speed of a core drifts by 30% or more over
minutes, so a run's times say as much about the neighbours as about the
program.  Between passes the workload process runs a small kernel that
does the same kind of work as the workload, written here and never
changed with the program, and every reported time is scaled by
``REFERENCE_S[workload] / median kernel time`` of that run: seconds at the
reference box's nominal speed.  A change to the program moves the
workload's times but not the kernel's.

Each kernel takes about 10 ms.  Workloads that mix numpy, big-integer or
file work with Python loops run two.
"""

from __future__ import annotations

import argparse
import json
import os
import time

import numpy as np


def python_ints(_workdir):
    """Row elimination modulo a word-size prime on a 72x72 list matrix,
    like the Hessenberg charpoly's inner loop."""
    p, m = 2**61 - 1, 72
    h = [[(i * 31 + j * 17 + 1) % p for j in range(m)] for i in range(m)]
    for k in range(m - 1):
        inv = pow(h[k][k] or 1, -1, p)
        hk = h[k]
        for i in range(k + 1, m):
            f = h[i][k] * inv % p
            hi = h[i]
            for j in range(k, m):
                hi[j] = (hi[j] - f * hk[j]) % p


def bigint_array(_workdir):
    """Shift-and-add passes over a 64x64 object array of big integers, like
    the folded moment sweep."""
    acc = np.empty((64, 64), dtype=object)
    acc[...] = [[3**700 + i * 64 + j for j in range(64)] for i in range(64)]
    for _ in range(2):
        out = np.zeros_like(acc)
        for shift in ((0, 0), (0, 1), (1, 0), (0, -1), (-1, 0), (1, 1), (-1, -1)):
            out += np.roll(acc, shift, axis=(0, 1))
        acc = out


def float_array(_workdir):
    """Complex exponentials, a sort and a Python loop over doubles, like
    the character sweep, the spectrum clustering and the walk enumeration."""
    x = np.arange(1 << 16) * (2 * np.pi / (1 << 16))
    v = np.sort((np.exp(1j * x) + np.exp(3j * x)).real)
    run = 0
    for a, b in zip(v[:15000].tolist(), v[1:15001].tolist()):
        if b - a > 1e-9:
            run += 1


def cli_io(workdir):
    """Parser construction, a JSON round trip and an atomic file write, the
    fixed costs of one short CLI job; repeated twice."""
    record = {"payload": {"values": [str(3**k) for k in range(400)]}}
    path = os.path.join(workdir, "calib.json")
    for _ in range(2):
        parser = argparse.ArgumentParser(prog="calib")
        sub = parser.add_subparsers(dest="command")
        for name in ("a", "b", "c", "d", "e", "f"):
            p = sub.add_parser(name)
            for flag in ("--config", "--out", "--format", "--cache-dir", "--n", "--k"):
                p.add_argument(flag)
        parser.parse_args(["c", "--config", "x", "--n", "3"])
        text = json.dumps(record, sort_keys=True, indent=2)
        with open(path + ".tmp", "w") as fh:
            fh.write(text)
        os.replace(path + ".tmp", path)
        with open(path) as fh:
            json.load(fh)
    os.unlink(path)


# set-up (interpreter start and imports) is scaled by the plain-Python
# kernel, the same for every workload
KERNELS = {
    "exact-bn": (python_ints,),
    "moment-series": (bigint_array, python_ints),
    "torus-float": (float_array, python_ints),
    "cli-cache": (cli_io, python_ints),
    "setup": (python_ints,),
}
# median kernel seconds on the reference box (2-core x86 VM, Python 3.11)
REFERENCE_S = {"exact-bn": 0.012, "moment-series": 0.025, "torus-float": 0.021, "cli-cache": 0.0165,
               "setup": 0.012}


def kernel_s(kind, workdir):
    """Seconds taken by the calibration kernels of a workload (or of
    ``setup``), run once."""
    t0 = time.perf_counter()
    for kernel in KERNELS[kind]:
        kernel(workdir)
    return time.perf_counter() - t0
