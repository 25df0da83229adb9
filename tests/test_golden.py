"""Golden bytes: the sha256 of the CSVs of three small CLI runs.

Each run is a fresh interpreter with BLAS pinned to one thread, so the
digests do not depend on the machine's core count, and pinned to one set of
CPU kernels, OpenBLAS's Haswell core (AVX2) and numpy's SIMD dispatch up to
X86_V3, so they do not depend on the SIMD width the host offers either: the
last bits of a rate move with the kernel. A failed digest names the kernels
its runs got, so a host without AVX2, which cannot run the pinned ones, says
so. A change that moves any output byte (a rate, an iteration count, a row)
fails here; if it does so on purpose, it says so and re-pins the digest it
moved.
"""

import ctypes
import hashlib
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
import yaml

import iegirs
from iegirs.config import ScenarioConfig

BLAS_PIN = {"OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1", "MKL_NUM_THREADS": "1",
            "VECLIB_MAXIMUM_THREADS": "1", "NUMEXPR_NUM_THREADS": "1"}
KERNEL_PIN = {"OPENBLAS_CORETYPE": "Haswell",
              "NPY_DISABLE_CPU_FEATURES": "X86_V4 AVX512_ICL AVX512_SPR"}

# command, output files, sha256 of each file in order
GOLDEN = {
    # desk scale (N = 1024, Q = 4), all five schemes
    "simulate": (["simulate", "--seed", "7", "--trials", "2", "--out", "{tmp}/sim.csv",
                  "--quiet"],
                 ["sim.csv"],
                 ["8e268462ecda2795923a7208363a9a6378626dacfbbac5d48ca615e4bef1566b"]),
    # Q = 4 and Q == N = 16, all five schemes
    "sweep": (["sweep", "--config", "{tmp}/small.yaml", "--axis", "groups", "--values", "4,16",
               "--out", "{tmp}/sweep.csv", "--quiet"],
              ["sweep.csv", "sweep_agg.csv"],
              ["1a4bd3c6ae7cbbd7e0241d6d79e2c877772ffc478e99453af76a0b4339881bc6",
               "376a150a3afeead7bac7abb5517ebde22848007585d042455cdf15c0e8f8ae2c"]),
    "asymptotics": (["asymptotics", "--seed", "7", "--trials", "7", "--out", "{tmp}/asym.csv"],
                    ["asym.csv"],
                    ["040fee6f6eb59abe080118b7d1521e7d4ef24063f35d0f58590e8137cf4f8eb2"]),
}


def _pinned_env():
    return dict(os.environ, **BLAS_PIN, **KERNEL_PIN,
                PYTHONPATH=str(Path(iegirs.__file__).resolve().parents[1]))


def _run_cli(args, tmp):
    (tmp / "small.yaml").write_text(yaml.safe_dump(ScenarioConfig(N=16, Q=4, trials=2,
                                                                  seed=7).to_dict()))
    subprocess.run([sys.executable, "-m", "iegirs.cli", *(a.format(tmp=tmp) for a in args)],
                   capture_output=True, text=True, check=True, env=_pinned_env())


def _kernels():
    """The CPU kernels of this process: the OpenBLAS core (OPENBLAS_CORETYPE forces one) and
    numpy's SIMD targets (NPY_DISABLE_CPU_FEATURES turns some off)."""
    core = "unknown"
    for lib in (Path(np.__file__).resolve().parents[1] / "numpy.libs").glob("*openblas*"):
        corename = getattr(ctypes.CDLL(str(lib)), "scipy_openblas_get_corename64_", None)
        if corename is not None:
            corename.argtypes, corename.restype = [], ctypes.c_char_p
            core = corename().decode()
    umath = (getattr(np, "_core", None) or np.core)._multiarray_umath     # np.core before numpy 2
    enabled = [f for f in umath.__cpu_dispatch__ if umath.__cpu_features__.get(f)]
    return (f"OpenBLAS core {core}; numpy baseline {' '.join(umath.__cpu_baseline__)}, "
            f"dispatch {' '.join(umath.__cpu_dispatch__)} (enabled: {' '.join(enabled) or 'none'})")


def _run_kernels():
    """_kernels() of a fresh interpreter in the environment of the CLI runs."""
    return subprocess.run([sys.executable, __file__], capture_output=True, text=True,
                          check=True, env=_pinned_env()).stdout.strip()


@pytest.mark.parametrize("name", GOLDEN)
def test_csv_bytes_pinned(name, tmp_path):
    args, files, digests = GOLDEN[name]
    _run_cli(args, tmp_path)
    got = [hashlib.sha256((tmp_path / f).read_bytes()).hexdigest() for f in files]
    assert got == digests, ("digests differ from the pins, made on OpenBLAS core Haswell with "
                            f"numpy dispatch up to X86_V3; these runs: {_run_kernels()}")


if __name__ == "__main__":
    print(_kernels())
