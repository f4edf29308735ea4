"""Environment record of a benchmark machine.

Usage: python3 benchmarks/envinfo.py     (prints the record as JSON)

Records nproc, the CPU model and caches, RAM, the Python, numpy, scipy and
mpmath versions, the BLAS library and the thread count it runs with under
the benchmark (run.py sets OPENBLAS_NUM_THREADS to nproc for its
children), and the git revision when the tree is a git checkout.
"""

import glob
import json
import os
import platform
import subprocess
import sys

from run import child_env

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def _read(path):
    try:
        with open(path) as fh:
            return fh.read().strip()
    except OSError:
        return None


def _cpu_model():
    for line in (_read("/proc/cpuinfo") or "").splitlines():
        if line.startswith("model name"):
            return line.split(":", 1)[1].strip()
    return platform.processor() or "unknown"


def _caches():
    out = {}
    for index in sorted(glob.glob("/sys/devices/system/cpu/cpu0/cache/index*")):
        level, kind, size = (_read(os.path.join(index, f)) for f in ("level", "type", "size"))
        if level and size:
            out["L%s%s" % (level, {"Data": "d", "Instruction": "i"}.get(kind, ""))] = size
    return out


def _blas_threads():
    """BLAS library and thread count of a child started the way run.py
    starts one."""
    probe = (
        "import ctypes, glob, json, os, numpy\n"
        "libs = glob.glob(os.path.join(os.path.dirname(numpy.__file__), os.pardir,"
        " 'numpy.libs', '*openblas*'))\n"
        "out = {'blas': [os.path.basename(p) for p in libs], 'threads': None}\n"
        "for p in libs:\n"
        "    lib = ctypes.CDLL(p)\n"
        "    for fn in ('scipy_openblas_get_num_threads64_', 'openblas_get_num_threads64_',"
        " 'openblas_get_num_threads'):\n"
        "        if hasattr(lib, fn):\n"
        "            out['threads'] = getattr(lib, fn)()\n"
        "            break\n"
        "print(json.dumps(out))\n")
    done = subprocess.run([sys.executable, "-c", probe], env=child_env(), capture_output=True,
                          text=True, timeout=60)
    return json.loads(done.stdout) if done.returncode == 0 else {"blas": None, "threads": None}


def _git_rev():
    try:
        done = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                              text=True, timeout=10)
    except OSError:
        return "unknown"
    return done.stdout.strip() if done.returncode == 0 else "unknown"


def _version(module):
    try:
        return __import__(module).__version__
    except ImportError:
        return None


def environment():
    blas = _blas_threads()
    return {
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_model": _cpu_model(),
        "caches": _caches(),
        "ram_mib": os.sysconf("SC_PAGE_SIZE") * os.sysconf("SC_PHYS_PAGES") // 2 ** 20,
        "python": platform.python_version(),
        "numpy": _version("numpy"),
        "scipy": _version("scipy"),
        "mpmath": _version("mpmath"),
        "blas": blas["blas"],
        "blas_threads": blas["threads"],
        "git_rev": _git_rev(),
    }


if __name__ == "__main__":
    print(json.dumps(environment(), indent=1))
