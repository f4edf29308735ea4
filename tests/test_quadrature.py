"""The shipped Gauss-Legendre table: its bytes, its rules, its loader, and
the memory the correlations run saves by not building the rules."""

import hashlib
import os
import subprocess
import sys

import numpy as np
import pytest
from numpy.polynomial.legendre import leggauss

from rg1d import propagators

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SRC = os.path.join(ROOT, "src")
TABLE = os.path.join(SRC, "rg1d", "gauss_legendre.npy")
EPS = np.finfo(float).eps


def test_table_bytes_are_pinned():
    # sha256 of the file as numpy 2.4.6's leggauss(n) wrote it, orders
    # 16, 32, 256 and 512, each order's nodes then its weights
    with open(TABLE, "rb") as fh:
        data = fh.read()
    assert hashlib.sha256(data).hexdigest() == \
        "f034e9c33e57131d01872b844d4265613b6d85c0047c8256eef7c8d84e59d994"


@pytest.mark.parametrize("n", propagators._GL_ORDERS)
def test_rule_matches_leggauss(n):
    # within 8 eps of the unit interval on any host; the golden outputs
    # hold the exact bits where they were captured
    nodes, weights = propagators.gauss_legendre(n)
    ref_nodes, ref_weights = leggauss(n)
    assert nodes.shape == weights.shape == (n,)
    assert np.max(np.abs(nodes - ref_nodes)) <= 8 * EPS
    assert np.max(np.abs(weights - ref_weights)) <= 8 * EPS


@pytest.mark.parametrize("n", propagators._GL_ORDERS)
def test_rule_is_symmetric_positive_and_exact(n):
    nodes, weights = propagators.gauss_legendre(n)
    assert np.array_equal(nodes, -nodes[::-1])
    assert np.all(np.diff(nodes) > 0.0) and -1.0 < nodes[0] and nodes[-1] < 1.0
    assert np.all(weights > 0.0)
    assert abs(np.sum(weights) - 2.0) <= 1e-14
    # the n-point rule integrates every polynomial of degree <= 2n - 1
    # exactly: P_k integrates to 0 for 1 <= k <= 2n - 1 (Bonnet's recurrence)
    prev, cur = np.ones(n), nodes.copy()
    for k in range(1, 2 * n):
        assert abs(np.dot(weights, cur)) <= 1e-13, k
        prev, cur = cur, ((2 * k + 1) * nodes * cur - k * prev) / (k + 1)


def test_loader_returns_shared_read_only_views():
    first = propagators.gauss_legendre(512)
    again = propagators.gauss_legendre(512)
    assert all(a is b for a, b in zip(first, again))
    for arr in first + propagators.gauss_legendre(16):
        assert not arr.flags.writeable
        with pytest.raises(ValueError):
            arr[0] = 0.0
        with pytest.raises(ValueError):
            arr.flags.writeable = True


@pytest.mark.parametrize("n", [0, 1, 17, 64, 1024])
def test_unknown_order_raises(n):
    with pytest.raises(ValueError, match="Gauss-Legendre"):
        propagators.gauss_legendre(n)


def test_correlations_heap_peak_stays_small(tmp_path):
    # tracemalloc's peak over a fresh process's correlations run at the
    # defaults: 1.80 MB from the table; building the 256- and 512-node
    # rules (a dense 512 x 512 eigenproblem) took it to 3.28 MB
    code = ("import sys, tracemalloc, rg1d.cli; tracemalloc.start(); "
            "code = rg1d.cli.main(['correlations', '--out-dir', sys.argv[1]]); "
            "print(tracemalloc.get_traced_memory()[1]); sys.exit(code)")
    done = subprocess.run([sys.executable, "-c", code, str(tmp_path)], capture_output=True,
                          text=True, env=dict(os.environ, PYTHONPATH=SRC))
    assert done.returncode == 0, done.stderr
    peak = int(done.stdout.split()[-1])
    assert peak < 2.5 * 2**20
