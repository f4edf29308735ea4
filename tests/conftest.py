"""Shared fixtures and hypothesis settings for the test suite."""

import os

# The ED golden pins hold on two OpenBLAS threads only (ROADMAP item 10):
# the GEMM bits depend on the thread count, which OpenBLAS reads when numpy
# loads, and unset it is one per core.  An explicit setting is kept.
os.environ.setdefault("OPENBLAS_NUM_THREADS", "2")

import numpy as np
import pytest
from hypothesis import HealthCheck, settings

from rg1d import model

# Numeric property tests do real linear algebra per example; keep the example
# count moderate and disable the wall-clock deadline so CI jitter cannot flake.
settings.register_profile(
    "numeric",
    max_examples=25,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)
settings.load_profile("numeric")


@pytest.fixture
def hubbard_params():
    """Small on-site model: lam=0.02, p_F=pi/3, moderate box."""
    return model.ModelParams.from_p_F(
        lam=0.02,
        p_F=np.pi / 3.0,
        potential=model.on_site_potential(1.0),
        beta=64.0,
        L=256,
    )


@pytest.fixture
def free_params():
    """Noninteracting model on the same box."""
    return model.ModelParams.from_p_F(
        lam=0.0,
        p_F=np.pi / 3.0,
        potential=model.on_site_potential(1.0),
        beta=64.0,
        L=256,
    )
