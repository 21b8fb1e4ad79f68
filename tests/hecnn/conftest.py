"""Fixtures for the HE-CNN tests: a tiny functional model + context."""

from __future__ import annotations

import numpy as np
import pytest

from repro.fhe import CkksContext, tiny_test_params
from repro.hecnn import (
    NetworkBuilder,
    fxhenn_cifar10_model,
    fxhenn_mnist_model,
    tiny_mnist_model,
)


@pytest.fixture(scope="session")
def tiny_params():
    return tiny_test_params(poly_degree=512, level=7)


@pytest.fixture(scope="session")
def tiny_model(tiny_params):
    return tiny_mnist_model(seed=3, params=tiny_params)


@pytest.fixture(scope="session")
def tiny_ctx(tiny_params, tiny_model) -> CkksContext:
    ctx = CkksContext(tiny_params, seed=11)
    tiny_model.provision_keys(ctx)
    return ctx


@pytest.fixture(scope="session")
def mnist_model():
    """Full-size FxHENN-MNIST (trace-only in most tests)."""
    return fxhenn_mnist_model(seed=0)


@pytest.fixture(scope="session")
def cifar_model():
    """Full-size FxHENN-CIFAR10 (trace-only)."""
    return fxhenn_cifar10_model(seed=0)


@pytest.fixture()
def tiny_image() -> np.ndarray:
    return np.random.default_rng(5).uniform(0, 1, (1, 8, 8))


@pytest.fixture(scope="session")
def diag_net(tiny_params):
    """N=512 net whose Fc1 input (2 maps x 10x10 = 200 values) pads to all
    256 slots: ``copies == 1``, so Fc1 takes the diagonal (BSGS) regime
    with m' = 32 diagonals (b1 = 8, G = 4)."""
    return (
        NetworkBuilder("Diag-512", tiny_params, seed=6)
        .conv(out_channels=2, kernel_size=3, stride=1, in_channels=1,
              in_size=12)
        .square()
        .dense(20)
        .square()
        .dense(4)
        .build()
    )


@pytest.fixture(scope="session")
def diag_ctx(tiny_params, diag_net) -> CkksContext:
    ctx = CkksContext(tiny_params, seed=17)
    diag_net.provision_keys(ctx)
    return ctx


@pytest.fixture(scope="session")
def pool_params():
    return tiny_test_params(poly_degree=1024, level=7)


@pytest.fixture(scope="session")
def pooled_net(pool_params):
    return (
        NetworkBuilder("pool-demo", pool_params, seed=4)
        .conv(out_channels=2, kernel_size=3, stride=1, in_channels=1, in_size=10)
        .average_pool(2)
        .square()
        .dense(6)
        .build()
    )
