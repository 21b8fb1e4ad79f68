"""End-to-end network tests: encrypted inference == plaintext reference."""

from __future__ import annotations

import numpy as np
import pytest

from repro.fhe import CkksContext, OperationRecorder, fxhenn_mnist_params
from repro.fhe.keys import GaloisKeys
from repro.hecnn import NetworkBuilder, fxhenn_mnist_model, synthetic_mnist_image


def test_tiny_end_to_end(tiny_model, tiny_ctx, tiny_image):
    plain = tiny_model.infer_plain(tiny_image)
    enc = tiny_model.infer(tiny_ctx, tiny_image)
    assert enc.shape == plain.shape
    assert np.allclose(enc, plain, atol=2e-2)


def test_tiny_argmax_agrees(tiny_model, tiny_ctx):
    rng = np.random.default_rng(77)
    for i in range(3):
        img = rng.uniform(0, 1, (1, 8, 8))
        plain = tiny_model.infer_plain(img)
        enc = tiny_model.infer(tiny_ctx, img)
        assert int(np.argmax(enc)) == int(np.argmax(plain))


def test_recorded_ops_match_trace(tiny_model, tiny_ctx, tiny_image):
    """The analytic trace predicts the executed operations exactly."""
    rec = OperationRecorder()
    tiny_model.infer(tiny_ctx, tiny_image, recorder=rec)
    trace = tiny_model.trace()
    for layer_trace in trace.layers:
        assert rec.by_phase[layer_trace.name] == layer_trace.op_counts, (
            layer_trace.name
        )
    assert rec.total == trace.hop_count


def test_entry_levels_account_for_masks(tiny_model):
    levels = tiny_model.layer_entry_levels()
    assert levels[0] == tiny_model.base_level
    diffs = [a - b for a, b in zip(levels, levels[1:])]
    consumed = [layer.levels_consumed for layer in tiny_model.layers[:-1]]
    assert diffs == consumed


def test_network_requires_conv_first(tiny_model):
    from repro.hecnn import HeCnn

    with pytest.raises(ValueError):
        HeCnn(
            name="bad",
            poly_degree=512,
            base_level=7,
            input_packing=tiny_model.input_packing,
            layers=tiny_model.layers[1:],
            plain_reference=tiny_model.plain_reference,
        )


def test_network_rejects_insufficient_level(tiny_model):
    from repro.hecnn import HeCnn

    with pytest.raises(ValueError, match="base_level"):
        HeCnn(
            name="bad",
            poly_degree=512,
            base_level=3,
            input_packing=tiny_model.input_packing,
            layers=tiny_model.layers,
            plain_reference=tiny_model.plain_reference,
        )


def test_context_mismatch_rejected(tiny_model):
    from repro.fhe import tiny_test_params

    other = CkksContext(tiny_test_params(poly_degree=256, level=7), seed=0)
    with pytest.raises(ValueError, match="does not match"):
        tiny_model.encrypt_input(other, np.zeros((1, 8, 8)))


def _fetched_galois_keys(monkeypatch, model, ctx, image) -> set:
    """Run one inference, recording every ``(step, level)`` Galois key
    the forward pass fetches."""
    fetched = set()
    original = GaloisKeys.get

    def get(self, step, level):
        key = original(self, step, level)
        fetched.add((step, level))
        return key

    monkeypatch.setattr(GaloisKeys, "get", get)
    model.infer(ctx, image)
    monkeypatch.undo()
    return fetched


def test_provision_keys_covers_forward(
    tiny_params, tiny_model, tiny_image, monkeypatch
):
    """A fresh context provisioned by the network runs without KeyErrors,
    and holds exactly the keys the forward pass fetches."""
    ctx = CkksContext(tiny_params, seed=123)
    tiny_model.provision_keys(ctx)
    fetched = _fetched_galois_keys(monkeypatch, tiny_model, ctx, tiny_image)
    assert fetched == set(ctx.galois_keys.keys)
    assert fetched == tiny_model.rotation_keys()


@pytest.fixture(scope="module")
def scattered_net(tiny_params):
    """Cnv1 spans two ciphertexts (3 maps x 100 positions > 256 slots), so
    Fc1 is scattered and merged: a mask, then shift-by-one merge rotations
    two levels below its entry."""
    return (
        NetworkBuilder("scattered", tiny_params, seed=8)
        .conv(out_channels=3, kernel_size=3, stride=1, in_channels=1,
              in_size=12)
        .square()
        .dense(4)
        .square()
        .dense(3)
        .build()
    )


@pytest.mark.parametrize("net,params", [
    ("diag_net", "tiny_params"),
    ("pooled_net", "pool_params"),
    ("scattered_net", "tiny_params"),
])
def test_provisioned_keys_are_exactly_the_fetched_keys(
    net, params, request, monkeypatch
):
    """No key the forward pass needs is missing and none goes unused
    (Tiny-MNIST: ``test_provision_keys_covers_forward``)."""
    model = request.getfixturevalue(net)
    params = request.getfixturevalue(params)
    ctx = CkksContext(params, seed=31)
    model.provision_keys(ctx)
    conv = model.input_packing.spec
    image = np.random.default_rng(2).uniform(
        0, 1, (conv.in_channels, conv.in_size, conv.in_size)
    )
    fetched = _fetched_galois_keys(monkeypatch, model, ctx, image)
    assert fetched
    assert fetched == set(ctx.galois_keys.keys)
    assert np.allclose(
        model.infer(ctx, image), model.infer_plain(image), atol=5e-2
    )


@pytest.mark.slow
def test_full_mnist_end_to_end():
    """Full-size FxHENN-MNIST (N=8192, L=7) encrypted inference.

    Uses the paper's exact ring/level parameters; about 10 s on a 2-CPU
    host (keygen, key provisioning and one inference), hence the slow
    marker.
    """
    params = fxhenn_mnist_params()
    model = fxhenn_mnist_model(seed=0, params=params)
    ctx = CkksContext(params, seed=1)
    model.provision_keys(ctx)
    img = synthetic_mnist_image(seed=4)
    plain = model.infer_plain(img)
    enc = model.infer(ctx, img)
    assert np.allclose(enc, plain, atol=5e-2)
    assert int(np.argmax(enc)) == int(np.argmax(plain))
