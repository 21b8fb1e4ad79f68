"""End-to-end regression: the production path leaves encrypted inference
bit-exact.

Encrypts once, then runs the same ciphertexts through the network on the
default kernel backend and on the per-prime ``reference`` oracle: the
output ciphertexts must match bit for bit (the server side is
deterministic and both backends run the same algorithms, so they also
perform the same NTT row-transforms), and the result must decrypt to the
plaintext reference.  The warm plaintext cache must save transforms
against a cold run.

Hoisted rotate-folds are the one *algorithm-level* choice — a hoisted fold
group shares a single rescale, so its rounding order differs from the
sequential walk.  They are regression-tested against a context provisioned
without composite Galois keys, which is the sequential fallback path, for
numerical equivalence and a transform-row reduction.
"""

from __future__ import annotations

import numpy as np

from repro import obs
from repro.fhe import CkksContext, Evaluator, kernels, ops


def _component_residues(cts):
    return [
        comp.to_ntt().residues.copy()
        for ct in cts
        for comp in ct.components
    ]


def _transform_rows() -> int:
    reg = obs.get_registry()
    return sum(
        reg.counter("ntt_transform_rows", direction=d).value
        for d in ("forward", "inverse")
    )


def _forward(model, ctx, encrypted, warm: bool):
    """One forward pass from a cleared plaintext cache (after one warm-up
    pass when ``warm``); returns the outputs and the NTT rows it used."""
    ctx.clear_plaintext_cache()
    if warm:
        model.forward_encrypted(Evaluator(ctx), encrypted)
    obs.reset()
    out = model.forward_encrypted(Evaluator(ctx), encrypted)
    return out, _transform_rows()


def test_fastpath_forward_bit_identical_and_fewer_transforms(
    tiny_model, tiny_ctx, tiny_image
):
    encrypted = tiny_model.encrypt_input(tiny_ctx, tiny_image)

    with kernels.using_backend("reference"):
        ref_out, ref_rows = _forward(tiny_model, tiny_ctx, encrypted, True)
    fast_out, fast_rows = _forward(tiny_model, tiny_ctx, encrypted, True)

    # Bit-identical ciphertexts out of the whole network.
    assert len(fast_out) == len(ref_out)
    for f, s in zip(
        _component_residues(fast_out), _component_residues(ref_out)
    ):
        assert np.array_equal(f, s)
    # Same algorithms, so the same NTT row-transforms...
    assert fast_rows == ref_rows
    # ...and the warm plaintext cache saves transforms against a cold run.
    _, cold_rows = _forward(tiny_model, tiny_ctx, encrypted, False)
    assert fast_rows < cold_rows

    # And the encrypted result still decrypts to the plaintext reference.
    layout = tiny_model.layers[-1].output_layout
    decrypted = layout.extract(
        [tiny_ctx.decrypt_values(ct) for ct in fast_out]
    )
    reference = tiny_model.infer_plain(tiny_image)
    assert np.max(np.abs(decrypted - reference)) < 0.05


def test_hoisted_rotations_equivalent_and_fewer_transforms(
    tiny_model, tiny_params, tiny_image, monkeypatch
):
    """The hoisted-rotation fold matches the sequential fallback (no
    composite keys provisioned) numerically and trims the transform-row
    count."""
    ctx = CkksContext(tiny_params, seed=11)
    with monkeypatch.context() as patch:
        # Provision only the logical rotation steps (a one-step group has
        # no composites): every hoisted group misses a composite key and
        # rotate_fold walks sequentially.
        patch.setattr(ops, "_FOLD_GROUP", 1)
        tiny_model.provision_keys(ctx)
    encrypted = tiny_model.encrypt_input(ctx, tiny_image)
    seq_out, seq_rows = _forward(tiny_model, ctx, encrypted, True)

    tiny_model.provision_keys(ctx)  # adds the composite keys
    hoisted_out, hoisted_rows = _forward(tiny_model, ctx, encrypted, True)

    layout = tiny_model.layers[-1].output_layout
    seq_vals = layout.extract([ctx.decrypt_values(ct) for ct in seq_out])
    hoisted_vals = layout.extract(
        [ctx.decrypt_values(ct) for ct in hoisted_out]
    )
    # Same computation up to rescale rounding order: both stay within the
    # CKKS noise budget of each other and of the plaintext reference.
    assert np.max(np.abs(hoisted_vals - seq_vals)) < 0.02
    reference = tiny_model.infer_plain(tiny_image)
    assert np.max(np.abs(hoisted_vals - reference)) < 0.05
    assert hoisted_rows < seq_rows


def test_cold_cache_forward_matches_warm(tiny_model, tiny_ctx, tiny_image):
    """First inference (cache misses) and later ones agree exactly."""
    encrypted = tiny_model.encrypt_input(tiny_ctx, tiny_image)
    tiny_ctx.clear_plaintext_cache()
    cold = tiny_model.forward_encrypted(Evaluator(tiny_ctx), encrypted)
    warm = tiny_model.forward_encrypted(Evaluator(tiny_ctx), encrypted)
    for f, s in zip(_component_residues(cold), _component_residues(warm)):
        assert np.array_equal(f, s)
