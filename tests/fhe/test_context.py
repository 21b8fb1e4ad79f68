"""Tests for encryption, decryption and key provisioning."""

from __future__ import annotations

import numpy as np
import pytest

from repro.fhe import CkksContext, fxhenn_cifar10_params


def test_encrypt_decrypt_roundtrip(ctx):
    rng = np.random.default_rng(10)
    values = rng.uniform(-5, 5, ctx.slot_count)
    ct = ctx.encrypt_values(values)
    out = ctx.decrypt_values(ct)
    assert np.allclose(out, values, atol=1e-3)


def test_fresh_ciphertext_shape(ctx):
    ct = ctx.encrypt_values(np.ones(4))
    assert ct.size == 2
    assert ct.level == ctx.params.level
    assert ct.scale == ctx.scale


def test_encrypt_at_lower_level(ctx):
    values = np.array([1.0, -2.0, 3.0])
    ct = ctx.encrypt_values(values, level=2)
    assert ct.level == 2
    assert np.allclose(ctx.decrypt_values(ct)[:3], values, atol=1e-3)


def test_encryption_is_randomized(ctx):
    pt = ctx.encode(np.ones(4))
    ct1 = ctx.encrypt(pt)
    ct2 = ctx.encrypt(pt)
    assert not np.array_equal(
        ct1.components[0].residues, ct2.components[0].residues
    )
    assert np.allclose(ctx.decrypt_values(ct1), ctx.decrypt_values(ct2), atol=1e-3)


def test_decrypt_with_wrong_key_garbles(small_params):
    a = CkksContext(small_params, seed=1)
    b = CkksContext(small_params, seed=2)
    values = np.full(8, 3.0)
    ct = a.encrypt_values(values)
    wrong = b.decrypt_values(ct)[:8]
    assert not np.allclose(wrong, values, atol=1.0)


def test_deterministic_under_seed(small_params):
    a = CkksContext(small_params, seed=99)
    b = CkksContext(small_params, seed=99)
    ct_a = a.encrypt_values(np.ones(4))
    ct_b = b.encrypt_values(np.ones(4))
    assert np.array_equal(ct_a.components[0].residues, ct_b.components[0].residues)


def test_encrypt_is_pinned_to_its_formula(small_params):
    """``encrypt`` is ``(b*u + e0 + m, a*u + e1)`` with ``u, e0, e1``
    drawn in that order from the context RNG, bit for bit."""
    from repro.fhe.sampling import sample_gaussian, sample_ternary

    ctx = CkksContext(small_params, seed=21)
    pt = ctx.encode(np.random.default_rng(22).uniform(-1, 1, 40), level=3)
    basis = pt.basis
    ctx.rng = np.random.default_rng(23)
    u = sample_ternary(basis, ctx.rng).to_ntt()
    e0 = sample_gaussian(basis, ctx.rng, small_params.error_std).to_ntt()
    e1 = sample_gaussian(basis, ctx.rng, small_params.error_std).to_ntt()
    m = pt.poly.to_ntt()
    want = (
        ctx.public_key.b.drop_to_basis(basis) * u + e0 + m,
        ctx.public_key.a.drop_to_basis(basis) * u + e1,
    )
    ctx.rng = np.random.default_rng(23)
    ct = ctx.encrypt(pt)
    assert ct.scale == pt.scale
    for got, exp in zip(ct.components, want):
        assert got.is_ntt
        assert np.array_equal(got.residues, exp.residues)


def test_encrypt_shares_one_forward_ntt_between_e0_and_m(small_params):
    """A coefficient-form message is added to ``e0`` before the transform:
    three forward NTTs per encryption instead of four, and the ciphertext
    bits equal those of an NTT-form message (the four-NTT formula)."""
    from repro import obs
    from repro.fhe import Plaintext

    ctx = CkksContext(small_params, seed=21)
    pt = ctx.encode(np.random.default_rng(22).uniform(-1, 1, 40), level=3)
    assert not pt.poly.is_ntt
    rows = obs.get_registry().counter("ntt_transform_rows", direction="forward")
    before = rows.value
    ctx.rng = np.random.default_rng(23)
    merged = ctx.encrypt(pt)
    assert rows.value - before == 3 * pt.basis.level
    ctx.rng = np.random.default_rng(23)
    separate = ctx.encrypt(Plaintext(poly=pt.poly.to_ntt(), scale=pt.scale))
    for got, exp in zip(merged.components, separate.components):
        assert np.array_equal(got.residues, exp.residues)


def test_model_only_params_rejected():
    with pytest.raises(ValueError):
        CkksContext(fxhenn_cifar10_params())


def test_ensure_keys_idempotent(ctx):
    before = dict(ctx.relin_keys)
    ctx.ensure_relin_keys()
    assert {k: id(v) for k, v in ctx.relin_keys.items()} == {
        k: id(v) for k, v in before.items()
    }
    before_galois = dict(ctx.galois_keys.keys)
    ctx.ensure_galois_keys([1, 2])
    assert {k: id(v) for k, v in ctx.galois_keys.keys.items()} == {
        k: id(v) for k, v in before_galois.items()
    }


def test_galois_key_lookup_error(ctx):
    with pytest.raises(KeyError, match="no Galois key"):
        ctx.galois_keys.get(3331, 1)


def test_ciphertext_byte_size(ctx):
    ct = ctx.encrypt_values(np.ones(4))
    n = ctx.params.poly_degree
    assert ct.byte_size() == 2 * ctx.params.level * n * 8


def test_noise_budget_survives_depth(small_params):
    """A fresh encryption decrypts accurately even at the lowest level."""
    ctx = CkksContext(small_params, seed=5)
    values = np.linspace(-1, 1, 16)
    ct = ctx.encrypt_values(values, level=1)
    assert np.allclose(ctx.decrypt_values(ct)[:16], values, atol=1e-3)
