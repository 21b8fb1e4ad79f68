"""Homomorphism tests: every evaluator op matches plaintext semantics."""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.fhe import Evaluator, OperationRecorder
from repro.optypes import HeOp
from tests.oracles import chain_sum

ATOL = 5e-3


def _vals(ctx, seed, low=-2.0, high=2.0):
    rng = np.random.default_rng(seed)
    return rng.uniform(low, high, ctx.slot_count)


# -- additions ----------------------------------------------------------------


def test_ccadd(ctx, evaluator):
    a, b = _vals(ctx, 1), _vals(ctx, 2)
    out = ctx.decrypt_values(
        evaluator.add(ctx.encrypt_values(a), ctx.encrypt_values(b))
    )
    assert np.allclose(out, a + b, atol=ATOL)


def test_ccsub(ctx, evaluator):
    a, b = _vals(ctx, 3), _vals(ctx, 4)
    out = ctx.decrypt_values(
        evaluator.sub(ctx.encrypt_values(a), ctx.encrypt_values(b))
    )
    assert np.allclose(out, a - b, atol=ATOL)


def test_pcadd(ctx, evaluator):
    a, b = _vals(ctx, 5), _vals(ctx, 6)
    out = ctx.decrypt_values(
        evaluator.add_plain(ctx.encrypt_values(a), ctx.encode(b))
    )
    assert np.allclose(out, a + b, atol=ATOL)


def test_add_mixed_levels(ctx, evaluator):
    a, b = _vals(ctx, 7), _vals(ctx, 8)
    ct_a = ctx.encrypt_values(a, level=3)
    ct_b = ctx.encrypt_values(b)  # full level
    out = evaluator.add(ct_a, ct_b)
    assert out.level == 3
    assert np.allclose(ctx.decrypt_values(out), a + b, atol=ATOL)


# -- multiplications -------------------------------------------------------------


def test_pcmult_rescale(ctx, evaluator):
    a, b = _vals(ctx, 9), _vals(ctx, 10)
    ct = evaluator.multiply_plain_rescale(ctx.encrypt_values(a), ctx.encode(b))
    assert ct.level == ctx.params.level - 1
    assert np.allclose(ctx.decrypt_values(ct), a * b, atol=ATOL)


def test_ccmult_relinearize_rescale(ctx, evaluator):
    a, b = _vals(ctx, 11, -1, 1), _vals(ctx, 12, -1, 1)
    prod = evaluator.multiply(ctx.encrypt_values(a), ctx.encrypt_values(b))
    assert prod.size == 3
    lin = evaluator.relinearize(prod)
    assert lin.size == 2
    out = evaluator.rescale(lin)
    assert np.allclose(ctx.decrypt_values(out), a * b, atol=ATOL)


def test_three_component_decrypts_without_relin(ctx, evaluator):
    """Decryption handles c0 + c1 s + c2 s^2 directly."""
    a = _vals(ctx, 13, -1, 1)
    prod = evaluator.multiply(ctx.encrypt_values(a), ctx.encrypt_values(a))
    out = ctx.decrypt(prod)
    decoded = ctx.encoder.decode_real(out.poly, out.scale)
    assert np.allclose(decoded, a * a, atol=ATOL)


def test_square(ctx, evaluator):
    a = _vals(ctx, 14, -1.5, 1.5)
    out = evaluator.square_relinearize_rescale(ctx.encrypt_values(a))
    assert np.allclose(ctx.decrypt_values(out), a**2, atol=ATOL)


def test_scale_tracking_through_mult(ctx, evaluator):
    a = _vals(ctx, 15)
    ct = ctx.encrypt_values(a)
    prod = evaluator.multiply_plain(ct, ctx.encode(a))
    assert prod.scale == pytest.approx(ctx.scale * ctx.scale)
    rescaled = evaluator.rescale(prod)
    q_last = ct.basis.primes[-1]
    assert rescaled.scale == pytest.approx(ctx.scale * ctx.scale / q_last)


def test_multiplication_depth_chain(ctx, evaluator):
    """Chain L-1 scale-stationary plaintext multiplications down to level 1."""
    a = _vals(ctx, 16, 0.5, 1.2)
    ct = ctx.encrypt_values(a)
    expected = a.copy()
    for _ in range(ctx.params.level - 1):
        ct = evaluator.multiply_values_rescale(ct, a)
        expected = expected * a
    assert ct.level == 1
    assert ct.scale == pytest.approx(ctx.scale)  # scale-stationary
    assert np.allclose(ctx.decrypt_values(ct), expected, atol=5e-2)


# -- fused PCmult -> Rescale -> CCadd sums ------------------------------------------


def _assert_bit_identical(got, want):
    assert len(got) == len(want)
    for g, w in zip(got, want):
        assert g.level == w.level and g.scale == w.scale
        for gc, wc in zip(g.components, w.components):
            assert gc.is_ntt and wc.is_ntt
            assert np.array_equal(gc.residues, wc.residues)


def _slot_weights(ctx, tag):
    def values(j, i):
        return np.random.default_rng([tag, j, i]).uniform(
            -1, 1, ctx.slot_count
        )
    return values


def _budget(ctx, level):
    from repro.fhe.ops import _lazy_product_budget

    return _lazy_product_budget(max(ctx.basis(level).primes[:-1]))


@pytest.mark.parametrize("level", [4, 3])
@pytest.mark.parametrize("k", ["one", "typical", "over-budget"])
def test_multiply_values_rescale_sum_bit_identical_to_chain(ctx, level, k):
    k = {"one": 1, "typical": 9, "over-budget": _budget(ctx, level) + 3}[k]
    base = [ctx.encrypt_values(_vals(ctx, 50 + s), level=level)
            for s in range(3)]
    cts = [base[i % 3] for i in range(k)]
    values = _slot_weights(ctx, 1000 * level + k)
    key = ("sum-test", level, k)
    got = Evaluator(ctx).multiply_values_rescale_sum(cts, values, 2, key)
    _assert_bit_identical(got, chain_sum(Evaluator(ctx), cts, values, 2, key))
    assert got[0].level == level - 1


def test_multiply_values_rescale_sum_worst_case_residues(ctx):
    """Every residue at ``q - 1`` makes each unreduced product exactly
    ``(q - 1)**2``: the accumulator meets its reduction budget with no
    slack, across two reductions."""
    from repro.fhe import Ciphertext, Plaintext
    from repro.fhe.poly import RnsPolynomial

    level = 3
    basis = ctx.basis(level)
    q_last = basis.primes[-1]
    top = np.array(basis.primes, dtype=np.uint64)[:, None] - np.uint64(1)
    poly = RnsPolynomial(basis, np.broadcast_to(top, (level, basis.n)),
                         is_ntt=True)
    k = 2 * _budget(ctx, level) + 1
    key = ("sum-worst",)
    for i in range(k):
        ctx.plaintext_cache[((*key, 0, i), level, float(q_last))] = \
            Plaintext(poly=poly, scale=float(q_last))
    ct = Ciphertext(components=(poly, poly), scale=ctx.scale)

    def unused(j, i):
        raise AssertionError("plaintexts come from the cache")

    got = Evaluator(ctx).multiply_values_rescale_sum([ct] * k, unused, 1, key)
    _assert_bit_identical(got, chain_sum(Evaluator(ctx), [ct] * k, unused,
                                         1, key))


def test_multiply_values_rescale_sum_decrypts_to_the_sum(ctx, evaluator):
    cts_vals = [_vals(ctx, 70 + s, -1, 1) for s in range(5)]
    values = _slot_weights(ctx, 71)
    out = evaluator.multiply_values_rescale_sum(
        [ctx.encrypt_values(v) for v in cts_vals], values, 2, ("dec",)
    )
    for j, ct in enumerate(out):
        want = sum(v * values(j, i) for i, v in enumerate(cts_vals))
        assert ct.scale == pytest.approx(ctx.scale)
        assert np.allclose(ctx.decrypt_values(ct), want, atol=ATOL)


def test_multiply_values_rescale_sum_counts_the_chain(ctx):
    from repro import obs

    cts = [ctx.encrypt_values(_vals(ctx, 80 + s)) for s in range(6)]
    rec = OperationRecorder()
    with obs.observed():
        obs.reset()
        Evaluator(ctx, recorder=rec).multiply_values_rescale_sum(
            cts, _slot_weights(ctx, 81), 4, ("cnt",)
        )
        reg = obs.get_registry()
        totals = {op: reg.counter("he_ops_total", op=op.value).value
                  for op in rec.counts}
    assert rec.counts == {
        HeOp.PC_MULT: 4 * 6, HeOp.RESCALE: 4 * 6, HeOp.CC_ADD: 4 * 5,
    }
    assert totals == rec.counts
    # A single input adds nothing.
    rec = OperationRecorder()
    Evaluator(ctx, recorder=rec).multiply_values_rescale_sum(
        cts[:1], _slot_weights(ctx, 82), 3, ("cnt1",)
    )
    assert rec.counts == {HeOp.PC_MULT: 3, HeOp.RESCALE: 3}


def test_multiply_values_rescale_sum_rejects_mixed_inputs(ctx, evaluator):
    from repro.fhe import Ciphertext

    values, key = _slot_weights(ctx, 90), ("bad",)
    a = ctx.encrypt_values(_vals(ctx, 91))
    lower = ctx.encrypt_values(_vals(ctx, 92), level=3)
    with pytest.raises(ValueError, match="level"):
        evaluator.multiply_values_rescale_sum([a, lower], values, 1, key)
    rescaled = Ciphertext(components=a.components, scale=2 * a.scale)
    with pytest.raises(ValueError, match="scale"):
        evaluator.multiply_values_rescale_sum([a, rescaled], values, 1, key)
    cubic = evaluator.multiply(a, a)
    with pytest.raises(ValueError, match="2-component"):
        evaluator.multiply_values_rescale_sum([a, cubic], values, 1, key)
    with pytest.raises(ValueError):
        evaluator.multiply_values_rescale_sum([], values, 1, key)


# -- rotation ----------------------------------------------------------------------


@pytest.mark.parametrize("step", [1, 2, 4, 16, 128])
def test_rotate(ctx, evaluator, step):
    a = _vals(ctx, 17)
    out = ctx.decrypt_values(evaluator.rotate(ctx.encrypt_values(a), step))
    assert np.allclose(out, np.roll(a, -step), atol=ATOL)


def test_rotate_zero_is_identity(ctx, evaluator):
    a = _vals(ctx, 18)
    ct = ctx.encrypt_values(a)
    assert evaluator.rotate(ct, 0) is ct


def test_rotate_at_reduced_level(ctx, evaluator):
    a = _vals(ctx, 19)
    ct = evaluator.multiply_plain_rescale(
        ctx.encrypt_values(a), ctx.encode_ones() if hasattr(ctx, "encode_ones")
        else ctx.encode(np.ones(ctx.slot_count))
    )
    out = ctx.decrypt_values(evaluator.rotate(ct, 2))
    assert np.allclose(out, np.roll(a, -2), atol=ATOL)


def test_rotate_and_sum(ctx, evaluator):
    rng = np.random.default_rng(20)
    width = 16
    a = np.zeros(ctx.slot_count)
    a[:width] = rng.uniform(-1, 1, width)
    out = ctx.decrypt_values(evaluator.rotate_and_sum(ctx.encrypt_values(a), width))
    assert abs(out[0] - a[:width].sum()) < ATOL


def test_rotate_and_sum_rejects_non_power_of_two(ctx, evaluator):
    with pytest.raises(ValueError):
        evaluator.rotate_and_sum(ctx.encrypt_values(np.ones(4)), 6)


def test_rotate_fold_hoisted_matches_sequential(ctx, evaluator):
    from repro.fhe.ops import fold_key_steps

    steps = [4, 2, 1]
    keys = fold_key_steps(steps, ctx.slot_count)
    assert len(keys) == 7  # the grouping walk must hoist the triple
    ctx.ensure_galois_keys(keys)
    a = _vals(ctx, 40)
    ct = ctx.encrypt_values(a)
    hoisted = evaluator.rotate_fold(ct, steps)
    sequential = ct
    for s in steps:
        sequential = evaluator.add(sequential, evaluator.rotate(sequential, s))
    expected = a.copy()
    for s in steps:
        expected = expected + np.roll(expected, -s)
    assert np.allclose(ctx.decrypt_values(hoisted), expected, atol=ATOL)
    assert np.allclose(ctx.decrypt_values(sequential), expected, atol=ATOL)


@pytest.mark.parametrize("level", [4, 3])
def test_rotate_hoisted_bit_identical_to_rotate(ctx, level):
    """Each hoisted output equals the per-step rotation bit for bit, and
    each non-zero step records one KeySwitch."""
    ct = ctx.encrypt_values(_vals(ctx, 45), level=level)
    steps = [1, 0, 2, 8, 128, 1 + ctx.slot_count]
    rec = OperationRecorder()
    hoisted = Evaluator(ctx, recorder=rec).rotate_hoisted(ct, steps)
    assert rec.counts == {HeOp.KEY_SWITCH: 5}
    assert hoisted[1] is ct
    ev = Evaluator(ctx)
    for step, out in zip(steps, hoisted):
        want = ev.rotate(ct, step)
        assert out.level == want.level == level and out.scale == want.scale
        for got_c, want_c in zip(out.components, want.components):
            assert np.array_equal(got_c.to_ntt().residues,
                                  want_c.to_ntt().residues)


def test_rotate_fold_falls_back_without_composite_keys(ctx, evaluator):
    # Powers of two whose pairwise sums (12, 3, ...) were never provisioned:
    # every group attempt raises KeyError and the sequential walk must kick
    # in transparently.
    steps = [8, 4, 2, 1]
    a = _vals(ctx, 41)
    expected = a.copy()
    for s in steps:
        expected = expected + np.roll(expected, -s)
    out = ctx.decrypt_values(
        evaluator.rotate_fold(ctx.encrypt_values(a), steps)
    )
    assert np.allclose(out, expected, atol=ATOL)


def test_fold_key_steps_mirrors_grouping():
    from repro.fhe.ops import _subset_steps, fold_key_steps

    # A 3-step group advertises all non-empty subset sums.
    assert _subset_steps((4, 2, 1), 256) == [4, 2, 6, 1, 5, 3, 7]
    # Zero steps (or zero subset sums) kill the group.
    assert _subset_steps((0, 2), 256) is None
    assert _subset_steps((128, 128), 256) is None
    # The provisioning walk matches rotate_fold's greedy grouping: one
    # triple from [4, 2, 1], then the trailing single rotates on its own.
    assert fold_key_steps([4, 2, 1, 16], 256) == [4, 2, 6, 1, 5, 3, 7, 16]
    # Steps congruent to zero need no key, exactly like the runtime walk
    # (a zero rotation returns its input).
    assert fold_key_steps([256, 8], 256) == [8]


# -- guards --------------------------------------------------------------------------


def test_scale_mismatch_raises(ctx, evaluator):
    a = ctx.encrypt_values(np.ones(4))
    b = evaluator.multiply_plain(ctx.encrypt_values(np.ones(4)), ctx.encode(np.ones(4)))
    with pytest.raises(ValueError, match="scale mismatch"):
        evaluator.add(a, b)


def test_relinearize_missing_key_raises(small_params):
    from repro.fhe import CkksContext

    bare = CkksContext(small_params, seed=77)
    ev = Evaluator(bare)
    ct = bare.encrypt_values(np.ones(4))
    with pytest.raises(KeyError, match="relinearization"):
        ev.relinearize(ev.square(ct))


def test_rotate_requires_linear(ctx, evaluator):
    ct = evaluator.square(ctx.encrypt_values(np.ones(4)))
    with pytest.raises(ValueError):
        evaluator.rotate(ct, 1)


def test_mod_switch_cannot_raise_level(ctx, evaluator):
    ct = ctx.encrypt_values(np.ones(4), level=2)
    with pytest.raises(ValueError):
        evaluator.mod_switch_to_level(ct, 3)


# -- operation recording ------------------------------------------------------------


def test_recorder_counts_ops(ctx):
    rec = OperationRecorder()
    ev = Evaluator(ctx, recorder=rec)
    a = ctx.encrypt_values(np.ones(4))
    b = ctx.encrypt_values(np.ones(4))
    ct = ev.add(a, b)
    ct = ev.multiply_plain(ct, ctx.encode(np.ones(4)))
    ct = ev.rescale(ct)
    ct = ev.square(ct)
    ct = ev.relinearize(ct)
    ct = ev.rotate(ev.rescale(ct), 1)
    assert rec.count(HeOp.CC_ADD) == 1
    assert rec.count(HeOp.PC_MULT) == 1
    assert rec.count(HeOp.RESCALE) == 2
    assert rec.count(HeOp.CC_MULT) == 1
    assert rec.count(HeOp.KEY_SWITCH) == 2  # relin + rotate
    assert rec.total == 7


def test_recorder_phases(ctx):
    rec = OperationRecorder()
    ev = Evaluator(ctx, recorder=rec)
    rec.set_phase("layer1")
    ev.add(ctx.encrypt_values(np.ones(4)), ctx.encrypt_values(np.ones(4)))
    rec.set_phase("layer2")
    ev.rescale(ev.multiply_plain(ctx.encrypt_values(np.ones(4)), ctx.encode(np.ones(4))))
    rec.set_phase(None)
    assert rec.by_phase["layer1"] == {HeOp.CC_ADD: 1}
    assert rec.by_phase["layer2"] == {HeOp.PC_MULT: 1, HeOp.RESCALE: 1}


@given(step=st.integers(min_value=1, max_value=255))
@settings(max_examples=10, deadline=None)
def test_rotation_group_property(step):
    """Rotation steps compose additively modulo the slot count (on plaintexts,
    via the Galois group) — checked on the encoder level for arbitrary steps."""
    import numpy as np

    from repro.fhe.encoder import CkksEncoder
    from repro.fhe.modmath import generate_ntt_primes
    from repro.fhe.poly import RnsBasis

    n = 64
    enc = CkksEncoder(n)
    basis = RnsBasis(n, tuple(generate_ntt_primes(26, 1, n)))
    rng = np.random.default_rng(step)
    vals = rng.uniform(-1, 1, enc.slot_count)
    pt = enc.encode(vals, 2.0**20, basis)
    g = pow(5, step % (n // 2), 2 * n)
    out = enc.decode_real(pt.galois_transform(g), 2.0**20)
    assert np.allclose(out, np.roll(vals, -(step % (n // 2))), atol=1e-3)


# -- negation / conjugation ------------------------------------------------------


def test_negate(ctx, evaluator):
    a = _vals(ctx, 30)
    out = ctx.decrypt_values(evaluator.negate(ctx.encrypt_values(a)))
    assert np.allclose(out, -a, atol=ATOL)


def test_negate_records_nothing(ctx):
    rec = OperationRecorder()
    ev = Evaluator(ctx, recorder=rec)
    ev.negate(ctx.encrypt_values(np.ones(4)))
    assert rec.total == 0


def test_conjugate(ctx, evaluator):
    rng = np.random.default_rng(31)
    values = rng.uniform(-1, 1, ctx.slot_count) + 1j * rng.uniform(
        -1, 1, ctx.slot_count
    )
    ctx.ensure_conjugation_keys()
    pt = ctx.encoder.encode(values, ctx.scale, ctx.basis())
    from repro.fhe import Plaintext

    ct = ctx.encrypt(Plaintext(poly=pt, scale=ctx.scale))
    out = evaluator.conjugate(ct)
    decrypted = ctx.encoder.decode(ctx.decrypt(out).poly, out.scale)
    assert np.allclose(decrypted, np.conj(values), atol=ATOL)


def test_conjugate_requires_key(small_params):
    from repro.fhe import CkksContext

    bare = CkksContext(small_params, seed=55)
    ev = Evaluator(bare)
    with pytest.raises(KeyError, match="conjugation"):
        ev.conjugate(bare.encrypt_values(np.ones(4)))


def test_conjugate_counts_keyswitch(ctx):
    ctx.ensure_conjugation_keys()
    rec = OperationRecorder()
    ev = Evaluator(ctx, recorder=rec)
    ev.conjugate(ctx.encrypt_values(np.ones(4)))
    assert rec.count(HeOp.KEY_SWITCH) == 1
