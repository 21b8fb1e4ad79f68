"""Property tests: the production FHE path is bit-identical to its oracles.

The production path (the default backend's batched NTT over all RNS rows,
NTT-resident Galois and Rescale, plaintext caching, vectorized KeySwitch) is pure
performance work — these tests pin it, bit for bit, to the per-prime
reference transforms, the schoolbook negacyclic convolution, the
coefficient-domain Galois/Rescale route and a per-digit KeySwitch.  No
tolerances anywhere.
"""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.fhe import CkksContext, Evaluator, kernels, ops, tiny_test_params
from repro.fhe.modmath import generate_ntt_primes
from repro.fhe.ntt import get_ntt_context, negacyclic_convolution_reference
from repro.fhe.poly import RnsBasis, RnsPolynomial, rescale_polys

#: The production transform under test: the default backend's.
BATCHED = kernels.get_backend(kernels.default_backend())


def _primes(n: int, count: int = 3, bits: int = 24) -> tuple[int, ...]:
    return tuple(generate_ntt_primes(bits, count, n))


# -- batched NTT vs per-row reference ----------------------------------------------


@given(seed=st.integers(min_value=0, max_value=2**32 - 1))
@settings(max_examples=25, deadline=None)
def test_batched_forward_matches_per_row(seed):
    n = 64
    primes = _primes(n)
    rng = np.random.default_rng(seed)
    rows = np.stack(
        [rng.integers(0, q, n, dtype=np.int64).astype(np.uint64) for q in primes]
    )
    got = BATCHED.forward(n, primes, rows)
    expected = np.stack(
        [get_ntt_context(n, q).forward(rows[i]) for i, q in enumerate(primes)]
    )
    assert np.array_equal(got, expected)


@given(seed=st.integers(min_value=0, max_value=2**32 - 1))
@settings(max_examples=25, deadline=None)
def test_batched_inverse_matches_per_row(seed):
    n = 64
    primes = _primes(n)
    rng = np.random.default_rng(seed)
    rows = np.stack(
        [rng.integers(0, q, n, dtype=np.int64).astype(np.uint64) for q in primes]
    )
    got = BATCHED.inverse(n, primes, rows)
    expected = np.stack(
        [get_ntt_context(n, q).inverse(rows[i]) for i, q in enumerate(primes)]
    )
    assert np.array_equal(got, expected)


@given(seed=st.integers(min_value=0, max_value=2**32 - 1))
@settings(max_examples=15, deadline=None)
def test_batched_roundtrip_3d(seed):
    """(B, L, N) stacks transform per matrix exactly like (L, N) slices."""
    n = 32
    primes = _primes(n)
    rng = np.random.default_rng(seed)
    stack = np.stack(
        [
            np.stack(
                [
                    rng.integers(0, q, n, dtype=np.int64).astype(np.uint64)
                    for q in primes
                ]
            )
            for _ in range(4)
        ]
    )
    fwd = BATCHED.forward(n, primes, stack)
    for b in range(4):
        assert np.array_equal(fwd[b], BATCHED.forward(n, primes, stack[b]))
    assert np.array_equal(BATCHED.inverse(n, primes, fwd), stack)


@pytest.mark.parametrize("n", [16, 256, 2048])
def test_batched_matches_per_row_across_sizes(n):
    primes = _primes(n, count=4, bits=28)
    rng = np.random.default_rng(n)
    rows = np.stack(
        [rng.integers(0, q, n, dtype=np.int64).astype(np.uint64) for q in primes]
    )
    got = BATCHED.forward(n, primes, rows)
    expected = np.stack(
        [get_ntt_context(n, q).forward(rows[i]) for i, q in enumerate(primes)]
    )
    assert np.array_equal(got, expected)
    assert np.array_equal(BATCHED.inverse(n, primes, got), rows)


@given(seed=st.integers(min_value=0, max_value=2**32 - 1))
@settings(max_examples=10, deadline=None)
def test_batched_product_matches_convolution_reference(seed):
    """Forward -> pointwise -> inverse equals the schoolbook negacyclic
    convolution on every RNS row."""
    n = 16
    primes = _primes(n)
    basis = RnsBasis(n, primes)
    rng = np.random.default_rng(seed)
    a_rows = np.stack(
        [rng.integers(0, q, n, dtype=np.int64).astype(np.uint64) for q in primes]
    )
    b_rows = np.stack(
        [rng.integers(0, q, n, dtype=np.int64).astype(np.uint64) for q in primes]
    )
    a = RnsPolynomial(basis, a_rows, is_ntt=False)
    b = RnsPolynomial(basis, b_rows, is_ntt=False)
    prod = (a.to_ntt() * b.to_ntt()).to_coefficient()
    for i, q in enumerate(primes):
        ref = negacyclic_convolution_reference(a_rows[i], b_rows[i], q)
        assert np.array_equal(prod.residues[i], ref.astype(np.uint64))


# -- NTT-domain Galois vs coefficient-domain automorphism -------------------------


@given(
    seed=st.integers(min_value=0, max_value=2**32 - 1),
    step=st.integers(min_value=0, max_value=7),
)
@settings(max_examples=20, deadline=None)
def test_ntt_galois_matches_coefficient_path(seed, step):
    n = 64
    primes = _primes(n)
    basis = RnsBasis(n, primes)
    rng = np.random.default_rng(seed)
    rows = np.stack(
        [rng.integers(0, q, n, dtype=np.int64).astype(np.uint64) for q in primes]
    )
    poly = RnsPolynomial(basis, rows, is_ntt=False).to_ntt()
    g = pow(5, step, 2 * n)
    fast = poly.galois_transform(g)
    slow = poly.to_coefficient().galois_transform(g).to_ntt()
    assert fast.is_ntt
    assert np.array_equal(fast.residues, slow.residues)


def test_conjugation_galois_matches():
    n = 32
    primes = _primes(n)
    basis = RnsBasis(n, primes)
    rng = np.random.default_rng(9)
    rows = np.stack(
        [rng.integers(0, q, n, dtype=np.int64).astype(np.uint64) for q in primes]
    )
    poly = RnsPolynomial(basis, rows, is_ntt=False).to_ntt()
    g = 2 * n - 1
    fast = poly.galois_transform(g)
    slow = poly.to_coefficient().galois_transform(g).to_ntt()
    assert np.array_equal(fast.residues, slow.residues)


# -- evaluator-level fast paths ---------------------------------------------------


@pytest.fixture(scope="module")
def ctx():
    context = CkksContext(tiny_test_params(poly_degree=256, level=5), seed=7)
    context.ensure_relin_keys()
    context.ensure_galois_keys([1, 2])
    return context


@pytest.fixture(scope="module")
def ct(ctx):
    rng = np.random.default_rng(11)
    return ctx.encrypt_values(rng.uniform(-1, 1, ctx.slot_count))


def _residues(ciphertext):
    return [c.to_ntt().residues.copy() for c in ciphertext.components]


def _key_switch_per_digit(component, key):
    """Per-digit hybrid key switch: lift and forward-transform one
    decomposition digit at a time and accumulate its key products — the
    formulation ``ops._key_switch`` vectorizes, kept as its oracle."""
    basis = component.basis
    ext = key.basis
    d = component.to_coefficient()
    acc0 = RnsPolynomial.zero(ext, is_ntt=True)
    acc1 = RnsPolynomial.zero(ext, is_ntt=True)
    for i, q_i in enumerate(basis.primes):
        row = d.residues[i].astype(np.int64)
        signed = np.where(row > q_i // 2, row - q_i, row)
        rows = np.empty((ext.level, ext.n), dtype=np.uint64)
        for j, q_j in enumerate(ext.primes):
            rows[j] = np.mod(signed, np.int64(q_j)).astype(np.uint64)
        lifted = RnsPolynomial(ext, rows, is_ntt=False).to_ntt()
        acc0 = acc0 + lifted * key.b[i]
        acc1 = acc1 + lifted * key.a[i]
    out0, out1 = rescale_polys((acc0, acc1))
    return out0, out1


@pytest.mark.parametrize("step", [1, 2])
def test_vectorized_keyswitch_matches_legacy(ctx, ct, step, monkeypatch):
    ev = Evaluator(ctx)
    fast = ev.rotate(ct, step)
    monkeypatch.setattr(ops, "_key_switch", _key_switch_per_digit)
    slow = ev.rotate(ct, step)
    for f, s in zip(_residues(fast), _residues(slow)):
        assert np.array_equal(f, s)


def test_relinearize_matches_legacy(ctx, ct, monkeypatch):
    ev = Evaluator(ctx)
    sq = ev.square(ct)
    fast = ev.relinearize(sq)
    monkeypatch.setattr(ops, "_key_switch", _key_switch_per_digit)
    slow = ev.relinearize(sq)
    for f, s in zip(_residues(fast), _residues(slow)):
        assert np.array_equal(f, s)


def test_fastpath_rescale_matches_coefficient_rescale(ctx, ct):
    ev = Evaluator(ctx)
    prod = ev.multiply_plain(ct, ctx.encode(np.ones(ctx.slot_count)))
    assert all(c.is_ntt for c in prod.components)
    fast = ev.rescale(prod)
    slow = [
        c.to_coefficient().rescale().to_ntt().residues
        for c in prod.components
    ]
    assert all(c.is_ntt for c in fast.components)
    for f, s in zip(_residues(fast), slow):
        assert np.array_equal(f, s)


def test_encode_cached_returns_identical_plaintext(ctx):
    ev = Evaluator(ctx)
    values = np.linspace(-1, 1, ctx.slot_count)
    ctx.clear_plaintext_cache()
    calls = []

    def supplier():
        calls.append(1)
        return values

    first = ev.encode_cached(supplier, level=3, scale=ctx.scale, cache_key="k")
    second = ev.encode_cached(supplier, level=3, scale=ctx.scale, cache_key="k")
    assert second is first  # memoized on the context
    assert len(calls) == 1  # supplier only evaluated on the miss
    plain = ctx.encode(values, level=3, scale=ctx.scale)
    assert np.array_equal(first.poly.residues, plain.poly.to_ntt().residues)
    ctx.clear_plaintext_cache()
    assert len(ctx.plaintext_cache) == 0


def test_encode_cached_bit_identity_across_rescale_boundary(ctx):
    """Regression: a weight cached at one (level, scale) must never be
    served at another after Rescale.  Encode the same vector under one
    cache key on both sides of a rescale boundary and check each result is
    bit-identical to an uncached encode at that exact (level, scale)."""
    ev = Evaluator(ctx)
    values = np.linspace(-0.5, 0.5, ctx.slot_count)
    ctx.clear_plaintext_cache()

    ct = ctx.encrypt_values(np.ones(ctx.slot_count))
    before = ev.encode_cached(
        values, level=ct.level, scale=ct.scale, cache_key="w"
    )
    ct2 = ev.rescale(ev.multiply_plain(ct, before))
    assert (ct2.level, ct2.scale) != (ct.level, ct.scale)

    after = ev.encode_cached(
        values, level=ct2.level, scale=ct2.scale, cache_key="w"
    )
    # The post-rescale request must NOT return the pre-rescale entry...
    assert after is not before
    assert (after.level, after.scale) == (ct2.level, ct2.scale)
    # ...and must be bit-identical to a cold encode at the new pair.
    oracle = ctx.encode(values, level=ct2.level, scale=ct2.scale)
    assert np.array_equal(after.poly.residues, oracle.poly.to_ntt().residues)
    # Both entries coexist (distinct full keys), so neither side re-encodes.
    assert ev.encode_cached(
        values, level=ct.level, scale=ct.scale, cache_key="w"
    ) is before
    assert ev.encode_cached(
        values, level=ct2.level, scale=ct2.scale, cache_key="w"
    ) is after
    ctx.clear_plaintext_cache()


def test_encode_cached_canonicalizes_default_level(ctx):
    """``level=None`` and the explicit full-chain level share one entry."""
    ev = Evaluator(ctx)
    values = np.ones(ctx.slot_count)
    ctx.clear_plaintext_cache()
    implicit = ev.encode_cached(
        values, level=None, scale=ctx.scale, cache_key="b"
    )
    explicit = ev.encode_cached(
        values, level=ctx.params.level, scale=ctx.scale, cache_key="b"
    )
    assert explicit is implicit
    assert len(ctx.plaintext_cache) == 1
    ctx.clear_plaintext_cache()


def test_encode_cached_heals_poisoned_entry(ctx):
    """An entry whose payload contradicts its key is dropped and rebuilt."""
    from repro.fhe.ciphertext import Plaintext

    ev = Evaluator(ctx)
    values = np.ones(ctx.slot_count)
    ctx.clear_plaintext_cache()
    stale = ctx.encode(values, level=2, scale=ctx.scale)
    stale = Plaintext(poly=stale.poly.to_ntt(), scale=stale.scale)
    ctx.plaintext_cache[("p", 3, ctx.scale)] = stale
    healed = ev.encode_cached(values, level=3, scale=ctx.scale, cache_key="p")
    assert healed is not stale
    assert healed.level == 3
    oracle = ctx.encode(values, level=3, scale=ctx.scale)
    assert np.array_equal(healed.poly.residues, oracle.poly.to_ntt().residues)
    ctx.clear_plaintext_cache()


def test_plaintext_cache_is_bounded_lru():
    """The context cache evicts least-recently-used entries at capacity."""
    params = tiny_test_params(poly_degree=64, level=3)
    small = CkksContext(params, seed=1, plaintext_cache_entries=2)
    ev = Evaluator(small)
    values = np.ones(small.slot_count)
    ev.encode_cached(values, level=2, scale=small.scale, cache_key="a")
    ev.encode_cached(values, level=2, scale=small.scale, cache_key="b")
    ev.encode_cached(values, level=2, scale=small.scale, cache_key="c")
    assert len(small.plaintext_cache) == 2
    assert ("a", 2, small.scale) not in small.plaintext_cache
    assert small.plaintext_cache.stats().evictions == 1
