"""Microbenchmarks of the functional RNS-CKKS substrate.

Times the real Python implementations of the basic and HE operations
(pytest-benchmark) and checks that their cost *ordering* matches the
hardware characterization of Table I: KeySwitch > Rescale >> elementwise.

``test_bench_fastpath_end_to_end`` additionally times the full encrypted
FxHENN-MNIST forward on the production ``compiled`` kernel backend
against the per-prime ``reference`` backend running the same algorithms,
and writes the machine-readable before/after record to
``benchmarks/output/BENCH_fhe.json``.
"""

from __future__ import annotations

import json
import time
from pathlib import Path

import numpy as np
import pytest

from repro import obs
from repro.fhe import CkksContext, Evaluator, get_ntt_context, tiny_test_params
from repro.fhe import kernels
from repro.fhe.modmath import BarrettConstant, barrett_reduce, generate_ntt_primes
from repro.hecnn import fxhenn_mnist_model, synthetic_mnist_image

OUTPUT_DIR = Path(__file__).parent / "output"


@pytest.fixture(scope="module")
def bench_ctx():
    ctx = CkksContext(tiny_test_params(poly_degree=2048, level=4), seed=3)
    ctx.ensure_relin_keys()
    ctx.ensure_galois_keys([1])
    return ctx


@pytest.fixture(scope="module")
def bench_ct(bench_ctx):
    rng = np.random.default_rng(0)
    return bench_ctx.encrypt_values(rng.uniform(-1, 1, bench_ctx.slot_count))


def test_bench_barrett_reduction(benchmark):
    q = generate_ntt_primes(28, 1, 2048)[0]
    bc = BarrettConstant.for_modulus(q)
    rng = np.random.default_rng(1)
    x = (rng.integers(0, q, 2048).astype(np.uint64)
         * rng.integers(0, q, 2048).astype(np.uint64))
    result = benchmark(barrett_reduce, x, bc)
    assert np.all(result < q)


def test_bench_ntt_forward(benchmark):
    q = generate_ntt_primes(28, 1, 2048)[0]
    ctx = get_ntt_context(2048, q)
    rng = np.random.default_rng(2)
    a = rng.integers(0, q, 2048).astype(np.uint64)
    out = benchmark(ctx.forward, a)
    assert out.shape == (2048,)


def test_bench_pcmult(benchmark, bench_ctx, bench_ct):
    ev = Evaluator(bench_ctx)
    pt = bench_ctx.encode(np.ones(bench_ctx.slot_count))
    benchmark(ev.multiply_plain, bench_ct, pt)


def test_bench_ccadd(benchmark, bench_ctx, bench_ct):
    ev = Evaluator(bench_ctx)
    benchmark(ev.add, bench_ct, bench_ct)


def test_bench_rescale(benchmark, bench_ctx, bench_ct):
    ev = Evaluator(bench_ctx)
    prod = ev.multiply_plain(bench_ct, bench_ctx.encode(np.ones(4)))
    benchmark(ev.rescale, prod)


def test_bench_rotate_keyswitch(benchmark, bench_ctx, bench_ct):
    ev = Evaluator(bench_ctx)
    benchmark(ev.rotate, bench_ct, 1)


def test_cost_hierarchy_matches_table1(bench_ctx, bench_ct):
    """Software timings reproduce the hardware ordering: the KeySwitch-
    bearing ops dominate, Rescale is next, elementwise ops are cheap."""
    import time

    ev = Evaluator(bench_ctx)
    pt = bench_ctx.encode(np.ones(4))
    prod = ev.multiply_plain(bench_ct, pt)

    def t(fn, *args):
        best = float("inf")
        for _ in range(3):
            start = time.perf_counter()
            fn(*args)
            best = min(best, time.perf_counter() - start)
        return best

    t_add = t(ev.add, bench_ct, bench_ct)
    t_rescale = t(ev.rescale, prod)
    t_rotate = t(ev.rotate, bench_ct, 1)
    assert t_rotate > t_rescale
    assert t_rescale > t_add


def test_bench_batched_ntt_forward(benchmark):
    """All L RNS rows in one stacked call of the default backend."""
    primes = tuple(generate_ntt_primes(28, 7, 2048))
    backend = kernels.get_backend(kernels.DEFAULT_BACKEND)
    rng = np.random.default_rng(4)
    a = np.stack(
        [rng.integers(0, q, 2048).astype(np.uint64) for q in primes]
    )
    out = benchmark(backend.forward, 2048, primes, a)
    assert out.shape == (7, 2048)


def _transform_counts() -> dict[str, int]:
    """The always-live NTT transform counters of the obs registry."""
    reg = obs.get_registry()
    counts = {
        f"{d}_{kind}": reg.counter(f"ntt_transform_{kind}", direction=d).value
        for d in ("forward", "inverse")
        for kind in ("calls", "rows")
    }
    counts["total_rows"] = counts["forward_rows"] + counts["inverse_rows"]
    return counts


def _timed_inference(net, ctx, image, runs: int):
    """Best-of-``runs`` inference seconds, plus the NTT transform counts
    and the output of the last inference."""
    best = float("inf")
    for _ in range(runs):
        obs.reset()
        start = time.perf_counter()
        out = net.infer(ctx, image)
        best = min(best, time.perf_counter() - start)
    return best, _transform_counts(), out


def test_bench_fastpath_end_to_end(save_report):
    """Before/after of the kernel backend on the encrypted MNIST forward
    (reduced N=2048, L=7 ring), emitting ``BENCH_fhe.json``.

    "Before" is the per-prime ``reference`` backend, "after" the default
    ``compiled`` backend; both run the same algorithms (hoisted folds,
    vectorized KeySwitch, NTT-resident Rescale/Galois) from the same warm
    plaintext cache, so they perform identical transform work and the
    speedup isolates the kernel implementation.  Each figure is the best
    of several runs — the steady-state latency, insulated from transient
    host contention.
    """
    params = tiny_test_params(poly_degree=2048, level=7)
    net = fxhenn_mnist_model(seed=0, params=params)
    ctx = CkksContext(params, seed=1)
    net.provision_keys(ctx)
    image = synthetic_mnist_image(seed=2)
    reference = net.infer_plain(image)

    # One warm-up populates the per-network plaintext cache.
    net.infer(ctx, image)
    with kernels.using_backend("reference"):
        baseline_seconds, baseline_stats, baseline_out = _timed_inference(
            net, ctx, image, runs=2
        )
    fast_seconds, fast_stats, fast_out = _timed_inference(
        net, ctx, image, runs=5
    )

    # One extra observed inference (outside both timed regions) yields the
    # per-op latency distribution for the benchmark record.
    with obs.observed():
        obs.reset()
        net.infer(ctx, image)
        op_latency = {}
        for h in obs.get_registry().collect(
            kind="histogram", name="span_seconds"
        ):
            labels = dict(h.labels)
            if labels.get("category") != "he_op":
                continue
            s = h.summary()
            op_latency[labels["name"]] = {
                "count": s["count"],
                "mean_ms": round(s["mean"] * 1e3, 4),
                "p50_ms": round(s["p50"] * 1e3, 4),
                "p95_ms": round(s["p95"] * 1e3, 4),
                "p99_ms": round(s["p99"] * 1e3, 4),
            }
    obs.reset()

    speedup = baseline_seconds / fast_seconds
    payload = {
        "benchmark": "encrypted FxHENN-MNIST forward (N=2048, L=7)",
        "baseline": {
            "seconds": baseline_seconds,
            "transforms": baseline_stats,
            "kernel_backend": "reference",
            "config": "per-prime reference transforms, same algorithms "
                      "(warm cache, best of 2)",
        },
        "fastpath": {
            "seconds": fast_seconds,
            "transforms": fast_stats,
            "kernel_backend": kernels.active_backend().name,
            "config": "production path (warm cache, best of 5)",
        },
        "speedup": speedup,
        "op_latency_ms": op_latency,
        "baseline_max_err": float(np.max(np.abs(baseline_out - reference))),
        "fastpath_max_err": float(np.max(np.abs(fast_out - reference))),
    }
    OUTPUT_DIR.mkdir(exist_ok=True)
    (OUTPUT_DIR / "BENCH_fhe.json").write_text(
        json.dumps(payload, indent=2) + "\n"
    )
    save_report(
        "bench_fhe",
        f"FHE end-to-end: reference {baseline_seconds:.1f}s -> "
        f"{fast_seconds:.1f}s ({speedup:.2f}x), NTT rows "
        f"{baseline_stats['forward_rows'] + baseline_stats['inverse_rows']}"
        f" -> {fast_stats['forward_rows'] + fast_stats['inverse_rows']}",
    )

    # Both paths decrypt to the plaintext reference.
    assert payload["baseline_max_err"] < 0.5
    assert payload["fastpath_max_err"] < 0.5
    # Identical transform work on both backends (the reference counts one
    # call per prime, so only rows compare)...
    assert fast_stats["forward_rows"] == baseline_stats["forward_rows"]
    assert fast_stats["inverse_rows"] == baseline_stats["inverse_rows"]
    # ... and the production backend wins end to end.
    assert speedup > 1.0
    # The observed pass produced a per-op latency distribution.
    assert "Rescale" in op_latency and "Rotate" in op_latency
    for stats in op_latency.values():
        assert stats["count"] > 0
        assert stats["p50_ms"] <= stats["p95_ms"] <= stats["p99_ms"]


def test_bench_kernel_backend_matrix(save_report):
    """Rows/sec and speedup vs the ``reference`` backend for every
    registered kernel backend on the production-shaped (L=7, N=2048)
    stack, emitting ``BENCH_fhe_kernels.json``.

    Bit-identity is asserted along the way — the registry's hard
    contract — so a backend that got fast by getting wrong fails here
    before its timing is ever reported.
    """
    n = 2048
    primes = tuple(generate_ntt_primes(28, 7, n))
    rng = np.random.default_rng(11)
    rows = np.stack(
        [rng.integers(0, q, n).astype(np.uint64) for q in primes]
    )
    expected = kernels.get_backend("reference").forward(n, primes, rows)

    results: dict[str, dict] = {}
    for name in kernels.available_backends():
        backend = kernels.get_backend(name)
        fwd = backend.forward(n, primes, rows)  # warms the plan cache
        assert np.array_equal(fwd, expected), name
        assert np.array_equal(backend.inverse(n, primes, fwd), rows), name
        best = float("inf")
        for _ in range(5):
            start = time.perf_counter()
            backend.inverse(n, primes, backend.forward(n, primes, rows))
            best = min(best, time.perf_counter() - start)
        results[name] = {
            "roundtrip_seconds": best,
            # forward + inverse each touch all L rows once.
            "rows_per_s": 2 * len(primes) / best,
        }
    ref_seconds = results["reference"]["roundtrip_seconds"]
    for stats in results.values():
        stats["speedup_vs_reference"] = (
            ref_seconds / stats["roundtrip_seconds"]
        )

    default_speedup = results[kernels.DEFAULT_BACKEND][
        "speedup_vs_reference"
    ]
    payload = {
        "benchmark": "kernel backend NTT roundtrip (N=2048, L=7)",
        "default_backend": kernels.DEFAULT_BACKEND,
        "backends": results,
        "default_beats_reference": default_speedup > 1.0,
    }
    OUTPUT_DIR.mkdir(exist_ok=True)
    (OUTPUT_DIR / "BENCH_fhe_kernels.json").write_text(
        json.dumps(payload, indent=2) + "\n"
    )
    header = f"{'backend':<12} {'rows/s':>10} {'vs reference':>13}"
    table = "\n".join(
        f"{name:<12} {stats['rows_per_s']:>10.0f} "
        f"{stats['speedup_vs_reference']:>12.2f}x"
        for name, stats in sorted(results.items())
    )
    print(f"\n{header}\n{table}")
    save_report(
        "bench_fhe_kernels",
        f"kernel backends: default {kernels.DEFAULT_BACKEND!r} "
        f"{default_speedup:.2f}x vs reference across "
        f"{len(results)} backends",
    )
    # The default backend must actually earn its place.
    assert default_speedup > 1.0


def test_bench_obs_overhead_disabled(bench_ctx, bench_ct):
    """With observability off, the ``_probed`` wrapper must cost < 2 % —
    even with a lineage tracker, time-series recorder and cost ledger
    installed.

    Interleaved pairs: each round times ``reps`` decorated CCadds against
    ``reps`` of its undecorated original (``__wrapped__``) on the N=2048
    ring, back to back, and the overhead is the median of the per-pair
    ratios — a burst of host contention skews one pair, not the verdict,
    and pairing cancels drift.  The probed runs happen inside an
    (ambient, but dormant) lineage context with a charged cost ledger and
    a non-empty time-series store around: the lineage hook and the
    telemetry live on the enabled path only, so installed recorders must
    neither slow the disabled path nor record anything new.
    """
    from repro.obs.timeseries import TIMESERIES
    from repro.serve.costs import CostLedger

    assert not obs.enabled()
    ev = Evaluator(bench_ctx)
    raw_add = Evaluator.add.__wrapped__
    tracker = obs.LineageTracker()
    ledger = CostLedger()
    ledger.note_batch(["bench:k0"], 0.001)
    samples_before = TIMESERIES.sample_count
    reps, rounds = 40, 75
    ratios, raw_times = [], []
    with obs.lineage_context(tracker):
        for i in range(rounds):
            # Alternate which side goes first so neither always runs on a
            # cache the other just warmed.
            order = (True, False) if i % 2 == 0 else (False, True)
            times = {}
            for probed in order:
                start = time.perf_counter()
                if probed:
                    for _ in range(reps):
                        ev.add(bench_ct, bench_ct)
                else:
                    for _ in range(reps):
                        raw_add(ev, bench_ct, bench_ct)
                times[probed] = time.perf_counter() - start
            ratios.append(times[True] / times[False])
            raw_times.append(times[False])
    overhead = float(np.median(ratios)) - 1.0
    print(f"disabled-obs overhead on CCadd: {overhead:+.3%} "
          f"({np.median(raw_times) * 1e6 / reps:.1f} us/op raw)")
    # Obs disabled => the lineage hook never ran: an empty DAG; the
    # time-series clock never advanced; the ledger still reconciles.
    assert not tracker.nodes
    assert TIMESERIES.sample_count == samples_before
    assert ledger.report().reconciled
    assert overhead < 0.02
