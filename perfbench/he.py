"""The encrypted-inference workloads: ``he-mnist-ks`` and ``he-cifar-nks``.

One client, closed loop: the next image is encrypted only after the
previous logits are decrypted.  Each inference is timed from
``encrypt_input`` through ``forward_encrypted`` to decrypt + extract,
on the default kernel backend with no process pool.  Model weights and
the CKKS key seed are fixed; images and the encryption randomness of
inference ``i`` come from ``(seed, i)`` alone, so the same seed gives
bit-identical logits in the timed and the traced run.
"""

from __future__ import annotations

import gc
from contextlib import ExitStack
from dataclasses import dataclass
from pathlib import Path
from time import perf_counter
from typing import Callable

import numpy as np

from repro.core import FxHennFramework
from repro.fhe import CkksContext, CkksParameters, tiny_test_params
from repro.fhe.ops import Evaluator, OperationRecorder
from repro.fpga import acu9eg
from repro.hecnn import HeCnn, fxhenn_mnist_model, synthetic_mnist_image
from repro.hecnn.builder import NetworkBuilder
from repro.hecnn.models import tiny_mnist_model
from repro.optypes import HeOp

from . import catalogue as cat
from .spans import SpanRecorder, TracedEvaluator, by_name, call, \
    interposed, traced_kernels

#: Seed of every CKKS key (the CLI's ``repro infer`` uses the same).
KEY_SEED = 1
#: Seed of the Glorot weights.
WEIGHT_SEED = 0
#: Set-up repetitions per timed run; ``setup_s`` is their median.
SETUP_REPEATS = 3


@dataclass(frozen=True)
class Network:
    """One encrypted workload: parameters, model, inputs, error bound."""

    name: str
    params: CkksParameters
    build: Callable[[CkksParameters], HeCnn]
    image: Callable[[np.random.Generator], np.ndarray]
    #: Largest |encrypted - plaintext| logit an inference may show.
    err_bound: float


def _cifar_nks(params: CkksParameters) -> HeCnn:
    """FxHENN-CIFAR10's Cnv1 -> Act1 feeding a dense 14027 -> 10 head."""
    builder = NetworkBuilder("FxHENN-CIFAR10-Cnv1", params, seed=WEIGHT_SEED)
    builder.conv(83, 8, stride=2, padding=0, in_channels=3, in_size=32)
    return builder.square().dense(10).build()


def _tiny_nks(params: CkksParameters) -> HeCnn:
    builder = NetworkBuilder("Tiny-NKS", params, seed=WEIGHT_SEED)
    builder.conv(4, 4, stride=2, padding=0, in_channels=3, in_size=8)
    return builder.square().dense(4).build()


def _mnist_image(rng: np.random.Generator) -> np.ndarray:
    return synthetic_mnist_image(seed=int(rng.integers(2**31)))


def network(workload: str, quick: bool) -> Network:
    """The network behind ``workload``; ``quick`` swaps in N=512 models."""
    if workload == "he-mnist-ks":
        if quick:
            return Network(
                "Tiny-MNIST", tiny_test_params(512, 7),
                lambda p: tiny_mnist_model(seed=WEIGHT_SEED, params=p),
                lambda rng: rng.uniform(0, 1, (1, 8, 8)), 0.25,
            )
        return Network(
            "FxHENN-MNIST", tiny_test_params(2048, 7),
            lambda p: fxhenn_mnist_model(seed=WEIGHT_SEED, params=p),
            _mnist_image, 0.25,
        )
    if workload == "he-cifar-nks":
        if quick:
            return Network(
                "Tiny-NKS", tiny_test_params(512, 5), _tiny_nks,
                lambda rng: rng.uniform(0, 1, (3, 8, 8)), 0.25,
            )
        return Network(
            "FxHENN-CIFAR10-Cnv1", tiny_test_params(2048, 5), _cifar_nks,
            lambda rng: rng.uniform(0, 1, (3, 32, 32)), 0.1,
        )
    raise ValueError(f"not an encrypted workload: {workload!r}")


def image_for(net: Network, seed: int, index: int) -> np.ndarray:
    return net.image(np.random.default_rng([seed, index]))


def infer(model: HeCnn, context: CkksContext, evaluator: Evaluator,
          image: np.ndarray, seed: int, index: int,
          recorder: OperationRecorder | None = None,
          spans: SpanRecorder | None = None) -> np.ndarray:
    """One client round trip; ``spans`` (traced run only) adds the
    encrypt / forward / decrypt spans."""
    context.rng = np.random.default_rng([KEY_SEED, seed, index])
    cts = call(spans, "fhe.context.encrypt", model.encrypt_input, context,
               image)
    out = call(spans, "hecnn.forward", model.forward_encrypted, evaluator,
               cts, recorder)
    return call(spans, "fhe.context.decrypt", _decrypt, model, context, out)


def _decrypt(model: HeCnn, context: CkksContext, cts) -> np.ndarray:
    layout = model.layers[-1].output_layout
    return layout.extract([context.decrypt_values(ct) for ct in cts])


def check(logits: np.ndarray, plain: np.ndarray,
          bound: float) -> tuple[float, bool]:
    """The inference's error and whether it counts as failed.

    It fails when the error exceeds ``bound``, or when the argmax moved
    although the plaintext's top-2 margin is wider than ``2 * bound``
    (a genuine near-tie may flip without failing).
    """
    err = float(np.max(np.abs(logits - plain)))
    top2 = np.sort(plain)[-2:]
    flipped = int(np.argmax(logits)) != int(np.argmax(plain))
    failed = not err <= bound or (flipped and top2[1] - top2[0] > 2 * bound)
    return err, failed


def count_mismatch(model: HeCnn, recorder: OperationRecorder) -> str | None:
    """Compare the recorded per-layer HE-op counts with ``HeCnn.trace()``."""
    expected = {
        layer.name: {op: n for op, n in layer.op_counts.items() if n}
        for layer in model.trace().layers
    }
    got = {
        name: {op: n for op, n in ops.items() if n}
        for name, ops in recorder.by_phase.items()
    }
    if got == expected:
        return None
    return f"{model.name}: OperationRecorder.by_phase != HeCnn.trace()"


@dataclass
class Deployment:
    model: HeCnn
    context: CkksContext
    setup_s: float
    warm_logits: np.ndarray
    recorder: OperationRecorder


def deploy(net: Network, seed: int, warm_index: int = 0,
           spans: SpanRecorder | None = None) -> Deployment:
    """Model build, context + keys, and one warm-up inference (image
    ``warm_index``), which fills the plaintext cache."""
    t0 = perf_counter()
    model = net.build(net.params)
    t1 = perf_counter()
    context = CkksContext(net.params, seed=KEY_SEED)
    model.provision_keys(context)
    t2 = perf_counter()
    recorder = OperationRecorder()
    logits = infer(model, context, Evaluator(context, recorder=recorder),
                   image_for(net, seed, warm_index), seed, warm_index,
                   recorder)
    t3 = perf_counter()
    if spans is not None:
        spans.session = "setup"
        spans.record("hecnn.models.build", t0, t1)
        spans.record("fhe.keys.keygen", t1, t2)
        spans.record("hecnn.warmup", t2, t3)
    return Deployment(model, context, t3 - t0, logits, recorder)


class _Checker:
    """Failure accounting over every checked inference."""

    def __init__(self, net: Network, reference) -> None:
        self.net = net
        self.reference = reference
        self.errors: list[float] = []
        self.attempted = 0
        self.failed = 0

    def __call__(self, model: HeCnn, image: np.ndarray,
                 logits: np.ndarray) -> None:
        err, failed = check(logits, self.reference(model, image),
                            self.net.err_bound)
        self.attempted += 1
        self.failed += failed
        self.errors.append(err)


def _plain(model: HeCnn, image: np.ndarray) -> np.ndarray:
    return model.infer_plain(image)


def run(workload: str, seed: int, seconds: float, trace: bool,
        quick: bool = False, spans_path: Path | None = None,
        reference=_plain) -> cat.RunResult:
    """One benchmark run; ``reference(model, image)`` gives the plaintext
    logits each inference is checked against."""
    net = network(workload, quick)
    checker = _Checker(net, reference)
    if trace:
        return _traced(net, seed, seconds, checker, spans_path)

    setups = []
    problems = []
    dep = None
    for rep in range(SETUP_REPEATS):
        dep = None
        gc.collect()
        dep = deploy(net, seed, warm_index=rep)
        setups.append(dep.setup_s)
        checker(dep.model, image_for(net, seed, rep), dep.warm_logits)
        if (msg := count_mismatch(dep.model, dep.recorder)) is not None:
            problems.append(msg)
    model, context = dep.model, dep.context

    times = []
    deadline = perf_counter() + seconds
    index = SETUP_REPEATS
    while True:
        image = image_for(net, seed, index)
        t0 = perf_counter()
        logits = infer(model, context, Evaluator(context), image, seed,
                       index)
        times.append(perf_counter() - t0)
        checker(model, image, logits)
        index += 1
        if perf_counter() >= deadline:
            break

    # Per inference the largest logit error, averaged over the run: the
    # run-wide maximum is too heavy-tailed to compare runs by.
    err = sum(checker.errors) / len(checker.errors)
    metrics = {
        "setup_s": cat.median(setups),
        "infer_p50_s": cat.median(times),
        "max_abs_err": err,
        "replay_req_per_s": len(times) / sum(times),
        "peak_rss_mb": cat.peak_rss_mb(),
    }
    notes = [
        f"{workload}: {net.name} N={net.params.poly_degree} "
        f"L={net.params.level}, {len(times)} timed inferences "
        f"(p50 {metrics['infer_p50_s']:.4f} s), {SETUP_REPEATS} set-ups "
        f"(median {metrics['setup_s']:.3f} s)",
        f"{workload}: per-inference max |enc - plain| mean {err:.3e} over "
        f"{len(checker.errors)} inferences, "
        f"largest {max(checker.errors):.3e}, "
        f"bound {net.err_bound:g}",
    ]
    return cat.RunResult(checker.attempted, checker.failed, metrics,
                         problems, notes)


def _model_cycles(model: HeCnn) -> dict[str, int]:
    """The FPGA model's predicted cycles per layer for the same trace."""
    design = FxHennFramework().generate(model.trace(), acu9eg())
    return {layer.name: layer.latency_cycles
            for layer in design.solution.layers}


def _traced(net: Network, seed: int, seconds: float, checker: _Checker,
            spans_path: Path | None) -> cat.RunResult:
    spans = SpanRecorder()
    dep = deploy(net, seed, spans=spans)
    model, context = dep.model, dep.context
    checker(model, image_for(net, seed, 0), dep.warm_logits)
    problems = []
    if (msg := count_mismatch(model, dep.recorder)) is not None:
        problems.append(msg)
    cycles = _model_cycles(model)

    cache_before = context.plaintext_cache.stats()
    mark = len(spans.spans)
    untraced, traced, hops = [], [], []
    deadline = perf_counter() + seconds
    index = 1
    while True:
        image = image_for(net, seed, index)
        t0 = perf_counter()
        plain_logits = infer(model, context, Evaluator(context), image,
                             seed, index)
        untraced.append(perf_counter() - t0)
        checker(model, image, plain_logits)

        spans.session = f"inference-{index}"
        recorder = OperationRecorder()
        with ExitStack() as stack:
            stack.enter_context(traced_kernels(spans))
            for layer in model.layers:
                stack.enter_context(interposed(
                    layer, "forward", spans, f"hecnn.layers.{layer.name}"))
            t0 = perf_counter()
            with spans.span("inference"):
                logits = infer(model, context,
                               TracedEvaluator(context, spans, recorder),
                               image, seed, index, recorder, spans)
            traced.append(perf_counter() - t0)
        checker(model, image, logits)
        if not np.array_equal(logits, plain_logits):
            problems.append(f"inference {index}: traced logits differ "
                            "from the untraced run")
        hops.append({op.value: recorder.count(op) for op in HeOp})
        index += 1
        if perf_counter() >= deadline:
            break
    cache_after = context.plaintext_cache.stats()
    if any(h != hops[0] for h in hops):
        problems.append("HE-op counts differ between inferences")

    n = len(traced)
    stats = by_name(spans.spans[mark:])
    setup_stats = by_name(spans.spans[:mark])
    metrics = dict.fromkeys(cat.per_layer_units(), 0.0)

    def per_inf(name: str, key: str, scale: float = 1.0) -> float:
        return stats.get(name, {}).get(key, 0.0) * scale / n

    metrics["hecnn.models.build_s"] = \
        setup_stats["hecnn.models.build"]["total_s"]
    metrics["fhe.keys.keygen_s"] = setup_stats["fhe.keys.keygen"]["total_s"]
    metrics["fhe.keys.galois_keys"] = len(context.galois_keys.keys)
    for layer in cat.LAYERS:
        metrics[f"hecnn.layers.{layer}.self_ms"] = per_inf(
            f"hecnn.layers.{layer}", "self_s", 1e3)
        metrics[f"hecnn.layers.{layer}.model_cycles"] = cycles.get(layer, 0)
    metrics["hecnn.max_abs_err_run"] = max(checker.errors)
    metrics["fhe.context.encrypt_ms"] = per_inf(
        "fhe.context.encrypt", "total_s", 1e3)
    metrics["fhe.context.decrypt_ms"] = per_inf(
        "fhe.context.decrypt", "total_s", 1e3)
    for op in cat.EVALUATOR_OPS:
        metrics[f"fhe.ops.{op}.calls"] = per_inf(f"fhe.ops.{op}", "calls")
        metrics[f"fhe.ops.{op}.ms"] = per_inf(f"fhe.ops.{op}", "self_s", 1e3)
    forward_s = sum(row["total_s"] for name, row in stats.items()
                    if name.startswith("hecnn.layers."))
    ks_s = sum(row["self_s"] for name, row in stats.items()
               if name.startswith("fhe.ops.")
               and name.split(".")[2].startswith(cat.KS_PREFIXES))
    metrics["fhe.ops.ks_share"] = ks_s / forward_s
    for op, count in hops[0].items():
        metrics[f"fhe.ops.hop.{op}"] = count
    moved = 0.0
    for call in cat.KERNELS:
        name = f"fhe.kernels.{call}"
        metrics[f"{name}.calls"] = per_inf(name, "calls")
        metrics[f"{name}.rows"] = per_inf(name, "rows")
        metrics[f"{name}.ms"] = per_inf(name, "total_s", 1e3)
        moved += per_inf(name, "bytes")
    metrics["fhe.kernels.bytes_moved_mb"] = moved / 1e6
    hits = cache_after.hits - cache_before.hits
    lookups = hits + cache_after.misses - cache_before.misses
    metrics["fhe.plaintext_cache.hit_ratio"] = hits / lookups if lookups \
        else 0.0
    metrics["fhe.plaintext_cache.entries"] = cache_after.size
    metrics["bench.trace_overhead_s"] = \
        cat.median(traced) - cat.median(untraced)

    if spans_path is not None:
        spans.write(spans_path)
    notes = [f"{net.name}: {n} traced + {len(untraced)} untraced inferences, "
             f"{sum(hops[0].values())} HE ops each, tracing overhead "
             f"{metrics['bench.trace_overhead_s']:+.3f} s"]
    notes += _side_by_side(metrics, cycles, model)
    return cat.RunResult(checker.attempted, checker.failed, metrics,
                         problems, notes)


def _side_by_side(metrics: dict[str, float], cycles: dict[str, int],
                  model: HeCnn) -> list[str]:
    """Measured self time next to the FPGA model's predicted cycles.

    The predicted cycles are a reproduction output of the FPGA model
    (acu9eg), never this system's speed.
    """
    names = [layer.name for layer in model.layers]
    ms = {name: metrics.get(f"hecnn.layers.{name}.self_ms", 0.0)
          for name in names}
    total_ms = sum(ms.values()) or 1.0
    total_cycles = sum(cycles.get(name, 0) for name in names) or 1
    lines = [f"{'layer':<6} {'measured ms':>12} {'measured %':>11} "
             f"{'modelled cycles':>16} {'modelled %':>11}"]
    for name in names:
        c = cycles.get(name, 0)
        lines.append(f"{name:<6} {ms[name]:>12.1f} "
                     f"{100 * ms[name] / total_ms:>10.1f}% "
                     f"{c:>16d} {100 * c / total_cycles:>10.1f}%")
    return lines
