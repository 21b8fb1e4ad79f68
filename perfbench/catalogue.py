"""The benchmark's metric names and units, and small shared helpers.

``BENCHMARK.json`` at the repository root lists the same names; the
self-test checks that both agree and that every run prints all of them.
"""

from __future__ import annotations

import resource
import statistics
import sys
from dataclasses import dataclass, field

from repro.optypes import HeOp

#: End-to-end metrics, printed with ``--trace 0`` on every workload.
END_TO_END = {
    "setup_s": "s",
    "infer_p50_s": "s",
    "max_abs_err": "abs",
    "replay_req_per_s": "req/s",
    "peak_rss_mb": "MB",
}

#: Layers of the two encrypted networks, in execution order.
LAYERS = ("Cnv1", "Act1", "Fc1", "Act2", "Fc2")

#: Public :class:`~repro.fhe.ops.Evaluator` methods the packed layers call,
#: directly or through a composite method.
EVALUATOR_OPS = (
    "add", "add_plain", "encode_cached", "multiply_plain",
    "multiply_values_rescale", "relinearize", "rescale", "rotate",
    "rotate_fold", "square", "square_relinearize_rescale",
)

#: Evaluator methods that perform a KeySwitch (rotation or relinearization).
KS_PREFIXES = ("rotate", "relinearize", "conjugate")

#: Kernel-backend calls, as timed by ``spans.TracedBackend``.
KERNELS = (
    "forward", "inverse", "negacyclic_multiply", "apply_galois",
    "modmul", "modmul_const", "modadd", "modsub", "modneg",
)

#: Virtual-time stages of the fleet replay.
STAGES = (
    "serve.scheduler", "cluster.serving", "serve.autoscale",
    "cluster.capacity",
)


def per_layer_units() -> dict[str, str]:
    """Every per-layer metric name -> unit, in report order."""
    m: dict[str, str] = {"hecnn.models.build_s": "s"}
    for layer in LAYERS:
        m[f"hecnn.layers.{layer}.self_ms"] = "ms"
        m[f"hecnn.layers.{layer}.model_cycles"] = "cycles"
    m["hecnn.max_abs_err_run"] = "abs"
    m["fhe.keys.keygen_s"] = "s"
    m["fhe.keys.galois_keys"] = "count"
    m["fhe.context.encrypt_ms"] = "ms"
    m["fhe.context.decrypt_ms"] = "ms"
    for op in EVALUATOR_OPS:
        m[f"fhe.ops.{op}.calls"] = "count"
        m[f"fhe.ops.{op}.ms"] = "ms"
    m["fhe.ops.ks_share"] = "ratio"
    for hop in HeOp:
        m[f"fhe.ops.hop.{hop.value}"] = "count"
    for call in KERNELS:
        m[f"fhe.kernels.{call}.calls"] = "count"
        m[f"fhe.kernels.{call}.rows"] = "count"
        m[f"fhe.kernels.{call}.ms"] = "ms"
    m["fhe.kernels.bytes_moved_mb"] = "MB"
    m["fhe.plaintext_cache.hit_ratio"] = "ratio"
    m["fhe.plaintext_cache.entries"] = "count"
    m["bench.trace_overhead_s"] = "s"
    m["core.dse.explore_ms"] = "ms"
    m["core.dse.points_scanned"] = "count"
    m["core.dse.pruned_ratio"] = "ratio"
    m["cluster.dse.plan_ms"] = "ms"
    m["serve.scheduler.run_ms"] = "ms"
    m["serve.scheduler.batches"] = "count"
    m["serve.scheduler.mean_lanes"] = "lanes"
    m["serve.scheduler.rejected"] = "count"
    m["serve.scheduler.expired"] = "count"
    m["cluster.serving.run_ms"] = "ms"
    m["serve.autoscale.run_ms"] = "ms"
    m["serve.autoscale.decisions"] = "count"
    m["serve.autoscale.node_seconds"] = "s"
    m["cluster.capacity.plan_ms"] = "ms"
    m["serve.costs.report_ms"] = "ms"
    m["serve.costs.reconciled_axes"] = "count"
    m["obs.alerts.transitions"] = "count"
    m["obs.attached_ms"] = "ms"
    for stage in STAGES:
        m[f"{stage}.virt_p99_s"] = "s"
    return m


@dataclass
class RunResult:
    """What one workload run hands back to ``run.py``."""

    attempted: int
    failed: int
    metrics: dict[str, float]
    #: Cross-checks beyond per-operation failures (counts, bit identity).
    problems: list[str] = field(default_factory=list)
    #: Human-readable lines printed before the JSON result.
    notes: list[str] = field(default_factory=list)

    @property
    def correct(self) -> bool:
        return self.failed == 0 and not self.problems


def median(values) -> float:
    return float(statistics.median(values))


def peak_rss_mb() -> float:
    """Peak resident set of this process (``ru_maxrss`` is KiB on Linux,
    bytes on macOS)."""
    rss = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    return rss / (1024.0 * 1024.0) if sys.platform == "darwin" else rss / 1024.0
