"""The ``fleet-replay`` workload: the virtual-time serving engine, no FHE.

One seeded stream — a diurnal day curve plus a 10x flash crowd, at the
``repro.serve.bench.autoscale_bench`` defaults, with zipf-ranked tenants
and a 60 s deadline — replayed through four stages on ACU15EG designs
priced by the DSE:

1. ``SlotBatchScheduler`` on one board with a ``CostLedger`` and an
   ``AlertEngine`` (queue-depth threshold + deadline burn rate);
2. ``ClusterService`` on a static three-board fleet;
3. ``FleetAutoscaler`` between one and three boards;
4. ``plan_capacity`` for the surge's peak rate.

One session (all four stages) is one operation.  The program's own
observability is on, because the alert engine reads its time series;
every session starts from a reset registry.
"""

from __future__ import annotations

import dataclasses
from dataclasses import dataclass
from pathlib import Path
from time import perf_counter

import numpy as np

import repro.core.framework
from repro import obs
from repro.cluster.capacity import plan_capacity
from repro.cluster.dse import FleetPlanner
from repro.cluster.fleet import Fleet
from repro.cluster.serving import ClusterService
from repro.fpga import acu15eg
from repro.obs.alerts import AlertEngine, AlertRule
from repro.serve import (
    CostLedger,
    DesignCache,
    InferenceRequest,
    SchedulerConfig,
    ServingCostModel,
    SlotBatchScheduler,
)
from repro.serve.autoscale import AutoscalerConfig, FleetAutoscaler
from repro.serve.slo import Slo
from repro.serve.traffic import (
    diurnal_arrivals,
    flash_crowd_arrivals,
    merge_arrivals,
    zipf_shares,
)

from . import catalogue as cat
from .spans import SpanRecorder, by_name, call, interposed

DURATION_S = 600.0
BASE_RATE_PER_S = 4.0
PEAK_RATE_PER_S = 12.0
SURGE_BASE_RATE_PER_S = 6.0
SURGE_START_S = 240.0
SURGE_DURATION_S = 60.0
SURGE_MULTIPLIER = 10.0
DEADLINE_S = 60.0
TENANTS = 8
ZIPF_S = 1.1
P99_SLO_S = 13.0
MAX_NODES = 3
CONFIG = SchedulerConfig(max_lanes=256)
#: Set-up repetitions per timed run; ``setup_s`` is their median.
SETUP_REPEATS = 5

#: Both rules fire once during the surge and resolve once after it, on
#: every seed tried (0-29); a second firing fails the session.
RULES = (
    AlertRule(
        name="queue-depth-high", series="serve_queue_depth{queue=serve}",
        op=">", threshold=300.0, window_s=60.0, aggregate="avg", for_s=30.0,
    ),
    AlertRule(
        name="deadline-burn", kind="burn_rate",
        bad_series=("serve_requests_total{outcome=expired}",
                    "serve_requests_total{outcome=rejected}"),
        total_series=("serve_requests_total{outcome=*}",),
        budget=0.02, fast_window_s=30.0, slow_window_s=120.0,
        fast_burn=2.0, slow_burn=1.0,
    ),
)


def build_stream(seed: int) -> list[InferenceRequest]:
    """The seeded diurnal + flash-crowd stream with zipf tenants."""
    stream = merge_arrivals(
        diurnal_arrivals(DURATION_S, BASE_RATE_PER_S, PEAK_RATE_PER_S,
                         period_s=DURATION_S, seed=seed),
        flash_crowd_arrivals(DURATION_S, SURGE_BASE_RATE_PER_S,
                             SURGE_START_S, SURGE_DURATION_S,
                             surge_multiplier=SURGE_MULTIPLIER,
                             seed=seed + 1),
    )
    rng = np.random.default_rng([seed, 1])
    ranks = rng.choice(TENANTS, size=len(stream),
                       p=zipf_shares(TENANTS, ZIPF_S))
    return [
        dataclasses.replace(r, key_group=f"tenant-{int(k):04d}:k0",
                            deadline_s=r.arrival_s + DEADLINE_S)
        for r, k in zip(stream, ranks)
    ]


@dataclass
class Deployment:
    stream: list[InferenceRequest]
    cost_model: ServingCostModel
    planner: FleetPlanner
    scaler: FleetAutoscaler
    static: ClusterService
    setup_s: float


def deploy(seed: int, spans: SpanRecorder | None = None) -> Deployment:
    """Trace build, DSE pricing and planner warm-up from a cold design
    cache: everything before the first replay."""
    device = acu15eg()
    t0 = perf_counter()
    stream = call(spans, "serve.traffic.build", build_stream, seed)
    cost_model = ServingCostModel.cryptonets_mnist(
        device, designs=DesignCache())
    call(spans, "serve.costmodel.single", cost_model.single_request_seconds)
    call(spans, "serve.costmodel.batch", cost_model.batch_seconds)
    planner = FleetPlanner(designs=cost_model.designs)
    scaler = call(
        spans, "serve.autoscale.prewarm", FleetAutoscaler, device,
        policy=AutoscalerConfig(min_nodes=1, max_nodes=MAX_NODES,
                                cooldown_s=30.0),
        planner=planner, config=CONFIG,
        slos=(Slo("p99-latency", "p99_latency_s", P99_SLO_S, window=1000),),
    )
    static = call(spans, "cluster.serving.plan",
                  ClusterService.cryptonets_mnist,
                  Fleet.homogeneous(device, MAX_NODES), planner=planner,
                  config=CONFIG)
    return Deployment(stream, cost_model, planner, scaler, static,
                      perf_counter() - t0)


@dataclass
class Session:
    seconds: float
    #: Deterministic virtual-time outputs; must repeat exactly.
    virt: dict[str, float]
    problems: list[str]


def _p99(report) -> float:
    return report.latency_percentiles()["p99"]


def session(dep: Deployment, seed: int,
            spans: SpanRecorder | None = None) -> Session:
    """Replay the stream through all four stages and check invariants."""
    device = dep.scaler.device
    obs.reset()
    t0 = perf_counter()
    ledger, engine = CostLedger(), AlertEngine(RULES)
    scheduler = SlotBatchScheduler(dep.cost_model, CONFIG, ledger=ledger,
                                   alerts=engine)
    stream = dep.stream
    sched = call(spans, "serve.scheduler.run", scheduler.run, list(stream))
    busy_s = sum(b.finish_s - b.start_s for b in sched.batches)
    ledger.settle(node_seconds=sched.makespan_s,
                  energy_joules=busy_s * device.tdp_watts)
    costs = call(spans, "serve.costs.report", ledger.report)
    static = call(spans, "cluster.serving.run", dep.static.run, list(stream))
    auto = call(spans, "serve.autoscale.run", dep.scaler.run, list(stream))
    peak_rate = SURGE_BASE_RATE_PER_S * SURGE_MULTIPLIER + PEAK_RATE_PER_S
    capacity = call(spans, "cluster.capacity.plan", plan_capacity, peak_rate,
                    P99_SLO_S, device, max_nodes=MAX_NODES,
                    planner=dep.planner, config=CONFIG, seed=seed)
    seconds = perf_counter() - t0

    problems = []
    ids = [r.request_id for r in stream]
    for label, report in (("scheduler", sched), ("cluster", static),
                          ("autoscale", auto.serve)):
        if sorted(r.request_id for r in report.results) != ids:
            problems.append(f"{label}: a request did not terminate "
                            "exactly once")
    if not costs.reconciled:
        problems.append("cost ledger does not reconcile")
    counts = engine.counts()
    if any(c != {"fired": 1, "resolved": 1} for c in counts.values()):
        problems.append(f"alerts did not fire and resolve once: {counts}")
    recommended = capacity.recommended
    lanes = [b.lanes for b in sched.batches]
    virt = {
        "serve.scheduler.batches": len(sched.batches),
        "serve.scheduler.mean_lanes": sum(lanes) / len(lanes),
        "serve.scheduler.rejected": sched.rejected,
        "serve.scheduler.expired": sched.expired,
        "serve.scheduler.virt_p99_s": _p99(sched),
        "cluster.serving.virt_p99_s": _p99(static),
        "serve.autoscale.virt_p99_s": _p99(auto.serve),
        "serve.autoscale.decisions": len(auto.decisions),
        "serve.autoscale.node_seconds": auto.node_seconds,
        "cluster.capacity.virt_p99_s":
            recommended.measured_p99_s if recommended else 0.0,
        "serve.costs.reconciled_axes": sum(costs.reconciliation().values()),
        "obs.alerts.transitions": len(engine.events()),
        # The analytic pipeline model predicts fill latency for every
        # request; the replayed p99 is what the tail actually sees.
        "model_p99_error_s": abs(
            _p99(static) - dep.static.plan.fill_latency_seconds),
    }
    return Session(seconds, virt, problems)


def run(workload: str, seed: int, seconds: float, trace: bool,
        quick: bool = False, spans_path: Path | None = None) -> cat.RunResult:
    """One benchmark run (``quick`` changes nothing here: one session of
    this stream already takes about a second)."""
    with obs.observed():
        if trace:
            return _traced(seed, seconds, spans_path)
        setups = []
        dep = None
        for _ in range(SETUP_REPEATS):
            dep = None
            obs.reset()
            dep = deploy(seed)
            setups.append(dep.setup_s)
        sessions = _sessions(dep, seed, seconds)

    attempted, failed, problems = _account(sessions)
    requests = 3 * len(dep.stream)
    metrics = {
        "setup_s": cat.median(setups),
        "infer_p50_s": cat.median(s.seconds for s in sessions),
        "max_abs_err": sessions[0].virt["model_p99_error_s"],
        "replay_req_per_s": cat.median(requests / s.seconds
                                       for s in sessions),
        "peak_rss_mb": cat.peak_rss_mb(),
    }
    notes = [
        f"{workload}: {len(dep.stream)} requests x 3 replays + capacity "
        f"plan per session, {len(sessions)} sessions "
        f"(p50 {metrics['infer_p50_s']:.4f} s), {SETUP_REPEATS} set-ups "
        f"(median {metrics['setup_s']:.4f} s)",
    ]
    return cat.RunResult(attempted, failed, metrics, problems, notes)


def _sessions(dep: Deployment, seed: int, seconds: float,
              spans: SpanRecorder | None = None,
              bare: list[float] | None = None) -> list[Session]:
    out = []
    deadline = perf_counter() + seconds
    while True:
        if spans is not None:
            spans.session = f"session-{len(out)}"
            with spans.span("fleet.session"):
                out.append(session(dep, seed, spans))
            # The same scheduler replay without ledger and alerts.
            obs.reset()
            scheduler = SlotBatchScheduler(dep.cost_model, CONFIG)
            t0 = perf_counter()
            spans.call("serve.scheduler.run_bare", scheduler.run,
                       list(dep.stream))
            bare.append(perf_counter() - t0)
        else:
            out.append(session(dep, seed))
        if perf_counter() >= deadline:
            return out


def _account(sessions: list[Session]) -> tuple[int, int, list[str]]:
    """Failed sessions: broken invariants, or virtual-time outputs that
    differ from the first session's."""
    failed = 0
    problems: list[str] = []
    for s in sessions:
        bad = list(s.problems)
        if s.virt != sessions[0].virt:
            bad.append("virtual-time outputs differ between sessions")
        if bad:
            failed += 1
            problems.extend(p for p in bad if p not in problems)
    return len(sessions), failed, problems


def _traced(seed: int, seconds: float,
            spans_path: Path | None) -> cat.RunResult:
    spans = SpanRecorder()
    spans.session = "setup"
    obs.reset()

    def dse_attrs(result, attrs):
        attrs["points"] = result.evaluated
        attrs["pruned"] = result.dsp_pruned + result.bound_pruned

    with interposed(repro.core.framework, "explore", spans,
                    "core.dse.explore", dse_attrs), \
            interposed(FleetPlanner, "plan", spans, "cluster.dse.plan"):
        dep = deploy(seed, spans)
    mark = len(spans.spans)
    bare: list[float] = []
    sessions = _sessions(dep, seed, seconds, spans, bare)
    attempted, failed, problems = _account(sessions)

    setup_stats = by_name(spans.spans[:mark])
    traced = spans.spans[mark:]
    per_session = [by_name([s for s in traced if s[5] == sid])
                   for sid in {s[5] for s in traced}]

    def med_ms(name: str) -> float:
        return cat.median(st[name]["total_s"] * 1e3 for st in per_session)

    metrics = dict.fromkeys(cat.per_layer_units(), 0.0)
    explore = setup_stats["core.dse.explore"]
    metrics["core.dse.explore_ms"] = explore["total_s"] * 1e3
    metrics["core.dse.points_scanned"] = explore["points"]
    metrics["core.dse.pruned_ratio"] = explore["pruned"] / explore["points"]
    metrics["cluster.dse.plan_ms"] = \
        setup_stats["cluster.dse.plan"]["total_s"] * 1e3
    metrics["serve.scheduler.run_ms"] = med_ms("serve.scheduler.run")
    metrics["cluster.serving.run_ms"] = med_ms("cluster.serving.run")
    metrics["serve.autoscale.run_ms"] = med_ms("serve.autoscale.run")
    metrics["cluster.capacity.plan_ms"] = med_ms("cluster.capacity.plan")
    metrics["serve.costs.report_ms"] = med_ms("serve.costs.report")
    metrics["obs.attached_ms"] = (
        metrics["serve.scheduler.run_ms"] - cat.median(bare) * 1e3)
    for name, value in sessions[0].virt.items():
        if name in metrics:
            metrics[name] = value

    if spans_path is not None:
        spans.write(spans_path)
    notes = [
        f"fleet-replay: {len(sessions)} traced sessions; DSE scanned "
        f"{explore['points']} points in {explore['calls']} explorations; "
        "virtual-time outputs (serve.*.virt_p99_s, node_seconds) are "
        "model outputs, not this host's speed",
    ]
    return cat.RunResult(attempted, failed, metrics, problems, notes)
