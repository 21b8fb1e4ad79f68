"""Fused PCmult -> Rescale -> CCadd sums in the conv and dense layers.

``PackedConv`` and the non-diagonal ``PackedDense`` run their weight sums
through :meth:`~repro.fhe.ops.Evaluator.multiply_values_rescale_sum`.  The
per-op chain it replaces stays here as the oracle: patched in, it must
give bit-identical ciphertexts, logits and recorded op counts, and the
analytic traces feeding the FPGA model must not move.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.fhe import CkksContext, Evaluator, OperationRecorder, tiny_test_params
from repro.hecnn import NetworkBuilder
from tests.oracles import chain_sum

SCATTER_PARAMS = tiny_test_params(512, 5)


@pytest.fixture(scope="module")
def scatter_net():
    """N=512 conv (3 -> 8 maps, 48 offsets, 2 output groups) -> square ->
    scattered dense over both groups (4 one-row chunks)."""
    return (
        NetworkBuilder("Scatter-512", SCATTER_PARAMS, seed=8)
        .conv(8, 4, stride=2, padding=0, in_channels=3, in_size=16)
        .square()
        .dense(4)
        .build()
    )


@pytest.fixture(scope="module")
def scatter_ctx(scatter_net) -> CkksContext:
    ctx = CkksContext(SCATTER_PARAMS, seed=19)
    scatter_net.provision_keys(ctx)
    return ctx


def _run(net, ctx, cts):
    rec = OperationRecorder()
    out = net.forward_encrypted(Evaluator(ctx, recorder=rec), cts, rec)
    return out, rec


@pytest.mark.parametrize("which", ["scatter", "tiny"])
def test_fused_layers_bit_identical_to_per_op_path(
    which, scatter_net, scatter_ctx, tiny_model, tiny_ctx, monkeypatch
):
    if which == "scatter":
        net, ctx = scatter_net, scatter_ctx
        fc1 = net.layers[2].packing
        assert not (fc1.replicated or fc1.diagonal)
        assert fc1.input_layout.num_cts == 2
        image = np.random.default_rng(3).uniform(0, 1, (3, 16, 16))
    else:  # conv -> square -> replicated dense -> square -> dense
        net, ctx = tiny_model, tiny_ctx
        image = np.random.default_rng(4).uniform(0, 1, (1, 8, 8))
    cts = net.encrypt_input(ctx, image)
    fused, fused_rec = _run(net, ctx, cts)
    monkeypatch.setattr(Evaluator, "multiply_values_rescale_sum", chain_sum)
    per_op, per_op_rec = _run(net, ctx, cts)

    assert len(fused) == len(per_op)
    for got, want in zip(fused, per_op):
        assert got.level == want.level and got.scale == want.scale
        for gc, wc in zip(got.components, want.components):
            assert np.array_equal(gc.to_ntt().residues, wc.to_ntt().residues)
    layout = net.layers[-1].output_layout
    logits = layout.extract([ctx.decrypt_values(ct) for ct in fused])
    assert np.array_equal(
        logits, layout.extract([ctx.decrypt_values(ct) for ct in per_op])
    )
    assert np.allclose(logits, net.infer_plain(image), atol=0.25)

    expected = {
        layer.name: {op: n for op, n in layer.op_counts.items() if n}
        for layer in net.trace().layers
    }
    assert fused_rec.by_phase == per_op_rec.by_phase == expected


def test_cifar_cnv1_trace_is_unchanged():
    """FxHENN-CIFAR10's Cnv1 -> Act1 -> dense 14027 -> 10 head at N=2048,
    L=5: the per-layer HOP counts (Cnv1's 192 offsets x 14 groups), as
    before the sums were fused."""
    builder = NetworkBuilder(
        "FxHENN-CIFAR10-Cnv1", tiny_test_params(2048, 5), seed=0
    )
    builder.conv(83, 8, stride=2, padding=0, in_channels=3, in_size=32)
    trace = builder.square().dense(10).build().trace()
    got = [
        (layer.name, layer.level, {op.value: n for op, n in
                                   layer.op_counts.items()},
         layer.num_input_cts, layer.num_output_cts, layer.plaintext_count)
        for layer in trace.layers
    ]
    assert got == [
        ("Cnv1", 5, {"PCmult": 2688, "Rescale": 2688, "CCadd": 2674,
                     "PCadd": 14}, 192, 14, 2702),
        ("Act1", 4, {"CCmult": 14, "KeySwitch": 14, "Rescale": 14},
         14, 14, 0),
        ("Fc1", 3, {"PCmult": 140, "Rescale": 140, "KeySwitch": 100,
                    "CCadd": 230, "PCadd": 10}, 14, 10, 141),
    ]


def test_fused_sums_stay_observable(scatter_net, scatter_ctx):
    """One lineage node per fused output, parented by every input and
    carrying an analytic bound; ``he_ops_total`` counts the chain."""
    from repro import obs
    from repro.fhe import NoiseEstimator
    from repro.obs.lineage import FUSED_SUM_OP, LineageTracker, lineage_context
    from repro.optypes import HeOp

    image = np.random.default_rng(5).uniform(0, 1, (3, 16, 16))
    tracker = LineageTracker(
        estimator=NoiseEstimator.for_context(scatter_ctx)
    )
    with obs.observed(), lineage_context(tracker):
        obs.reset()
        scatter_net.infer(scatter_ctx, image)
    fused = {}
    for node in tracker.nodes.values():
        if node.op == FUSED_SUM_OP:
            fused.setdefault(node.layer, []).append(node)
    roots = tracker.roots()
    assert len(fused["Cnv1"]) == 2 and len(fused["Fc1"]) == 4
    assert all(n.parents == tuple(roots) for n in fused["Cnv1"])
    assert all(len(n.parents) == 2 for n in fused["Fc1"])
    for node in fused["Cnv1"] + fused["Fc1"]:
        assert node.noise_bits_after is not None
        assert node.level_after == node.level_before - 1
    assert tracker.propagation_failures == 0
    assert tracker.is_connected()
    pcmults = sum(layer.op_counts.get(HeOp.PC_MULT, 0)
                  for layer in scatter_net.trace().layers)
    assert tracker.op_counts()["PCmult"] == pcmults

    conv = scatter_net.layers[0]
    cts = scatter_net.encrypt_input(scatter_ctx, image)
    rec = OperationRecorder()
    with obs.observed():
        obs.reset()
        conv.forward(Evaluator(scatter_ctx, recorder=rec), cts)
        reg = obs.get_registry()
        totals = {op: reg.counter("he_ops_total", op=op.value).value
                  for op in rec.counts}
    assert totals == rec.counts == {
        op: n for op, n in conv.trace(scatter_ctx.params.level).op_counts.items()
        if n
    }
