"""The diagonal (BSGS Halevi-Shoup) dense regime, end to end at N=512.

``diag_net`` (tests/hecnn/conftest.py) feeds Fc1 a 200-value input that
pads to all 256 slots, so its packing has ``copies == 1`` and runs the
diagonal regime; Fc2 reads Fc1's masked output and stays replicated.
"""

from __future__ import annotations

from collections import Counter

import numpy as np
import pytest

from repro import obs
from repro.fhe import NoiseEstimator, OperationRecorder
from repro.hecnn import (
    DensePacking,
    DenseSpec,
    SlotLayout,
    fxhenn_mnist_model,
)
from repro.hecnn.packing import next_pow2
from repro.obs.lineage import LineageTracker, lineage_context


def _image(seed: int) -> np.ndarray:
    return np.random.default_rng(seed).uniform(0, 1, (1, 12, 12))


def _fc1(net):
    return next(layer for layer in net.layers if layer.name == "Fc1")


def test_fc1_takes_the_diagonal_regime(diag_net):
    pk = _fc1(diag_net).packing
    assert pk.diagonal and not pk.replicated
    assert pk.copies == 1 and pk.block_width == pk.slot_count == 256
    assert (pk.diagonal_count, pk.baby_steps, pk.giant_steps) == (32, 8, 4)
    # Fc2 reads the masked, clean Fc1 output: replicated, as before.
    fc2 = diag_net.layers[-1].packing
    assert fc2.replicated and not fc2.diagonal and fc2.copies == 8


def test_levels_and_layout_match_the_single_copy_replicated_output(diag_net):
    fc1 = _fc1(diag_net)
    assert fc1.levels_consumed == 2
    out = fc1.output_layout
    assert out.num_cts == 1 and out.clean
    assert np.array_equal(out.slot_index, np.arange(20))
    assert (out.block_stride, out.offset_span) == (256, 20)


def test_regime_selection_leaves_other_inputs_unchanged():
    spec = DenseSpec(200, 20)
    # copies > 1: replicated regime, exactly as before.
    narrow = DensePacking(
        spec=DenseSpec(100, 20), input_layout=SlotLayout.contiguous(256, 100)
    )
    assert narrow.replicated and not narrow.diagonal
    assert (narrow.block_width, narrow.copies, narrow.num_chunks) == (128, 2, 10)
    # Unclean or scattered inputs: scattered regime.
    unclean = DensePacking(
        spec=spec, input_layout=SlotLayout.contiguous(256, 200, clean=False)
    )
    assert not unclean.diagonal and not unclean.replicated
    assert unclean.num_chunks == 20
    two_cts = SlotLayout(
        slot_count=256, num_cts=2, ct_index=np.repeat([0, 1], 100),
        slot_index=np.tile(np.arange(100), 2), clean=True,
    )
    scattered = DensePacking(spec=spec, input_layout=two_cts)
    assert not scattered.diagonal and not scattered.replicated


def test_diagonal_slot_simulation_computes_the_product():
    """Noiseless slot math of the BSGS schedule: hoisted babies, giant
    rotations of the block sums, fold, mask."""
    rng = np.random.default_rng(3)
    slots, in_f, out_f = 256, 200, 20
    pk = DensePacking(
        spec=DenseSpec(in_f, out_f),
        input_layout=SlotLayout.contiguous(slots, in_f),
    )
    w = rng.normal(size=(out_f, in_f))
    x = np.zeros(slots)
    x[:in_f] = rng.normal(size=in_f)
    b1 = pk.baby_steps
    total = np.zeros(slots)
    for g in range(pk.giant_steps):
        block = sum(
            pk.bsgs_weight_vector(g, j, w) * np.roll(x, -j) for j in range(b1)
        )
        total += np.roll(block, -g * b1)
    for phase in pk.rotation_phases():
        for step in phase.steps:
            total = total + np.roll(total, -step)
    got = pk.output_layout().extract([total * pk.mask_vector(0)])
    assert np.allclose(got, w @ x[:in_f])


def test_encrypted_logits_match_plaintext(diag_net, diag_ctx):
    for seed in range(3):
        image = _image(seed)
        enc = diag_net.infer(diag_ctx, image)
        plain = diag_net.infer_plain(image)
        assert np.max(np.abs(enc - plain)) < 2e-2
        assert int(np.argmax(enc)) == int(np.argmax(plain))


def test_recorded_ops_match_trace(diag_net, diag_ctx):
    rec = OperationRecorder()
    diag_net.infer(diag_ctx, _image(4), recorder=rec)
    trace = diag_net.trace()
    assert rec.by_phase == {lt.name: lt.op_counts for lt in trace.layers}
    fc1 = next(lt for lt in trace.layers if lt.name == "Fc1")
    # 7 baby + 3 giant rotations, then a 3-step fold (128, 64, 32).
    assert fc1.keyswitch_count == 7 + 3 + 3
    assert fc1.plaintext_count == 32 + 1 + 1  # diagonals, mask, bias


def test_noise_audit_stays_conservative(diag_net, diag_ctx):
    rows = diag_net.audit_noise(diag_ctx, _image(5))
    assert [row["layer"] for row in rows] == [
        layer.name for layer in diag_net.layers
    ]
    assert all(row["gap_bits"] >= 0 for row in rows)


def test_unmerged_diagonal_layer_returns_one_ciphertext(tiny_params):
    from repro.fhe import CkksContext, Evaluator
    from repro.hecnn import PackedDense

    rng = np.random.default_rng(12)
    ctx = CkksContext(tiny_params, seed=5)
    pk = DensePacking(
        spec=DenseSpec(150, 6),
        input_layout=SlotLayout.contiguous(ctx.slot_count, 150),
        merge_output=False,
    )
    assert pk.diagonal and not pk.needs_mask
    w = rng.normal(0, 0.2, (6, 150))
    b = rng.normal(0, 0.05, 6)
    layer = PackedDense("FcOut", pk, w, b)
    assert layer.levels_consumed == 1
    ctx.ensure_rotation_keys(sorted(layer.rotation_keys(ctx.params.level)))
    x = rng.uniform(-1, 1, 150)
    vec = np.zeros(ctx.slot_count)
    vec[:150] = x
    outs = layer.forward(Evaluator(ctx), [ctx.encrypt_values(vec)])
    assert len(outs) == 1
    got = layer.output_layout.extract([ctx.decrypt_values(outs[0])])
    assert np.allclose(got, w @ x + b, atol=2e-2)


def test_lineage_has_one_rotate_node_per_hoisted_output(
    diag_net, diag_ctx
):
    tracker = LineageTracker(estimator=NoiseEstimator.for_context(diag_ctx))
    obs.set_enabled(True)
    try:
        with lineage_context(tracker):
            diag_net.infer(diag_ctx, _image(6))
    finally:
        obs.set_enabled(False)
    fc1_nodes = [n for n in tracker.nodes.values() if n.layer == "Fc1"]
    rotates = [n for n in fc1_nodes if n.op == "Rotate"]
    pk = _fc1(diag_net).packing
    # b1 - 1 hoisted baby rotations plus G - 1 giant rotations.
    assert len(rotates) == (pk.baby_steps - 1) + (pk.giant_steps - 1)
    # The baby rotations share the Fc1 input as parent; each giant rotation
    # has its own block sum.
    fan_out = sorted(Counter(n.parents for n in rotates).values())
    assert fan_out == [1] * (pk.giant_steps - 1) + [pk.baby_steps - 1]
    assert all(n.noise_bits_after is not None for n in rotates)


def test_paper_mnist_trace_is_unchanged():
    """FxHENN-MNIST at its default N=8192 parameters keeps copies == 4, so
    the diagonal regime never applies and the trace feeding the FPGA model
    is pinned op for op."""
    model = fxhenn_mnist_model(seed=0)
    fc1 = _fc1(model).packing
    assert not fc1.diagonal and fc1.copies == 4
    assert next_pow2(fc1.spec.in_features) < fc1.slot_count
    trace = model.trace()
    got = {
        lt.name: ({op.value: n for op, n in lt.op_counts.items() if n},
                  lt.rotation_steps, lt.level)
        for lt in trace.layers
    }
    assert got == {
        "Cnv1": ({"PCmult": 25, "Rescale": 25, "CCadd": 24, "PCadd": 1},
                 (), 7),
        "Act1": ({"CCmult": 1, "KeySwitch": 1, "Rescale": 1}, (), 6),
        "Fc1": ({"PCmult": 50, "Rescale": 50, "KeySwitch": 252,
                 "CCadd": 276, "PCadd": 1},
                (1, 2, 4, 8, 16, 32, 64, 128, 256, 512, 2048, 3072), 5),
        "Act2": ({"CCmult": 1, "KeySwitch": 1, "Rescale": 1}, (), 3),
        "Fc2": ({"PCmult": 10, "Rescale": 10, "KeySwitch": 70, "CCadd": 70,
                 "PCadd": 10},
                (1, 2, 4, 8, 16, 1024, 2048), 2),
    }
    assert trace.rotation_steps() == [
        1, 2, 4, 8, 16, 32, 64, 128, 256, 512, 1024, 2048, 3072
    ]


@pytest.mark.parametrize("out_features", [1, 2, 100, 256])
def test_bsgs_split_covers_every_diagonal(out_features):
    pk = DensePacking(
        spec=DenseSpec(200, out_features),
        input_layout=SlotLayout.contiguous(256, 200),
    )
    assert pk.baby_steps * pk.giant_steps == pk.diagonal_count
    assert pk.baby_steps >= pk.giant_steps
    fold = pk.rotation_phases()[0].steps
    assert len(fold) == (256 // pk.diagonal_count).bit_length() - 1
