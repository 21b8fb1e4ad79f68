"""LoLa-style ciphertext packing for HE-CNN layers.

The paper adopts LoLa's [5] input/weight packing (Sec. VII-A), in which the
CNN's data layout inside ciphertext slots is reorganized so that:

* a convolution becomes a single loop of ``PCmult -> Rescale -> CCadd`` over
  *kernel offsets* (paper Listing 1) — an **NKS** layer;
* a fully connected layer becomes ``PCmult`` with stacked matrix rows
  followed by a rotate-and-sum reduction (``Rotate`` + ``CCadd``
  iterations) — a **KS** layer (paper Sec. V-A, Fig. 3).

This module defines the slot-layout bookkeeping and the client/server-side
packing math; the layers in :mod:`repro.hecnn.layers` consume it both for
functional encrypted execution and for analytic operation-trace extraction.

Packing scheme details
----------------------

**Convolution.**  For a conv with ``K`` kernel offsets (channel x ky x kx),
``P`` output positions and ``M`` output maps, the client sends ``K``
ciphertexts; ciphertext ``k`` holds, at slot ``m_local * P + p``, the input
pixel that kernel offset ``k`` touches when computing output position ``p``
(replicated across the per-map blocks ``m_local``).  The server multiplies
each by a weight plaintext carrying ``w[m][k]`` across map block ``m`` and
accumulates.  When ``M * P`` exceeds the slot count, output maps are split
into groups, one output ciphertext per group — the input ciphertexts are
shared by all groups.

**Dense.**  Inputs of width ``W`` occupying slots ``[0, W)`` are replicated
into ``C = slots // B`` blocks of width ``B = next_pow2(W)``.  Rows are
processed ``C`` at a time ("chunks"); chunk ``j``'s weight plaintext uses a
wrap-around diagonal placement so that after a sliding rotate-and-sum of
``log2(B)`` rotations, the dot product of row ``j*C + b`` lands exactly at
slot ``b*B + j`` — chunks then merge with plain ``CCadd`` and **no** extra
rotations.  For scattered inputs (the output of a previous dense layer) the
reduction uses a two-phase schedule (intra-block window then inter-block
strides), and per-row results merge through a shift-by-one accumulator that
needs only a single rotation key.

**Dense, diagonal.**  When the input is clean and contiguous but
``next_pow2(W)`` already fills every slot (``C == 1``), replication buys
nothing and the replicated regime would run one chunk — and one full-width
rotate-and-sum — per row.  Instead the layer runs a hybrid Halevi-Shoup
product over ``m' = next_pow2(rows)`` diagonals ``d_i[k] = W[k mod m',
(k + i) mod S]``: ``sum_i d_i * rot(x, i)`` leaves, in every slot ``k``, a
partial dot product of row ``k mod m'``, and a ``log2(S / m')``-step fold
over the strides ``S/2 .. m'`` completes row ``r`` at slot ``r``.  The sum
over ``i = g * b1 + j`` runs baby-step/giant-step: ``b1 - 1`` hoisted baby
rotations of the input, ``G - 1`` giant rotations of the partial sums, with
giant block ``g``'s diagonals pre-rotated by ``-g * b1``.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .reference import ConvSpec, DenseSpec


def next_pow2(x: int) -> int:
    """Smallest power of two >= x (x >= 1)."""
    if x < 1:
        raise ValueError("x must be >= 1")
    return 1 << (x - 1).bit_length()


@dataclass(frozen=True)
class SlotLayout:
    """Where each logical value of a layer boundary lives.

    Attributes
    ----------
    slot_count:
        Slots per ciphertext.
    num_cts:
        Number of ciphertexts the values span.
    ct_index / slot_index:
        Parallel arrays mapping value ``v`` to ``(ct, slot)``.
    clean:
        True if every slot *not* listed is exactly zero — required before a
        dense layer may replicate the input into multiple blocks.
    block_stride / offset_span:
        Structural metadata set by dense outputs: values sit at slots
        ``b * block_stride + j`` with ``j < offset_span``.  Enables the
        reduced two-phase rotation schedule downstream.
    """

    slot_count: int
    num_cts: int
    ct_index: np.ndarray
    slot_index: np.ndarray
    clean: bool
    block_stride: int | None = None
    offset_span: int | None = None

    def __post_init__(self) -> None:
        if self.ct_index.shape != self.slot_index.shape:
            raise ValueError("ct_index and slot_index must align")
        if len(self.ct_index) and int(self.ct_index.max()) >= self.num_cts:
            raise ValueError("ct_index out of range")
        if len(self.slot_index) and int(self.slot_index.max()) >= self.slot_count:
            raise ValueError("slot_index out of range")

    @property
    def value_count(self) -> int:
        return len(self.ct_index)

    def positions_for_ct(self, ct: int) -> np.ndarray:
        """Value indices living in ciphertext ``ct``."""
        return np.nonzero(self.ct_index == ct)[0]

    @classmethod
    def contiguous(cls, slot_count: int, width: int, clean: bool = True) -> "SlotLayout":
        """Values ``0..width-1`` at slots ``0..width-1`` of one ciphertext."""
        if width > slot_count:
            raise ValueError("width exceeds slot count")
        return cls(
            slot_count=slot_count,
            num_cts=1,
            ct_index=np.zeros(width, dtype=np.int64),
            slot_index=np.arange(width, dtype=np.int64),
            clean=clean,
        )

    def gather(self, flat_values: np.ndarray) -> list[np.ndarray]:
        """Scatter a flat value vector into per-ciphertext slot vectors.

        Test/diagnostic helper: produces the slot contents a noiseless
        execution would yield at this boundary.
        """
        if len(flat_values) != self.value_count:
            raise ValueError("value count mismatch")
        out = [np.zeros(self.slot_count) for _ in range(self.num_cts)]
        for v, (c, s) in enumerate(zip(self.ct_index, self.slot_index)):
            out[c][s] = flat_values[v]
        return out

    def extract(self, slot_vectors: list[np.ndarray]) -> np.ndarray:
        """Read the layout's values back out of per-ciphertext slot vectors."""
        return np.array(
            [slot_vectors[c][s] for c, s in zip(self.ct_index, self.slot_index)]
        )


# ---------------------------------------------------------------------------
# Convolution packing
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class ConvPacking:
    """Server/client-agreed packing plan for one convolution layer."""

    spec: ConvSpec
    slot_count: int
    maps_per_group: int = field(init=False)
    num_groups: int = field(init=False)

    def __post_init__(self) -> None:
        p = self.spec.out_positions
        if p > self.slot_count:
            raise ValueError(
                f"{p} output positions do not fit in {self.slot_count} slots"
            )
        mpg = min(self.spec.out_channels, self.slot_count // p)
        object.__setattr__(self, "maps_per_group", mpg)
        object.__setattr__(
            self, "num_groups", -(-self.spec.out_channels // mpg)
        )

    # -- client side -------------------------------------------------------------

    def gather_offsets(self, image: np.ndarray) -> list[np.ndarray]:
        """Build the ``K`` per-offset slot vectors the client encrypts.

        Vector ``k`` holds, at slot ``m_local * P + p``, the padded input
        pixel at channel/dy/dx offset ``k`` of output window ``p``.
        """
        s = self.spec
        padded = np.pad(image, ((0, 0), (s.padding, s.padding), (s.padding, s.padding)))
        p_count = s.out_positions
        vectors: list[np.ndarray] = []
        oy, ox = np.divmod(np.arange(p_count), s.out_size)
        base_y = oy * s.stride
        base_x = ox * s.stride
        for c in range(s.in_channels):
            for ky in range(s.kernel_size):
                for kx in range(s.kernel_size):
                    window_vals = padded[c, base_y + ky, base_x + kx]
                    vec = np.zeros(self.slot_count)
                    for m_local in range(self.maps_per_group):
                        vec[m_local * p_count : m_local * p_count + p_count] = (
                            window_vals
                        )
                    vectors.append(vec)
        return vectors

    # -- server side -------------------------------------------------------------

    def weight_vector(self, group: int, offset: int, weights: np.ndarray) -> np.ndarray:
        """Weight plaintext slots for one (group, kernel offset) PCmult."""
        s = self.spec
        c, rem = divmod(offset, s.kernel_size * s.kernel_size)
        ky, kx = divmod(rem, s.kernel_size)
        vec = np.zeros(self.slot_count)
        p_count = s.out_positions
        for m_local in range(self.maps_per_group):
            m = group * self.maps_per_group + m_local
            if m >= s.out_channels:
                break
            vec[m_local * p_count : (m_local + 1) * p_count] = weights[m, c, ky, kx]
        return vec

    def bias_vector(self, group: int, bias: np.ndarray) -> np.ndarray:
        """Bias plaintext slots for one group's final PCadd."""
        s = self.spec
        vec = np.zeros(self.slot_count)
        p_count = s.out_positions
        for m_local in range(self.maps_per_group):
            m = group * self.maps_per_group + m_local
            if m >= s.out_channels:
                break
            vec[m_local * p_count : (m_local + 1) * p_count] = bias[m]
        return vec

    def output_layout(self) -> SlotLayout:
        """Layout of the conv output: value ``m * P + p`` at group ``m //
        mpg``, slot ``(m % mpg) * P + p``."""
        s = self.spec
        p_count = s.out_positions
        values = np.arange(s.output_count)
        m, p = np.divmod(values, p_count)
        ct = m // self.maps_per_group
        slot = (m % self.maps_per_group) * p_count + p
        return SlotLayout(
            slot_count=self.slot_count,
            num_cts=self.num_groups,
            ct_index=ct.astype(np.int64),
            slot_index=slot.astype(np.int64),
            clean=True,
        )


# ---------------------------------------------------------------------------
# Dense packing
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class RotationPhase:
    """One phase of a rotate-and-sum reduction: steps are applied in order,
    each followed by a (pipeline-fused) CCadd."""

    steps: tuple[int, ...]


@dataclass(frozen=True)
class DensePacking:
    """Packing plan for one fully connected (KS-type) layer.

    Three regimes, chosen from the input layout:

    * **replicated** (clean contiguous input, ``C > 1``): ``C`` copies,
      wrap-around diagonal weights, outputs at ``b * B + j``;
    * **diagonal** (clean contiguous input, ``C == 1``): one BSGS
      Halevi-Shoup product over ``m'`` diagonals, row ``r`` at slot ``r``
      of a single output ciphertext;
    * **scattered** (previous dense output): one chunk per row, two-phase
      reduction, outputs merged via a shift-by-one accumulator.
    """

    spec: DenseSpec
    input_layout: SlotLayout
    #: When False (the network's final layer), chunk results are returned as
    #: separate ciphertexts instead of being masked and merged — saving the
    #: mask level and the merge rotations, exactly like LoLa's output layer.
    merge_output: bool = True
    slot_count: int = field(init=False)
    replicated: bool = field(init=False)
    diagonal: bool = field(init=False)
    block_width: int = field(init=False)
    copies: int = field(init=False)
    num_chunks: int = field(init=False)

    def __post_init__(self) -> None:
        lay = self.input_layout
        if lay.value_count != self.spec.in_features:
            raise ValueError(
                f"layout carries {lay.value_count} values, layer expects "
                f"{self.spec.in_features}"
            )
        object.__setattr__(self, "slot_count", lay.slot_count)
        contiguous = (
            lay.clean
            and lay.num_cts == 1
            and bool(np.all(lay.ct_index == 0))
            and bool(np.array_equal(lay.slot_index, np.arange(lay.value_count)))
        )
        diagonal = contiguous and (
            next_pow2(self.spec.in_features) == lay.slot_count
        )
        replicated = contiguous and not diagonal
        object.__setattr__(self, "replicated", replicated)
        object.__setattr__(self, "diagonal", diagonal)
        if diagonal:
            if self.spec.out_features > lay.slot_count:
                raise ValueError("too many rows for the diagonal packing")
            b, c, chunks = lay.slot_count, 1, 1
        elif replicated:
            b = next_pow2(self.spec.in_features)
            c = max(1, lay.slot_count // b)
            chunks = -(-self.spec.out_features // c)
            if chunks > b:
                # The diagonal shift j must stay below the block width.
                raise ValueError("too many rows for the replicated packing")
        else:
            b = lay.slot_count
            c = 1
            chunks = self.spec.out_features
        object.__setattr__(self, "block_width", b)
        object.__setattr__(self, "copies", c)
        object.__setattr__(self, "num_chunks", chunks)

    # -- diagonal (BSGS) regime --------------------------------------------------

    @property
    def diagonal_count(self) -> int:
        """``m' = next_pow2(rows)``: diagonals of the Halevi-Shoup product."""
        return next_pow2(self.spec.out_features)

    @property
    def baby_steps(self) -> int:
        """``b1 = 2^ceil(log2(m') / 2)``: input rotations ``0 .. b1-1``."""
        log_m = self.diagonal_count.bit_length() - 1
        return 1 << -(-log_m // 2)

    @property
    def giant_steps(self) -> int:
        """``G = m' / b1``: giant blocks, rotated by ``g * b1``."""
        return self.diagonal_count // self.baby_steps

    def baby_rotations(self) -> list[int]:
        """Hoisted input rotations ``1 .. b1-1`` (none outside the
        diagonal regime)."""
        return list(range(1, self.baby_steps)) if self.diagonal else []

    def giant_rotations(self) -> list[int]:
        """Rotations ``g * b1`` of giant blocks ``1 .. G-1``."""
        if not self.diagonal:
            return []
        return [g * self.baby_steps for g in range(1, self.giant_steps)]

    def diagonal_vector(self, i: int, weights: np.ndarray) -> np.ndarray:
        """Diagonal ``d_i[k] = W[k mod m', (k + i) mod S]``, zero outside W."""
        k = np.arange(self.slot_count)
        row = k % self.diagonal_count
        col = (k + i) % self.slot_count
        inside = (row < self.spec.out_features) & (col < self.spec.in_features)
        vec = np.zeros(self.slot_count)
        vec[inside] = weights[row[inside], col[inside]]
        return vec

    def bsgs_weight_vector(
        self, giant: int, baby: int, weights: np.ndarray
    ) -> np.ndarray:
        """Plaintext multiplying baby rotation ``baby`` in giant block
        ``giant``: diagonal ``giant * b1 + baby`` pre-rotated by
        ``-giant * b1``, so the block's single giant rotation lines it up."""
        shift = giant * self.baby_steps
        return np.roll(self.diagonal_vector(shift + baby, weights), shift)

    # -- replication -------------------------------------------------------------

    def replication_steps(self) -> list[int]:
        """Left-rotation steps that replicate block 0 into all ``C`` blocks.

        Each step doubles the number of copies (rotate right by
        ``B * 2^t`` == rotate left by ``S - B * 2^t``, then CCadd).
        """
        if not self.replicated or self.copies == 1:
            return []
        steps = []
        width = self.block_width
        while width * 2 <= self.block_width * self.copies:
            steps.append(self.slot_count - width)
            width *= 2
        return steps

    # -- weight plaintexts ----------------------------------------------------------

    def weight_vector(
        self, chunk: int, input_ct: int, weights: np.ndarray
    ) -> np.ndarray:
        """Weight plaintext slots for one (chunk, input ciphertext) PCmult.

        Replicated regime: wrap-around diagonal placement (see module
        docstring).  Scattered regime: row ``chunk``'s weights at the input
        layout's positions within ``input_ct``.
        """
        if self.diagonal:
            raise ValueError("diagonal packing: use bsgs_weight_vector")
        vec = np.zeros(self.slot_count)
        lay = self.input_layout
        if self.replicated:
            b_width, c, j = self.block_width, self.copies, chunk
            for b in range(c):
                for u in range(self.spec.in_features):
                    # Slots below the diagonal shift serve the previous
                    # block's row (the rotate-and-sum window wraps there).
                    owner_block = b if u >= j else (b - 1) % c
                    row = j * c + owner_block
                    if row < self.spec.out_features:
                        vec[b * b_width + u] = weights[row, u]
            return vec
        row = chunk
        mask = lay.ct_index == input_ct
        vec[lay.slot_index[mask]] = weights[row, np.nonzero(mask)[0]]
        return vec

    def bias_vector(self, bias: np.ndarray) -> np.ndarray:
        """Bias plaintext matching a single-ciphertext output layout (one
        PCadd): every merged packing and the diagonal regime."""
        if not (self.merge_output or self.diagonal):
            raise ValueError("unmerged packing: use chunk_bias_vector")
        vec = np.zeros(self.slot_count)
        out = self.output_layout()
        vec[out.slot_index] = bias
        return vec

    def chunk_bias_vector(self, chunk: int, bias: np.ndarray) -> np.ndarray:
        """Bias plaintext for one chunk's (unmerged) output ciphertext."""
        vec = np.zeros(self.slot_count)
        if self.replicated:
            for b in range(self.copies):
                row = chunk * self.copies + b
                if row < self.spec.out_features:
                    vec[b * self.block_width + chunk] = bias[row]
        else:
            vec[0] = bias[chunk]
        return vec

    # -- reductions ------------------------------------------------------------------

    def rotation_phases(self) -> list[RotationPhase]:
        """The rotate-and-sum schedule applied after each chunk's PCmult
        (diagonal regime: the fold over strides ``S/2 .. m'`` after the
        BSGS sum)."""
        if self.diagonal:
            steps = []
            step = self.slot_count // 2
            while step >= self.diagonal_count:
                steps.append(step)
                step //= 2
            return [RotationPhase(tuple(steps))]
        if self.replicated:
            steps = []
            step = self.block_width // 2
            while step >= 1:
                steps.append(step)
                step //= 2
            return [RotationPhase(tuple(steps))]
        lay = self.input_layout
        if lay.block_stride is not None and lay.offset_span is not None:
            # Two-phase: a window covering the offsets within a block, then
            # strides across the blocks.
            window = next_pow2(lay.offset_span)
            phase1 = []
            step = window // 2
            while step >= 1:
                phase1.append(step)
                step //= 2
            blocks = self.slot_count // lay.block_stride
            phase2 = [lay.block_stride * (1 << t) for t in range(max(0, blocks.bit_length() - 1))]
            return [RotationPhase(tuple(phase1)), RotationPhase(tuple(phase2))]
        # Fallback: full-width reduction.
        steps = []
        step = self.slot_count // 2
        while step >= 1:
            steps.append(step)
            step //= 2
        return [RotationPhase(tuple(steps))]

    @property
    def needs_mask(self) -> bool:
        """Whether chunk results must be masked before merging.

        The sliding rotate-and-sum fills *every* slot, so adding two chunk
        results would pollute each other's output slots.  With more than
        one chunk, each result is therefore multiplied by a 0/1 mask
        plaintext (one extra PCmult + Rescale per chunk, consuming one
        additional ciphertext level for the layer).  This is exactly the
        slack the paper's parameter choice provides: L = 7 supports the
        5 multiplications of the network plus the dense-layer re-packing.

        The diagonal regime's fold also fills every slot; with more than one
        row a merged output is masked the same way, so it stays clean.
        """
        if self.diagonal:
            return self.merge_output and self.spec.out_features > 1
        return self.merge_output and self.num_chunks > 1

    def mask_vector(self, chunk: int) -> np.ndarray:
        """The 0/1 plaintext isolating one chunk's output slots."""
        vec = np.zeros(self.slot_count)
        if self.diagonal:
            vec[: self.spec.out_features] = 1.0
        elif self.replicated:
            for b in range(self.copies):
                row = chunk * self.copies + b
                if row < self.spec.out_features:
                    vec[b * self.block_width + chunk] = 1.0
        else:
            vec[0] = 1.0  # scattered chunks reduce into slot 0
        return vec

    def merge_rotation_steps(self) -> list[int]:
        """Rotations needed to merge chunk results into one ciphertext.

        Replicated and diagonal regimes: none (the diagonal placement puts
        outputs directly).  Scattered regime: ``chunks - 1`` shift-by-one
        rotations of the accumulator (all the same step — one rotation
        key).  Unmerged output layers need none."""
        if self.replicated or self.diagonal or not self.merge_output:
            return []
        return [self.slot_count - 1] * (self.num_chunks - 1)

    def rotation_steps_needed(self) -> list[int]:
        """All distinct logical rotation steps (the layer trace's
        ``rotation_steps``; keys come from ``PackedDense.rotation_keys``)."""
        steps: list[int] = []
        steps.extend(self.replication_steps())
        steps.extend(self.baby_rotations())
        steps.extend(self.giant_rotations())
        for phase in self.rotation_phases():
            steps.extend(phase.steps)
        steps.extend(self.merge_rotation_steps())
        return sorted(set(steps))

    def output_layout(self) -> SlotLayout:
        """Layout of the merged dense output.

        Masked merges leave every non-output slot exactly zero (clean);
        a single unmasked chunk leaves sliding-sum residue elsewhere.
        Unmerged (output-layer) packings spread chunk results over separate
        ciphertexts.
        """
        rows = np.arange(self.spec.out_features)
        if self.diagonal:
            # Row r at slot r of the one output ciphertext — the replicated
            # regime's C == 1 layout.
            return SlotLayout(
                slot_count=self.slot_count,
                num_cts=1,
                ct_index=np.zeros_like(rows),
                slot_index=rows.astype(np.int64),
                clean=self.needs_mask,
                block_stride=self.slot_count,
                offset_span=self.spec.out_features,
            )
        if not self.merge_output:
            if self.replicated:
                j, b = np.divmod(rows, self.copies)
                return SlotLayout(
                    slot_count=self.slot_count,
                    num_cts=self.num_chunks,
                    ct_index=j.astype(np.int64),
                    slot_index=(b * self.block_width + j).astype(np.int64),
                    clean=False,
                )
            # Scattered: row r reduces into slot 0 of its own ciphertext.
            return SlotLayout(
                slot_count=self.slot_count,
                num_cts=self.num_chunks,
                ct_index=rows.astype(np.int64),
                slot_index=np.zeros_like(rows),
                clean=False,
            )
        if self.replicated:
            j, b = np.divmod(rows, self.copies)
            slot = b * self.block_width + j
            return SlotLayout(
                slot_count=self.slot_count,
                num_cts=1,
                ct_index=np.zeros_like(rows),
                slot_index=slot.astype(np.int64),
                clean=self.needs_mask,
                block_stride=self.block_width,
                offset_span=self.num_chunks,
            )
        # Scattered regime: accumulator merging leaves row r at slot r.
        return SlotLayout(
            slot_count=self.slot_count,
            num_cts=1,
            ct_index=np.zeros_like(rows),
            slot_index=rows.astype(np.int64),
            clean=self.needs_mask,
            block_stride=self.slot_count,
            offset_span=self.spec.out_features,
        )
