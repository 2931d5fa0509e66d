"""Temporal conv-deconv pyramid producing same-resolution, multi-context facts.

The encoder path halves the temporal length per level (pool 2 then conv 3);
the decoder path brings every coarse level back to the base resolution with
stride-2 transposed convolutions, right-trimmed to the matching encoder
length.  Every conv/deconv is followed by ReLU.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from . import tensor as T
from .errors import DimensionError, DomainError, GeometryError
from .tensor import ParameterStore, Tensor

CONV_K = 3
DECONV_K = 3


@dataclass
class ContextualFactSet:
    """N fact matrices sharing temporal resolution; one per context level."""

    levels: list[Tensor]

    def __post_init__(self):
        if len(self.levels) < 1:
            raise DomainError("ContextualFactSet: need at least one level")
        shapes = {lv.data.shape for lv in self.levels}
        if len(shapes) != 1:
            raise DimensionError(f"ContextualFactSet: levels disagree on shape: {sorted(shapes)}")

    @property
    def num_levels(self) -> int:
        return len(self.levels)

    def stacked(self) -> Tensor:
        """Levels stacked on a new axis before time: (..., N, L, C), a new graph node per call."""
        return T.stack(self.levels, axis=-3)


@dataclass
class PyramidParams:
    """Per-level conv kernels and per-transition deconv kernels for one modality."""

    convs: list[Tensor]
    deconvs: dict[tuple[int, int], Tensor] = field(default_factory=dict)

    @property
    def num_levels(self) -> int:
        return len(self.convs)

    @staticmethod
    def create(store: ParameterStore, prefix: str, input_width: int, channels: int, num_levels: int) -> "PyramidParams":
        if num_levels < 1:
            raise DomainError(f"pyramid needs at least one level, got {num_levels}")
        convs = [store.add(f"{prefix}.conv1", (CONV_K, input_width, channels))]
        for lvl in range(2, num_levels + 1):
            convs.append(store.add(f"{prefix}.conv{lvl}", (CONV_K, channels, channels)))
        deconvs = {}
        for lvl in range(2, num_levels + 1):
            for step in range(lvl - 1):
                deconvs[(lvl, step)] = store.add(f"{prefix}.deconv{lvl}_{step}", (DECONV_K, channels, channels))
        return PyramidParams(convs=convs, deconvs=deconvs)


def _level_lengths(base: int, n: int) -> list[int]:
    lengths = [base]
    for _ in range(n - 1):
        lengths.append((lengths[-1] + 1) // 2)
    return lengths


def build_contextual_facts(units: Tensor, p: PyramidParams) -> ContextualFactSet:
    """Run the ``p.num_levels``-level conv-down / deconv-up pyramid on ``units[(B,) L, D]``."""
    n = p.num_levels
    L = units.data.shape[-2]
    lengths = _level_lengths(L, n)
    if lengths[-1] < 2:
        raise GeometryError(f"input length {L} too short for {n} levels (coarsest {lengths[-1]} < 2)")

    encoder = [T.relu(T.conv1d_temporal(units, p.convs[0], stride=1, pad=1))]
    for lvl in range(2, n + 1):
        pooled = T.maxpool1d(encoder[-1])
        encoder.append(T.relu(T.conv1d_temporal(pooled, p.convs[lvl - 1], stride=1, pad=1)))

    levels = [encoder[0]]
    for lvl in range(2, n + 1):
        x = encoder[lvl - 1]
        for step in range(lvl - 1):
            target = lengths[lvl - 2 - step]
            x = T.relu(T.deconv1d_temporal(x, p.deconvs[(lvl, step)], target_len=target))
        levels.append(x)
    return ContextualFactSet(levels=levels)

