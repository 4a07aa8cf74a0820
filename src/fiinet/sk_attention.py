"""Selective-kernel attention over cross channels (the Fuse and Select stages).

Fuse joins the pair branch (B,C2,k) and the triple branch (B,C3,k) along
the channel axis into the (B,C,k) cross channels, pools each channel to a
global scalar, and squeezes the C-length statistic through a
reduce/excite bottleneck.  Select scores every channel with two branch
matrices and normalizes the pair of logits with a two-way softmax,
yielding convex weights (a_c, b_c) per channel.  Each channel belongs to
one branch, so the output map scales it by one weight: a_c on pair
channels, b_c on triple channels.

The two-way softmax is computed as a sigmoid of the logit difference, which
is the max-subtraction form, and the second weight as 1 - a_c, so the pair
sums to one exactly in floating point.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import engine as eg
from .crosses import ChannelLayout
from .errors import DataError, ShapeError

DEFAULT_REDUCTION_RATIO = 3
DEFAULT_MIN_REDUCED_DIM = 8
POOLING_MODES = ("mean", "max")


def reduced_dim(num_channels: int, ratio: int, min_dim: int = DEFAULT_MIN_REDUCED_DIM) -> int:
    """Bottleneck width d = max(ceil(C/r), d_min); d_min guards tiny layouts."""
    if num_channels <= 0 or ratio <= 0 or min_dim <= 0:
        raise ShapeError("reduced_dim arguments must be positive")
    return max(math.ceil(num_channels / ratio), min_dim)


@dataclass
class SkParams:
    """Reduce matrix and the two branch excite matrices."""

    w1: eg.Tensor  # (d, C)
    branch_a: eg.Tensor  # (C, d), scores the second-order branch
    branch_b: eg.Tensor  # (C, d), scores the third-order branch


def init_sk_params(
    store: eg.ParameterStore,
    num_channels: int,
    ratio: int = DEFAULT_REDUCTION_RATIO,
    min_dim: int = DEFAULT_MIN_REDUCED_DIM,
    seed: int = 0,
) -> SkParams:
    """Register the attention parameters.

    The two branch matrices start from the identical Xavier draw so every
    channel weight is exactly 0.5 before training, which makes before/after
    weight comparisons well-defined.
    """
    d = reduced_dim(num_channels, ratio, min_dim)
    w1 = store.register("sk/w1", eg.xavier_init((d, num_channels), seed, "sk/w1", store.dtype))
    ab = eg.xavier_init((num_channels, d), seed, "sk/branches", store.dtype)
    branch_a = store.register("sk/A", ab)
    branch_b = store.register("sk/B", ab.copy())
    return SkParams(w1=w1, branch_a=branch_a, branch_b=branch_b)


def fuse(branch2: eg.Tensor, branch3: eg.Tensor) -> eg.Tensor:
    """Pair channels then triple channels: (B,C2,k) and (B,C3,k) -> (B,C,k)."""
    return eg.concat_channels([branch2, branch3])


def global_pool(fused: eg.Tensor, mode: str = "mean") -> eg.Tensor:
    """Compress (B,C,k) to per-channel statistics (B,C).

    Mean pooling is the default; max pooling is kept as an option.
    """
    if fused.data.ndim != 3:
        raise ShapeError(f"global_pool expects (B,C,k), got {fused.data.shape}")
    if fused.data.shape[-1] == 0:
        raise ShapeError("global_pool over empty embedding dimension")
    if mode == "mean":
        return eg.mean_lastdim(fused)
    if mode == "max":
        return eg.max_lastdim(fused)
    raise ShapeError(f"unknown pooling mode '{mode}'")


def reduce_descriptor(stats: eg.Tensor, w1: eg.Tensor) -> eg.Tensor:
    """Squeeze the channel statistics: s = relu(w1 . Z), batched (B,C)->(B,d)."""
    return eg.relu(eg.linear(stats, w1))


def select_softmax(descriptor: eg.Tensor, branch_a: eg.Tensor, branch_b: eg.Tensor):
    """Per-channel two-way softmax over the branch logits.

    Returns (a, b), each (B,C), with a_c + b_c = 1 exactly and both in (0,1).
    """
    logits_a = eg.linear(descriptor, branch_a)
    logits_b = eg.linear(descriptor, branch_b)
    a = eg.sigmoid(eg.sub(logits_a, logits_b))
    b = eg.one_minus(a)
    return a, b


def apply_select(fused: eg.Tensor, a: eg.Tensor, b: eg.Tensor, num_pairs: int) -> eg.Tensor:
    """Attention-weighted output map: pair channel c scaled by a_c, triple
    channel c by b_c, as one scale by w = [a[:, :C2] | b[:, C2:]]."""
    return eg.scale_channels(fused, eg.join_columns(a, b, num_pairs))


def channel_weight_means(a: np.ndarray, b: np.ndarray, layout: ChannelLayout) -> np.ndarray:
    """Mean effective weight per channel over a sample: a_c on pair channels,
    b_c on triple channels (the weight multiplying the live branch)."""
    if a.ndim != 2 or a.shape != b.shape or a.shape[1] != layout.num_channels:
        raise ShapeError("weight arrays must be (N,C) on the model layout")
    if a.shape[0] == 0:
        raise DataError("empty sample for attention export")
    means = np.empty(layout.num_channels, dtype=np.float64)
    means[: layout.num_pairs] = a[:, : layout.num_pairs].mean(axis=0)
    means[layout.num_pairs :] = b[:, layout.num_pairs :].mean(axis=0)
    return means


def write_attention_report(
    path,
    layout: ChannelLayout,
    field_names: list[str],
    weights_before: np.ndarray,
    weights_after: np.ndarray,
) -> None:
    """Per-channel interpretability report, one row per cross combination."""
    if len(weights_before) != layout.num_channels or len(weights_after) != layout.num_channels:
        raise ShapeError("weight vectors must have one entry per channel")
    with open(path, "w", encoding="utf-8") as f:
        f.write("channel\torder\tfields\tweight_before\tweight_after\n")
        for c in range(layout.num_channels):
            names = ",".join(field_names[i] for i in layout.channel_fields(c))
            f.write(
                f"{c}\t{layout.channel_order(c)}\t{names}"
                f"\t{weights_before[c]:.6f}\t{weights_after[c]:.6f}\n"
            )
