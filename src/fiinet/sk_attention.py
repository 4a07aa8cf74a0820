"""Selective-kernel attention over cross channels (the Select stage).

The cross channels arrive as the branch list [pairs (B,C2,k), triples
(B,C3,k)], in layout order; C = C2 + C3.  SKNet's Fuse, the (B,C,k) join
of the branches, is never built: ``select_weights`` pools each branch's
channels to their global means, joined into one (B,C) statistic, squeezes
it through a reduce/excite bottleneck, scores every channel with two branch
matrices and normalizes the pair of logits with a two-way softmax,
yielding convex weights (a_c, b_c) per channel.  Each channel belongs to
one branch, so the output map scales it by one weight: a_c on pair
channels, b_c = 1 - a_c on triple channels.  ``select_weights`` returns a
alone; the model turns it into that one (B,C) weight,
w = [a[:, :C2] | 1 - a[:, C2:]] (``engine.complement_from``), and its
first DNN layer (``engine.branch_linear``) scales the branches by it as it
reads them, so neither b nor the output map is kept.

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
from .errors import DataError, ShapeError, _replacing
from .ingest import _ESCAPES, _field_names

REDUCTION_RATIO = 3
DEFAULT_MIN_REDUCED_DIM = 8


def reduced_dim(num_channels: int, min_dim: int = DEFAULT_MIN_REDUCED_DIM) -> int:
    """Bottleneck width d = max(ceil(C/r), d_min) at r = REDUCTION_RATIO;
    d_min guards tiny layouts."""
    if num_channels <= 0 or min_dim <= 0:
        raise ShapeError("reduced_dim arguments must be positive")
    return max(math.ceil(num_channels / REDUCTION_RATIO), min_dim)


@dataclass
class SkParams:
    """Reduce matrix and the two branch excite matrices."""

    w1: eg.Tensor  # (d, C)
    branch_a: eg.Tensor  # (C, d), scores the second-order branch
    branch_b: eg.Tensor  # (C, d), scores the third-order branch


def init_sk_params(
    store: eg.ParameterStore,
    num_channels: int,
    min_dim: int = DEFAULT_MIN_REDUCED_DIM,
    seed: int = 0,
) -> SkParams:
    """Register the attention parameters.

    The two branch matrices are drawn from the same named Xavier stream, so
    they start bit-equal and every channel weight is exactly 0.5 before
    training, which makes before/after weight comparisons well-defined.
    """
    d = reduced_dim(num_channels, min_dim)
    dtype = store.dtype
    w1 = store.register(
        "sk/w1", (d, num_channels), lambda: eg.xavier_init((d, num_channels), seed, "sk/w1", dtype)
    )

    def branches():
        return eg.xavier_init((num_channels, d), seed, "sk/branches", dtype)

    branch_a = store.register("sk/A", (num_channels, d), branches)
    branch_b = store.register("sk/B", (num_channels, d), branches)
    return SkParams(w1=w1, branch_a=branch_a, branch_b=branch_b)


def select_weights(branches: list[eg.Tensor], params: SkParams) -> eg.Tensor:
    """Per-channel select weight a (B,C) of the (B,C_i,k) cross branches,
    C = sum of C_i; the other branch's weight is b = 1 - a.

    Squeeze each channel to its global mean Z (B,C), reduce it to the
    descriptor s = relu(w1 . Z) (B,d), and take the two-way softmax of the
    branch logits A.s and B.s: a = sigmoid(A.s - B.s), in (0,1).
    """
    descriptor = eg.relu(eg.linear(eg.mean_lastdim(branches), params.w1))
    logits_a = eg.linear(descriptor, params.branch_a)
    logits_b = eg.linear(descriptor, params.branch_b)
    return eg.sigmoid(eg.sub(logits_a, logits_b))


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
    """Per-channel interpretability report, one row per cross combination.

    Field names are written with ``Vocabulary.save``'s escapes, so a tab,
    newline or backslash in a name cannot break a row.  The names of a
    cross are joined by commas, so a name holding a comma stays ambiguous.
    A name that is not a str UTF-8 can encode, or that repeats, is refused
    before the file is opened, and a failure while writing leaves an
    earlier report at ``path`` as it was.
    """
    shape = (layout.num_channels,)
    if np.shape(weights_before) != shape or np.shape(weights_after) != shape:
        raise ShapeError(f"weight vectors must have shape {shape}, one entry per channel")
    field_names = _field_names(field_names)
    if len(field_names) != layout.num_fields:
        raise ShapeError(f"{len(field_names)} field names for {layout.num_fields} fields")
    with _replacing(path, "attention report", "x", encoding="utf-8") as f:
        f.write("channel\torder\tfields\tweight_before\tweight_after\n")
        for c in range(layout.num_channels):
            names = ",".join(field_names[i].translate(_ESCAPES) for i in layout.channel_fields(c))
            f.write(
                f"{c}\t{layout.channel_order(c)}\t{names}"
                f"\t{weights_before[c]:.6f}\t{weights_after[c]:.6f}\n"
            )
