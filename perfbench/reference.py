"""Checks computed apart from the program: a plain-numpy forward pass,
AUC, logloss and a directional finite-difference gradient check.

The forward passes read only parameter arrays (``params.state_arrays()``)
and restate the model from its definition, so a fault in the engine's
ops, the cross layout or the attention layer shows as a mismatch.
"""

from __future__ import annotations

from itertools import combinations
from typing import Callable

import numpy as np

PROB_EPS = 1e-7


def _sigmoid(z: np.ndarray) -> np.ndarray:
    return 0.5 * (1.0 + np.tanh(0.5 * z))


def _linear_logit(state: dict, names: list[str], idx: np.ndarray) -> np.ndarray:
    z = np.full(idx.shape[0], float(state["linear/bias"][0]))
    for f, name in enumerate(names):
        z += state[f"linear/{name}"][idx[:, f], 0]
    return z


def _embeddings(state: dict, names: list[str], idx: np.ndarray) -> np.ndarray:
    return np.stack(
        [state[f"embed/{name}"][idx[:, f]].astype(np.float64) for f, name in enumerate(names)],
        axis=1,
    )


def fm_forward(state: dict, names: list[str], idx: np.ndarray) -> np.ndarray:
    """FM probabilities with the pairwise term summed pair by pair."""
    e = _embeddings(state, names, idx)
    z = _linear_logit(state, names, idx)
    for i, j in combinations(range(len(names)), 2):
        z += (e[:, i, :] * e[:, j, :]).sum(axis=1)
    return np.clip(_sigmoid(z), PROB_EPS, 1.0 - PROB_EPS)


def fiinet_attention(state: dict, names: list[str], idx: np.ndarray):
    """Cross channels (B,C,k) and the pair-branch weights a (B,C).

    Channels are all field pairs then all field triples, each in
    lexicographic order; a channel holds the Hadamard product of its
    fields' embeddings.
    """
    e = _embeddings(state, names, idx)
    f = len(names)
    crosses = [e[:, i] * e[:, j] for i, j in combinations(range(f), 2)]
    crosses += [e[:, i] * e[:, j] * e[:, k] for i, j, k in combinations(range(f), 3)]
    u = np.stack(crosses, axis=1)
    stats = u.mean(axis=2)  # mean pool over the embedding axis
    s = np.maximum(stats @ state["sk/w1"].T, 0.0)  # reduce
    # two-way softmax over the branch logits
    la, lb = s @ state["sk/A"].T, s @ state["sk/B"].T
    m = np.maximum(la, lb)
    a = np.exp(la - m) / (np.exp(la - m) + np.exp(lb - m))
    return u, a


def fiinet_forward(state: dict, names: list[str], idx: np.ndarray) -> np.ndarray:
    """FiiNet probabilities in evaluation mode (dropout off)."""
    u, a = fiinet_attention(state, names, idx)
    c2 = len(names) * (len(names) - 1) // 2
    w = np.concatenate([a[:, :c2], 1.0 - a[:, c2:]], axis=1)  # select
    h = (u * w[:, :, None]).reshape(idx.shape[0], -1)
    layer = 0
    while f"dnn/w{layer}" in state:
        h = np.maximum(h @ state[f"dnn/w{layer}"].T + state[f"dnn/b{layer}"], 0.0)
        layer += 1
    deep = (h @ state["dnn/head_w"].T)[:, 0] + state["dnn/head_b"][0]
    z = _linear_logit(state, names, idx) + deep
    return np.clip(_sigmoid(z), PROB_EPS, 1.0 - PROB_EPS)


def auc(labels: np.ndarray, scores: np.ndarray) -> float:
    """Rank-sum AUC; tied scores share their average rank."""
    y = np.asarray(labels).astype(bool)
    s = np.asarray(scores, dtype=np.float64)
    n_pos = int(y.sum())
    n_neg = y.size - n_pos
    if n_pos == 0 or n_neg == 0:
        raise ValueError("AUC needs both classes")
    order = np.argsort(s, kind="mergesort")
    sorted_s = s[order]
    starts = np.flatnonzero(np.r_[True, sorted_s[1:] != sorted_s[:-1]])
    ends = np.r_[starts[1:], s.size]
    avg_rank = (starts + ends + 1) / 2.0  # mean of the 1-based ranks start+1..end
    ranks = np.empty(s.size)
    ranks[order] = np.repeat(avg_rank, ends - starts)
    return float((ranks[y].sum() - n_pos * (n_pos + 1) / 2.0) / (n_pos * n_neg))


def logloss(labels: np.ndarray, probs: np.ndarray) -> float:
    y = np.asarray(labels, dtype=np.float64)
    p = np.clip(np.asarray(probs, dtype=np.float64), PROB_EPS, 1.0 - PROB_EPS)
    return float(-(y * np.log(p) + (1.0 - y) * np.log1p(-p)).mean())


def directional_derivatives(
    loss_fn: Callable[[], float],
    grad_fn: Callable[[], dict[str, np.ndarray]],
    arrays: dict[str, np.ndarray],
    seed: int,
    steps: tuple[float, ...] = (1e-5, 1e-6, 1e-7),
) -> tuple[float, list[float]]:
    """(analytic, numeric) derivatives of the loss along one random unit
    direction over all arrays.

    ``arrays`` are the float64 parameter arrays the loss reads, edited in
    place; ``grad_fn`` returns the analytic gradient by name at the
    current point.  The numeric values are central differences, one per
    step size.  A ReLU kink closer to the point than a step makes that
    step's difference wrong; a smaller step avoids it at the cost of more
    rounding error.  So a correct gradient agrees with at least one of
    them, and a wrong one with none.
    """
    rng = np.random.default_rng(seed)
    direction = {n: rng.standard_normal(a.shape) for n, a in arrays.items()}
    norm = np.sqrt(sum(float((d * d).sum()) for d in direction.values()))
    grads = grad_fn()
    analytic = sum(float((grads[n] * d).sum()) for n, d in direction.items()) / norm
    base = {n: a.copy() for n, a in arrays.items()}
    numeric = []
    for eps in steps:
        values = []
        for sign in (1.0, -1.0):
            for n, a in arrays.items():
                a[...] = base[n] + (sign * eps / norm) * direction[n]
            values.append(loss_fn())
        numeric.append((values[0] - values[1]) / (2.0 * eps))
    for n, a in arrays.items():
        a[...] = base[n]
    return analytic, numeric
