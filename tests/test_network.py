"""Model variants: gradients of every variant against finite differences,
FiiNet's forward against a plain-numpy restatement of the padded-branch
formula, and ModelConfig validation."""

from itertools import combinations

import numpy as np
import pytest

from fiinet import engine as eg
from fiinet.errors import ConfigError
from fiinet.ingest import FieldSchema
from fiinet.network import VARIANTS, CtrModel, ModelConfig

NUM_FIELDS = 4
CARDINALITY = 6


def small_model(variant, pooling="mean", precision="float64", seed=3):
    schemas = [FieldSchema(f"f{i}", i, CARDINALITY) for i in range(NUM_FIELDS)]
    cfg = ModelConfig(
        variant=variant, embedding_dim=3, hidden_sizes=(5,), min_reduced_dim=2,
        dropout=0.0, pooling=pooling, precision=precision, seed=seed,
    )
    model = CtrModel(schemas, cfg)
    # move off the initial point, where every select weight is exactly 0.5
    rng = np.random.default_rng(seed)
    for _, t in model.params.items():
        t.data += (0.3 * rng.standard_normal(t.data.shape)).astype(t.data.dtype)
    return model


def batch(n=7, seed=4):
    rng = np.random.default_rng(seed)
    return rng.integers(0, CARDINALITY, size=(n, NUM_FIELDS)), rng.integers(0, 2, size=n)


@pytest.mark.parametrize("pooling", ["mean", "max"])
@pytest.mark.parametrize("variant", VARIANTS)
def test_variant_gradients_pass_fd_check(variant, pooling):
    model = small_model(variant, pooling)
    x, y = batch()
    report = eg.finite_difference_check(
        lambda: model.loss(x, y), model.params, eps=1e-5, max_coords_per_group=24
    )
    assert max(report.values()) < 1e-4, report


def _sigmoid(z):
    """The engine's logistic function, restated: split by sign, then clipped."""
    out = np.empty_like(z)
    pos = z >= 0
    out[pos] = 1.0 / (1.0 + np.exp(-z[pos]))
    ez = np.exp(z[~pos])
    out[~pos] = ez / (1.0 + ez)
    np.clip(out, eg.SIGMOID_EPS, 1.0 - eg.SIGMOID_EPS, out=out)
    return out


def padded_fiinet_proba(state, names, idx, pooling):
    """FiiNet in evaluation mode with both branches zero-padded to all C
    channels and selected as a * U2 + b * U3."""
    e = np.stack([state[f"embed/{n}"][idx[:, f]] for f, n in enumerate(names)], axis=1)
    pairs = list(combinations(range(len(names)), 2))
    triples = list(combinations(range(len(names)), 3))
    c2, c = len(pairs), len(pairs) + len(triples)
    u2 = np.zeros((idx.shape[0], c, e.shape[2]), dtype=e.dtype)
    u3 = np.zeros_like(u2)
    for ch, (i, j) in enumerate(pairs):
        u2[:, ch] = e[:, i] * e[:, j]
    for ch, (i, j, k) in enumerate(triples):
        u3[:, c2 + ch] = (e[:, i] * e[:, j]) * e[:, k]
    fused = u2 + u3
    stats = fused.mean(axis=-1) if pooling == "mean" else fused.max(axis=-1)
    s = np.maximum(stats @ state["sk/w1"].T, 0)
    a = _sigmoid(s @ state["sk/A"].T - s @ state["sk/B"].T)
    b = a.dtype.type(1) - a
    h = (u2 * a[:, :, None] + u3 * b[:, :, None]).reshape(idx.shape[0], -1)
    layer = 0
    while f"dnn/w{layer}" in state:
        h = np.maximum(h @ state[f"dnn/w{layer}"].T + state[f"dnn/b{layer}"], 0)
        layer += 1
    deep = h @ state["dnn/head_w"].T + state["dnn/head_b"]
    z = state[f"linear/{names[0]}"][idx[:, 0]]
    for f in range(1, len(names)):
        z = z + state[f"linear/{names[f]}"][idx[:, f]]
    z = (z + state["linear/bias"]) + deep
    return _sigmoid(z.reshape(-1)).astype(np.float64)


@pytest.mark.parametrize("pooling", ["mean", "max"])
@pytest.mark.parametrize("precision", ["float32", "float64"])
def test_fiinet_matches_padded_formula_bitwise(precision, pooling):
    model = small_model("fiinet", pooling, precision)
    x, _ = batch(n=33, seed=9)
    names = [s.field_name for s in model.schemas]
    want = padded_fiinet_proba(model.params.state_arrays(), names, x, pooling)
    got = model.predict_proba(x)
    assert got.tobytes() == want.tobytes()


@pytest.mark.parametrize("variant,pairs,triples,attention", [
    ("fiinet", 6, 4, True), ("fiinet-sh", 6, 4, False),
    ("fiinet-h", 6, 0, False), ("fiinet-s", 0, 4, False),
])
def test_deep_variants_cross_orders_and_attention(variant, pairs, triples, attention):
    model = small_model(variant)
    assert (model.layout.num_pairs, model.layout.num_triples) == (pairs, triples)
    assert (model.sk_params is not None) == attention
    x, _ = batch()
    probs, weights = model.forward(x, return_attention=True)
    assert probs.data.shape == (7,)
    assert (weights is not None) == attention


@pytest.mark.parametrize("field,value", [
    ("variant", "deepfm"), ("pooling", "median"), ("dropout", -0.1),
    ("dropout", 1.0), ("precision", "float16"),
])
def test_config_rejects_bad_values_when_built(field, value):
    with pytest.raises(ConfigError, match=field):
        ModelConfig(**{field: value})


def test_config_accepts_defaults_and_edges():
    ModelConfig()
    ModelConfig(dropout=0.0, pooling="max", precision="float64", variant="lr")
