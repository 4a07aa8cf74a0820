"""The benchmark's independent checks, tested against direct computations."""

import sys
from itertools import product
from pathlib import Path

import numpy as np
import pytest

HERE = Path(__file__).resolve().parents[1]
sys.path[:0] = [str(HERE.parent / "src"), str(HERE)]

import reference as ref  # noqa: E402
from fiinet.ingest import FieldSchema  # noqa: E402
from fiinet.network import CtrModel, ModelConfig  # noqa: E402


def brute_auc(labels, scores):
    pos = [s for s, y in zip(scores, labels) if y]
    neg = [s for s, y in zip(scores, labels) if not y]
    wins = sum(1.0 if p > n else 0.5 if p == n else 0.0 for p, n in product(pos, neg))
    return wins / (len(pos) * len(neg))


@pytest.mark.parametrize("seed", range(5))
def test_auc_matches_pairwise_count_with_ties(seed):
    rng = np.random.default_rng(seed)
    y = rng.integers(0, 2, 60)
    y[:2] = (0, 1)
    s = rng.integers(0, 6, 60).astype(float)  # many ties
    assert ref.auc(y, s) == pytest.approx(brute_auc(y, s), abs=1e-12)


def test_auc_extremes():
    y = np.array([0, 0, 1, 1])
    assert ref.auc(y, np.array([0.1, 0.2, 0.3, 0.4])) == 1.0
    assert ref.auc(y, np.array([0.4, 0.3, 0.2, 0.1])) == 0.0
    assert ref.auc(y, np.zeros(4)) == 0.5
    with pytest.raises(ValueError):
        ref.auc(np.ones(3), np.arange(3.0))


def test_logloss_by_hand():
    y = np.array([1, 0])
    p = np.array([0.8, 0.4])
    assert ref.logloss(y, p) == pytest.approx(-(np.log(0.8) + np.log(0.6)) / 2)


def small_model(variant, precision="float64", hidden=(8, 4)):
    schemas = [FieldSchema(f"f{i}", i, 7) for i in range(4)]
    cfg = ModelConfig(variant=variant, embedding_dim=5, hidden_sizes=hidden,
                      min_reduced_dim=3, seed=3, precision=precision)
    model = CtrModel(schemas, cfg)
    # move away from the symmetric start so the attention weights differ from 0.5
    rng = np.random.default_rng(0)
    for _, t in model.params.items():
        t.data += 0.3 * rng.standard_normal(t.data.shape)
    return model, [s.field_name for s in schemas]


@pytest.mark.parametrize("variant, forward",
                         [("fiinet", ref.fiinet_forward), ("fm", ref.fm_forward)])
def test_reference_forward_matches_model(variant, forward):
    model, names = small_model(variant)
    x = np.random.default_rng(1).integers(0, 7, size=(32, 4))
    want = forward(model.params.state_arrays(), names, x)
    np.testing.assert_allclose(model.predict_proba(x), want, rtol=1e-10, atol=1e-12)


def test_reference_attention_matches_model():
    model, names = small_model("fiinet")
    x = np.random.default_rng(2).integers(0, 7, size=(16, 4))
    a, _ = model.batch_attention(x)
    _, want = ref.fiinet_attention(model.params.state_arrays(), names, x)
    assert np.abs(want - 0.5).max() > 1e-3
    np.testing.assert_allclose(a, want, rtol=1e-10, atol=1e-12)


def test_reference_forward_detects_a_wrong_parameter():
    model, names = small_model("fiinet")
    x = np.random.default_rng(1).integers(0, 7, size=(32, 4))
    state = model.params.state_arrays()
    state["sk/B"] = state["sk/B"] * 1.01
    assert not np.allclose(model.predict_proba(x), ref.fiinet_forward(state, names, x),
                           rtol=1e-6, atol=1e-9)


def fd_for(model, x, y, corrupt=1.0):
    def loss():
        return float(model.loss(x, y).data)

    def grads():
        model.params.zero_grad()
        model.loss(x, y).backward()
        return {n: t.grad * corrupt if n == "embed/f1" else t.grad
                for n, t in model.params.items()}

    live = {n: t.data for n, t in model.params.items()}
    before = {n: a.copy() for n, a in live.items()}
    out = ref.directional_derivatives(loss, grads, live, seed=4)
    assert all(np.array_equal(before[n], live[n]) for n in live)  # restored
    return out


@pytest.mark.parametrize("variant", ["fiinet", "fm"])
def test_directional_derivative_agrees_with_backward(variant):
    model, _ = small_model(variant)
    rng = np.random.default_rng(5)
    x, y = rng.integers(0, 7, size=(24, 4)), rng.integers(0, 2, 24)
    analytic, numeric = fd_for(model, x, y)
    assert numeric == pytest.approx([analytic] * 3, rel=1e-5)


def test_directional_derivative_detects_a_wrong_gradient():
    model, _ = small_model("fm")
    rng = np.random.default_rng(5)
    x, y = rng.integers(0, 7, size=(24, 4)), rng.integers(0, 2, 24)
    analytic, numeric = fd_for(model, x, y, corrupt=1.5)
    assert all(abs(analytic - n) > 1e-3 * abs(n) for n in numeric)


def test_a_kink_inside_the_largest_step_spoils_only_that_step():
    # relu(w) + w^2 with w[0] placed 3e-6 from its kink along the direction
    seed = 6
    d = np.random.default_rng(seed).standard_normal(5)
    d /= np.sqrt((d * d).sum())
    w = np.random.default_rng(7).uniform(0.5, 1.0, 5) * np.sign(d)
    w[0] = -3e-6 * d[0]
    arrays = {"w": w}
    analytic, numeric = ref.directional_derivatives(
        lambda: float(np.maximum(w, 0.0).sum() + (w * w).sum()),
        lambda: {"w": (w > 0).astype(float) + 2.0 * w},
        arrays, seed)
    assert abs(numeric[0] - analytic) > 1e-2 * abs(analytic)
    assert numeric[1] == pytest.approx(analytic, rel=1e-6)
