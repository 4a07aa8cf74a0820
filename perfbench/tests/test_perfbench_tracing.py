"""The tracer's wrappers, span links and self times, and the metric lists."""

import json
import sys
from pathlib import Path

import numpy as np

HERE = Path(__file__).resolve().parents[1]
sys.path[:0] = [str(HERE.parent / "src"), str(HERE)]

import measure  # noqa: E402
import tracing  # noqa: E402
from fiinet import crosses, engine, network  # noqa: E402
from fiinet.ingest import FieldSchema  # noqa: E402
from fiinet.network import CtrModel, ModelConfig  # noqa: E402
from tracing import Tracer, is_engine_op  # noqa: E402


def tiny_model():
    schemas = [FieldSchema(f"f{i}", i, 5) for i in range(4)]
    return CtrModel(schemas, ModelConfig(embedding_dim=3, hidden_sizes=(4,), min_reduced_dim=2))


def test_install_rebinds_direct_imports_and_uninstall_restores():
    add, branch2, backward = engine.add, network.build_branch_2, engine.Tensor.backward
    tracer = Tracer()
    tracer.install()
    try:
        assert engine.add is not add and engine.add.__wrapped__ is add
        assert network.build_branch_2 is crosses.build_branch_2
        assert network.build_branch_2.__wrapped__ is branch2
        assert engine.Tensor.backward.__wrapped__ is backward
    finally:
        tracer.uninstall()
    assert (engine.add, network.build_branch_2, engine.Tensor.backward) == (add, branch2, backward)


def test_spans_of_a_training_step():
    model = tiny_model()
    x = np.random.default_rng(0).integers(0, 5, size=(8, 4))
    y = np.array([0, 1] * 4)
    tracer = Tracer()
    tracer.install()
    try:
        with tracer.step("train"):
            model.params.zero_grad()
            model.loss(x, y, training=True, rng=np.random.default_rng(1)).backward()
        model.predict_proba(x)  # outside any step
    finally:
        tracer.uninstall()
    names = [s[0] for s in tracer.spans if s[4] == 0]
    # forward runs inside loss: a call within one module records no span
    assert "network.CtrModel.loss" in names and "network.CtrModel.forward" not in names
    assert names.count("crosses.build_branch_2") == 1
    assert names.count("crosses.build_branch_3") == 1
    # hadamard is not traced, so each of its tape nodes shows as a mul
    assert names.count("engine.mul") >= 2
    for name, start, end, parent, step in tracer.spans:
        assert end >= start
        if parent >= 0:
            p = tracer.spans[parent]
            assert p[1] <= start and end <= p[2] and p[0].split(".")[0] != name.split(".")[0]
    by_name, by_layer, steps = tracer.summary("train")
    assert steps == 1
    assert set(by_layer) == {"network", "crosses", "sk_attention", "engine"}
    assert all(own >= 0 for _, own in by_layer.values())
    total = sum(s[2] - s[1] for s in tracer.spans if s[3] == -1 and s[4] == 0)
    assert abs(sum(own for _, own in by_layer.values()) - total) < 1e-9
    assert by_name["engine.Tensor.backward"][0] == 1
    outside = [s for s in tracer.spans if s[0] == "network.CtrModel.predict_proba"]
    assert len(outside) == 1 and outside[0][4] == -1


def test_engine_op_names():
    assert is_engine_op("engine.gather_rows")
    assert not is_engine_op("engine.Tensor.backward")
    assert not is_engine_op("engine.save_checkpoint")
    assert not is_engine_op("crosses.build_branch_2")


def test_untraced_names_callables_the_library_lacks(monkeypatch):
    assert Tracer().untraced(measure.TRACED_CALLABLES) == []
    monkeypatch.setitem(tracing.METHODS, "network", {"CtrModel": ("loss", "score")})
    missing = Tracer().untraced(["engine.add", "engine.no_such_op"])
    assert missing == ["engine.no_such_op", "network.CtrModel.score"]


def test_write_and_table(tmp_path):
    tracer = Tracer()
    tracer.install()
    try:
        with tracer.step("serve"):
            tiny_model().predict_proba(np.zeros((2, 4), dtype=np.int64))
    finally:
        tracer.uninstall()
    out = tmp_path / "spans.jsonl"
    tracer.write(out)
    rows = [json.loads(line) for line in out.read_text().splitlines()]
    assert len(rows) == len(tracer.spans)
    assert {"id", "name", "start", "end", "parent", "step", "phase"} <= set(rows[0])
    assert "serve" in tracer.self_time_table()


def test_metric_lists_match_benchmark_json():
    spec = json.loads((HERE.parent / "BENCHMARK.json").read_text())
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == measure.END_TO_END
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == measure.PER_LAYER
