"""The measured process of one benchmark run.

Set-up runs once to make the model, then, after an untimed warm-up,
rounds repeat until ``--seconds`` have passed.  A round is one more
set-up from scratch, whose result is dropped, then slices of training
steps, offline scoring of the held-out split, and requests of each size
from one client in a closed loop.  Each slice starts after
``gc.collect()``.  The outputs are checked against ``reference``.  The
last line printed is the result object.  With ``--trace 1`` every other
operation of each slice runs with the ``tracing`` wrappers installed, and
the per-layer metrics are printed instead of the end-to-end ones.

Run through ``run.py``, which sets the environment and prepares inputs.
"""

from __future__ import annotations

import argparse
import contextlib
import dataclasses
import gc
import itertools
import json
import resource
import statistics
import sys
import time
import tracemalloc
from pathlib import Path

import numpy as np

from fiinet import engine as eg
from fiinet import ingest
from fiinet.errors import FiinetError
from fiinet.ingest import FieldSchema
from fiinet.network import CtrModel

import prepare as pp
import reference as ref
from tracing import Tracer, is_engine_op

# Seconds of each round's slices after its set-up, which runs once.
ROUND_SECONDS = 4.0
ROUND_SHARE = {"setup": 0.0, "train": 0.4, "eval": 0.2,
               "serve": 0.2, "serve_1row": 0.1, "serve_64row": 0.1}
# Rows per request of each serving phase; "serve" is the main request size.
REQUEST_SIZES = {"serve": pp.REQUEST_ROWS,
                 **{f"serve_{n}row": n for n in pp.OTHER_REQUEST_ROWS}}
WARMUP_STEPS = 2
WARMUP_REQUESTS = 50
SLICE_WARMUP_REQUESTS = 3
MIN_COUNT = {"setup": 7, "train": 8, "eval": 3,
             "serve": 1000, "serve_1row": 500, "serve_64row": 100}
# p95 and p99 moved by a third or more between runs of the same code; p90
# repeats within a few percent and keeps 100 samples beyond it.
TAIL_PERCENTILE = 90
# Plain SGD on the mean loss.  A table row sees a few examples per batch,
# so the tables take larger steps than the dense layers.
LR_LINEAR = 100.0
LR_EMBED = 5.0
LR_DENSE = 0.05
AUC_MARGIN = 0.02
CHECK_ROWS = 256
FD_ROWS = 64

END_TO_END = {
    "setup_s": "s", "train_ex_per_s": "ex/s", "eval_ex_per_s": "ex/s",
    "serve_p50_ms": "ms", "serve_tail_ms": "ms",
    **{f"{phase}_p50_ms": "ms" for phase in REQUEST_SIZES if phase != "serve"},
    "peak_rss_mb": "MB",
}
# Tape primitives the workloads call; per-op metrics are reported for these.
OPS = (
    "add", "sub", "neg", "mul", "one_minus", "linear", "add_rowvec", "relu",
    "sigmoid", "log", "clamp", "gather_rows", "stack_fields", "take_fields",
    "pad_channels", "scale_channels", "mean_lastdim", "reshape", "mean_all", "dropout",
)
PER_LAYER = {
    "ingest.read_table_ms": "ms", "ingest.encode_table_ms": "ms", "ingest.split_ms": "ms",
    "ingest.write_prepared_ms": "ms", "ingest.load_prepared_ms": "ms",
    "ingest.vocab_load_ms": "ms", "ingest.encode_row_ms": "ms", "ingest.peak_rss_mb": "MB",
    "crosses.self_ms": "ms", "crosses.calls": "count",
    "sk_attention.self_ms": "ms", "sk_attention.calls": "count",
    "network.build_ms": "ms", "network.forward_self_ms": "ms", "network.loss_ms": "ms",
    "network.predict_ms": "ms",
    "engine.self_ms": "ms", "engine.op_calls": "count", "engine.backward_ms": "ms",
    "engine.zero_grad_ms": "ms", "engine.grad_mb": "MB", "engine.step_peak_alloc_mb": "MB",
    "engine.save_checkpoint_ms": "ms", "engine.load_checkpoint_ms": "ms",
    **{f"engine.op.{op}.{m}": u for op in OPS for m, u in (("ms", "ms"), ("calls", "count"))},
    "bench.update_ms": "ms",
    "trace.overhead_train_pct": "%", "trace.overhead_serve_p50_pct": "%",
}
# Per-layer metrics that are one span's total time, by the phase it is read in.
SPAN_METRICS = {
    "setup": {
        "ingest.read_table_ms": "ingest.read_table",
        "ingest.encode_table_ms": "ingest.encode_table",
        "ingest.split_ms": "ingest.split_dataset",
        "ingest.write_prepared_ms": "ingest.write_prepared",
        "ingest.load_prepared_ms": "ingest.load_prepared",
        "ingest.vocab_load_ms": "ingest.Vocabulary.load",
        "network.build_ms": "network.CtrModel.__init__",
    },
    "train": {
        "network.loss_ms": "network.CtrModel.loss",
        "engine.backward_ms": "engine.Tensor.backward",
        "engine.zero_grad_ms": "engine.ParameterStore.zero_grad",
        "bench.update_ms": "bench.update",
    },
    "serve": {
        "ingest.encode_row_ms": "ingest.Vocabulary.encode_row",
        "network.predict_ms": "network.CtrModel.predict_proba",
    },
}
CHECKPOINT_SPANS = {
    "engine.load_checkpoint_ms": ("engine.load_checkpoint", "engine.load_checkpoint_into"),
    "engine.save_checkpoint_ms": ("engine.save_checkpoint",),
}
# Library callables the per-layer metrics are read from.  If one is renamed
# or removed, its metric would silently read 0, so a traced run refuses to
# start without them.
TRACED_CALLABLES = sorted(
    {span for spans in SPAN_METRICS.values() for span in spans.values()} - {"bench.update"}
    | {span for spans in CHECKPOINT_SPANS.values() for span in spans}
    | {f"engine.{op}" for op in OPS})


class Run:
    """State of one workload process: model, data, checks and counters."""

    def __init__(self, spec: pp.Workload, seed: int, seconds: float, data: Path,
                 tracer: Tracer | None):
        self.spec, self.seed, self.seconds, self.data, self.tracer = spec, seed, seconds, data, tracer
        self.rng = np.random.default_rng([seed, 1])
        self.attempted = 0
        self.failed = 0
        self.failures: list[str] = []
        self.metrics: dict[str, float] = {}
        self.layer: dict[str, float] = {}
        self.update = self.sgd_update
        self.check_seconds = 0.0  # spent on checks inside a timed set-up

    # -- bookkeeping ---------------------------------------------------

    def check(self, ok: bool, what: str) -> None:
        if not ok:
            self.failures.append(what)

    def attempt(self, fn, *args) -> tuple[bool, object]:
        """Run one counted operation; a library error counts as failed."""
        self.attempted += 1
        try:
            return True, fn(*args)
        except FiinetError as exc:
            self.failed += 1
            self.failures.append(f"operation failed: {exc}")
            return False, None

    def traced(self, phase: str):
        """Context attributing spans to one step of a phase (no-op untraced)."""
        if self.tracer is None:
            return contextlib.nullcontext()
        return self.tracer.step(phase)

    # -- set-up --------------------------------------------------------

    def setup_once(self, keep_checks: bool):
        """One set-up from the run's inputs; returns (model, vocab, data)."""
        if self.spec.from_checkpoint:
            with open(self.data / "fields.tsv", encoding="utf-8") as f:
                names = [line.split("\t")[1] for line in list(f)[1:] if line.strip()]
            vocab = ingest.Vocabulary.load(self.data / "vocab.tsv", names)
            self.record_ingest_peak()
            model = CtrModel(vocab.schemas, pp.model_config(self.seed))
            eg.load_checkpoint_into(self.data / "model.ckpt", model.params)
            return model, vocab, None
        header, rows = ingest.read_table(self.data / "raw.csv")
        vocab, encoded = ingest.encode_table(rows, header, "label", pp.field_names(), 0.0)
        split = ingest.split_dataset(encoded, pp.SPLIT_RATIOS, self.seed)
        ingest.write_prepared(self.data / "prepared", vocab, split)
        loaded_vocab, loaded = ingest.load_prepared(self.data / "prepared")
        self.record_ingest_peak()
        if keep_checks:
            t0 = time.perf_counter()
            self.check_round_trip(vocab, split, loaded_vocab, loaded, rows[:CHECK_ROWS])
            self.check_seconds = time.perf_counter() - t0
        del header, rows, vocab, encoded, split
        model = CtrModel(loaded_vocab.schemas, pp.model_config(self.seed))
        return model, loaded_vocab, loaded

    def record_ingest_peak(self) -> None:
        """High-water RSS once ingest is done, before any model exists."""
        if "ingest.peak_rss_mb" not in self.layer:
            self.layer["ingest.peak_rss_mb"] = peak_rss_mb()

    def setup(self) -> float:
        """The first set-up, with the round-trip checks; returns its time."""
        gc.collect()
        t0 = time.perf_counter()
        ok, state = self.attempt(self.setup_once, True)
        if not ok:
            raise SystemExit("perfbench: the first set-up failed: " + self.failures[-1])
        seconds = time.perf_counter() - t0 - self.check_seconds
        self.model, self.vocab, split = state
        if split is None:
            enc = np.load(self.data / "encoded.npz")
            self.train_x, self.train_y = enc["train_x"], enc["train_y"]
            self.test_x, self.test_y = enc["test_x"], enc["test_y"]
            self.check_checkpoint_matches(self.data / "model_ref.npz")
        else:
            self.train_x, self.train_y = split.train.indices, split.train.labels
            self.test_x, self.test_y = split.test.indices, split.test.labels
        self.names = [s.field_name for s in self.model.schemas]
        return seconds

    def setup_again(self) -> None:
        """One more set-up from scratch; its model and data are dropped."""
        self.setup_once(keep_checks=False)

    # -- timed rounds ----------------------------------------------------

    def sgd_update(self) -> None:
        for name, t in self.model.params.items():
            if name.startswith("embed/"):
                lr = LR_EMBED
            elif name.startswith("linear/") and name != "linear/bias":
                lr = LR_LINEAR
            else:
                lr = LR_DENSE
            t.data -= lr * t.grad

    def train_step(self, x, y) -> None:
        self.model.params.zero_grad()
        self.model.loss(x, y, training=True, rng=self.rng).backward()
        self.update()

    def batches(self):
        n = len(self.train_y)
        while True:
            order = self.rng.permutation(n)
            for start in range(0, n - pp.BATCH + 1, pp.BATCH):
                sel = order[start : start + pp.BATCH]
                yield self.train_x[sel], self.train_y[sel]

    def score_held_out(self) -> np.ndarray:
        return self.model.predict_proba(self.test_x)

    def request(self, rows) -> np.ndarray:
        idx = np.stack([self.vocab.encode_row(r) for r in rows])
        return self.model.predict_proba(idx)

    def rounds(self, first_setup_s: float) -> np.ndarray:
        """Warm up, then repeat rounds of a set-up, training steps, held-out
        scoring and requests until --seconds have passed and every phase
        has its minimum count.  Returns the last held-out scores.

        Host speed drifts over seconds.  Spreading each phase's samples over
        the whole run makes a slow stretch hit every phase a little instead
        of one phase fully, which keeps run-to-run spread down.
        """
        batches = self.batches()
        self.check_sparse_update(*next(batches))
        for _ in range(WARMUP_STEPS - 1):
            self.train_step(*next(batches))
        self.model.predict_proba(self.test_x)
        for pool in self.pools.values():
            for rows in pool[:WARMUP_REQUESTS]:
                self.request(rows)
        ops = {
            "setup": lambda: (self.setup_again, ()),
            "train": lambda: (self.train_step, next(batches)),
            "eval": lambda: (self.score_held_out, ()),
        }
        for phase, pool in self.pools.items():
            sent = itertools.count()
            ops[phase] = lambda pool=pool, sent=sent: (self.request, (pool[next(sent) % len(pool)],))
        plain = {phase: [] for phase in ops}
        traced = {phase: [] for phase in ops}
        plain["setup"].append(first_setup_s)
        probs = None
        end = time.perf_counter() + self.seconds
        while time.perf_counter() < end or any(
                len(plain[p]) + len(traced[p]) < n for p, n in MIN_COUNT.items()):
            for phase, op in ops.items():
                gc.collect()
                if phase in self.pools:  # caches are cold after the other phases
                    for rows in self.pools[phase][:SLICE_WARMUP_REQUESTS]:
                        self.request(rows)
                slice_end = time.perf_counter() + ROUND_SECONDS * ROUND_SHARE[phase]
                while True:
                    fn, args = op()
                    # a traced run traces every other operation, so that the
                    # overhead compares neighbours in time
                    if self.tracer is not None and len(plain[phase]) > len(traced[phase]):
                        dt, out = self.traced_op(phase, fn, args)
                        into = traced[phase]
                    else:
                        dt, out = self.timed(fn, args)
                        into = plain[phase]
                    if dt is not None:
                        into.append(dt)
                        if phase == "eval":
                            probs = out
                    if time.perf_counter() >= slice_end:
                        break
        self.report(plain, traced)
        return probs

    def timed(self, fn, args) -> tuple[float | None, object]:
        """One counted operation: (seconds, result), seconds None if it failed."""
        t0 = time.perf_counter()
        ok, out = self.attempt(fn, *args)
        dt = time.perf_counter() - t0
        return (dt if ok else None), out

    def traced_op(self, phase: str, fn, args) -> tuple[float | None, object]:
        self.tracer.install()
        self.update = self.tracer.wrap("bench", "bench.update", self.sgd_update)
        try:
            with self.tracer.step(phase):
                return self.timed(fn, args)
        finally:
            self.update = self.sgd_update
            self.tracer.uninstall()

    def report(self, plain: dict, traced: dict) -> None:
        lat = np.array(plain["serve"]) * 1e3
        self.metrics["setup_s"] = statistics.median(plain["setup"])
        self.metrics["train_ex_per_s"] = pp.BATCH / statistics.median(plain["train"])
        self.metrics["eval_ex_per_s"] = len(self.test_y) / statistics.median(plain["eval"])
        self.metrics["serve_p50_ms"] = float(np.median(lat))
        self.metrics["serve_tail_ms"] = float(np.percentile(lat, TAIL_PERCENTILE))
        for phase in REQUEST_SIZES:
            if phase != "serve":
                self.metrics[f"{phase}_p50_ms"] = 1e3 * statistics.median(plain[phase])
        print(f"samples: {len(plain['setup'])} set-ups, {len(plain['train'])} steps, "
              f"{len(plain['eval'])} held-out passes, "
              + ", ".join(f"{len(plain[p])} {n}-row requests" for p, n in REQUEST_SIZES.items())
              + f" ({int(len(lat) * (100 - TAIL_PERCENTILE) / 100)} of {pp.REQUEST_ROWS} rows "
              f"beyond p{TAIL_PERCENTILE})")
        if self.tracer is not None:
            self.layer["trace.overhead_train_pct"] = 100 * (
                statistics.median(traced["train"]) / statistics.median(plain["train"]) - 1)
            self.layer["trace.overhead_serve_p50_pct"] = 100 * (
                statistics.median(traced["serve"]) / statistics.median(plain["serve"]) - 1)

    def traced_alloc_step(self) -> None:
        """One more traced step under tracemalloc, for the memory metrics."""
        x, y = next(self.batches())
        self.tracer.install()
        tracemalloc.start()
        with self.tracer.step("train-alloc"):
            self.train_step(x, y)
        self.layer["engine.step_peak_alloc_mb"] = tracemalloc.get_traced_memory()[1] / 2**20
        tracemalloc.stop()
        self.tracer.uninstall()
        self.layer["engine.grad_mb"] = sum(
            t.grad.nbytes for _, t in self.model.params.items() if t.grad is not None) / 2**20

    # -- checks ----------------------------------------------------------

    def check_round_trip(self, vocab, split, loaded_vocab, loaded, raw_rows) -> None:
        for part in ("train", "valid", "test"):
            a, b = getattr(split, part), getattr(loaded, part)
            self.check(np.array_equal(a.indices, b.indices) and np.array_equal(a.labels, b.labels),
                       f"load_prepared changed the {part} split")
        self.check(vocab.maps == loaded_vocab.maps and vocab.schemas == loaded_vocab.schemas,
                   "load_prepared changed the vocabulary")
        for row in raw_rows:
            values = row[1:]  # column 0 is the label
            idx = loaded_vocab.encode_row(values)
            back = [loaded_vocab.decode_value(f, int(i)) for f, i in enumerate(idx)]
            self.check(back == values, f"raw values do not decode back: {values}")

    def check_decode(self, request_rows) -> None:
        for row in request_rows[:CHECK_ROWS]:
            for f, (value, i) in enumerate(zip(row, self.vocab.encode_row(row))):
                if i != ingest.OOV_INDEX:
                    self.check(self.vocab.decode_value(f, int(i)) == value,
                               f"value {value!r} does not decode back")

    def check_checkpoint_matches(self, ref_path: Path) -> None:
        with np.load(ref_path) as saved:
            for name, t in self.model.params.items():
                self.check(_bit_equal(saved[name], t.data), f"checkpoint array {name} differs")

    def check_forward(self, when: str) -> None:
        x = self.test_x[:CHECK_ROWS]
        got = self.model.predict_proba(x)
        state = self.model.params.state_arrays()
        want = ref.fiinet_forward(state, self.names, x)
        self.check(np.allclose(got, want, rtol=1e-4, atol=1e-6),
                   f"predict_proba differs from the reference {when} training: "
                   f"max |diff| {np.abs(got - want).max():.3g}")
        a, b = self.model.batch_attention(x)
        self.check(np.abs(a + b - 1.0).max() <= 1e-6, "attention weights a+b != 1")
        self.check(((a > 0) & (a < 1) & (b > 0) & (b < 1)).all(),
                   "attention weights outside (0,1)")
        _, want_a = ref.fiinet_attention(state, self.names, x)
        self.check(np.allclose(a, want_a, atol=1e-5), "attention weights differ from reference")

    def check_sparse_update(self, x, y) -> None:
        """One SGD step: only embedding rows present in the batch change."""
        probe = self.rng.standard_normal(pp.EMBEDDING_DIM).astype(self.model.params.dtype)
        tables = {n: t for n, t in self.model.params.items() if n.startswith("embed/")}
        before = {n: t.data @ probe for n, t in tables.items()}
        self.train_step(x, y)
        for f, name in enumerate(self.names):
            changed = np.flatnonzero(tables[f"embed/{name}"].data @ probe != before[f"embed/{name}"])
            present = np.unique(x[:, f])
            self.check(np.isin(changed, present).all(),
                       f"embed/{name}: rows outside the batch changed")
            self.check(changed.size > 0, f"embed/{name}: no row changed")

    def check_batch_consistency(self) -> None:
        """Requests score the same as their rows inside one larger batch."""
        pool = self.pools["serve"][:CHECK_ROWS // 4]
        each = np.concatenate([self.request(rows) for rows in pool])
        rows = [r for req in pool for r in req]
        whole = self.model.predict_proba(np.stack([self.vocab.encode_row(r) for r in rows]))
        self.check(np.allclose(each, whole, rtol=1e-5, atol=1e-6),
                   f"request scores differ from batch scores: max |diff| "
                   f"{np.abs(each - whole).max():.3g}")

    def check_gradient(self) -> None:
        """Directional finite difference in float64 on a compact copy of the
        model holding only the table rows the sample uses."""
        x, y = self.test_x[:FD_ROWS], self.test_y[:FD_ROWS]
        rows = [np.unique(x[:, f]) for f in range(x.shape[1])]
        local = np.stack([np.searchsorted(r, x[:, f]) for f, r in enumerate(rows)], axis=1)
        schemas = [FieldSchema(n, f, max(len(r), 2)) for f, (n, r) in enumerate(zip(self.names, rows))]
        small = CtrModel(schemas, dataclasses.replace(self.model.config, precision="float64"))
        arrays = {}
        for name, t in self.model.params.items():
            field = name.partition("/")[2]
            if name.startswith(("embed/", "linear/")) and field in self.names:
                f = self.names.index(field)
                sub = np.zeros((schemas[f].cardinality, t.data.shape[1]))
                sub[: len(rows[f])] = t.data[rows[f]]
                arrays[name] = sub
            else:
                arrays[name] = t.data
        small.params.load_arrays(arrays)

        def loss() -> float:
            return float(small.loss(local, y).data)

        def grads():
            small.params.zero_grad()
            small.loss(local, y).backward()
            return {n: t.grad for n, t in small.params.items()}

        live = {n: t.data for n, t in small.params.items()}
        analytic, numeric = ref.directional_derivatives(loss, grads, live, self.seed)
        self.check(any(abs(analytic - n) <= 1e-5 * max(abs(analytic), abs(n), 1e-8)
                       for n in numeric),
                   f"gradient check failed: backward {analytic:.9g} vs finite differences "
                   + ", ".join(f"{n:.9g}" for n in numeric))

    def check_checkpoint_round_trip(self) -> None:
        path = self.data / "roundtrip.ckpt"
        with self.traced("check"):
            eg.save_checkpoint(path, self.model.params)
            arrays, dtype = eg.load_checkpoint(path)
        self.check(dtype == self.model.params.dtype, "checkpoint dtype changed")
        for name, t in self.model.params.items():
            self.check(_bit_equal(arrays[name], t.data), f"checkpoint array {name} not bit-exact")

    def held_out(self, probs: np.ndarray) -> tuple[float, float]:
        return ref.logloss(self.test_y, probs), ref.auc(self.test_y, probs)

    # -- the run ---------------------------------------------------------

    def run(self) -> None:
        if self.tracer is not None:
            missing = self.tracer.untraced(TRACED_CALLABLES)
            if missing:
                raise SystemExit("perfbench: the per-layer metrics read spans of callables "
                                 "the library no longer has: " + ", ".join(missing))
        setup_s = self.setup()
        self.check_forward("before")
        loss0, auc0 = self.held_out(self.model.predict_proba(self.test_x))
        flat = np.load(self.data / "requests.npy").tolist()
        self.pools = {phase: [flat[i : i + n] for i in range(0, len(flat), n)]
                      for phase, n in REQUEST_SIZES.items()}
        self.check_decode(flat)
        probs = self.rounds(setup_s)
        self.metrics["peak_rss_mb"] = peak_rss_mb()
        self.check_forward("after")
        loss1, auc1 = self.held_out(probs)
        print(f"held-out logloss {loss0:.4f} -> {loss1:.4f}, AUC {auc0:.4f} -> {auc1:.4f}")
        self.check(loss1 < loss0, "held-out logloss did not fall")
        self.check(auc1 > 0.5 + AUC_MARGIN, f"held-out AUC {auc1:.4f} not above {0.5 + AUC_MARGIN}")
        self.check_batch_consistency()
        if self.tracer is not None:
            self.traced_alloc_step()
            self.tracer.install()
        self.check_checkpoint_round_trip()
        if self.tracer is not None:
            self.tracer.uninstall()
        self.check_gradient()

    def layer_metrics(self) -> dict[str, float]:
        """Per-layer metrics from the spans: per set-up, step or request."""
        t = self.tracer
        out = dict.fromkeys(PER_LAYER, 0.0)
        out.update(self.layer)
        for phase, metrics in SPAN_METRICS.items():
            by_name, _, n = t.summary(phase)
            for metric, span in metrics.items():
                out[metric] = by_name.get(span, [0, 0.0, 0.0])[1] * 1e3 / n
        by_name, by_layer, n = t.summary("train")
        for layer in ("crosses", "sk_attention", "engine"):
            calls, own = by_layer.get(layer, [0, 0.0])
            out[f"{layer}.self_ms"] = own * 1e3 / n
            if layer != "engine":
                out[f"{layer}.calls"] = calls / n
        out["network.forward_self_ms"] = by_layer.get("network", [0, 0.0])[1] * 1e3 / n
        out["engine.op_calls"] = sum(v[0] for k, v in by_name.items() if is_engine_op(k)) / n
        for op in OPS:
            calls, total, _ = by_name.get(f"engine.{op}", [0, 0.0, 0.0])
            out[f"engine.op.{op}.ms"] = total * 1e3 / n
            out[f"engine.op.{op}.calls"] = calls / n
        for metric, names in CHECKPOINT_SPANS.items():
            spans = [s for s in t.spans if s[0] in names]
            out[metric] = 1e3 * sum(s[2] - s[1] for s in spans) / len(spans)
        return out


def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024


def _bit_equal(a: np.ndarray, b: np.ndarray) -> bool:
    return a.dtype == b.dtype and a.shape == b.shape and a.tobytes() == b.tobytes()


def main() -> int:
    ap = argparse.ArgumentParser(description="one measured benchmark run")
    ap.add_argument("--workload", required=True, choices=sorted(pp.WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--data", type=Path, required=True)
    ap.add_argument("--trace-out", type=Path)
    args = ap.parse_args()
    tracer = Tracer() if args.trace else None
    run = Run(pp.WORKLOADS[args.workload], args.seed, args.seconds, args.data, tracer)
    run.run()
    for failure in run.failures:
        print(f"CHECK FAILED: {failure}", file=sys.stderr)
    if tracer is None:
        values, units = run.metrics, END_TO_END
    else:
        values, units = run.layer_metrics(), PER_LAYER
        print(tracer.self_time_table())
        if args.trace_out is not None:
            tracer.write(args.trace_out)
    print(json.dumps({
        "correct": not run.failures,
        "attempted": run.attempted,
        "failed": run.failed,
        "metrics": {k: {"value": float(values[k]), "unit": u} for k, u in units.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
