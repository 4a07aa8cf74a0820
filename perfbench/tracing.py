"""Spans around calls into the library's modules, installed from outside.

A ``Tracer`` replaces each public callable of ``ingest``, ``crosses``,
``sk_attention``, ``network`` and ``engine`` (plus a few named methods)
with a wrapper that records a span: name, start, end, parent span and
step id.  Every binding of a wrapped callable is replaced, including the
names ``network`` imports directly, so calls made through either name
are seen.  A call from a module into itself is not a layer boundary and
records no span: the outer span's self time includes it.  Spans stay in
memory until ``write`` is called.
"""

from __future__ import annotations

import inspect
import json
import time
from collections import defaultdict
from contextlib import contextmanager
from types import ModuleType

from fiinet import crosses, engine, ingest, network, sk_attention

LAYERS: dict[str, ModuleType] = {
    "ingest": ingest,
    "crosses": crosses,
    "sk_attention": sk_attention,
    "network": network,
    "engine": engine,
}

# Methods traced besides module-level functions.  A name missing from the
# library is left out of the wrappers and listed by ``Tracer.untraced``.
METHODS = {
    "ingest": {"Vocabulary": ("load", "save", "encode_row")},
    "network": {
        "CtrModel": ("__init__", "forward", "loss", "predict_proba", "batch_attention",
                     "attention_weights"),
    },
    "engine": {
        "Tensor": ("backward",),
        "ParameterStore": ("zero_grad",),
    },
}

# Public engine functions that record no tape node of their own.
ENGINE_NON_OPS = {
    "no_grad", "hadamard", "xavier_init", "save_checkpoint", "load_checkpoint",
    "load_checkpoint_into", "finite_difference_check",
}


def is_engine_op(name: str) -> bool:
    """True for span names of tape primitives, e.g. ``engine.mul``."""
    layer, _, attr = name.partition(".")
    return layer == "engine" and "." not in attr and attr not in ENGINE_NON_OPS


class Tracer:
    def __init__(self):
        self.spans: list[list] = []  # [name, start, end, parent, step]
        self.phases: list[str] = []  # step id -> phase name
        self.step_id = -1
        self._stack: list[tuple[str, int]] = []  # (layer, span id) of open spans
        self._undo: list[tuple[object, str, object]] = []
        self._wrappers: list | None = None  # built on the first install
        self.traced_names: set[str] = set()  # span names the wrappers record

    @contextmanager
    def step(self, phase: str):
        """Attribute the spans recorded inside the block to a new step."""
        self.phases.append(phase)
        self.step_id = len(self.phases) - 1
        try:
            yield
        finally:
            self.step_id = -1

    def wrap(self, layer: str, name: str, fn):
        spans, stack, tracer = self.spans, self._stack, self
        self.traced_names.add(name)

        def traced(*args, **kwargs):
            if stack and stack[-1][0] == layer:
                return fn(*args, **kwargs)
            span = [name, 0.0, 0.0, stack[-1][1] if stack else -1, tracer.step_id]
            stack.append((layer, len(spans)))
            spans.append(span)
            span[1] = time.perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                span[2] = time.perf_counter()
                stack.pop()

        traced.__wrapped__ = fn
        return traced

    def _targets(self):
        """(owner, attribute, wrapper) for every callable to trace."""
        out = []
        originals = {}
        for layer, mod in LAYERS.items():
            for attr, fn in vars(mod).items():
                if (attr.startswith("_") or not inspect.isfunction(fn)
                        or fn.__module__ != mod.__name__
                        or (layer == "engine" and attr in ("no_grad", "hadamard"))):
                    continue
                originals[fn] = self.wrap(layer, f"{layer}.{attr}", fn)
            for cls_name, methods in METHODS.get(layer, {}).items():
                cls = getattr(mod, cls_name, None)
                for m in methods:
                    raw = vars(cls).get(m) if cls is not None else None
                    if isinstance(raw, classmethod):
                        w = self.wrap(layer, f"{layer}.{cls_name}.{m}", raw.__func__)
                        out.append((cls, m, classmethod(w)))
                    elif inspect.isfunction(raw):
                        out.append((cls, m, self.wrap(layer, f"{layer}.{cls_name}.{m}", raw)))
        # rebind every module-level name that refers to a traced function
        for mod in LAYERS.values():
            for attr, value in list(vars(mod).items()):
                if inspect.isfunction(value) and value in originals:
                    out.append((mod, attr, originals[value]))
        return out

    def install(self) -> None:
        if self._undo:
            return
        if self._wrappers is None:
            self._wrappers = self._targets()
        for owner, attr, wrapper in self._wrappers:
            self._undo.append((owner, attr, vars(owner)[attr]))
            setattr(owner, attr, wrapper)

    def untraced(self, required) -> list[str]:
        """Span names in ``required`` or ``METHODS`` that no wrapper records,
        because the library has no such callable (say, after a rename)."""
        if self._wrappers is None:
            self._wrappers = self._targets()
        methods = [f"{layer}.{cls}.{m}" for layer, classes in METHODS.items()
                   for cls, names in classes.items() for m in names]
        return sorted(set(methods).union(required) - self.traced_names)

    def uninstall(self) -> None:
        for owner, attr, original in reversed(self._undo):
            setattr(owner, attr, original)
        self._undo.clear()

    def summary(self, phase: str) -> tuple[dict, dict, int]:
        """Totals over the steps of one phase.

        Returns (by_name, by_layer, steps): by_name maps a span name to
        [calls, total_s, self_s]; by_layer maps a layer to [calls, self_s].
        """
        steps = {i for i, p in enumerate(self.phases) if p == phase}
        child_time = defaultdict(float)
        for name, start, end, parent, step in self.spans:
            if parent >= 0 and step in steps:
                child_time[parent] += end - start
        by_name: dict[str, list] = defaultdict(lambda: [0, 0.0, 0.0])
        by_layer: dict[str, list] = defaultdict(lambda: [0, 0.0])
        for sid, (name, start, end, parent, step) in enumerate(self.spans):
            if step not in steps:
                continue
            own = end - start - child_time[sid]
            agg = by_name[name]
            agg[0] += 1
            agg[1] += end - start
            agg[2] += own
            lay = by_layer[name.partition(".")[0]]
            lay[0] += 1
            lay[1] += own
        return by_name, by_layer, len(steps)

    def self_time_table(self) -> str:
        lines = [f"{'phase':<12} {'layer':<13} {'calls/step':>11} {'self ms/step':>13}"]
        for phase in dict.fromkeys(self.phases):
            _, by_layer, steps = self.summary(phase)
            for layer, (calls, own) in sorted(by_layer.items(), key=lambda kv: -kv[1][1]):
                lines.append(
                    f"{phase:<12} {layer:<13} {calls / steps:>11.1f} {own * 1e3 / steps:>13.3f}"
                )
        return "\n".join(lines)

    def write(self, path) -> None:
        """One JSON object per span, in start order of the call."""
        with open(path, "w", encoding="utf-8") as f:
            for sid, (name, start, end, parent, step) in enumerate(self.spans):
                f.write(json.dumps({
                    "id": sid, "name": name, "start": start, "end": end, "parent": parent,
                    "step": step, "phase": self.phases[step] if step >= 0 else None,
                }) + "\n")
