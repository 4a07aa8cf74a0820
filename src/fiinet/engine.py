"""Dense-tensor computation layer with exact reverse-mode gradients.

Every numeric operation the CTR models need lives here as an explicit
primitive with a hand-written backward rule, recorded define-by-run on a
tape of parent links.  There is no implicit broadcasting: each op states
exactly which shapes it accepts and raises ShapeError otherwise, which
keeps the channel bookkeeping of the cross/attention layers auditable.

Convention: the leading axis of 2-D/3-D tensors is the minibatch axis.
"""

from __future__ import annotations

import math
import struct
import zlib
from contextlib import contextmanager
from typing import Callable, Iterable

import numpy as np

from .errors import CheckpointError, NonFiniteError, ShapeError

SIGMOID_EPS = 1e-7

_GRAD_ENABLED = True


@contextmanager
def no_grad():
    """Disable tape recording inside the block (evaluation fast path)."""
    global _GRAD_ENABLED
    prev = _GRAD_ENABLED
    _GRAD_ENABLED = False
    try:
        yield
    finally:
        _GRAD_ENABLED = prev


class Tensor:
    """A numpy array plus an accumulated gradient and tape links."""

    __slots__ = ("data", "grad", "requires_grad", "_parents", "_backward")

    def __init__(self, data, requires_grad: bool = False):
        arr = np.asarray(data)
        if arr.dtype not in (np.float32, np.float64):
            arr = arr.astype(np.float64)
        self.data = arr
        self.grad: np.ndarray | None = None
        self.requires_grad = requires_grad
        self._parents: tuple[Tensor, ...] = ()
        self._backward: Callable[[np.ndarray], tuple] | None = None

    @property
    def shape(self) -> tuple[int, ...]:
        return self.data.shape

    @property
    def dtype(self):
        return self.data.dtype

    def __repr__(self) -> str:
        return f"Tensor(shape={self.data.shape}, dtype={self.data.dtype})"

    def item(self) -> float:
        return float(self.data)

    def zero_grad(self) -> None:
        self.grad = np.zeros_like(self.data)

    def backward(self) -> None:
        """Reverse-mode sweep from a scalar output.

        Leaf tensors with requires_grad set accumulate (+=) into the gradient
        arrays they own, so parameter grads must be zeroed per minibatch; a
        leaf with no gradient yet gets a copy of the first one to arrive.
        A row-sparse gradient from ``gather_rows`` is scattered straight
        into a leaf's own dense gradient (zeros first if it has none), so
        no (V,k) table is built for a leaf.
        An interior node stores the first gradient to reach it as it is,
        which may be a view shared with other nodes, and adds later ones out
        of place, so no gradient array an op returned is ever written; a
        row-sparse gradient reaching an interior node is made dense first.
        """
        if self.data.size != 1:
            raise ShapeError(
                f"backward requires a scalar output, got shape {self.data.shape}"
            )
        if self._backward is None and not self.requires_grad:
            raise ShapeError("backward called on a tensor with no recorded graph")
        topo: list[Tensor] = []
        visited: set[int] = set()
        stack: list[tuple[Tensor, bool]] = [(self, False)]
        while stack:
            node, expanded = stack.pop()
            if expanded:
                topo.append(node)
                continue
            if id(node) in visited:
                continue
            visited.add(id(node))
            stack.append((node, True))
            for p in node._parents:
                if id(p) not in visited:
                    stack.append((p, False))
        self.grad = np.ones_like(self.data) if self.grad is None else self.grad + 1
        for node in reversed(topo):
            if node._backward is None or node.grad is None:
                continue
            parent_grads = node._backward(node.grad)
            for parent, pg in zip(node._parents, parent_grads):
                if pg is None:
                    continue
                if parent._backward is not None:
                    if type(pg) is _RowGrad:
                        pg = pg.dense(parent.data)
                    parent.grad = pg if parent.grad is None else parent.grad + pg
                elif parent.requires_grad:
                    if type(pg) is _RowGrad:
                        if parent.grad is None:
                            parent.grad = np.zeros_like(parent.data)
                        np.add.at(parent.grad, pg.rows, pg.values)
                    elif parent.grad is None:
                        parent.grad = np.array(pg, dtype=parent.data.dtype)
                    else:
                        parent.grad += pg


class _RowGrad:
    """Gradient of a (V,k) table that is zero outside the gathered rows.

    ``values[...]`` is added into row ``rows[...]``; rows may repeat, and
    repeats accumulate.  Only ``Tensor.backward`` reads it.
    """

    __slots__ = ("rows", "values")

    def __init__(self, rows: np.ndarray, values: np.ndarray):
        self.rows = rows
        self.values = values

    def dense(self, table: np.ndarray) -> np.ndarray:
        out = np.zeros_like(table)
        np.add.at(out, self.rows, self.values)
        return out


def _check_finite(arr: np.ndarray, op: str) -> None:
    if not np.isfinite(arr).all():
        raise NonFiniteError(f"non-finite values produced by op '{op}'")


def _make(out_data: np.ndarray, parents: tuple[Tensor, ...], backward, op: str) -> Tensor:
    _check_finite(out_data, op)
    out = Tensor.__new__(Tensor)
    out.data = out_data
    out.grad = None
    if _GRAD_ENABLED and any(p.requires_grad or p._backward for p in parents):
        out.requires_grad = False
        out._parents = parents
        out._backward = backward
    else:
        out.requires_grad = False
        out._parents = ()
        out._backward = None
    return out


def _require_same_shape(a: Tensor, b: Tensor, op: str) -> None:
    if a.data.shape != b.data.shape:
        raise ShapeError(f"{op}: shape mismatch {a.data.shape} vs {b.data.shape}")


# ---------------------------------------------------------------------------
# arithmetic primitives


def add(a: Tensor, b: Tensor) -> Tensor:
    _require_same_shape(a, b, "add")
    return _make(a.data + b.data, (a, b), lambda g: (g, g), "add")


def sub(a: Tensor, b: Tensor) -> Tensor:
    _require_same_shape(a, b, "sub")
    return _make(a.data - b.data, (a, b), lambda g: (g, -g), "sub")


def neg(a: Tensor) -> Tensor:
    return _make(-a.data, (a,), lambda g: (-g,), "neg")


def mul(a: Tensor, b: Tensor) -> Tensor:
    """Hadamard (elementwise) product of two equal-shape tensors."""
    _require_same_shape(a, b, "mul")
    return _make(a.data * b.data, (a, b), lambda g: (g * b.data, g * a.data), "mul")


def hadamard(*tensors: Tensor) -> Tensor:
    """Elementwise product of two or more equal-shape tensors."""
    if len(tensors) < 2:
        raise ShapeError("hadamard needs at least two operands")
    out = tensors[0]
    for t in tensors[1:]:
        out = mul(out, t)
    return out


def scale(a: Tensor, c: float) -> Tensor:
    c = a.data.dtype.type(c)
    return _make(a.data * c, (a,), lambda g: (g * c,), "scale")


def one_minus(a: Tensor) -> Tensor:
    one = a.data.dtype.type(1)
    return _make(one - a.data, (a,), lambda g: (-g,), "one_minus")


def linear(x: Tensor, w: Tensor) -> Tensor:
    """Batched affine map without bias: (B,n) x (m,n) -> (B,m), out = x @ w.T."""
    if x.data.ndim != 2 or w.data.ndim != 2 or x.data.shape[1] != w.data.shape[1]:
        raise ShapeError(f"linear: incompatible shapes {x.data.shape} and {w.data.shape}")
    out = x.data @ w.data.T
    return _make(out, (x, w), lambda g: (g @ w.data, g.T @ x.data), "linear")


def add_rowvec(x: Tensor, v: Tensor) -> Tensor:
    """Add a length-m vector to every row of a (B,m) tensor."""
    if x.data.ndim != 2 or v.data.ndim != 1 or x.data.shape[1] != v.data.shape[0]:
        raise ShapeError(f"add_rowvec: incompatible shapes {x.data.shape} and {v.data.shape}")
    return _make(x.data + v.data, (x, v), lambda g: (g, g.sum(axis=0)), "add_rowvec")


# ---------------------------------------------------------------------------
# nonlinearities


def relu(a: Tensor) -> Tensor:
    out = np.maximum(a.data, 0)
    return _make(out, (a,), lambda g: (g * (a.data > 0),), "relu")


def _sigmoid_values(z: np.ndarray) -> np.ndarray:
    out = np.empty_like(z)
    pos = z >= 0
    out[pos] = 1.0 / (1.0 + np.exp(-z[pos]))
    ez = np.exp(z[~pos])
    out[~pos] = ez / (1.0 + ez)
    return out


def sigmoid(a: Tensor) -> Tensor:
    """Logistic function, output clamped into (eps, 1-eps) for loss safety."""
    p = _sigmoid_values(a.data)
    np.clip(p, SIGMOID_EPS, 1.0 - SIGMOID_EPS, out=p)
    return _make(p, (a,), lambda g: (g * p * (1.0 - p),), "sigmoid")


def log(a: Tensor) -> Tensor:
    if (a.data <= 0).any():
        raise NonFiniteError("log of non-positive value")
    return _make(np.log(a.data), (a,), lambda g: (g / a.data,), "log")


def clamp(a: Tensor, lo: float, hi: float) -> Tensor:
    """Clip into [lo, hi]; gradient is zero where the input was clipped."""
    out = np.clip(a.data, lo, hi)
    inside = (a.data >= lo) & (a.data <= hi)
    return _make(out, (a,), lambda g: (g * inside,), "clamp")


# ---------------------------------------------------------------------------
# gather / layout ops


def gather_rows(table: Tensor, indices: np.ndarray) -> Tensor:
    """Select rows of a (V,k) table; indices may be any integer array.

    Output shape is indices.shape + (k,).  Backward returns the gradient
    row-sparse, as the indices and the incoming (...,k) values, and
    ``Tensor.backward`` scatter-adds it, so repeated indices accumulate.
    A leaf table's gradient is written only at the gathered rows; a table
    that is an interior node receives the dense (V,k) gradient.
    """
    if table.data.ndim != 2:
        raise ShapeError(f"gather_rows expects a 2-D table, got {table.data.shape}")
    idx = np.asarray(indices)
    if not np.issubdtype(idx.dtype, np.integer):
        raise ShapeError("gather_rows indices must be integers")
    if idx.size and (idx.min() < 0 or idx.max() >= table.data.shape[0]):
        raise ShapeError(
            f"gather_rows: index out of range for table with {table.data.shape[0]} rows"
        )
    out = table.data[idx]
    return _make(out, (table,), lambda g: (_RowGrad(idx, g),), "gather_rows")


def stack_fields(tensors: list[Tensor]) -> Tensor:
    """Stack f tensors of shape (B,k) into (B,f,k)."""
    if not tensors:
        raise ShapeError("stack_fields needs at least one tensor")
    shape = tensors[0].data.shape
    for t in tensors:
        if t.data.shape != shape or t.data.ndim != 2:
            raise ShapeError("stack_fields: all inputs must share one (B,k) shape")
    out = np.stack([t.data for t in tensors], axis=1)

    def backward(g):
        return tuple(g[:, i, :] for i in range(len(tensors)))

    return _make(out, tuple(tensors), backward, "stack_fields")


def take_fields(x: Tensor, field_idx: np.ndarray) -> Tensor:
    """Gather along the field axis: (B,f,k) with m indices -> (B,m,k).

    Indices may repeat; backward sums the incoming slots per field.
    """
    if x.data.ndim != 3:
        raise ShapeError(f"take_fields expects (B,f,k), got {x.data.shape}")
    idx = np.asarray(field_idx, dtype=np.intp)
    f = x.data.shape[1]
    if idx.size and (idx.min() < 0 or idx.max() >= f):
        raise ShapeError(f"take_fields: field index out of range 0..{f - 1}")
    out = x.data[:, idx, :]

    def backward(g):
        dx = np.zeros_like(x.data)
        for fi in np.unique(idx):
            dx[:, fi, :] = g[:, idx == fi, :].sum(axis=1)
        return (dx,)

    return _make(out, (x,), backward, "take_fields")


def pad_channels(x: Tensor, total: int, offset: int) -> Tensor:
    """Embed (B,m,k) into a zero (B,total,k) block starting at channel offset."""
    if x.data.ndim != 3:
        raise ShapeError(f"pad_channels expects (B,m,k), got {x.data.shape}")
    m = x.data.shape[1]
    if offset < 0 or offset + m > total:
        raise ShapeError(f"pad_channels: {m} channels at offset {offset} exceed {total}")
    if m == total and offset == 0:
        return x
    out = np.zeros((x.data.shape[0], total, x.data.shape[2]), dtype=x.data.dtype)
    out[:, offset : offset + m, :] = x.data
    return _make(out, (x,), lambda g: (g[:, offset : offset + m, :],), "pad_channels")


class CrossIndex:
    """A cross index table, checked and prepared once for ``cross_products``.

    The (C,r) table lists the fields of each channel.  Rows must be strictly
    increasing and in strictly increasing lexicographic order, as
    itertools.combinations yields them.  ``columns`` holds the table's r
    columns.  Rows that share all fields but the last form a run; ``runs``
    holds (start, stop, shared fields, last fields as a slice when they are
    consecutive, else as an index array).
    """

    def __init__(self, index_table):
        table = np.asarray(index_table, dtype=np.intp)
        if table.ndim != 2 or table.shape[0] == 0 or table.shape[1] < 2:
            raise ShapeError(
                f"a cross index table is (C,r) with C >= 1 and r >= 2, got shape {table.shape}"
            )
        if table.min() < 0:
            raise ShapeError("cross index table holds a negative field index")
        step = table[1:] - table[:-1]
        first = (step != 0).argmax(axis=1)
        if (np.diff(table, axis=1) <= 0).any() or (step[np.arange(len(step)), first] <= 0).any():
            raise ShapeError(
                "cross index rows must be strictly increasing, in lexicographic order"
            )
        self.num_channels = table.shape[0]
        self.max_field = int(table.max())
        self.columns = [np.ascontiguousarray(col) for col in table.T]
        head = table[:, :-1]
        new = np.ones(len(table), dtype=bool)
        new[1:] = (head[1:] != head[:-1]).any(axis=1)
        starts = np.flatnonzero(new).tolist()
        self.runs: list[tuple[int, int, list[int], slice | np.ndarray]] = []
        for start, stop in zip(starts, starts[1:] + [len(table)]):
            last = table[start:stop, -1]
            if last[-1] - last[0] == stop - start - 1:
                last = slice(int(last[0]), int(last[-1]) + 1)
            self.runs.append((start, stop, head[start].tolist(), last))


def cross_products(x: Tensor, index: CrossIndex) -> Tensor:
    """Field crosses: (B,f,k) -> (B,C,k) for a C-channel ``CrossIndex``.

    Channel c is the Hadamard product of the fields in row c, multiplied
    left to right: (x_i * x_j) * x_k for a row (i,j,k).  Forward gathers
    one column of fields at a time and multiplies it in place, so the
    number of numpy calls does not grow with C.  Backward is analytic,
    dx_m += g_c * (product of the other members), run by run on
    channel-major copies: a run's shared product is made once and its last
    fields are one contiguous block.
    """
    if x.data.ndim != 3:
        raise ShapeError(f"cross_products expects (B,f,k), got {x.data.shape}")
    if index.max_field >= x.data.shape[1]:
        raise ShapeError(
            f"cross_products: field index {index.max_field} out of range for "
            f"{x.data.shape[1]} fields"
        )
    xd = x.data
    out = np.take(xd, index.columns[0], axis=1)
    for col in index.columns[1:]:
        out *= np.take(xd, col, axis=1)

    def backward(g):
        # channel-major copies make every block below a contiguous slab
        gt = np.ascontiguousarray(np.moveaxis(g, 1, 0))
        xt = np.ascontiguousarray(np.moveaxis(xd, 1, 0))
        dxt = np.zeros_like(xt)
        for start, stop, head, last in index.runs:
            p = xt[head[0]]
            for m in head[1:]:
                p = p * xt[m]
            gc = gt[start:stop]
            dxt[last] += gc * p
            dp = np.einsum("nbk,nbk->bk", gc, xt[last])
            for q, m in enumerate(head):
                others = dp
                for o, n in enumerate(head):
                    if o != q:
                        others = others * xt[n]
                dxt[m] += others
        return (np.moveaxis(dxt, 0, 1),)

    return _make(out, (x,), backward, "cross_products")


def concat_channels(tensors: list[Tensor]) -> Tensor:
    """Join (B,C_i,...) tensors along the channel axis, in order."""
    if not tensors:
        raise ShapeError("concat_channels needs at least one tensor")
    first = tensors[0].data
    for t in tensors:
        if (t.data.ndim < 2 or t.data.dtype != first.dtype or t.data.shape[0] != first.shape[0]
                or t.data.shape[2:] != first.shape[2:]):
            raise ShapeError(
                "concat_channels: inputs must agree on dtype and all axes but the channel axis"
            )
    bounds = np.cumsum([0] + [t.data.shape[1] for t in tensors]).tolist()
    out = np.concatenate([t.data for t in tensors], axis=1)

    def backward(g):
        return tuple(g[:, lo:hi] for lo, hi in zip(bounds, bounds[1:]))

    return _make(out, tuple(tensors), backward, "concat_channels")


def join_columns(left: Tensor, right: Tensor, split: int) -> Tensor:
    """Columns [:split] of left and [split:] of right, as one (B,C) tensor."""
    _require_same_shape(left, right, "join_columns")
    if left.data.ndim != 2 or not 0 <= split <= left.data.shape[1]:
        raise ShapeError(
            f"join_columns: split {split} does not fit shape {left.data.shape}"
        )
    out = np.concatenate([left.data[:, :split], right.data[:, split:]], axis=1)

    def backward(g):
        gl = np.zeros_like(g)
        gl[:, :split] = g[:, :split]
        gr = np.zeros_like(g)
        gr[:, split:] = g[:, split:]
        return gl, gr

    return _make(out, (left, right), backward, "join_columns")


def scale_channels(x: Tensor, w: Tensor) -> Tensor:
    """Multiply each channel vector of (B,C,k) by its (B,C) weight."""
    if x.data.ndim != 3 or w.data.ndim != 2 or x.data.shape[:2] != w.data.shape:
        raise ShapeError(
            f"scale_channels: incompatible shapes {x.data.shape} and {w.data.shape}"
        )
    out = x.data * w.data[:, :, None]

    def backward(g):
        return g * w.data[:, :, None], np.einsum("bck,bck->bc", g, x.data)

    return _make(out, (x, w), backward, "scale_channels")


# ---------------------------------------------------------------------------
# reductions and shape ops


def mean_lastdim(x: Tensor) -> Tensor:
    """Mean over the trailing axis, e.g. (B,C,k) -> (B,C)."""
    k = x.data.shape[-1]
    if k == 0:
        raise ShapeError("mean_lastdim over an empty axis")
    out = x.data.mean(axis=-1)
    return _make(
        out, (x,), lambda g: (np.broadcast_to((g / k)[..., None], x.data.shape),),
        "mean_lastdim",
    )


def max_lastdim(x: Tensor) -> Tensor:
    """Max over the trailing axis; ties route the gradient to the first hit."""
    if x.data.shape[-1] == 0:
        raise ShapeError("max_lastdim over an empty axis")
    arg = x.data.argmax(axis=-1)
    out = np.take_along_axis(x.data, arg[..., None], axis=-1)[..., 0]

    def backward(g):
        dx = np.zeros_like(x.data)
        np.put_along_axis(dx, arg[..., None], g[..., None], axis=-1)
        return (dx,)

    return _make(out, (x,), backward, "max_lastdim")


def sum_lastdim(x: Tensor) -> Tensor:
    out = x.data.sum(axis=-1)
    return _make(
        out, (x,), lambda g: (np.broadcast_to(g[..., None], x.data.shape),),
        "sum_lastdim",
    )


def sum_fields(x: Tensor) -> Tensor:
    """Sum over the field axis: (B,f,k) -> (B,k)."""
    if x.data.ndim != 3:
        raise ShapeError(f"sum_fields expects (B,f,k), got {x.data.shape}")
    out = x.data.sum(axis=1)
    return _make(
        out, (x,), lambda g: (np.broadcast_to(g[:, None, :], x.data.shape),),
        "sum_fields",
    )


def reshape(x: Tensor, shape: tuple[int, ...]) -> Tensor:
    if int(np.prod(shape)) != x.data.size:
        raise ShapeError(f"reshape: cannot view {x.data.shape} as {shape}")
    old = x.data.shape
    return _make(x.data.reshape(shape), (x,), lambda g: (g.reshape(old),), "reshape")


def mean_all(x: Tensor) -> Tensor:
    n = x.data.size
    if n == 0:
        raise ShapeError("mean_all of an empty tensor")
    out = np.asarray(x.data.mean(), dtype=x.data.dtype)
    return _make(
        out, (x,), lambda g: (np.broadcast_to(g / n, x.data.shape),), "mean_all"
    )


def sum_all(x: Tensor) -> Tensor:
    out = np.asarray(x.data.sum(), dtype=x.data.dtype)
    return _make(out, (x,), lambda g: (np.broadcast_to(g, x.data.shape),), "sum_all")


# ---------------------------------------------------------------------------
# stochastic ops


def dropout(x: Tensor, rate: float, training: bool, rng: np.random.Generator | int | None = None) -> Tensor:
    """Inverted dropout: zero with prob rate, scale survivors by 1/(1-rate).

    Identity in evaluation mode or at rate 0.
    """
    if not 0.0 <= rate < 1.0:
        raise ShapeError(f"dropout rate must be in [0,1), got {rate}")
    if not training or rate == 0.0:
        return x
    if rng is None:
        raise ShapeError("dropout in training mode needs an rng or seed")
    if isinstance(rng, (int, np.integer)):
        rng = np.random.default_rng(int(rng))
    keep = (rng.random(x.data.shape) >= rate).astype(x.data.dtype)
    keep *= x.data.dtype.type(1.0 / (1.0 - rate))
    return _make(x.data * keep, (x,), lambda g: (g * keep,), "dropout")


# ---------------------------------------------------------------------------
# parameter initialization


def _named_rng(seed: int, name: str) -> np.random.Generator:
    return np.random.default_rng([int(seed), zlib.crc32(name.encode("utf-8"))])


def xavier_init(shape: tuple[int, int], seed: int, name: str = "", dtype=np.float32) -> np.ndarray:
    """Uniform Xavier/Glorot draw on [-b, b], b = sqrt(6/(fan_in+fan_out)).

    Deterministic per (shape, seed, name); embedding tables pass
    (cardinality, k) as the fan pair.
    """
    if len(shape) != 2:
        raise ShapeError(f"xavier_init expects a 2-D shape, got {shape}")
    fan_in, fan_out = int(shape[0]), int(shape[1])
    if fan_in <= 0 or fan_out <= 0:
        raise ShapeError(f"xavier_init: zero dimension in {shape}")
    bound = math.sqrt(6.0 / (fan_in + fan_out))
    rng = _named_rng(seed, name)
    return rng.uniform(-bound, bound, size=(fan_in, fan_out)).astype(dtype)


# ---------------------------------------------------------------------------
# parameter store


class ParameterStore:
    """Registry of every learnable tensor of a model, keyed by unique name."""

    def __init__(self, dtype=np.float32):
        self.dtype = np.dtype(dtype)
        self._params: dict[str, Tensor] = {}
        self._decay: dict[str, bool] = {}

    def register(self, name: str, data: np.ndarray, decay: bool = True) -> Tensor:
        if name in self._params:
            raise ShapeError(f"parameter '{name}' registered twice")
        t = Tensor(np.ascontiguousarray(data, dtype=self.dtype), requires_grad=True)
        t.zero_grad()
        self._params[name] = t
        self._decay[name] = decay
        return t

    def __getitem__(self, name: str) -> Tensor:
        return self._params[name]

    def __contains__(self, name: str) -> bool:
        return name in self._params

    def __len__(self) -> int:
        return len(self._params)

    def names(self) -> list[str]:
        return list(self._params)

    def items(self):
        return self._params.items()

    def decays(self, name: str) -> bool:
        return self._decay[name]

    def zero_grad(self) -> None:
        for t in self._params.values():
            t.zero_grad()

    def state_arrays(self) -> dict[str, np.ndarray]:
        return {name: t.data.copy() for name, t in self._params.items()}

    def load_arrays(self, arrays: dict[str, np.ndarray]) -> None:
        missing = sorted(set(self._params) - set(arrays))
        extra = sorted(set(arrays) - set(self._params))
        if missing or extra:
            raise CheckpointError(
                f"parameter name mismatch: missing={missing} unexpected={extra}"
            )
        for name, arr in arrays.items():
            t = self._params[name]
            if arr.shape != t.data.shape:
                raise CheckpointError(
                    f"parameter '{name}' shape mismatch: {arr.shape} vs {t.data.shape}"
                )
            t.data = np.ascontiguousarray(arr, dtype=self.dtype)


# ---------------------------------------------------------------------------
# checkpoint serialization

CHECKPOINT_MAGIC = b"FIINETCP"
CHECKPOINT_VERSION = 1
_DTYPE_CODES = {np.dtype(np.float32): 1, np.dtype(np.float64): 2}
_CODE_DTYPES = {1: np.dtype("<f4"), 2: np.dtype("<f8")}


def save_checkpoint(path, params: ParameterStore) -> None:
    """Binary dump: magic, version, dtype code, then length-prefixed records."""
    code = _DTYPE_CODES[params.dtype]
    with open(path, "wb") as f:
        f.write(CHECKPOINT_MAGIC)
        f.write(struct.pack("<III", CHECKPOINT_VERSION, code, len(params)))
        for name, t in params.items():
            raw = name.encode("utf-8")
            f.write(struct.pack("<I", len(raw)))
            f.write(raw)
            f.write(struct.pack("<I", t.data.ndim))
            f.write(struct.pack(f"<{t.data.ndim}Q", *t.data.shape))
            f.write(np.ascontiguousarray(t.data).astype(_CODE_DTYPES[code], copy=False).tobytes())


def load_checkpoint(path) -> tuple[dict[str, np.ndarray], np.dtype]:
    """Read a checkpoint back into (name -> array, dtype); bit-exact."""
    with open(path, "rb") as f:
        blob = f.read()
    if blob[:8] != CHECKPOINT_MAGIC:
        raise CheckpointError(f"bad checkpoint magic in {path}")
    version, code, count = struct.unpack_from("<III", blob, 8)
    if version != CHECKPOINT_VERSION:
        raise CheckpointError(f"unsupported checkpoint version {version}")
    if code not in _CODE_DTYPES:
        raise CheckpointError(f"unknown checkpoint dtype code {code}")
    le_dtype = _CODE_DTYPES[code]
    pos = 20
    arrays: dict[str, np.ndarray] = {}
    for _ in range(count):
        (name_len,) = struct.unpack_from("<I", blob, pos)
        pos += 4
        name = blob[pos : pos + name_len].decode("utf-8")
        pos += name_len
        (rank,) = struct.unpack_from("<I", blob, pos)
        pos += 4
        dims = struct.unpack_from(f"<{rank}Q", blob, pos)
        pos += 8 * rank
        n = int(np.prod(dims)) if rank else 1
        arr = np.frombuffer(blob, dtype=le_dtype, count=n, offset=pos).reshape(dims)
        pos += n * le_dtype.itemsize
        arrays[name] = arr.astype(le_dtype.newbyteorder("="))
    if pos != len(blob):
        raise CheckpointError(f"trailing bytes in checkpoint {path}")
    return arrays, np.dtype(le_dtype.newbyteorder("="))


def load_checkpoint_into(path, params: ParameterStore) -> None:
    arrays, dtype = load_checkpoint(path)
    if dtype != params.dtype:
        raise CheckpointError(
            f"checkpoint dtype {dtype} does not match store dtype {params.dtype}"
        )
    params.load_arrays(arrays)


# ---------------------------------------------------------------------------
# finite-difference oracle


def finite_difference_check(
    loss_fn: Callable[[], Tensor],
    params: ParameterStore,
    eps: float = 1e-3,
    max_coords_per_group: int | None = 64,
    seed: int = 0,
) -> dict[str, float]:
    """Compare analytic gradients against central finite differences.

    loss_fn must rebuild the full forward pass from the current parameter
    data and return the scalar loss tensor.  For each parameter group a
    sample of coordinates is perturbed by +/-eps; the report maps group
    name to max relative error with denominator max(|a|, |n|, 1e-8).
    Report-only: never raises on a bad gradient.
    """
    if len(params) == 0:
        return {}
    if params.dtype != np.float64:
        raise ShapeError("finite_difference_check requires float64 parameters")
    params.zero_grad()
    loss = loss_fn()
    loss.backward()
    analytic = {name: t.grad.copy() for name, t in params.items()}
    rng = np.random.default_rng(seed)
    report: dict[str, float] = {}
    for name, t in params.items():
        flat = t.data.reshape(-1)
        n = flat.size
        if max_coords_per_group is None or n <= max_coords_per_group:
            coords = np.arange(n)
        else:
            coords = rng.choice(n, size=max_coords_per_group, replace=False)
        a_flat = analytic[name].reshape(-1)
        worst = 0.0
        for c in coords:
            old = flat[c]
            flat[c] = old + eps
            lp = float(loss_fn().data)
            flat[c] = old - eps
            lm = float(loss_fn().data)
            flat[c] = old
            numeric = (lp - lm) / (2.0 * eps)
            a = float(a_flat[c])
            rel = abs(a - numeric) / max(abs(a), abs(numeric), 1e-8)
            if rel > worst:
                worst = rel
        report[name] = worst
    return report
