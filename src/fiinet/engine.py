"""Dense-tensor computation layer with exact reverse-mode gradients.

Every numeric operation the CTR models need lives here as an explicit
primitive with a hand-written backward rule, recorded define-by-run on a
tape of parent links.  There is no implicit broadcasting: each op states
exactly which shapes it accepts and raises ShapeError otherwise, which
keeps the channel bookkeeping of the cross/attention layers auditable.

Convention: the leading axis of 2-D/3-D tensors is the minibatch axis.

Finiteness is checked only where a non-finite value could turn finite or
be dropped: ``relu`` (-inf becomes 0), ``sigmoid`` and ``clamp`` (+-inf
become a finite bound) and ``take_fields`` (drops fields) check their
inputs, ``log`` refuses any input that is not > 0, NaN included, and
``Tensor.backward`` checks its scalar.  Every other op hands a non-finite
input on as non-finite (under IEEE, inf * 0 and inf - inf are NaN), so any
inf or NaN in a model reaches one of these checks, and no op spends time
scanning a wide (B,C,k) intermediate.  Such a check names the op where the
value was caught, not the one that made it.  The model layer then scores
the same rows again off the tape with ``_every_op_checked``, under which
every op checks its output, so the error names the op that produced the
value.  Only the gathers drop rows, those their indices do not name, and
they read leaf tables only; ``cross_products`` reads every field.

A training step's memory is counted in (B,C,k) arrays, C the number of
cross channels, so the tape keeps no such array it can do without.  The
first DNN layer, ``branch_linear``, reads the cross branches as a list and
keeps no joined input; ``Tensor.backward`` adds a later gradient in place
into an array the node owns; and ``cross_products``' backward makes its
channel-major copies one tile of rows at a time.

Checkpoints go through the package's two file helpers: ``load_checkpoint``
opens one with ``errors._open`` and ``save_checkpoint`` writes one with
``errors._replacing``, each raising CheckpointError naming the path.
"""

from __future__ import annotations

import math
import os
import struct
import zlib
from contextlib import contextmanager
from functools import cache
from itertools import accumulate, combinations
from typing import Callable

import numpy as np

from .errors import CheckpointError, NonFiniteError, ShapeError, _open, _replacing

SIGMOID_EPS = 1e-7
# cross_products' backward works on tiles of rows whose channel-major copy
# of the gradient takes about this many bytes, near an L2 cache, so a
# training step never holds a whole-batch (C,B,k) copy.
CROSS_TILE_BYTES = 2 * 2**20

_GRAD_ENABLED = True
# Set only by _every_op_checked: every op then checks its own output.
_CHECK_EVERY_OP = False


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


@contextmanager
def _every_op_checked():
    """Check every op's output inside the block, so a non-finite value
    raises at the op that produced it; the model replays a failed forward
    under it to name that op."""
    global _CHECK_EVERY_OP
    prev = _CHECK_EVERY_OP
    _CHECK_EVERY_OP = True
    try:
        yield
    finally:
        _CHECK_EVERY_OP = prev


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
        return f"{type(self).__name__}(shape={self.shape}, dtype={self.dtype})"

    def zero_grad(self) -> None:
        self.grad = np.zeros_like(self.data)

    def backward(self) -> None:
        """Reverse-mode sweep from a scalar output.

        Leaf tensors with requires_grad set accumulate (+=) into the gradient
        arrays they own, so parameter grads must be zeroed per minibatch; a
        leaf with no gradient yet gets a copy of the first one to arrive, in
        the leaf's own layout, so a column-major parameter's gradient is
        column-major whether or not it was zeroed first.
        A row-sparse gradient from ``gather_rows`` or ``gather_fields`` is
        scattered straight into a leaf's own dense gradient (zeros first if
        it has none), so no (V,k) table is built; gathers read leaf tables
        only, so it never reaches an interior node.
        An interior node stores the first gradient to reach it as it is,
        which may be a view shared with other nodes.  A later one is added in
        place only into an array the node owns: one an op handed over as
        ``_Fresh``, or a sum this sweep made.  Any other is added out of
        place, so no array that another node may read is ever written.
        An interior node drops its gradient once its own backward has run,
        so after the sweep only leaves hold gradients.
        """
        if self.data.size != 1:
            raise ShapeError(
                f"backward requires a scalar output, got shape {self.data.shape}"
            )
        if self._backward is None and not self.requires_grad:
            raise ShapeError("backward called on a tensor with no recorded graph")
        if not np.isfinite(self.data).all():
            raise NonFiniteError("backward from a non-finite output")
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
        owned: set[int] = set()  # interior nodes whose gradient may be written
        for node in reversed(topo):
            if node._backward is None or node.grad is None:
                continue
            parent_grads = node._backward(node.grad)
            node.grad = None
            for parent, pg in zip(node._parents, parent_grads):
                if pg is None:
                    continue
                fresh = type(pg) is _Fresh
                if fresh:
                    pg = pg.array
                if parent._backward is not None:
                    if parent.grad is None:
                        parent.grad = pg
                        if fresh:
                            owned.add(id(parent))
                    elif id(parent) in owned:
                        parent.grad += pg
                    else:
                        parent.grad = parent.grad + pg
                        owned.add(id(parent))
                elif parent.requires_grad:
                    if type(pg) is _RowGrad:
                        if parent.grad is None:
                            parent.grad = np.zeros_like(parent.data)
                        np.add.at(parent.grad, pg.rows, pg.values)
                    elif parent.grad is None:
                        parent.grad = np.empty_like(parent.data)  # the leaf's layout
                        parent.grad[...] = pg
                    else:
                        parent.grad += pg


class _Fresh:
    """A gradient array that its op made and shares with nothing, so the
    node it reaches may add later gradients into it in place.  Only
    ``Tensor.backward`` reads it."""

    __slots__ = ("array",)

    def __init__(self, array: np.ndarray):
        self.array = array


class _RowGrad:
    """Gradient of a (V,k) table that is zero outside the gathered rows.

    ``values[...]`` is added into row ``rows[...]``; rows may repeat, and
    repeats accumulate.  Only ``Tensor.backward`` reads it.
    """

    __slots__ = ("rows", "values")

    def __init__(self, rows: np.ndarray, values: np.ndarray):
        self.rows = rows
        self.values = values


def _check_input(arr: np.ndarray, op: str) -> None:
    if not np.isfinite(arr).all():
        raise NonFiniteError(f"non-finite input to op '{op}'")


def _make(out_data: np.ndarray, parents: tuple[Tensor, ...], backward, op: str) -> Tensor:
    if _CHECK_EVERY_OP and not np.isfinite(out_data).all():
        raise NonFiniteError(f"non-finite values produced by op '{op}'")
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
    _check_input(a.data, "relu")
    out = np.maximum(a.data, 0)
    return _make(out, (a,), lambda g: (g * (a.data > 0),), "relu")


def _sigmoid_values(z: np.ndarray) -> np.ndarray:
    """1 / (1 + exp(-z)) for z >= 0 and exp(z) / (1 + exp(z)) below, so
    exp never overflows; e = exp(-|z|) is the exponential of both halves."""
    e = np.exp(-np.abs(z))
    out = np.where(z >= 0, 1, e)
    out /= 1 + e
    return out


def sigmoid(a: Tensor) -> Tensor:
    """Logistic function, output clamped into [eps, 1-eps] for loss safety."""
    _check_input(a.data, "sigmoid")
    p = _sigmoid_values(a.data)
    np.clip(p, SIGMOID_EPS, 1.0 - SIGMOID_EPS, out=p)
    return _make(p, (a,), lambda g: (g * p * (1.0 - p),), "sigmoid")


def log(a: Tensor) -> Tensor:
    if not (a.data > 0).all():
        raise NonFiniteError("log of non-positive value")
    return _make(np.log(a.data), (a,), lambda g: (g / a.data,), "log")


def clamp(a: Tensor, lo: float, hi: float) -> Tensor:
    """Clip into [lo, hi]; gradient is zero where the input was clipped."""
    _check_input(a.data, "clamp")
    out = np.clip(a.data, lo, hi)
    inside = (a.data >= lo) & (a.data <= hi)
    return _make(out, (a,), lambda g: (g * inside,), "clamp")


# ---------------------------------------------------------------------------
# gather / layout ops


def gather_rows(table: Tensor, indices: np.ndarray) -> Tensor:
    """Select rows of a (V,k) table; indices may be any integer array.

    Output shape is indices.shape + (k,).  Backward returns the gradient
    row-sparse, as the indices and the incoming (...,k) values, and
    ``Tensor.backward`` scatter-adds it, so repeated indices accumulate and
    the table's gradient is written only at the gathered rows.  With grad
    mode on, the table must be a leaf: one with a recorded graph is refused.
    """
    if table.data.ndim != 2:
        raise ShapeError(f"gather_rows expects a 2-D table, got {table.data.shape}")
    if table._backward is not None and _GRAD_ENABLED:
        raise ShapeError("gather_rows reads leaf tables only, not one with a recorded graph")
    idx = np.asarray(indices)
    if not np.issubdtype(idx.dtype, np.integer):
        raise ShapeError("gather_rows indices must be integers")
    if idx.size and (idx.min() < 0 or idx.max() >= table.data.shape[0]):
        raise ShapeError(
            f"gather_rows: index out of range for table with {table.data.shape[0]} rows"
        )
    out = table.data[idx]
    return _make(out, (table,), lambda g: (_RowGrad(idx, g),), "gather_rows")


def gather_fields(tables: list[Tensor], indices: np.ndarray) -> Tensor:
    """Row ``indices[b, i]`` of table i, for f (V_i,k) tables: (B,f) -> (B,f,k).

    The same values as ``stack_fields`` over f ``gather_rows`` calls, as
    one tape node.  Backward hands each table its gradient row-sparse, and
    the tables must be leaves, as for ``gather_rows``.
    """
    if not tables:
        raise ShapeError("gather_fields needs at least one table")
    first = tables[0].data
    for t in tables:
        if t.data.ndim != 2 or t.data.shape[1] != first.shape[1] or t.data.dtype != first.dtype:
            raise ShapeError("gather_fields: tables must be 2-D and share one width and dtype")
        if t._backward is not None and _GRAD_ENABLED:
            raise ShapeError("gather_fields reads leaf tables only, not one with a recorded graph")
    idx = np.asarray(indices)
    if not np.issubdtype(idx.dtype, np.integer):
        raise ShapeError("gather_fields indices must be integers")
    if idx.ndim != 2 or idx.shape[1] != len(tables):
        raise ShapeError(f"gather_fields: indices {idx.shape} do not fit {len(tables)} tables")
    rows = np.array([t.data.shape[0] for t in tables])
    if (idx < 0).any() or (idx >= rows).any():
        raise ShapeError("gather_fields: index out of range for its table")
    out = np.empty((idx.shape[0], len(tables), first.shape[1]), dtype=first.dtype)
    for i, t in enumerate(tables):
        # mode="raise" would copy through a buffer; the indices are checked
        t.data.take(idx[:, i], axis=0, out=out[:, i], mode="clip")

    def backward(g):
        return tuple(_RowGrad(idx[:, i], g[:, i]) for i in range(len(tables)))

    return _make(out, tuple(tables), backward, "gather_fields")


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
    _check_input(x.data, "take_fields")
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


@cache
def _cross_index(num_fields: int, order: int):
    """Columns and runs of every ``order``-field combination of
    ``num_fields`` fields, in itertools.combinations order.

    ``columns`` holds the r columns of the (C,r) field table.  Rows that
    share all fields but the last form a run, and in combinations order a
    run's last fields are consecutive: ``runs`` holds (start, stop, shared
    fields, last fields as a slice), one per head in combinations order.
    """
    table = np.array(list(combinations(range(num_fields), order)), dtype=np.intp)
    columns = [np.ascontiguousarray(col) for col in table.T]
    runs = []
    start = 0
    for head in combinations(range(num_fields - 1), order - 1):
        stop = start + num_fields - 1 - head[-1]
        runs.append((start, stop, head, slice(head[-1] + 1, num_fields)))
        start = stop
    return columns, runs


def cross_products(x: Tensor, order: int) -> Tensor:
    """Every ``order``-field cross: (B,f,k) -> (B,C,k), C = f choose order.

    Channels follow itertools.combinations(range(f), order), and channel c
    is the Hadamard product of its fields, multiplied left to right:
    (x_i * x_j) * x_k for a triple (i,j,k).  Forward gathers one column of
    fields at a time and multiplies it in place, so the number of numpy
    calls does not grow with C.  Backward is analytic,
    dx_m += g_c * (product of the other members), run by run on
    channel-major copies: a run's shared product is made once and its last
    fields are one contiguous block.  The copies are made for one tile of
    rows at a time, each about CROSS_TILE_BYTES of gradient; every row's
    sums run over the same channels in the same order, so the bits do not
    depend on the tile size.
    """
    if x.data.ndim != 3:
        raise ShapeError(f"cross_products expects (B,f,k), got {x.data.shape}")
    f = x.data.shape[1]
    if not 2 <= order <= f:
        raise ShapeError(f"cross_products: order {order} is not in 2..{f} for {f} fields")
    columns, runs = _cross_index(f, order)
    xd = x.data
    out = np.take(xd, columns[0], axis=1)
    for col in columns[1:]:
        out *= np.take(xd, col, axis=1)

    def backward(g):
        dx = np.empty_like(xd)
        rows = max(1, CROSS_TILE_BYTES // max(1, g.itemsize * math.prod(g.shape[1:])))
        for r in range(0, xd.shape[0], rows):
            # channel-major copies make every block below a contiguous slab
            gt = np.ascontiguousarray(np.moveaxis(g[r:r + rows], 1, 0))
            xt = np.ascontiguousarray(np.moveaxis(xd[r:r + rows], 1, 0))
            dxt = np.zeros_like(xt)
            for start, stop, head, last in runs:
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
            dx[r:r + rows] = np.moveaxis(dxt, 0, 1)
        return (_Fresh(dx),)

    return _make(out, (x,), backward, "cross_products")


def complement_from(a: Tensor, split: int) -> Tensor:
    """Columns [:split] of a (B,C) tensor as they are and 1 - a in [split:].

    The SK select weight of a pair channel is a_c and that of a triple
    channel b_c = 1 - a_c, so this is the one (B,C) weight the first DNN
    layer scales the branches by, with no (B,C) b made.  It drops no value,
    so it checks none.  Backward hands over g in [:split] and 0 - g in
    [split:]: 0 - g, not -g, so that a +0.0 gradient stays +0.0, as in
    0 + (-g)."""
    if a.data.ndim != 2 or not 0 <= split <= a.data.shape[1]:
        raise ShapeError(f"complement_from: split {split} does not fit shape {a.data.shape}")
    out = a.data.copy()
    np.subtract(out.dtype.type(1), out[:, split:], out=out[:, split:])

    def backward(g):
        ga = g.copy()
        np.subtract(ga.dtype.type(0), ga[:, split:], out=ga[:, split:])
        return (_Fresh(ga),)

    return _make(out, (a,), backward, "complement_from")


def _branch_bounds(xs: list[Tensor], op: str, w: Tensor | None = None) -> list[int]:
    """Channel offsets [0, C_0, C_0+C_1, ...] of (B,C_i,k) branches that
    agree on B, k and dtype, and with a (B,C) channel weight ``w``, as Python ints."""
    if not xs:
        raise ShapeError(f"{op} needs at least one branch")
    first = xs[0].data
    for x in xs:
        d = x.data
        if (d.ndim != 3 or d.dtype != first.dtype or d.shape[0] != first.shape[0]
                or d.shape[2] != first.shape[2]):
            raise ShapeError(f"{op}: branches must be (B,C_i,k) and agree on B, k and dtype")
    bounds = list(accumulate((x.data.shape[1] for x in xs), initial=0))
    if w is not None and (w.data.shape != (first.shape[0], bounds[-1])
                          or w.data.dtype != first.dtype):
        raise ShapeError(
            f"{op}: channel weight {w.data.shape} {w.data.dtype} does not fit "
            f"{len(xs)} branches of {bounds[-1]} channels {first.dtype}"
        )
    return bounds


def scale_channels(xs: list[Tensor], w: Tensor) -> Tensor:
    """Multiply each channel vector of the joined (B,C_i,k) branches by its
    (B,C) weight, C = sum of C_i: (B,C,k) out.

    The branches are joined into a fresh buffer that is scaled in place, so
    the unscaled join is never kept.  Backward hands branch i the slice
    g[:, lo:hi] * w[:, lo:hi] and builds the weight gradient per branch from
    the branch arrays themselves.  The model does not call it:
    ``branch_linear`` scales the same way without keeping the output."""
    bounds = _branch_bounds(xs, "scale_channels", w)
    out = np.concatenate([x.data for x in xs], axis=1)
    out *= w.data[:, :, None]

    def backward(g):
        wd = w.data
        gw = np.empty_like(wd)
        grads = []
        for x, lo, hi in zip(xs, bounds, bounds[1:]):
            gi = g[:, lo:hi]
            grads.append(gi * wd[:, lo:hi, None])
            np.einsum("bck,bck->bc", gi, x.data, out=gw[:, lo:hi])
        return (*grads, gw)

    return _make(out, (*xs, w), backward, "scale_channels")


def branch_linear(xs: list[Tensor], w: Tensor | None, weight: Tensor) -> Tensor:
    """A dense layer over the joined (B,C_i,k) branches: (B,m) out, x @ weight.T
    for the (B, C*k) input x, with weight (m, C*k) and C = sum of C_i.  With
    a (B,C) ``w``, each channel vector of x is first scaled by its weight,
    the bits of ``scale_channels`` then ``reshape`` then ``linear``.

    x is a temporary that the tape does not keep; for one branch and no
    ``w`` it is a view of the branch.  Backward builds x again only for the
    weight gradient, before it makes the input gradient g @ weight, and
    scales the branch gradients in place in that buffer, whose slices it
    hands over as ``_Fresh``.

    The model holds ``weight`` column-major: then weight.T is a row-major
    (C*k, m) operand, which BLAS packs far more cheaply than a transposed
    one, and at a few rows that pack costs more than the arithmetic.  The
    weight gradient is made as (x.T @ g).T, column-major too, so the SGD
    update and gradient sums run in one layout.  Either layout gives the
    same values to rounding; at one row, and at shapes OpenBLAS hands to
    its small-matrix kernels, the two may sum in another order."""
    bounds = _branch_bounds(xs, "branch_linear", w)
    first = xs[0].data
    batch, channels, k = first.shape[0], bounds[-1], first.shape[2]
    if weight.data.ndim != 2 or weight.data.shape[1] != channels * k:
        raise ShapeError(
            f"branch_linear: weight {weight.data.shape} does not fit "
            f"{len(xs)} branches of {channels} channels of width {k}"
        )

    def joined():
        if w is None and len(xs) == 1:
            return first.reshape(batch, channels * k)
        x = np.concatenate([t.data for t in xs], axis=1)
        if w is not None:
            x *= w.data[:, :, None]
        return x.reshape(batch, channels * k)

    out = joined() @ weight.data.T

    def backward(g):
        g_weight = (joined().T @ g).T
        gx = (g @ weight.data).reshape(batch, channels, k)
        grads = [_Fresh(gx[:, lo:hi]) for lo, hi in zip(bounds, bounds[1:])]
        if w is None:
            return (*grads, g_weight)
        gw = np.empty_like(w.data)
        for x, lo, hi in zip(xs, bounds, bounds[1:]):
            np.einsum("bck,bck->bc", gx[:, lo:hi], x.data, out=gw[:, lo:hi])
        gx *= w.data[:, :, None]
        return (*grads, gw, g_weight)

    parents = (*xs, weight) if w is None else (*xs, w, weight)
    return _make(out, parents, backward, "branch_linear")


# ---------------------------------------------------------------------------
# reductions and shape ops


def mean_lastdim(xs: list[Tensor]) -> Tensor:
    """Mean over the trailing axis of each (B,C_i,k) branch, joined: (B,C),
    C = sum of C_i.  Each branch is summed into its columns of one buffer,
    which is then divided by k in place, the bits of ``.mean(axis=-1)``."""
    bounds = _branch_bounds(xs, "mean_lastdim")
    k = xs[0].data.shape[2]
    if k == 0:
        raise ShapeError("mean_lastdim over an empty axis")
    out = np.empty((xs[0].data.shape[0], bounds[-1]), dtype=xs[0].data.dtype)
    for x, lo, hi in zip(xs, bounds, bounds[1:]):
        np.add.reduce(x.data, axis=-1, out=out[:, lo:hi])
    np.true_divide(out, k, out=out)

    def backward(g):
        gk = g / k
        return tuple(np.broadcast_to(gk[:, lo:hi, None], x.data.shape)
                     for x, lo, hi in zip(xs, bounds, bounds[1:]))

    return _make(out, tuple(xs), backward, "mean_lastdim")


def sum_lastdim(x: Tensor) -> Tensor:
    out = x.data.sum(axis=-1)
    return _make(
        out, (x,), lambda g: (np.broadcast_to(g[..., None], x.data.shape),),
        "sum_lastdim",
    )


def sum_fields(x: Tensor) -> Tensor:
    """Sum over the field axis: (B,f,k) -> (B,k), as the left fold
    ((x_0 + x_1) + x_2) + ...  numpy's own sum is not one on (B,f,1) once
    f >= 8: it adds pairwise there."""
    if x.data.ndim != 3 or x.data.shape[1] == 0:
        raise ShapeError(f"sum_fields expects (B,f,k) with f >= 1, got {x.data.shape}")
    out = x.data[:, 0].copy()
    for i in range(1, x.data.shape[1]):
        out += x.data[:, i]
    return _make(
        out, (x,), lambda g: (np.broadcast_to(g[:, None, :], x.data.shape),),
        "sum_fields",
    )


def reshape(x: Tensor, shape: tuple[int, ...]) -> Tensor:
    if math.prod(shape) != x.data.size:
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


# ---------------------------------------------------------------------------
# stochastic ops


def dropout(x: Tensor, rate: float, training: bool, rng: np.random.Generator | None = None) -> Tensor:
    """Inverted dropout: zero with prob rate, scale survivors by 1/(1-rate).

    Identity in evaluation mode or at rate 0.
    """
    if not 0.0 <= rate < 1.0:
        raise ShapeError(f"dropout rate must be in [0,1), got {rate}")
    if not training or rate == 0.0:
        return x
    if rng is None:
        raise ShapeError("dropout in training mode needs an rng")
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


class Parameter(Tensor):
    """A learnable leaf whose value ``init`` draws on its first read.

    ``data`` stays unset until something reads it.  Python then calls
    ``__getattr__``, which runs the zero-argument ``init`` once, casts its
    result to the store's dtype and declared ``order``, checks it against
    the declared shape and stores it, so every later read finds the slot
    set.  ``shape`` and ``dtype`` answer from the declaration without
    drawing, and a value assigned to ``data`` first, as a checkpoint load
    does, means ``init`` never runs.  Each draw depends only on the
    parameter's own name, shape and seed, so the order of first reads
    changes no value.

    ``order`` is the memory layout of ``data``: "C" (row-major, the
    default) or "F" (column-major).  Only the model's first DNN weight,
    ``dnn/w0``, is column-major, for ``branch_linear``'s matmul; the layout
    changes no value, so its shape, checkpoint bytes and state arrays are
    those of the row-major array.
    """

    __slots__ = ("name", "_shape", "_dtype", "_order", "_init")

    def __init__(self, name: str, shape: tuple[int, ...], dtype: np.dtype,
                 init: Callable[[], np.ndarray], order: str = "C"):
        self.name = name
        self._shape = shape
        self._dtype = dtype
        self._order = order
        self._init = init
        self.grad = None
        self.requires_grad = True
        self._parents = ()
        self._backward = None

    def __getattr__(self, attr: str):
        # called only when the slot is unset, so never on a drawn parameter
        if attr != "data":
            raise AttributeError(f"'Parameter' object has no attribute '{attr}'")
        value = np.asarray(self._init(), dtype=self._dtype, order=self._order)
        if value.shape != self._shape:
            raise ShapeError(
                f"parameter '{self.name}': init gave shape {value.shape}, "
                f"registered as {self._shape}"
            )
        self.data = value
        return value

    @property
    def shape(self) -> tuple[int, ...]:
        return self._shape

    @property
    def dtype(self):
        return self._dtype

    @property
    def order(self) -> str:
        return self._order


class ParameterStore:
    """Registry of every learnable tensor of a model, keyed by unique name."""

    def __init__(self, dtype=np.float32):
        self.dtype = np.dtype(dtype)
        self._params: dict[str, Parameter] = {}

    def register(self, name: str, shape: tuple[int, ...],
                 init: Callable[[], np.ndarray], order: str = "C") -> Parameter:
        """Declare a parameter; ``init()`` gives its value on first read.

        ``order`` is the layout its value is held in, "C" (row-major) or
        "F" (column-major); the first draw and every load produce it."""
        if name in self._params:
            raise ShapeError(f"parameter '{name}' registered twice")
        if order not in ("C", "F"):
            raise ShapeError(f"parameter '{name}': order must be 'C' or 'F', got {order!r}")
        p = Parameter(name, tuple(int(d) for d in shape), self.dtype, init, order)
        self._params[name] = p
        return p

    def __getitem__(self, name: str) -> Parameter:
        return self._params[name]

    def __len__(self) -> int:
        return len(self._params)

    def items(self):
        return self._params.items()

    def zero_grad(self) -> None:
        for t in self._params.values():
            t.zero_grad()

    def state_arrays(self) -> dict[str, np.ndarray]:
        """A row-major copy of every parameter, whatever layout it is held in."""
        return {name: t.data.copy(order="C") for name, t in self._params.items()}

    def load_arrays(self, arrays: dict[str, np.ndarray]) -> None:
        """Set every parameter from ``arrays``, which must hold exactly the
        registered names and shapes as real-number arrays.  Each is cast to
        the store's dtype in its parameter's layout, so a row-major array
        becomes a column-major copy for a column-major parameter.  Nothing
        is drawn, and on an error no parameter changes."""
        missing = sorted(set(self._params) - set(arrays))
        extra = sorted(set(arrays) - set(self._params))
        if missing or extra:
            raise CheckpointError(
                f"parameter name mismatch: missing={missing} unexpected={extra}"
            )
        cast = {}
        for name, arr in arrays.items():
            p = self._params[name]
            if not isinstance(arr, np.ndarray) or arr.dtype.kind not in "iuf":
                kind = arr.dtype if isinstance(arr, np.ndarray) else type(arr).__name__
                raise CheckpointError(
                    f"parameter '{name}' must be an array of real numbers, got {kind}"
                )
            if arr.shape != p.shape:
                raise CheckpointError(
                    f"parameter '{name}' shape mismatch: {arr.shape} vs {p.shape}"
                )
            cast[name] = np.asarray(arr, dtype=self.dtype, order=p.order)
        for name, arr in cast.items():
            self._params[name].data = arr


# ---------------------------------------------------------------------------
# checkpoint serialization

CHECKPOINT_MAGIC = b"FIINETCP"
CHECKPOINT_VERSION = 1
_DTYPE_CODES = {np.dtype(np.float32): 1, np.dtype(np.float64): 2}
_CODE_DTYPES = {1: np.dtype("<f4"), 2: np.dtype("<f8")}


def save_checkpoint(path, params: ParameterStore) -> None:
    """Binary dump: magic, version, dtype code, then length-prefixed records.

    The dump goes to a temporary file beside ``path`` that replaces it only
    once complete (``errors._replacing``), so a failed save raises
    CheckpointError naming the path and leaves any earlier checkpoint there
    as it was.
    """
    code = _DTYPE_CODES[params.dtype]
    with _replacing(path, "checkpoint", "xb", CheckpointError) as f:
        f.write(CHECKPOINT_MAGIC)
        f.write(struct.pack("<III", CHECKPOINT_VERSION, code, len(params)))
        for name, t in params.items():
            raw = name.encode("utf-8")
            f.write(struct.pack("<I", len(raw)))
            f.write(raw)
            f.write(struct.pack("<I", t.data.ndim))
            f.write(struct.pack(f"<{t.data.ndim}Q", *t.data.shape))
            # tobytes writes row-major whatever the layout of t.data
            f.write(t.data.astype(_CODE_DTYPES[code], copy=False).tobytes())


def load_checkpoint(path) -> tuple[dict[str, np.ndarray], np.dtype]:
    """Read a checkpoint back into (name -> array, dtype); bit-exact.

    Each array is read straight into a fresh buffer, so the file is never
    held twice.  Any fault (bad magic, version or dtype code, a record cut
    short, a name that is not UTF-8 or appears twice, trailing bytes)
    raises CheckpointError naming the path, and nothing is returned; so
    does a path that cannot be opened, such as a missing file or a
    directory.
    """
    with _open(path, "checkpoint", "rb", CheckpointError) as f:
        size = os.fstat(f.fileno()).st_size

        def need(n: int, what: str) -> None:
            if n > size - f.tell():
                raise CheckpointError(f"truncated checkpoint {path}: {what} runs past the end")

        def read(n: int, what: str) -> bytes:
            need(n, what)
            return f.read(n)

        if f.read(8) != CHECKPOINT_MAGIC:
            raise CheckpointError(f"bad checkpoint magic in {path}")
        version, code, count = struct.unpack("<III", read(12, "the header"))
        if version != CHECKPOINT_VERSION:
            raise CheckpointError(f"unsupported checkpoint version {version} in {path}")
        if code not in _CODE_DTYPES:
            raise CheckpointError(f"unknown checkpoint dtype code {code} in {path}")
        le_dtype = _CODE_DTYPES[code]
        arrays: dict[str, np.ndarray] = {}
        for record in range(count):
            (name_len,) = struct.unpack("<I", read(4, f"record {record}"))
            try:
                name = read(name_len, f"record {record}'s name").decode("utf-8")
            except UnicodeDecodeError:
                raise CheckpointError(
                    f"record {record}'s name is not UTF-8 in checkpoint {path}"
                ) from None
            if name in arrays:
                raise CheckpointError(f"parameter '{name}' appears twice in checkpoint {path}")
            (rank,) = struct.unpack("<I", read(4, f"the rank of '{name}'"))
            dims = struct.unpack(f"<{rank}Q", read(8 * rank, f"the shape of '{name}'"))
            need(math.prod(dims) * le_dtype.itemsize, f"the values of '{name}'")
            try:
                arr = np.empty(dims, dtype=le_dtype)
            except ValueError:
                raise CheckpointError(f"bad shape {dims} of '{name}' in checkpoint {path}") from None
            f.readinto(arr.reshape(-1).view(np.uint8))
            arrays[name] = arr.astype(le_dtype.newbyteorder("="), copy=False)
        if f.read(1):
            raise CheckpointError(f"trailing bytes in checkpoint {path}")
    return arrays, np.dtype(le_dtype.newbyteorder("="))


def load_checkpoint_into(path, params: ParameterStore) -> None:
    """Load a checkpoint into ``params``.  Every error names the path, and
    a failed load leaves every parameter as it was, drawn or not."""
    arrays, dtype = load_checkpoint(path)
    if dtype != params.dtype:
        raise CheckpointError(
            f"checkpoint dtype {dtype} does not match store dtype {params.dtype} in {path}"
        )
    try:
        params.load_arrays(arrays)
    except CheckpointError as exc:
        raise CheckpointError(f"{exc} in checkpoint {path}") from None
