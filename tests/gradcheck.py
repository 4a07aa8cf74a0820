"""The tests' gradient oracle: central finite differences against the
gradients ``Tensor.backward`` computes, and a scalar loss made of public
ops."""

import numpy as np

from fiinet import engine as eg


def total(x):
    """The sum of every entry of ``x``, as a scalar on the tape."""
    return eg.sum_lastdim(eg.reshape(x, (x.data.size,)))


def numeric_gradient(loss, arr, coords, eps):
    """Central differences of the float ``loss()`` at the flat row-major
    ``coords`` of ``arr``, which ``loss`` must read; ``arr`` is restored
    after each.  ``arr`` itself is written, in any memory layout: a flat
    view of a column-major array would be a copy the loss never reads."""
    out = np.empty(len(coords))
    for n, c in enumerate(coords):
        at = np.unravel_index(c, arr.shape)
        old = arr[at]
        arr[at] = old + eps
        lp = loss()
        arr[at] = old - eps
        lm = loss()
        arr[at] = old
        out[n] = (lp - lm) / (2 * eps)
    return out


def max_relative_error(analytic, numeric):
    """The worst |a - n| / max(|a|, |n|, 1e-8) over the coordinates."""
    denom = np.maximum(np.maximum(np.abs(analytic), np.abs(numeric)), 1e-8)
    return float((np.abs(analytic - numeric) / denom).max())


def check_parameters(loss_fn, params, eps, max_coords):
    """Each parameter's worst relative error between its backward gradient
    and central differences of ``loss_fn()``, which must rebuild the
    forward pass from the float64 parameters.  A parameter with more than
    ``max_coords`` entries is checked at ``max_coords`` of them, drawn in
    registration order from one stream seeded 0."""
    params.zero_grad()
    loss_fn().backward()
    rng = np.random.default_rng(0)
    report = {}
    for name, t in params.items():
        n = t.data.size
        coords = np.arange(n) if n <= max_coords else rng.choice(n, size=max_coords, replace=False)
        numeric = numeric_gradient(lambda: float(loss_fn().data), t.data, coords, eps)
        report[name] = max_relative_error(t.grad.reshape(-1)[coords], numeric)
    return report
