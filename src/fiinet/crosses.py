"""Explicit feature-cross construction (the Split stage).

All order-2 and order-3 field combinations are enumerated once, in
itertools.combinations order, into a fixed channel layout: pair channels
first, triple channels after.  ``ChannelLayout.build`` alone decides the
cross orders and the fields they need (an int field count, at least the
highest order), and each branch is one ``cross_products`` call, whose
channels follow the same order; ``_branch`` checks the embeddings against
the layout for both.  Each cross is the plain Hadamard product of the
participating field embeddings, (e_i * e_j) * e_k for a triple; the
per-channel attention weights and the downstream network absorb any
per-cross scaling.

Each branch holds only its own live channels: the pair branch is
(B,C2,k) and the triple branch (B,C3,k).  The attention layer and the
first DNN layer (``engine.branch_linear``) take the two as a list; the
joined (B,C,k) DNN input, scaled where a variant has attention by one
(B,C) weight, a_c on pair channels and 1 - a_c on triple channels, is
only a temporary inside that layer.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import combinations

from . import engine as eg
from .errors import ShapeError
from .ingest import _is_int


@dataclass(frozen=True)
class ChannelLayout:
    """Fixed channel order consumed by the attention layer and the reports.

    Channels 0..C2-1 are the pair crosses, C2..C-1 the triple crosses.
    Immutable after model construction.
    """

    num_fields: int
    pairs: tuple[tuple[int, int], ...]
    triples: tuple[tuple[int, int, int], ...]

    @classmethod
    def build(cls, num_fields: int, orders: tuple[int, ...] = (2, 3)) -> "ChannelLayout":
        """The layout of every cross of each order in ``orders``, a
        non-empty selection of 2 and 3; an order-r cross needs r fields."""
        if not orders or not set(orders) <= {2, 3}:
            raise ShapeError(f"cross orders must be a non-empty selection of 2 and 3, got {orders}")
        if not _is_int(num_fields):
            raise ShapeError(f"the field count must be an int, got {num_fields!r}")
        top = max(orders)
        if num_fields < top:
            raise ShapeError(f"order-{top} crosses need at least {top} fields, got {num_fields}")
        pairs = tuple(combinations(range(num_fields), 2)) if 2 in orders else ()
        triples = tuple(combinations(range(num_fields), 3)) if 3 in orders else ()
        return cls(num_fields=num_fields, pairs=pairs, triples=triples)

    @property
    def num_pairs(self) -> int:
        return len(self.pairs)

    @property
    def num_channels(self) -> int:
        return len(self.pairs) + len(self.triples)

    def channel_fields(self, channel: int) -> tuple[int, ...]:
        if channel < len(self.pairs):
            return self.pairs[channel]
        return self.triples[channel - len(self.pairs)]

    def channel_order(self, channel: int) -> int:
        return 2 if channel < len(self.pairs) else 3


def _branch(embeddings: eg.Tensor, layout: ChannelLayout, order: int) -> eg.Tensor:
    """The order-``order`` channels of (B,f,k) embeddings on ``layout``."""
    if embeddings.data.ndim != 3 or embeddings.data.shape[1] != layout.num_fields:
        raise ShapeError(
            f"expected embeddings of shape (B,{layout.num_fields},k), "
            f"got {embeddings.data.shape}"
        )
    if not (layout.pairs if order == 2 else layout.triples):
        raise ShapeError(f"layout carries no {'pair' if order == 2 else 'triple'} channels")
    return eg.cross_products(embeddings, order)


def build_branch_2(embeddings: eg.Tensor, layout: ChannelLayout) -> eg.Tensor:
    """Second-order branch: pair channel (i,j) holds e_i * e_j elementwise.

    Returns the (B,C2,k) pair channels, in layout order.
    """
    return _branch(embeddings, layout, 2)


def build_branch_3(embeddings: eg.Tensor, layout: ChannelLayout) -> eg.Tensor:
    """Third-order branch: triple channel (i,j,k) holds (e_i * e_j) * e_k.

    Returns the (B,C3,k) triple channels, in layout order.
    """
    return _branch(embeddings, layout, 3)
