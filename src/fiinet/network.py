"""Full predictors: the attention model, its ablation variants, and the
linear / factorization-machine baselines.

Every variant shares the same output head: sigmoid of a global bias plus
per-(field,value) linear weights of the active indices plus a model score.
The attention model routes embeddings through explicit pair/triple crosses,
the selective-kernel layer, and a relu hidden stack; the ablations drop the
attention layer or one cross branch; FM replaces the deep score with the
pairwise inner-product sum; LR keeps only the linear part.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from . import engine as eg
from . import sk_attention as sk
from .crosses import ChannelLayout, build_branch_2, build_branch_3
from .errors import ConfigError, DataError, ShapeError
from .ingest import FieldSchema

VARIANTS = ("fiinet", "fiinet-sh", "fiinet-s", "fiinet-h", "lr", "fm")
# Deep variants: the cross orders they build, and whether SK attention
# re-weights the cross channels before the DNN.
DEEP_VARIANTS = {
    "fiinet": ((2, 3), True),
    "fiinet-sh": ((2, 3), False),
    "fiinet-h": ((2,), False),
    "fiinet-s": ((3,), False),
}
PRECISIONS = {"float32": np.float32, "float64": np.float64}

PROB_EPS = 1e-7


@dataclass
class ModelConfig:
    variant: str = "fiinet"
    embedding_dim: int = 32
    reduction_ratio: int = sk.DEFAULT_REDUCTION_RATIO
    min_reduced_dim: int = sk.DEFAULT_MIN_REDUCED_DIM
    hidden_sizes: tuple[int, ...] = (128, 64)
    dropout: float = 0.2
    pooling: str = "mean"
    seed: int = 2023
    precision: str = "float32"

    def __post_init__(self):
        if self.variant not in VARIANTS:
            raise ConfigError(f"unknown variant '{self.variant}' (choose from {VARIANTS})")
        if self.pooling not in sk.POOLING_MODES:
            raise ConfigError(
                f"unknown pooling mode '{self.pooling}' (choose from {sk.POOLING_MODES})"
            )
        if not 0.0 <= self.dropout < 1.0:
            raise ConfigError(f"dropout must be in [0,1), got {self.dropout}")
        if self.precision not in PRECISIONS:
            raise ConfigError(
                f"unknown precision '{self.precision}' (choose from {tuple(PRECISIONS)})"
            )

    def dtype(self):
        return PRECISIONS[self.precision]


def bce_loss(probs: eg.Tensor, labels: np.ndarray) -> eg.Tensor:
    """Mean binary cross-entropy; probabilities are clamped away from {0,1}."""
    y = np.asarray(labels)
    if probs.data.ndim != 1 or y.shape != probs.data.shape:
        raise ShapeError(
            f"bce_loss: scores {probs.data.shape} vs labels {y.shape}"
        )
    p = eg.clamp(probs, PROB_EPS, 1.0 - PROB_EPS)
    y_t = eg.Tensor(y.astype(probs.data.dtype))
    pos = eg.mul(y_t, eg.log(p))
    neg_term = eg.mul(eg.one_minus(y_t), eg.log(eg.one_minus(p)))
    return eg.neg(eg.mean_all(eg.add(pos, neg_term)))


class CtrModel:
    """A predictor variant bound to a field schema and a parameter store."""

    def __init__(self, schemas: list[FieldSchema], config: ModelConfig):
        if config.variant == "fiinet-s" and len(schemas) < 3:
            raise ShapeError("fiinet-s needs at least 3 fields for triple crosses")
        if config.variant != "lr" and len(schemas) < 2:
            raise ShapeError(f"{config.variant} needs at least 2 fields")
        self.schemas = schemas
        self.config = config
        self.num_fields = len(schemas)
        self.params = eg.ParameterStore(config.dtype())
        self.layout: ChannelLayout | None = None
        self.sk_params: sk.SkParams | None = None
        self._dnn_layers: list[tuple[eg.Tensor, eg.Tensor]] = []
        self._dnn_head: tuple[eg.Tensor, eg.Tensor] | None = None
        self._build()

    # -- construction -------------------------------------------------

    def _build(self) -> None:
        cfg = self.config
        seed = cfg.seed
        dtype = self.params.dtype
        self._linear_tables = []
        for s in self.schemas:
            self._linear_tables.append(
                self.params.register(
                    f"linear/{s.field_name}",
                    eg.xavier_init((s.cardinality, 1), seed, f"linear/{s.field_name}", dtype),
                )
            )
        self._bias = self.params.register("linear/bias", np.zeros(1), decay=False)

        if cfg.variant == "lr":
            return

        self._embed_tables = []
        for s in self.schemas:
            self._embed_tables.append(
                self.params.register(
                    f"embed/{s.field_name}",
                    eg.xavier_init(
                        (s.cardinality, cfg.embedding_dim), seed, f"embed/{s.field_name}", dtype
                    ),
                )
            )
        if cfg.variant == "fm":
            return

        orders, attention = DEEP_VARIANTS[cfg.variant]
        self.layout = ChannelLayout.build(self.num_fields, orders)
        if attention:
            self.sk_params = sk.init_sk_params(
                self.params, self.layout.num_channels, cfg.reduction_ratio,
                cfg.min_reduced_dim, seed,
            )
        if not cfg.hidden_sizes:
            raise ShapeError("deep variants need at least one hidden layer")
        width = self.layout.num_channels * cfg.embedding_dim
        for li, h in enumerate(cfg.hidden_sizes):
            w = self.params.register(
                f"dnn/w{li}", eg.xavier_init((h, width), seed, f"dnn/w{li}", dtype)
            )
            b = self.params.register(f"dnn/b{li}", np.zeros(h), decay=False)
            self._dnn_layers.append((w, b))
            width = h
        head_w = self.params.register(
            "dnn/head_w", eg.xavier_init((1, width), seed, "dnn/head_w", dtype)
        )
        head_b = self.params.register("dnn/head_b", np.zeros(1), decay=False)
        self._dnn_head = (head_w, head_b)

    # -- forward pieces ------------------------------------------------

    def _validate_indices(self, indices: np.ndarray) -> np.ndarray:
        idx = np.asarray(indices)
        if idx.ndim == 1:
            idx = idx[None, :]
        if idx.ndim != 2 or idx.shape[1] != self.num_fields:
            raise ShapeError(
                f"expected indices of shape (B,{self.num_fields}), got {idx.shape}"
            )
        for s in self.schemas:
            col = idx[:, s.field_index]
            if col.size and (col.min() < 0 or col.max() >= s.cardinality):
                raise DataError(
                    f"index out of vocabulary range for field '{s.field_name}'"
                )
        return idx

    def _linear_logit(self, idx: np.ndarray) -> eg.Tensor:
        z = eg.gather_rows(self._linear_tables[0], idx[:, 0])
        for i in range(1, self.num_fields):
            z = eg.add(z, eg.gather_rows(self._linear_tables[i], idx[:, i]))
        return eg.add_rowvec(z, self._bias)

    def _embeddings(self, idx: np.ndarray) -> eg.Tensor:
        cols = [
            eg.gather_rows(tab, idx[:, i]) for i, tab in enumerate(self._embed_tables)
        ]
        return eg.stack_fields(cols)

    def _dnn(self, x: eg.Tensor, training: bool, rng) -> eg.Tensor:
        h = x
        for w, b in self._dnn_layers:
            h = eg.relu(eg.add_rowvec(eg.linear(h, w), b))
            h = eg.dropout(h, self.config.dropout, training, rng)
        head_w, head_b = self._dnn_head
        return eg.add_rowvec(eg.linear(h, head_w), head_b)

    def _fm_score(self, emb: eg.Tensor) -> eg.Tensor:
        # sum_{i<j} <e_i, e_j> via 0.5 * (square-of-sum - sum-of-squares)
        total = eg.sum_fields(emb)
        sq_of_sum = eg.mul(total, total)
        sum_of_sq = eg.sum_fields(eg.mul(emb, emb))
        batch = emb.data.shape[0]
        return eg.reshape(
            eg.scale(eg.sum_lastdim(eg.sub(sq_of_sum, sum_of_sq)), 0.5), (batch, 1)
        )

    def _cross_channels(self, emb: eg.Tensor) -> eg.Tensor:
        """The (B,C,k) cross channels of the layout: pairs, then triples."""
        if not self.layout.triples:
            return build_branch_2(emb, self.layout)
        if not self.layout.pairs:
            return build_branch_3(emb, self.layout)
        return sk.fuse(build_branch_2(emb, self.layout), build_branch_3(emb, self.layout))

    def attention_weights(self, emb: eg.Tensor):
        """(fused, a, b) for the full attention variant: the (B,C,k) cross
        channels and the (B,C) select weights of each branch."""
        if self.sk_params is None:
            raise ShapeError(f"variant '{self.config.variant}' has no attention weights")
        fused = self._cross_channels(emb)
        stats = sk.global_pool(fused, self.config.pooling)
        descriptor = sk.reduce_descriptor(stats, self.sk_params.w1)
        a, b = sk.select_softmax(descriptor, self.sk_params.branch_a, self.sk_params.branch_b)
        return fused, a, b

    # -- public API ------------------------------------------------------

    def forward(
        self,
        indices: np.ndarray,
        training: bool = False,
        rng: np.random.Generator | None = None,
        return_attention: bool = False,
    ):
        """Predicted probabilities for a batch, shape (B,), open interval (0,1)."""
        idx = self._validate_indices(indices)
        batch = idx.shape[0]
        z = self._linear_logit(idx)
        attention = None
        if self.layout is not None:
            emb = self._embeddings(idx)
            if self.sk_params is None:
                v = self._cross_channels(emb)
            else:
                fused, a, b = self.attention_weights(emb)
                v = sk.apply_select(fused, a, b, self.layout.num_pairs)
                attention = (a, b)
            flat = eg.reshape(v, (batch, self.layout.num_channels * self.config.embedding_dim))
            z = eg.add(z, self._dnn(flat, training, rng))
        elif self.config.variant == "fm":
            z = eg.add(z, self._fm_score(self._embeddings(idx)))
        probs = eg.sigmoid(eg.reshape(z, (batch,)))
        if return_attention:
            return probs, attention
        return probs

    def predict_proba(self, indices: np.ndarray, batch_size: int = 4096) -> np.ndarray:
        """Evaluation-mode probabilities, computed off the tape in chunks."""
        idx = self._validate_indices(indices)
        out = np.empty(idx.shape[0], dtype=np.float64)
        with eg.no_grad():
            for start in range(0, idx.shape[0], batch_size):
                chunk = idx[start : start + batch_size]
                out[start : start + chunk.shape[0]] = self.forward(chunk).data
        return out

    def loss(
        self,
        indices: np.ndarray,
        labels: np.ndarray,
        training: bool = False,
        rng: np.random.Generator | None = None,
    ) -> eg.Tensor:
        return bce_loss(self.forward(indices, training=training, rng=rng), labels)

    def batch_attention(self, indices: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """Per-example attention weights (a, b), each (B,C), evaluation mode."""
        idx = self._validate_indices(indices)
        if idx.shape[0] == 0:
            raise DataError("empty sample for attention export")
        with eg.no_grad():
            _, a, b = self.attention_weights(self._embeddings(idx))
        return a.data.copy(), b.data.copy()

