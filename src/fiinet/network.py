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

import numbers
from dataclasses import dataclass

import numpy as np

from . import engine as eg
from . import sk_attention as sk
from .crosses import ChannelLayout, build_branch_2, build_branch_3
from .errors import ConfigError, DataError, NonFiniteError, ShapeError
from .ingest import FieldSchema, _require_unique

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

# Evaluation scores rows in blocks whose widest intermediate takes at most
# this many bytes.  That is well below glibc's largest mmap threshold
# (32 MiB), so the allocator reuses block-sized buffers instead of mapping,
# faulting in and zeroing fresh pages for every intermediate.  Scoring 4000
# rows of a 10-field, k=32 float32 model (2-core Xeon, 4 MiB L2, one BLAS
# thread), 5-8 MiB per intermediate was fastest and took no minor faults;
# 82 MiB (4096 rows per pass) took 1.5-2x as long.
SCORE_BLOCK_BYTES = 6 * 2**20
# Every block starts at a multiple of this many rows.  OpenBLAS's
# matrix-vector kernel, which the output head runs, can round the last
# (rows mod 4) rows of a batch differently from the others; with aligned
# blocks every row gets the bits it gets in one whole-batch pass.
SCORE_BLOCK_ALIGN = 16


@dataclass
class ModelConfig:
    variant: str = "fiinet"
    embedding_dim: int = 32
    min_reduced_dim: int = sk.DEFAULT_MIN_REDUCED_DIM
    hidden_sizes: tuple[int, ...] = (128, 64)
    dropout: float = 0.2
    seed: int = 2023
    precision: str = "float32"

    def __post_init__(self):
        if self.variant not in VARIANTS:
            raise ConfigError(f"unknown variant '{self.variant}' (choose from {VARIANTS})")
        for name in ("embedding_dim", "min_reduced_dim"):
            _require_int(name, getattr(self, name))
        if not isinstance(self.hidden_sizes, (tuple, list)):
            raise ConfigError(
                f"hidden_sizes must be a tuple or list of ints, got {self.hidden_sizes!r}"
            )
        for size in self.hidden_sizes:
            _require_int("hidden_sizes", size)
        if self.variant in DEEP_VARIANTS and not self.hidden_sizes:
            raise ConfigError(f"hidden_sizes: {self.variant} needs at least one hidden layer")
        if isinstance(self.dropout, bool) or not isinstance(self.dropout, numbers.Real):
            raise ConfigError(f"dropout must be a real number, got {self.dropout!r}")
        if not 0.0 <= self.dropout < 1.0:
            raise ConfigError(f"dropout must be in [0,1), got {self.dropout}")
        _require_int("seed", self.seed, minimum=0)
        if self.precision not in PRECISIONS:
            raise ConfigError(
                f"unknown precision '{self.precision}' (choose from {tuple(PRECISIONS)})"
            )

    def dtype(self):
        return PRECISIONS[self.precision]


def _require_int(name: str, value, minimum: int = 1) -> None:
    if isinstance(value, bool) or not isinstance(value, (int, np.integer)) or value < minimum:
        kind = "a positive int" if minimum == 1 else f"an int >= {minimum}"
        raise ConfigError(f"{name} must be {kind}, got {value!r}")


def _replayed(call, replay):
    """``call()``; on a NonFiniteError, run ``replay()`` off the tape under
    ``engine._every_op_checked`` first, then re-raise.

    The engine checks finiteness only where a value could vanish, so the
    error names the op that caught the value, say ``relu``; the replay
    raises at the op that produced it.  It runs in evaluation mode, so
    dropout draws nothing; if it raises nothing, ``call``'s error stands."""
    try:
        return call()
    except NonFiniteError:
        with eg.no_grad(), eg._every_op_checked():
            replay()
        raise


def _bce_loss(probs: eg.Tensor, labels: np.ndarray) -> eg.Tensor:
    """Mean logloss -mean(log q) of labels y in {0,1}: q = y·p + (1-y)·(1-p)
    is the probability of the observed label, p clamped away from {0,1}.  One
    log per row, with the bits of -mean(y·log p + (1-y)·log(1-p))."""
    y = labels.astype(probs.data.dtype)
    p = eg.clamp(probs, eg.SIGMOID_EPS, 1.0 - eg.SIGMOID_EPS)
    q = eg.add(eg.mul(eg.Tensor(y), p), eg.mul(eg.Tensor(1 - y), eg.one_minus(p)))
    return eg.neg(eg.mean_all(eg.log(q)))


class CtrModel:
    """A predictor variant bound to a field schema and a parameter store."""

    def __init__(self, schemas: list[FieldSchema], config: ModelConfig):
        names = [s.field_name for s in schemas]
        _require_unique(names)
        if "bias" in names:
            raise DataError("field name 'bias' is taken by the global bias 'linear/bias'")
        if not schemas:
            raise ShapeError(f"{config.variant} needs at least 1 field, got 0")
        if config.variant == "fm" and len(schemas) < 2:
            raise ShapeError(f"fm needs at least 2 fields, got {len(schemas)}")
        self.schemas = schemas
        self.config = config
        self.num_fields = len(schemas)
        self._cardinalities = np.array([s.cardinality for s in schemas])
        self.params = eg.ParameterStore(config.dtype())
        self.layout: ChannelLayout | None = None
        self.sk_params: sk.SkParams | None = None
        self._dnn_layers: list[tuple[eg.Tensor, eg.Tensor]] = []
        self._dnn_head: tuple[eg.Tensor, eg.Tensor] | None = None
        self._build()

    # -- construction -------------------------------------------------

    def _build(self) -> None:
        cfg = self.config
        self._linear_tables = [
            self._xavier(f"linear/{s.field_name}", (s.cardinality, 1)) for s in self.schemas
        ]
        self._bias = self._zeros("linear/bias", 1)

        if cfg.variant == "lr":
            return

        self._embed_tables = [
            self._xavier(f"embed/{s.field_name}", (s.cardinality, cfg.embedding_dim))
            for s in self.schemas
        ]
        if cfg.variant == "fm":
            return

        orders, attention = DEEP_VARIANTS[cfg.variant]
        self.layout = ChannelLayout.build(self.num_fields, orders)
        if attention:
            self.sk_params = sk.init_sk_params(
                self.params, self.layout.num_channels, cfg.min_reduced_dim, cfg.seed
            )
        width = self.layout.num_channels * cfg.embedding_dim
        for li, h in enumerate(cfg.hidden_sizes):
            w = self._xavier(f"dnn/w{li}", (h, width))
            self._dnn_layers.append((w, self._zeros(f"dnn/b{li}", h)))
            width = h
        self._dnn_head = (self._xavier("dnn/head_w", (1, width)), self._zeros("dnn/head_b", 1))

    def _xavier(self, name: str, shape: tuple[int, int]) -> eg.Parameter:
        """A parameter drawn by ``xavier_init`` under its own name on first read."""
        seed, dtype = self.config.seed, self.params.dtype
        return self.params.register(name, shape, lambda: eg.xavier_init(shape, seed, name, dtype))

    def _zeros(self, name: str, size: int) -> eg.Parameter:
        return self.params.register(name, (size,), lambda: np.zeros(size))

    # -- forward pieces ------------------------------------------------

    def _index_rows(self, indices: np.ndarray) -> np.ndarray:
        """``indices`` as (B,f) rows, one row if 1-D; values unchecked."""
        idx = np.asarray(indices)
        if idx.ndim == 1:
            idx = idx[None, :]
        if idx.ndim != 2 or idx.shape[1] != self.num_fields:
            raise ShapeError(
                f"expected indices of shape (B,{self.num_fields}), got {idx.shape}"
            )
        return idx

    def _validate_indices(self, indices: np.ndarray) -> np.ndarray:
        idx = self._index_rows(indices)
        if (idx < 0).any() or (idx >= self._cardinalities).any():
            # rescan field by field only to name the first bad one
            for i, s in enumerate(self.schemas):
                col = idx[:, i]
                if col.min() < 0 or col.max() >= s.cardinality:
                    raise DataError(
                        f"index out of vocabulary range for field '{s.field_name}'"
                    )
        return idx

    def _linear_logit(self, idx: np.ndarray) -> eg.Tensor:
        weights = eg.gather_fields(self._linear_tables, idx)
        return eg.add_rowvec(eg.sum_fields(weights), self._bias)

    def _embeddings(self, idx: np.ndarray) -> eg.Tensor:
        return eg.gather_fields(self._embed_tables, idx)

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
        return eg.concat_channels(
            [build_branch_2(emb, self.layout), build_branch_3(emb, self.layout)]
        )

    def attention_weights(self, emb: eg.Tensor):
        """(fused, a, b) for the full attention variant: the (B,C,k) cross
        channels and the (B,C) select weights of each branch."""
        if self.sk_params is None:
            raise ShapeError(f"variant '{self.config.variant}' has no attention weights")
        fused = self._cross_channels(emb)
        a, b = sk.select_weights(fused, self.sk_params)
        return fused, a, b

    # -- public API ------------------------------------------------------

    def forward(
        self,
        indices: np.ndarray,
        training: bool = False,
        rng: np.random.Generator | None = None,
    ) -> eg.Tensor:
        """Predicted probabilities for a batch, shape (B,), open interval (0,1).

        A non-finite value raises NonFiniteError naming the op that
        produced it (see ``_replayed``)."""
        idx = self._validate_indices(indices)
        return _replayed(lambda: self._forward(idx, training, rng),
                         lambda: self._forward(idx, False, None))

    def _forward(self, idx: np.ndarray, training: bool, rng) -> eg.Tensor:
        batch = idx.shape[0]
        z = self._linear_logit(idx)
        if self.layout is not None:
            emb = self._embeddings(idx)
            if self.sk_params is None:
                v = self._cross_channels(emb)
            else:
                fused, a, b = self.attention_weights(emb)
                v = sk.apply_select(fused, a, b, self.layout.num_pairs)
            flat = eg.reshape(v, (batch, self.layout.num_channels * self.config.embedding_dim))
            z = eg.add(z, self._dnn(flat, training, rng))
        elif self.config.variant == "fm":
            z = eg.add(z, self._fm_score(self._embeddings(idx)))
        return eg.sigmoid(eg.reshape(z, (batch,)))

    def predict_proba(self, indices: np.ndarray) -> np.ndarray:
        """Evaluation-mode probabilities, computed off the tape in row blocks.

        ``forward`` checks each block's index range, so every row is checked
        once."""
        idx = self._index_rows(indices)
        if idx.shape[0] == 0:
            return np.empty(0)
        blocks = self._in_blocks(idx, lambda block: self.forward(block).data)
        return np.concatenate(blocks, dtype=np.float64)

    def loss(
        self,
        indices: np.ndarray,
        labels: np.ndarray,
        training: bool = False,
        rng: np.random.Generator | None = None,
    ) -> eg.Tensor:
        """Mean binary cross-entropy.  Labels (one per row, 0 or 1) are checked
        before ``forward``, so a refused call draws nothing from ``rng``."""
        y = np.asarray(labels)
        rows = (self._index_rows(indices).shape[0],)
        if y.shape != rows:
            raise ShapeError(f"bce_loss: scores {rows} vs labels {y.shape}")
        bad = (y != 0) & (y != 1)
        if bad.any():
            raise DataError(f"bce_loss: label {y[bad][0].item()!r} is not 0 or 1")
        return _bce_loss(self.forward(indices, training=training, rng=rng), y)

    def batch_attention(self, indices: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """Per-example attention weights (a, b), each (B,C), evaluation mode."""
        if self.sk_params is None:
            raise ShapeError(f"variant '{self.config.variant}' has no attention weights")
        idx = self._validate_indices(indices)
        if idx.shape[0] == 0:
            raise DataError("empty sample for attention export")

        def weights(block):
            def score():
                return self.attention_weights(self._embeddings(block))
            _, a, b = _replayed(score, score)
            return a.data, b.data

        a, b = zip(*self._in_blocks(idx, weights))
        return np.concatenate(a), np.concatenate(b)

    def _in_blocks(self, idx: np.ndarray, score) -> list:
        """``score(block)`` off the tape for consecutive row blocks of
        ``idx``: as few as fit ``_block_rows``, near-equal in size, each
        starting at a multiple of SCORE_BLOCK_ALIGN."""
        n = idx.shape[0]
        units = -(-n // SCORE_BLOCK_ALIGN)  # aligned runs of rows; the last may be short
        count = -(-units * SCORE_BLOCK_ALIGN // self._block_rows())
        bounds = [min(n, SCORE_BLOCK_ALIGN * (units * i // count)) for i in range(count + 1)]
        with eg.no_grad():
            return [score(idx[lo:hi]) for lo, hi in zip(bounds, bounds[1:])]

    def _block_rows(self) -> int:
        """The most rows, a multiple of SCORE_BLOCK_ALIGN, whose widest
        intermediate fits in SCORE_BLOCK_BYTES: the (B,C,k) cross channels
        of a deep variant, fm's (B,f,k) embeddings, lr's (B,1) logits."""
        if self.layout is not None:
            width = self.layout.num_channels * self.config.embedding_dim
        elif self.config.variant == "fm":
            width = self.num_fields * self.config.embedding_dim
        else:
            width = 1
        rows = SCORE_BLOCK_BYTES // (width * self.params.dtype.itemsize)
        return max(SCORE_BLOCK_ALIGN, rows - rows % SCORE_BLOCK_ALIGN)

