"""Workload definitions and the untimed preparation process.

Every input of a run is generated here from the run's seed; nothing is
downloaded.  A train workload gets a raw CSV table that its measured
process ingests from scratch.  The serve workload gets what a training
job would have left behind: a fields file, a vocabulary, a checkpoint,
and already-encoded rows for fine-tuning and offline scoring.  Every
workload gets a pool of raw request rows for its closed serving loop.

Run as ``python3 perfbench/prepare.py --workload NAME --seed N --out DIR``
with ``src`` on ``PYTHONPATH``.
"""

from __future__ import annotations

import argparse
import csv
from dataclasses import dataclass
from pathlib import Path

import numpy as np

NUM_FIELDS = 10
EMBEDDING_DIM = 32
BATCH = 1024
# Serving traffic.  No request size is recorded for the model, so these are
# assumptions; perfbench/README.md gives the reason for each.  Requests of
# REQUEST_ROWS rows give the serve_p50_ms and serve_tail_ms figures; the
# other sizes bracket it: one row is all per-call overhead, 64 rows are
# mostly arithmetic.
REQUEST_ROWS = 16
OTHER_REQUEST_ROWS = (1, 64)
POOL_ROWS = 4096  # raw request rows, cut into requests of each size and cycled
OOV_SHARE = 0.02  # request values never seen by the vocabulary
SPLIT_RATIOS = (0.8, 0.1, 0.1)
LATENT_DIM = 4

# Crosses that carry label signal.  Fields are 0-based.
PLANTED_PAIRS = ((0, 1), (2, 5), (3, 8))
PLANTED_TRIPLES = ((1, 4, 7), (2, 6, 9))
POSITIVE_RATE = 0.3
# Standard deviations of the label score's parts: per-value main effects,
# all planted crosses together, and noise.
MAIN_SD = 1.5
CROSS_SD = 1.5
NOISE_SD = 0.5


@dataclass(frozen=True)
class Workload:
    name: str
    support: int  # values each field can draw
    zipf: float  # rank-frequency exponent of each field's values
    rows: int  # generated table rows
    from_checkpoint: bool  # serve: set-up loads a checkpoint instead of ingesting


WORKLOADS = {
    w.name: w
    for w in (
        Workload("train-cross", 1_000, 0.5, 60_000, False),
        Workload("serve", 100_000, 0.7, 40_000, True),
    )
}


def field_names() -> list[str]:
    return [f"c{i}" for i in range(NUM_FIELDS)]


class Generator:
    """Seeded value and label model shared by all rows of one run.

    Each field draws value ranks from a Zipf law over ``support`` values.
    A value's raw string is a per-field hash of its rank.  The label score
    is a main effect per value plus the planted pair and triple crosses of
    per-value latent vectors (Hadamard products summed over the latent
    axis, the form the model's crosses can represent) plus noise.
    """

    def __init__(self, spec: Workload, seed: int):
        self.spec = spec
        self.rng = np.random.default_rng([seed, 0x5EED])
        ranks = np.arange(1, spec.support + 1, dtype=np.float64)
        p = ranks ** -spec.zipf
        self.cdf = np.cumsum(p / p.sum())
        self.codes = np.stack(
            [self.rng.permutation(spec.support) for _ in range(NUM_FIELDS)]
        )
        self.main = self.rng.standard_normal((NUM_FIELDS, spec.support))
        self.latent = self.rng.standard_normal((NUM_FIELDS, spec.support, LATENT_DIM))

    def ranks(self, n: int) -> np.ndarray:
        u = self.rng.random((n, NUM_FIELDS))
        return np.minimum(np.searchsorted(self.cdf, u), self.spec.support - 1)

    def value(self, field: int, rank: int) -> str:
        return f"{field}x{self.codes[field, rank]:x}"

    def raw_rows(self, ranks: np.ndarray) -> list[list[str]]:
        return [[self.value(f, r) for f, r in enumerate(row)] for row in ranks]

    def scores(self, ranks: np.ndarray) -> np.ndarray:
        fields = np.arange(NUM_FIELDS)
        s = MAIN_SD * self.main[fields, ranks].sum(axis=1) / np.sqrt(NUM_FIELDS)
        lat = self.latent[fields, ranks]  # (n, F, R)
        combos = PLANTED_PAIRS + PLANTED_TRIPLES
        for combo in combos:
            cross = np.prod(lat[:, combo, :], axis=1).sum(axis=1) / np.sqrt(LATENT_DIM)
            s += CROSS_SD / np.sqrt(len(combos)) * cross
        s += NOISE_SD * self.rng.standard_normal(len(ranks))
        # centre so that a strict "> 0" threshold keeps POSITIVE_RATE of rows
        return s - np.quantile(s, 1.0 - POSITIVE_RATE)

    def request_rows(self) -> list[list[str]]:
        rows = self.raw_rows(self.ranks(POOL_ROWS))
        oov = self.rng.random((len(rows), NUM_FIELDS)) < OOV_SHARE
        for r, f in zip(*np.nonzero(oov)):
            rows[r][f] = f"{f}-unseen-{r}"
        return rows


def write_raw_table(path: Path, gen: Generator) -> None:
    ranks = gen.ranks(gen.spec.rows)
    labels = gen.scores(ranks)
    with open(path, "w", encoding="utf-8", newline="") as f:
        w = csv.writer(f)
        w.writerow(["label", *field_names()])
        for score, row in zip(labels, gen.raw_rows(ranks)):
            w.writerow([f"{score:.6f}", *row])


def write_serving_artifacts(out: Path, gen: Generator, seed: int) -> None:
    """Vocabulary of every support value, a checkpoint, and encoded rows."""
    from fiinet import engine as eg
    from fiinet.ingest import FieldSchema, Vocabulary
    from fiinet.network import CtrModel

    spec = gen.spec
    names = field_names()
    maps = [
        {gen.value(f, r): r + 1 for r in range(spec.support)} for f in range(NUM_FIELDS)
    ]
    schemas = [FieldSchema(n, i, spec.support + 1) for i, n in enumerate(names)]
    vocab = Vocabulary(schemas, maps)
    with open(out / "fields.tsv", "w", encoding="utf-8") as f:
        f.write("field_index\tfield_name\tcardinality\n")
        for s in schemas:
            f.write(f"{s.field_index}\t{s.field_name}\t{s.cardinality}\n")
    vocab.save(out / "vocab.tsv")

    model = CtrModel(schemas, model_config(seed))
    eg.save_checkpoint(out / "model.ckpt", model.params)
    np.savez(out / "model_ref.npz", **model.params.state_arrays())

    ranks = gen.ranks(spec.rows)
    labels = (gen.scores(ranks) > 0).astype(np.int64)
    n_train = int(len(ranks) * (SPLIT_RATIOS[0] + SPLIT_RATIOS[1]))
    np.savez(
        out / "encoded.npz",
        train_x=ranks[:n_train] + 1, train_y=labels[:n_train],
        test_x=ranks[n_train:] + 1, test_y=labels[n_train:],
    )


def model_config(seed: int):
    from fiinet.network import ModelConfig

    return ModelConfig(variant="fiinet", embedding_dim=EMBEDDING_DIM, seed=seed)


def prepare(name: str, seed: int, out: Path) -> None:
    spec = WORKLOADS[name]
    out.mkdir(parents=True, exist_ok=True)
    gen = Generator(spec, seed)
    if spec.from_checkpoint:
        write_serving_artifacts(out, gen, seed)
    else:
        write_raw_table(out / "raw.csv", gen)
    np.save(out / "requests.npy", np.array(gen.request_rows(), dtype=str))


def main() -> None:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--out", type=Path, required=True)
    args = ap.parse_args()
    prepare(args.workload, args.seed, args.out)


if __name__ == "__main__":
    main()
