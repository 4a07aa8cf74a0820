"""Self-contained CTR prediction engine: explicit multi-order feature
crosses weighted per channel by a selective-kernel attention layer, with
its own reverse-mode gradient engine, ingest of raw tables, and linear
and factorization-machine baselines."""

__version__ = "0.1.0"
