"""Exception hierarchy shared across the package.

Every error carries a short machine-parsable ``category`` naming the kind
of failure: config, data, shape, numeric or checkpoint.
"""


class FiinetError(Exception):
    category = "internal"


class ConfigError(FiinetError):
    category = "config"


class DataError(FiinetError):
    category = "data"


class ShapeError(FiinetError):
    category = "shape"


class NonFiniteError(FiinetError):
    category = "numeric"


class CheckpointError(FiinetError):
    category = "checkpoint"
