"""The train command's default settings without attention
(cli.TRAIN_SETTINGS), as TrainConfig arguments, for tests that set only a
few of them."""

from msnmt.trainer import TrainConfig

DEFAULTS = dict(epochs=15, lr0=1.0, halve_after_epoch=10, batch_size=128, dropout=0.2,
                init_range=0.1, seed=1, max_len=50, vocab_size=10000)


def train_config(**values):
    """TrainConfig(**values), with every setting not in values at its default."""
    return TrainConfig(**{**DEFAULTS, **values})
