"""Error hierarchy shared by all modules.

Every error carries an ``exit_code`` so the CLI can map failures onto its
documented exit statuses (1 validation, 2 I/O or a lost worker process,
3 numeric, 4 compatibility).
"""


class MsnmtError(Exception):
    exit_code = 1


class ConfigError(MsnmtError):
    """Bad or inconsistent configuration / argument values."""

    exit_code = 1


class DimensionError(MsnmtError):
    """Tensor shapes do not agree for the requested operation."""

    exit_code = 1


class VocabularyError(MsnmtError):
    """Token id outside the vocabulary, or a malformed vocabulary file."""

    exit_code = 1


class CorpusIOError(MsnmtError):
    """Unreadable or unwritable corpus / checkpoint file."""

    exit_code = 2


class AlignmentError(MsnmtError):
    """Parallel files whose line counts disagree."""

    exit_code = 2


class WorkerError(MsnmtError):
    """A worker process died before returning its result (killed by a
    signal or by the OOM killer, or exited early)."""

    exit_code = 2


class NumericError(MsnmtError):
    """NaN/Inf encountered where a finite value is required."""

    exit_code = 3


class CompatibilityError(MsnmtError):
    """Checkpoint and requested run disagree (mode, shapes, vocabulary)."""

    exit_code = 4
