"""Error hierarchy shared by all modules.

Every error carries an ``exit_code`` so the CLI can map failures onto its
documented exit statuses (1 validation, 2 I/O or a lost worker process,
3 numeric, 4 compatibility).

Input is checked once, where it enters msnmt: the CLI, the configs'
``validate``, the corpus, vocabulary and checkpoint readers, and
``translate_file`` and ``score_files``.  Every shape, id, count and radius
inside follows from what those checks accepted, so the layers (encoder,
combiner, attention, decoder) raise no error for them; only NumericError
can arise inside, as training can diverge.
"""


class MsnmtError(Exception):
    exit_code = 1


class ConfigError(MsnmtError):
    """Bad or inconsistent configuration / argument values."""

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
