"""Exception taxonomy shared across the package.

The CLI maps these onto process exit codes, so raising the right class
matters more than the message text.
"""


class ConfigError(ValueError):
    """Invalid configuration (bad value, unknown key, dimension mismatch). Exit code 2."""


class SetupError(RuntimeError):
    """Experiment setup cannot proceed (e.g. initial-state sampling cannot terminate). Exit code 3."""


class SolverError(RuntimeError):
    """The QP met non-finite data, gave a non-finite control or hit its NNLS pass cap. Exit code 4."""


class WorkerError(RuntimeError):
    """A forked worker process died before returning its results. Exit code 5."""
