"""Exception taxonomy shared across the package, and the reader of the config
field declarations that checks each field's range.

The CLI maps these onto process exit codes, so raising the right class
matters more than the message text.
"""

from dataclasses import fields
from functools import cache
from typing import Annotated, get_args, get_origin, get_type_hints


class ConfigError(ValueError):
    """Invalid configuration (bad value, unknown key, dimension mismatch). Exit code 2."""


class SetupError(RuntimeError):
    """Experiment setup cannot proceed (e.g. initial-state sampling cannot terminate). Exit code 3."""


class SolverError(RuntimeError):
    """The QP met non-finite data, gave a non-finite control or hit its NNLS pass cap. Exit code 4."""


class WorkerError(RuntimeError):
    """A forked worker process died before returning its results. Exit code 5."""


# A config field's range is (breaks, words): the test that a value out of
# range passes, and the words after "<field> must" in its error. A NaN breaks
# only ``inside``.
def at_least(k, note=""):
    return (lambda value: value < k), f"be >= {k}{note}"


def above(k):
    return (lambda value: value <= k), f"be > {k}"


def inside(lo, hi):
    return (lambda value: not lo < value < hi), f"lie in ({lo}, {hi})"


@cache
def config_fields(cls) -> tuple:
    """(field, type, description, range) for every field of a config
    dataclass, read from its ``Annotated[type, description, range]``
    declaration; what a field does not declare is None, and a nested section
    declares neither."""
    hints = get_type_hints(cls, include_extras=True)
    rows = []
    for f in fields(cls):
        hint = hints[f.name]
        args = get_args(hint) if get_origin(hint) is Annotated else (hint,)
        rows.append((f, *args, None, None)[:4])
    return tuple(rows)


def check_ranges(config) -> None:
    """Raise ``ConfigError`` for the first field of ``config``, in declaration
    order, whose value breaks its declared range; None is an unset value."""
    for f, _, _, bound in config_fields(type(config)):
        value = getattr(config, f.name)
        if bound and value is not None and bound[0](value):
            when = " when set" if f.default is None else ""
            raise ConfigError(f"{f.name} must {bound[1]}{when}")
