"""Exception types shared across the laboratory.

The CLI maps these onto its exit-code contract: usage problems exit 1,
a `violated` verification verdict exits 2, and numerical domain errors
(including transform-range problems) exit 3.
"""


class CatalogError(KeyError):
    """Unknown catalog key; the message lists the valid keys."""


class DomainError(ValueError):
    """Invalid numerical input (non-positive step, bad horizon, ...)."""


class NumericalDomainError(DomainError):
    """A computation produced or met a non-finite value at a finite state.

    Raised from a batch of paths or a path's chain-rule transform, it also
    carries ``path_index`` (the position in the batch, or in the experiment
    run), the path's ``seed``, its base ``step`` and the time ``t``, so the
    path can be sampled and replayed on its own.
    """

    def __init__(self, message, state=None, path_index=None, seed=None,
                 t=None, step=None):
        super().__init__(message)
        self.state = state
        self.path_index = path_index
        self.seed = seed
        self.t = t
        self.step = step


class TransformRangeError(DomainError):
    """A transform was queried outside its invertible range.

    Usually fixed by building the transform with a larger table range.
    """


class UsageError(Exception):
    """Bad command-line usage or malformed configuration."""


class ExpressionError(UsageError):
    """A coefficient expression failed to parse or evaluate."""


class ConfigError(UsageError):
    """A configuration file failed to parse or carried invalid keys."""


class ResourceLimitError(UsageError):
    """An experiment's paths-times-steps budget exceeds the configured cap."""


class AssumptionViolationError(Exception):
    """A pre-run condition check returned a `violated` verdict.

    Carries the offending reports so callers can print or serialize them.
    """

    def __init__(self, message, reports=()):
        super().__init__(message)
        self.reports = tuple(reports)
