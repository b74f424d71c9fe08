"""Exception hierarchy shared across the toolkit.

Every failure mode that callers are expected to handle has its own class so
that the CLI can emit machine-readable error records without string matching.
"""


class SuperradError(Exception):
    """Base class for all toolkit errors."""


class InvalidValue(SuperradError, ValueError):
    """An argument lies outside the range a function accepts."""


# --- parameter validation ---------------------------------------------------

class InvalidParams(SuperradError):
    """One or more physical-parameter invariants are violated."""

    def __init__(self, violations):
        self.violations = list(violations)
        super().__init__("; ".join(self.violations))


class NegativeRate(InvalidParams):
    def __init__(self, field):
        self.field = field
        super().__init__([f"rate '{field}' must be >= 0"])


class ZeroEmitters(InvalidParams):
    def __init__(self):
        super().__init__(["n_emitters must be >= 1"])


class NonPositiveEnergy(InvalidParams):
    def __init__(self, field):
        self.field = field
        super().__init__([f"energy '{field}' must be > 0"])


# --- exact Lindblad solver ---------------------------------------------------

class DimensionCap(SuperradError):
    """A solve or dense block would exceed the configured cap on its unknowns, or a
    system or grid runs out of memory."""


class DegenerateSteadyState(SuperradError):
    """The Liouvillian null space is not one-dimensional."""


class UnknownObservable(SuperradError):
    pass


class CutoffNotConverged(SuperradError):
    """Photon-number cutoff sweep hit the dimension cap before converging."""


class VacuumState(SuperradError):
    """Photon statistics are undefined: steady-state photon number ~ 0."""


# --- cumulant solver ----------------------------------------------------------

class NoConvergence(SuperradError):
    """No stable stationary moment state, or its derivative norm exceeds tol * max(1, kappa n)."""


class NonFiniteState(SuperradError):
    """A moment state holds NaN or Inf."""


# --- scaling harness ---------------------------------------------------------

class DegenerateRates(SuperradError):
    """All rates in a denominator vanish."""


class InsufficientPoints(SuperradError):
    pass


class NonPositiveValue(SuperradError):
    pass


# --- cavity optics -------------------------------------------------------------

class AngleOutOfRange(SuperradError):
    pass


class PeakNotFound(SuperradError):
    """No emission peak to measure: the filter and the emitter line are separated by far
    more than their widths, or a side of the peak has no half-maximum crossing."""


class ZeroLinewidth(SuperradError):
    pass


# --- configuration / CLI -------------------------------------------------------

class ConfigError(SuperradError):
    """Base class for configuration-document problems."""


class ConfigFileUnreadable(ConfigError):
    """The config file cannot be opened or read, or is not UTF-8 text."""


class UsageError(SuperradError):
    """The command line names no command, lacks --config or holds an unknown argument."""


class OutputUnwritable(SuperradError):
    """The output directory cannot be made, or a result file cannot be written in it."""


class ConfigSyntaxError(ConfigError):
    def __init__(self, message, line=None, column=None):
        self.line = line
        self.column = column
        if line is not None:
            message = f"{message} (line {line}, column {column})"
        super().__init__(message)


class UnknownKey(ConfigError):
    def __init__(self, key):
        self.key = key
        super().__init__(f"unknown configuration key '{key}'")


class MissingSection(ConfigError):
    def __init__(self, section):
        self.section = section
        super().__init__(f"missing required configuration section or key '{section}'")


class TypeMismatch(ConfigError):
    def __init__(self, key, expected, got):
        self.key = key
        super().__init__(f"key '{key}' expects {expected}, got {got!r}")
