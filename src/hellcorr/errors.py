"""Exception types shared across the package, and the check of integer arguments."""

import numpy as np


class HellcorrError(Exception):
    """Base class for all package-specific errors."""


class DomainError(HellcorrError, ValueError):
    """A numeric argument is outside its mathematical domain."""


class SizeError(HellcorrError, ValueError):
    """Too few observations for the requested operation."""


class DegenerateDataError(HellcorrError, ValueError):
    """Input data carry no usable signal (zero variance, all-zero tables)."""


class CapabilityError(HellcorrError, ValueError):
    """A request exceeds a hard implementation limit (e.g. basis degree)."""


class ConfigError(HellcorrError, ValueError):
    """Malformed configuration, generator spec, or CLI arguments."""


class CacheMismatchError(HellcorrError, ValueError):
    """A cached null table does not match the requested sample size or pipeline settings."""


class DiagnosticsError(HellcorrError, RuntimeError):
    """A resampling procedure produced too many unusable replicates to trust its output."""


def _integer(value, name, lo, hi=None, error=ConfigError):
    """``value`` as an int once it is checked to be an integer in [lo, hi] (hi=None: unbounded).

    Python and numpy integers count; a bool, a float or NaN raises ConfigError,
    an integer out of range ``error``, the class the argument documents.
    """
    whole = isinstance(value, (int, np.integer)) and not isinstance(value, bool)
    if whole and lo <= value and (hi is None or value <= hi):
        return int(value)
    what = f"an integer in [{lo}, {hi}]" if hi is not None else f"an integer of at least {lo}"
    what = {(0, None): "a non-negative integer", (1, None): "a positive integer"}.get((lo, hi), what)
    raise (error if whole else ConfigError)(f"{name} must be {what}, got {value!r}")
