"""Exception types shared across the toolkit.

The CLI maps these onto its documented exit codes: ConfigError -> 2,
DataFormatError -> 3, ConvergenceError -> 4, UnidentifiableError -> 5.
"""

from __future__ import annotations


class SpinbathError(Exception):
    """Base class for all toolkit errors."""


class ConfigError(SpinbathError):
    """Invalid or inconsistent configuration; message names the offending key."""


class DataFormatError(SpinbathError):
    """Malformed input data file; message names the file and row."""


class ConvergenceError(SpinbathError):
    """A numerical solver failed: a fixed point missed its tolerance or `eigh` failed."""


class UnidentifiableError(SpinbathError):
    """The requested fit cannot be identified from the supplied data."""
