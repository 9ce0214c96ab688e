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


class SpectrumError(SpinbathError):
    """Eigensolver failure on a spin Hamiltonian."""


class ConvergenceError(SpinbathError):
    """An iterative solver failed to reach its tolerance."""


class UnidentifiableError(SpinbathError):
    """The requested fit cannot be identified from the supplied data."""
