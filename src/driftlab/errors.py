"""Shared exception types.

Everything that can go wrong in a named, contract-level way raises one of
these, so callers (and the CLI exit-code mapping) can tell configuration
mistakes apart from runtime invariant violations.
"""

from __future__ import annotations


class ConfigError(ValueError):
    """Invalid configuration: bad key, bad value, unusable combination."""


class SpaceMismatchError(ValueError):
    """Two objects built over different outcome spaces were combined."""


class DegenerateSelectionError(RuntimeError):
    """Selection assigned zero total acceptance mass: no training distribution exists."""


class VerifierAnnihilationError(RuntimeError):
    """A verifier pass removed every sample in the round's dataset."""


class SimulationError(RuntimeError):
    """A run failed mid-trajectory; carries the failing round index, and the
    exception that failed it as __cause__."""

    def __init__(self, round_index: int, cause: Exception):
        super().__init__(f"round {round_index}: {cause}")
        self.round_index = round_index
        self.__cause__ = cause
