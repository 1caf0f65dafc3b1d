"""Exception types shared across the package."""

from __future__ import annotations


class ConfigError(ValueError):
    """A configuration failed validation.

    Carries the full list of problems, not just the first one, so a user
    can fix a config file in one pass.
    """

    def __init__(self, errors: list[str]):
        self.errors = list(errors)
        super().__init__("invalid configuration:\n" + "\n".join(f"  - {e}" for e in self.errors))


class VariantMismatchError(TypeError):
    """State vector does not match the population's membrane variant."""


class SimulationDiverged(RuntimeError):
    """A trajectory produced a non-finite value; the offending location is in the message."""
