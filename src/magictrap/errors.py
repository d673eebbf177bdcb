"""Exception types raised by the package.

Every domain failure derives from :class:`MagicTrapError` so callers can
catch one base class.  Argument validation failures (wrong types, values
outside their documented range) raise plain :class:`ValueError` instead.
"""

from __future__ import annotations

__all__ = ["MagicTrapError", "UnitError", "GridError", "ConfigError",
           "PoleProximityError", "NoRootError", "CalibrationError"]


class MagicTrapError(Exception):
    """Base class for all package-specific errors."""


class UnitError(MagicTrapError):
    """Conversion between incompatible physical dimensions."""


class GridError(MagicTrapError):
    """Radial grid cannot support the requested computation."""


class ConfigError(MagicTrapError):
    """Invalid or incomplete run configuration."""


class PoleProximityError(MagicTrapError):
    """Requested frequency sits on top of a resonance pole: where known,
    the flat index ``point`` of the photon energy, the ``line`` and the
    ``guard`` half-width (Hartree)."""

    def __init__(self, message: str, point: int | None = None,
                 line: float | None = None, guard: float | None = None):
        super().__init__(message)
        self.point, self.line, self.guard = point, line, guard


class NoRootError(MagicTrapError):
    """Root bracket does not contain a sign change."""


class CalibrationError(MagicTrapError):
    """Calibration targets cannot be met by the model."""
