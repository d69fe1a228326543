"""Exception types raised by the crackfill pipeline.

Everything derives from CrackFillError so callers can catch pipeline
failures without masking programming errors (TypeError, etc.).
"""

from __future__ import annotations


class CrackFillError(Exception):
    """Base class for all pipeline errors."""


class NonPositiveDepth(CrackFillError):
    """Back-projection was asked for a pixel with depth <= 0."""


class FrameMismatch(CrackFillError):
    """A point tagged with one frame was fed to a transform expecting another."""


class PathOutsideGrid(CrackFillError):
    """A crack path (plus its half-width) does not fit inside the heightfield."""


class StationOutsideGrid(CrackFillError):
    """A cross-section or scan station lies outside the heightfield."""


class SegmentOutsideGrid(CrackFillError):
    """A deposition segment endpoint lies outside the heightfield."""


class ZeroLengthSegment(CrackFillError):
    """A deposition segment starts and ends at the same point."""


class ZeroSpeed(CrackFillError):
    """Deposition was requested at zero or negative travel speed."""


class Overfill(CrackFillError):
    """Deposition piled a bead higher than the model's overfill bound."""


class NoIntersection(CrackFillError):
    """No camera ray intersects the heightfield surface."""


class ProviderUnavailable(CrackFillError):
    """A segmentation mask source cannot deliver a usable mask: a missing or
    malformed file, or a mask whose size differs from the camera image."""


class EmptyPath(CrackFillError):
    """Path ordering was requested for an empty waypoint list."""


class EmptyWaypoints(CrackFillError):
    """A fill plan was requested for an empty waypoint list."""


class NoEdges(CrackFillError):
    """A calibration strip line shows no opposite-signed edge pair above threshold."""


class InsufficientSamples(CrackFillError):
    """Calibration needs at least two speeds with at least two profiles each."""


class AllPointsDropped(CrackFillError):
    """Laser refinement dropped every waypoint (no crack under any scan)."""


class ConfigError(CrackFillError):
    """A scenario configuration is malformed or fails schema validation."""


class NonMonotonicCalibration(UserWarning):
    """Mean strip areas do not strictly decrease with speed."""
