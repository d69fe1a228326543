"""Desk-scale simulator for an autonomous crack detection and filling rig.

The package models the full repair loop on synthetic specimens: a
heightfield with a carved crack is imaged by a simulated RGB-D camera,
the crack is segmented, skeletonized, and back-projected into robot
coordinates, a laser line scanner refines each waypoint and measures
the local cross-section, an extrusion model fills the crack at either
a fixed or an area-adaptive speed, and a post-fill rescan scores the
result. Everything is deterministic for a given configuration and seed.

crackfill.repair.repair (fill a surveyed specimen) is not re-exported:
here its name would hide the crackfill.repair module.
"""

from types import ModuleType as _ModuleType

from .config import ScenarioConfig
from .errors import (
    AllPointsDropped,
    ConfigError,
    CrackFillError,
    EmptyPath,
    EmptyWaypoints,
    FrameMismatch,
    InsufficientSamples,
    NoEdges,
    NoIntersection,
    NonMonotonicCalibration,
    NonPositiveDepth,
    Overfill,
    PathOutsideGrid,
    ProviderUnavailable,
    SegmentOutsideGrid,
    StationOutsideGrid,
    ZeroLengthSegment,
    ZeroSpeed,
)
from .geometry import (
    CameraIntrinsics,
    Frame,
    PixelCoord,
    Point3,
    RigidTransform,
    axis_angle_rotation,
    compose,
    invert,
    pixel_to_camera,
    rotation_about_x,
    rotation_about_y,
    rotation_about_z,
    transform_point,
)
from .perception import (
    Skeleton,
    Waypoint,
    binarize,
    extract_pixels,
    order_path,
    pixels_to_robot,
    skeletonize,
    space_pixels,
)
from .profile import (
    CalibrationModel,
    CalibrationSample,
    ProfileFeatures,
    calibrate,
    measure,
    speed_for_area,
)
from .repair import (
    AxisStats,
    ExecutionResult,
    FillMode,
    FillPlan,
    FillReport,
    FillRunArtifacts,
    LocalizationReport,
    RefinementResult,
    RepairScene,
    SpecimenView,
    StationRecord,
    Survey,
    build_localization_report,
    edge_threshold_for,
    execute_fill,
    experiment_modes,
    fill_error,
    image_specimen,
    localization_experiment,
    perceive,
    plan_fill,
    refine_waypoints,
    run_experiment,
    run_fill,
    survey,
    validate,
)
from .sensors import (
    DepthImage,
    LaserProfile,
    MaskImage,
    SensorNoise,
    render_depth,
    render_truth_mask,
    scan_profile,
)
from .specimen import (
    CrackSpec,
    DepositionParams,
    DepositResult,
    Heightfield,
    PathLayout,
    deposit,
    deposit_path,
    generate_specimen,
    lay_out,
)

__version__ = "0.1.0"

# every public name bound above; the submodules the imports bind are not
__all__ = sorted(name for name, value in globals().items() if not name.startswith("_") and not isinstance(value, _ModuleType))
