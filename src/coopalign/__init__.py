"""Cooperative BEV perception without satellite positioning: shared scene
localization, grid fusion with residual alignment, and detection metrics on
synthetic scenes."""

import types as _types

from .baselines import (
    BoxObservation,
    GraphMatchConfig,
    GraphMatchResult,
    IcpConfig,
    IcpResult,
    graph_match_align,
    icp_align,
)
from .config import (
    ConfigError,
    EncoderConfig,
    ExperimentConfig,
    GridParams,
    HeadConfig,
    ScenarioParams,
    config_from_dict,
    load_config,
)
from .detection import (
    Detection,
    EvalConfig,
    HeadParams,
    RotatedBox3D,
    average_precision,
    decode_head,
    pooled_average_precision,
    rotated_iou_bev,
)
from .fusion import (
    BevGrid,
    GridSpec,
    NoSignalError,
    OffsetSearch,
    OffsetTemplate,
    apply_offset,
    coarse_align,
    confidence_embed,
    deserialize_grid,
    estimate_offset,
    offset_template,
    rasterize_bev,
    serialize_grid,
    warp_grid,
)
from .geometry import (
    PointCloud,
    Pose,
    Pose2D,
    compose,
    inverse,
    load_point_cloud,
    normalize_angle,
    perturb_pose,
    pose_error,
    relative,
    rotation_z,
    save_points_binary,
    transform_points,
)
from .harness import (
    AgentObservation,
    AlignmentReport,
    AlignmentRow,
    CommRecord,
    PipelineResult,
    Scenario,
    ScenarioGenerationError,
    ScenarioSetup,
    SweepReport,
    SweepRow,
    agent_box_observation,
    box_in_frame,
    build_head,
    ego_frame_targets,
    emit_alignment_report,
    emit_scenario,
    emit_sweep_report,
    generate_and_emit,
    generate_scenario,
    run_alignment_benchmark,
    run_noise_sweep,
    run_pipeline,
    selftest,
    setup_scenario,
)
from .localization import (
    DegenerateSampleError,
    OracleErrorModel,
    PoseEstimate,
    RansacConfig,
    SceneCoordPrediction,
    confidence_from_error,
    kabsch_solve,
    oracle_predict,
    ransac_pose,
    sample_structured_offsets,
    voxel_downsample,
)
from .temporal import (
    EncoderParams,
    LayerParams,
    encode,
    temporal_encoding,
    vit_forward,
)

__version__ = "0.1.0"

# the imported names only: importing a submodule also binds it here
__all__ = sorted(
    name for name, value in globals().items()
    if not name.startswith("_") and not isinstance(value, _types.ModuleType)
)
