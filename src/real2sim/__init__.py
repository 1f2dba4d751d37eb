"""Real-to-sim evaluation toolkit.

Library surface: rigid-transform algebra, a serial-chain robot model,
jerk-limited trajectory planning, the Google Robot / WidowX control loops,
a decoupled PD joint plant with open-loop replay, annealing-based PD system
identification, evaluation-correlation statistics, and green-screen
compositing. The ``real2sim`` console entry point exposes the batch
workflows.
"""

from .geometry import (
    GeometryError,
    Pose,
    Rot3,
    UnitQuat,
    compose,
    inverse,
    quat_to_rot,
    rot_frobenius_loss,
    rot_to_quat,
    rotation_angle,
)
from .chain import ChainSpec, IkSettings, JointSpec, fk, ik_dls, jacobian, parse_urdf_subset
from .profile import LimitSet, MotionPlan, SegmentProfile, plan_scurve_1d, synchronize
from .controller import Action, CtrlConfig, google_config, google_step, widowx_config, widowx_step
from .jointsim import JointDynamics, PDParams, TrajectoryRecord, replay_open_loop, synthesize_record
from .sysid import AnnealConfig, SysIdRange, anneal_fit, trajectory_losses
from .metrics import (
    PairedEvalTable,
    PolicyEval,
    ShiftEval,
    action_mse,
    aggregate_grouped,
    delta_success,
    kruskal_wallis,
    mmrv,
    pearson,
    rank_violation,
    spearman,
)
from .imaging import ImageRGB8, MaskGray8, composite, read_pgm, read_ppm, write_pgm, write_ppm

__version__ = "0.1.0"
