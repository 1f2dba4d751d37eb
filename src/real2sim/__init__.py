"""Real-to-sim evaluation toolkit.

Library surface: rigid-transform algebra, a serial-chain robot model,
jerk-limited trajectory planning, the Google Robot / WidowX control loops,
a decoupled PD joint plant with open-loop replay, annealing-based PD system
identification, evaluation-correlation statistics, and green-screen
compositing. The ``real2sim`` console entry point exposes the batch
workflows.

Public names are imported from their modules on first access, so importing
the package loads neither numpy nor any layer module.
"""

import importlib

_EXPORTS = {
    "geometry": "GeometryError Pose Rot3 UnitQuat compose inverse quat_to_rot rot_frobenius_loss rot_to_quat "
    "rotation_angle",
    "chain": "ChainSpec IkSettings JointSpec fk ik_dls jacobian parse_urdf_subset",
    "profile": "LimitSet MotionPlan SegmentProfile plan_scurve_1d synchronize",
    "controller": "Action CtrlConfig google_config google_step widowx_config widowx_step",
    "jointsim": "JointDynamics PDParams TrajectoryRecord replay_open_loop synthesize_record",
    "sysid": "AnnealConfig SysIdRange anneal_fit trajectory_losses",
    "metrics": "PairedEvalTable PolicyEval ShiftEval action_mse aggregate_grouped delta_success kruskal_wallis mmrv "
    "pearson rank_violation spearman",
    "imaging": "ImageRGB8 MaskGray8 composite read_pgm read_ppm write_pgm write_ppm",
}
_MODULE_OF = {name: module for module, names in _EXPORTS.items() for name in names.split()}

__all__ = list(_MODULE_OF)
__version__ = "0.1.0"


def __getattr__(name: str):
    if name not in _MODULE_OF:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = getattr(importlib.import_module(f".{_MODULE_OF[name]}", __name__), name)
    globals()[name] = value
    return value


def __dir__():
    return sorted(set(globals()) | set(__all__))
