"""Real-to-sim evaluation toolkit.

Library surface: rotation and 4x4 rigid-transform helpers, a serial-chain
robot model, jerk-limited trajectory planning, the Google Robot / WidowX
control loops, a decoupled PD joint plant with open-loop replay,
annealing-based PD system identification, evaluation-correlation
statistics, and green-screen compositing. The ``real2sim`` console entry
point exposes the batch workflows.

Public names are imported from their modules on first access, so importing
the package loads neither numpy nor any layer module.

``json_number`` and ``json_name`` are the rules for what a number and a name
in an input file are; they live here so that a parser can use them without
running another module body.
"""

import importlib


def json_number(v, error: Exception) -> float:
    """``v`` as a float if it is a JSON number: an int or a float (a numpy float64 too), not
    a bool, a string or an integer past the float range. Anything else raises ``error``."""
    try:
        if isinstance(v, (int, float)) and not isinstance(v, bool):
            return float(v)
    except OverflowError:
        pass
    raise error


def json_name(v, error: Exception) -> str:
    """``v`` if it is a JSON string; anything else raises ``error``."""
    if isinstance(v, str):
        return v
    raise error


def json_vector(v, n: int | None, error: Exception) -> list[float]:
    """``v`` as floats if it is a list of ``n`` (if None, any number of) JSON numbers; else raises ``error``."""
    if not isinstance(v, list) or n not in (None, len(v)):
        raise error
    return [json_number(x, error) for x in v]


_EXPORTS = {
    "geometry": "GeometryError quat_to_rot rot_frobenius_loss rot_to_quat rotation_angle",
    "chain": "ChainSpec JointSpec fk ik jacobian parse_urdf_subset",
    "profile": "LimitSet MotionPlan synchronize",
    "controller": "CtrlConfig google_step widowx_step",
    "jointsim": "TrajectoryRecord replay_open_loop synthesize_record",
    "sysid": "AnnealConfig anneal_fit trajectory_losses",
    "metrics": "PairedEvalTable PolicyEval ShiftEval action_mse aggregate_grouped delta_success kruskal_wallis mmrv "
    "pearson rank_violation spearman",
    "imaging": "composite read_pgm read_ppm write_pgm write_ppm",
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
