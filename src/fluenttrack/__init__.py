"""Multi-object tracking with joint visibility-state reasoning.

Objects are tracked through three visibility states (visible, occluded,
contained) by composing min-cost-flow tracklet generation, a state-augmented
transition graph, and dynamic-programming trajectory extraction. A synthetic
scenario simulator and a CLEAR-MOT evaluation harness make the full pipeline
testable without any vision front-end.
"""

from .core import (
    ActionModel,
    AtomicAction,
    CameraModel,
    Detection,
    FrameParse,
    ModelParameters,
    ObjectClass,
    Tracklet,
    Trajectory,
    TrajectoryPoint,
    VisibilityState,
    ground_distance,
    pool_descriptors,
)

__version__ = "0.1.0"

__all__ = [
    "ActionModel",
    "AtomicAction",
    "CameraModel",
    "Detection",
    "FrameParse",
    "ModelParameters",
    "ObjectClass",
    "Tracklet",
    "Trajectory",
    "TrajectoryPoint",
    "VisibilityState",
    "ground_distance",
    "pool_descriptors",
    "__version__",
]
