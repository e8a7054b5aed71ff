"""basinreach: construct initial points from which gradient descent or
gradient flow converges to a designated local minimum (or non-maximum
critical point) of a smooth semi-algebraic objective, with the stability,
reachability, path-length and sharpness-exclusion experiments around it.
"""

from .descent import Classification, classify_limit, descent_certificate_violations, gd_step, run_gd
from .flow import FlowSettings, integrate, integrate_minnorm, path_length
from .landscape import (BUILTIN_NAMES, CriticalPoint, LeftBoxError, ObjectiveFunction,
                        make_builtin, min_norm_element, refine_critical_point)
from .reach import (ReachBudgets, ReachReport, StabilityEstimate, edge_of_stability,
                    reach_continuous, reach_discrete, reach_general, stability_probe)
from .reverse import ReverseOrbit, ascent_prox, prox, prox_certificates, reverse_orbit
from .sampling import Lcg64
from .schedule import StepSchedule, admissible, constant, parse_schedule, power
from .trajectory import Trajectory, record_trajectories

__version__ = "0.1.0"

__all__ = [
    "BUILTIN_NAMES", "Classification", "CriticalPoint", "FlowSettings", "Lcg64",
    "LeftBoxError", "ObjectiveFunction", "ReachBudgets", "ReachReport", "ReverseOrbit",
    "StabilityEstimate", "StepSchedule", "Trajectory",
    "admissible", "ascent_prox", "classify_limit", "constant",
    "descent_certificate_violations", "edge_of_stability", "gd_step", "integrate",
    "integrate_minnorm", "make_builtin", "min_norm_element", "parse_schedule",
    "path_length", "power", "prox", "prox_certificates", "reach_continuous",
    "reach_discrete", "reach_general", "record_trajectories", "refine_critical_point",
    "reverse_orbit", "run_gd", "stability_probe",
]
