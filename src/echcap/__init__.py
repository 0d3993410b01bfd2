"""Exact capacities of four-dimensional model domains.

Capacity sequences of ellipsoids, balls, polydisks, toric norm-domains, and
disjoint unions; the symplectic embedding obstructions they induce; ball
packing inequalities; and desk-scale checks of the volume asymptotics.
All arithmetic on rational inputs is exact.
"""

import importlib

from .capacities import (INTERIOR_STRICT, WEAK, Dominance, ball_capacities,
                         capacities, disjoint_union_capacities, dominates,
                         ellipsoid_capacities, ellipsoid_full_capacities,
                         maxplus_convolve, nk_sequence, nk_via_triangle,
                         polydisk_capacities)
from .domains import (Ball, DisjointUnion, Domain, Ellipsoid, Polydisk,
                      ToricNorm, describe, scale)
from .errors import (ApproxTie, EchcapError, MismatchedIndexOrigin,
                     NotPrimitive, SpecParseError,
                     ToricEnumerationBudgetExceeded)
from .lattice import (EUCLIDEAN, Euclidean, LabeledGenerator, LatticePolygon,
                      Norm, Polygonal, WeightedL1, area, dual_norm_eval,
                      generator_action, generator_grading, lattice_point_count,
                      perimeter, reeb_orbit_data)
from .values import CapacitySequence, CapacityValue, as_fraction

__version__ = "0.1.0"

# public names of modules that only some commands run, loaded on first read
_DEFERRED = (("asymptotics", ("QwVerdict", "TracePoint", "VolumeReport", "qw_check",
                              "volume", "volume_ratio_trace", "weinstein_bound")),
             ("toric", ("ToricCapacity", "enumerate_polygons", "min_action_at_grading",
                        "toric_capacity")))

__all__ = [
    "ApproxTie", "Ball", "CapacitySequence", "CapacityValue", "DisjointUnion",
    "Dominance", "Domain", "EchcapError", "Ellipsoid", "Euclidean",
    "EUCLIDEAN", "INTERIOR_STRICT", "LabeledGenerator", "LatticePolygon",
    "MismatchedIndexOrigin", "Norm", "NotPrimitive", "Polydisk", "Polygonal",
    "QwVerdict", "SpecParseError", "ToricCapacity",
    "ToricEnumerationBudgetExceeded", "ToricNorm", "TracePoint",
    "VolumeReport", "WEAK", "WeightedL1", "area", "as_fraction",
    "ball_capacities", "capacities", "describe", "disjoint_union_capacities",
    "dominates", "dual_norm_eval", "ellipsoid_capacities",
    "ellipsoid_full_capacities", "enumerate_polygons", "generator_action",
    "generator_grading", "lattice_point_count", "maxplus_convolve",
    "min_action_at_grading", "nk_sequence", "nk_via_triangle", "perimeter",
    "polydisk_capacities", "qw_check", "reeb_orbit_data", "scale",
    "toric_capacity", "volume", "volume_ratio_trace", "weinstein_bound",
]


def __getattr__(name: str):
    """PEP 562: a deferred name, from its module."""
    for module, names in _DEFERRED:
        if name in names:
            return getattr(importlib.import_module(f".{module}", __name__), name)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
