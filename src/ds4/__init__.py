"""Quaternionic toolkit for the de Sitter group Sp(2,2).

Group and algebra arithmetic over 2x2 quaternionic matrices, the
space-time-Lorentz factorization, adjoint orbits of massive scalar systems
with their conservation laws, and the numerical flat-spacetime limit.
"""

from .quaternion import Quaternion, UnitQuaternion, sqrt_unit
from .gamma import (
    DSPoint,
    QMat2,
    anticommutator,
    minkowski_square,
    origin,
    slash,
    unslash,
)
from .group import (
    DecompositionFactors,
    GroupElement,
    MembershipReport,
    NonMemberError,
    act,
    compose,
    decompose,
    inverse,
    involution,
    is_member,
    reconstruct,
    t_boost,
    t_space_rotation,
    t_space_translation,
    t_time_translation,
)
from .algebra import (
    AlgebraElement,
    bracket,
    from_coords,
    generator,
    k_generator,
    so14_matrix,
    to_coords,
)
from .algebra import exp as exp_element
from .orbits import (
    CoadjointCoords,
    OrbitPoint,
    PhysicalState,
    adjoint,
    conservation_residuals,
    contraction_sweep,
    energy_quartic_residual,
    massless_orbit_point,
    orbit_matrix,
    orbit_point_from_group,
    physicalize,
    sample_orbit,
    to_coadjoint_coords,
)
from .suites import RunReport, run_suite

__version__ = "0.1.0"
