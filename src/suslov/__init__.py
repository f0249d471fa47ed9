"""Constrained rigid body dynamics on so(n) and its integrable cases.

The package covers the nonholonomic rigid body whose admissible angular
velocities span the planes containing one body axis (the Suslov problem and
its higher-dimensional form): the skew-matrix algebra, the constrained
equations of motion, the catalog of integrable cases with their first
integrals, closed-form period machinery for the linear-potential case,
invariant-torus analysis for the quadratic-potential case, and a
config-driven command line for simulation and verification runs.
"""

from .algebra import (
    ConstraintSet,
    SkewMatrix,
    commutator,
    inner,
    is_nonholonomic,
    project_admissible,
    skew_to_vector,
    vector_to_skew,
    wedge,
)
from .cases import (
    CaseError,
    CaseKind,
    CaseSpec,
    asymptotic_points,
    build_field,
    first_integrals,
    jacobian_rank,
    pendulum_reference_field,
)
from .clebsch import (
    Classification,
    TorusSpec,
    angle_coords,
    energy_offset_constant,
    frequencies,
    integrals_f,
    rotation_numbers,
    torus_classify,
    torus_spec,
)
from .integrate import (
    IntegrationError,
    IntegratorConfig,
    IntegratorStats,
    Trajectory,
    detect_period,
    drift_report,
    integrate,
    reparametrize,
    state_field,
    write_csv,
)
from .kharlamova import (
    KharlamovaCoords,
    QuarticPolynomial,
    from_kharlamova,
    orbit_curve,
    orbit_interval,
    period,
    to_kharlamova,
    trajectory_polynomial,
)
from .kharlamova import reduced_field as kharlamova_field
from .model import (
    BodyState,
    CustomPotential,
    DGJPotential,
    LinearPotential,
    MassTensor,
    Potential,
    QuadraticPotential,
    ZeroPotential,
    divergence_fd,
    energy,
    general_field,
    lagrange_full_field,
    multipliers,
    vector_field_3d,
    vector_field_reduced,
)

__version__ = "0.1.0"
