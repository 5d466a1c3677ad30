"""Character theory and the subalgebra lattice for desk-scale fusion categories.

The package computes, from fusion-ring data alone: class functions and central
elements in their canonical bases, the pairing, integral and cointegral, the
Fourier transform, the Wedderburn block decomposition of the class-function
algebra with matrix units and conjugacy class sums, and the order-reversing
bijection between fusion subcategories and unitary subalgebras of the adjoint
algebra, together with the lattice operations it induces.  Finite groups
provide the independent oracle through their representation and group-graded
fusion rings.
"""

from .linalg import DEFAULT_TOL, Tolerance
from .fusion_ring import (
    FusionRingData,
    FusionSubcategory,
    build_ring,
    enumerate_subcategories,
    fp_dims,
    load_ring_json,
    subcategory_closure,
    subcategory_join,
    subcategory_meet,
    validate,
)
from .char_theory import (
    CentralElement,
    ClassFunction,
    antipodal,
    beta_tau,
    ce_multiply,
    cf_multiply,
    cf_right_action,
    chi,
    cointegral,
    ell_D,
    fourier_forward,
    fourier_inverse,
    idempotent,
    integral,
    pairing,
    subcategory_cointegral,
    tau,
)
from .wedderburn import BlockStructure, compute_blocks
from .subalg import (
    SubalgebraIndex,
    build_lattice,
    epsilon_L,
    restrict,
    subcategory_from_subalgebra,
)
from .groups import (
    FiniteGroup,
    character_table,
    crosscheck_rep,
    crosscheck_vec,
    normal_subgroups,
    parse_group,
    rep_fusion_ring,
    subgroups,
    trivial_action_subcategory,
    vec_fusion_ring,
)

__version__ = "0.1.0"
