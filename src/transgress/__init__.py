"""Exact computation of the Borel transgression for compact semisimple Lie
groups, with the induced d2 and E3 page of the fibration G -> G/T."""

from .exactlin import (
    hermite_normal_form,
    invariant_factors,
    modp_kernel_cokernel,
    solve_rational,
)
from .groupspec import GroupSpecParseError, parse_group_spec
from .lattices import (
    GroupSpec,
    adjoint_spec,
    center_group,
    enumerate_pi1_choices,
    group_spec,
    transition_matrix,
    unit_lattice_basis,
)
from .rootdata import LieType, RootSystem, build_root_system
from .spectral import (
    E2Page,
    GradedRanks,
    WeylGroup,
    build_e2,
    chevalley_multiply,
    e3_ranks,
    weyl_group,
)
from .transgression import (
    modp_analysis,
    singular_primes,
    transgression_matrix,
)

__version__ = "0.1.0"
