"""Cocyclic generalized Hadamard matrices and full propelinear codes.

Constructs GH matrices over GF(p^m) from cocycles (Sylvester forms, planar
power-function coboundaries, Kronecker sums), builds the associated codes
with their star operation and coordinate permutations, and verifies the
equivalence between orthogonal cocycles, GH matrices, and central relative
difference sets, together with rank/kernel structure.
"""

from .cocycles import (
    Cocycle,
    check_cocycle,
    coboundary,
    is_orthogonal,
    lift,
    multiplication_cocycle,
    tensor,
    trivial_cocycle,
)
from .codes import Code, GHCode, code_from_gh, rank_of_rows
from .extension import (
    ExtensionGroup,
    coset_zero_sets,
    fh_intersection_profile,
    is_relative_difference_set,
    transversal_rds_check,
)
from .fields import Field, default_poly
from .ghmatrix import (
    GHMatrix,
    gen_sylvester,
    is_gh,
    kronecker_sum,
    matrix_of,
    normalize,
    sylvester,
    sylvester_power,
)
from .groups import (
    Group,
    Perm,
    abelian_invariants,
    additive_group_of,
    elementary_abelian,
    group_descriptor,
)
from .monomial import (
    MonomialMatrix,
    automorphisms_from_star,
    factor_monomial,
    is_matrix_automorphism,
    pair_for_codeword,
)
from .planar import admissible_pairs, planar_coboundary, planar_map, table1
from .propelinear import (
    PropelinearCode,
    cocycle_from_code,
    regular_subgroup_check,
    verify_full_propelinear,
)

__version__ = "0.1.0"
