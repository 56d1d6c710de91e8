"""Exact pfaffians of triangular arrays, their hook expansions and
determinant companions, and symmetry groups of the pfaffian polynomial
under symmetric or skew generator conventions.
"""

from . import backend  # noqa: F401  (perfbench finds its traced backend.* layers in sys.modules)
from .matchings import PfaffPermutation, enumerate_pfaff, matching_count
from .models import (
    COSINE,
    SQUARE_DIFF,
    CosineKernel,
    DifferenceKernel,
    VerificationReport,
    g_poly,
    kernel_array,
    position_polys,
    verify_theorem2,
    verify_theorem3,
    verify_theorem4,
    verify_trig_lemma1,
    verify_trig_lemma2,
)
from .pfaffian import (
    PLAIN,
    SKEW,
    SYMMETRIC,
    TriangularArray,
    completed_determinant,
    determinant,
    generic_pfaffian,
    heaviside,
    hook_expand_skew,
    hook_expand_symmetric,
    pfaffian_direct,
)
from .permutations import (
    Permutation,
    RunType,
    classify_runs,
    compose,
    dihedral_generators,
    enumerate_sym,
    generate_subgroup,
    identity,
    inverse,
    sign,
)
from .polyring import Poly, a, gen, pos, x
from .symmetry import (
    SKEW_GENS,
    SYMMETRIC_GENS,
    GroupReport,
    act,
    dihedral_group,
    pfaffian_symmetry_group,
    sym_of_g,
    symmetry_group,
)

__version__ = "0.1.0"
