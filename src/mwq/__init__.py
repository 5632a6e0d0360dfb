"""Exact Mordell-Weil lattice computations for irreducible plane quartics and
their even tangential conics: the quadratic-residue symbol of a conic mod a
quartic, conic counts from lattice enumeration, and Zariski-pair verdicts."""

from .lattice import (
    GramLattice,
    InternalInconsistencyError,
    MWStructure,
    ade_gram,
    count_etc,
    count_qretc,
    discriminant_group_order,
    dual_gram,
    enumerate_by_norm,
    find_sublattice_embedding,
    orthogonal_complement_gram,
)
from .mwtable import TableRow, builtin_table, verify_table
from .poly import (
    BiPoly,
    RatFn,
    UniPoly,
    is_perfect_square,
    poly_gcd,
    rational_roots,
    resultant_u,
    squarefree_decompose,
)
from .quartic import (
    CombinatorialType,
    Conic,
    PreparedQuartic,
    SplittingCertificate,
    SymbolResult,
    TangencyReport,
    combinatorial_type,
    conic_from_section,
    dihedral_feasibility,
    even_tangency,
    genus_from_sing,
    lift_conic,
    qr_symbol,
    singular_configuration,
    splitting_certificate,
    verify_splitting_certificate,
    zariski_pair_check,
)
from .surface import (
    HeightContext,
    PlaceData,
    SectionPoint,
    WeierstrassCurve,
    add,
    double,
    halve,
    height_context,
    height_pairing,
    kodaira_type_at,
    negate,
    on_curve,
    section_O_intersection,
    two_torsion_free,
)

__version__ = "0.1.0"
