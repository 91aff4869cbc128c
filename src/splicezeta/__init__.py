"""Exact calculator for splice diagrams of plane-curve singularities."""

from .algebra import CycloProduct, Poly2, RatFuncS
from .diagram import (
    Arrowhead,
    Diagram,
    Edge,
    SpliceData,
    cone_vector,
    edge_determinant,
    ensure_cached,
    multiplicities,
    splice_data,
    valency,
    validate,
    validation_warnings,
)
from .refine import (
    Subdivision,
    is_realizable,
    isomorphic,
    realizable_refine,
    reduce,
    refine_arrow,
    refine_edge,
    smooth_subdivide_minimal,
)
from .zeta import (
    ZetaExpr,
    motivic_zeta,
    poles,
    specialize_chi_top,
    top_zeta,
    twisted_top_zeta,
)
from .splice import (
    SpliceResult,
    correction_term,
    correction_term_top,
    splice,
    verify_splice_motivic,
    verify_splice_top,
)
from .monodromy import (
    AllowedReport,
    EigenvalueClass,
    MCReport,
    auto_twisted_orders,
    delta0,
    delta1,
    eigenvalues,
    is_allowed,
    is_eigenvalue,
    mc_report,
    monodromy_zeta,
)
from .sdio import (
    EXAMPLES,
    builder_cusp,
    builder_monomial,
    builder_nv_example2,
    example,
    parse_sd,
    random_diagram,
    write_sd,
)
from . import errors

__all__ = [name for name in dir() if not name.startswith("_")]
__version__ = "0.1.0"
