"""Exact invariants of square-tiled and L-shaped translation surfaces."""

from .action import (
    OrbitReport,
    S_WORD,
    SL2ZWord,
    T_WORD,
    apply_word,
    geodesic_endpoints,
    horocycle_data,
    in_veech_group,
    orbit,
    slope_cusp,
    torus_point,
    word_for_matrix,
)
from .catalog import CatalogEntry, catalog_query, catalog_write, enumerate_origamis
from .cylinders import (
    Cylinder,
    QuadCylinder,
    decomposition_in_direction,
    direction_to_horizontal,
    horizontal_decomposition,
    modulus_ratios,
    octagon_horizontal_cylinders,
)
from .flow import (
    FlowState,
    ShearedSt3,
    TraceResult,
    direction_is_periodic,
    discrepancy,
    sheared_st3_return,
    trace,
)
from .lshape import (
    LSurface,
    absolute_period_lattice,
    horizontal_cylinders,
    lshape_stratum,
    trace_field,
    twist_powers,
    veech_generators,
    vertical_cylinders,
)
from .origami import (
    Origami,
    Stratum,
    canonical_form,
    genus,
    is_reduced,
    parse_origami,
    period_lattice,
    random_origami,
    relabel,
    same_surface,
    st3,
    st4,
    stratum,
    stratum_dim_abelian,
    stratum_dim_quadratic,
    torus,
    vertex_cycles,
)
from .perm import Permutation, compose, conjugate, cycles, is_transitive
from .quadfield import (
    MinimalPoly,
    QuadMatrix,
    QuadNum,
    minimal_poly_degree,
)

__all__ = [name for name in dir() if not name.startswith("_")]
__version__ = "0.1.0"
