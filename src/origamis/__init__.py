"""Exact invariants of square-tiled and L-shaped translation surfaces.

The public names are loaded on first use: `import origamis` imports no
submodule, and `origamis.orbit` imports only the modules that `orbit` needs.
"""

_NAMES = {  # home module -> the public names it defines
    "action": (
        "OrbitReport", "S_WORD", "SL2ZWord", "T_WORD", "apply_word", "direction_to_horizontal",
        "geodesic_endpoints", "horocycle_data", "in_veech_group", "orbit", "slope_cusp", "torus_point",
        "word_for_matrix",
    ),
    "catalog": ("CatalogEntry", "catalog_query", "catalog_write", "enumerate_origamis"),
    "cylinders": (
        "Cylinder", "QuadCylinder", "decomposition_in_direction", "horizontal_decomposition", "modulus_ratios",
        "octagon_horizontal_cylinders",
    ),
    "flow": (
        "FlowState", "ShearedSt3", "TraceResult", "direction_is_periodic", "discrepancy", "sheared_st3_return",
        "trace",
    ),
    "lshape": (
        "LSurface", "absolute_period_lattice", "horizontal_cylinders", "lshape_stratum", "trace_field",
        "twist_powers", "veech_generators", "vertical_cylinders",
    ),
    "origami": (
        "Origami", "Stratum", "canonical_form", "genus", "is_reduced", "parse_origami", "period_lattice",
        "random_origami", "relabel", "same_surface", "st3", "st4", "stratum", "stratum_dim_abelian",
        "stratum_dim_quadratic", "torus", "vertex_cycles",
    ),
    "perm": ("Permutation", "compose", "conjugate", "cycles", "is_transitive"),
    "quadfield": ("MinimalPoly", "QuadMatrix", "QuadNum", "minimal_poly_degree"),
}
_HOME = {name: module for module, names in _NAMES.items() for name in names}
# the submodules that the eager `import origamis` used to bind as attributes
_SUBMODULES = (*_NAMES, "intlattice")

__all__ = sorted(_HOME)
__version__ = "0.1.0"


def _load(module):
    # __import__, not importlib.import_module, so that -X importtime reports it
    return __import__(f"{__name__}.{module}", fromlist=("*",))


def __getattr__(name):
    """Import a public name's home module on first use and bind the name
    here, so that later lookups never reach this function."""
    if name in _SUBMODULES:
        return _load(name)  # the import binds it here
    module = _HOME.get(name)
    if module is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = globals()[name] = getattr(_load(module), name)
    return value


def __dir__():
    return sorted({*globals(), *__all__})
