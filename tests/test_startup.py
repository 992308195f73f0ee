"""What a fresh interpreter loads: `import origamis` loads no submodule, and a
call loads only the modules it uses.

These checks run in subprocesses, since the test process has already
imported every module of the package.
"""

import ast
import os
import subprocess
import sys
import textwrap

import pytest

import origamis

SRC = os.path.dirname(os.path.dirname(os.path.abspath(origamis.__file__)))
MODULES = (
    "_record", "action", "catalog", "cli", "cylinders", "flow", "intlattice", "lshape", "origami", "perm", "quadfield",
)

# the public names, by home module
PUBLIC = {
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
ALL = sorted(name for names in PUBLIC.values() for name in names)

# the last statement of a snippet; printed with repr, so that the check
# itself imports nothing
LOADED = "print(repr(sorted(m[len('origamis.'):] for m in sys.modules if m.startswith('origamis.'))))"


def fresh(code: str, *args: str, flags: tuple[str, ...] = ()):
    """Run code in a new interpreter that imports this checkout's origamis,
    and return the value its last line of stdout prints."""
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, (SRC, os.environ.get("PYTHONPATH")))))
    proc = subprocess.run(
        [sys.executable, *flags, "-c", textwrap.dedent(code), *args],
        env=env,
        capture_output=True,
        text=True,
        timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    return ast.literal_eval(proc.stdout.splitlines()[-1])


def test_the_public_names_are_pinned():
    assert len(ALL) == 64
    assert origamis.__all__ == ALL


def test_import_loads_no_submodule():
    assert fresh(f"import sys, origamis\n{LOADED}") == []


def test_orbit_loads_only_what_it_uses():
    loaded = fresh(f"import sys, origamis\norigamis.orbit(origamis.st3())\n{LOADED}")
    # the cusps count their cylinders by origami._horizontal_rows, so no cylinders
    assert loaded == ["_record", "action", "intlattice", "origami", "perm", "quadfield"]


def test_action_imports_no_cylinders():
    assert "cylinders" not in fresh(f"import sys\nimport origamis.action\n{LOADED}")


def test_cli_subcommands_that_need_neither_flow_nor_lshape_load_neither(tmp_path):
    code = f"""
        import contextlib, io, sys
        from origamis import cli
        path = sys.argv[1]
        runs = (
            ["info", "3; h=(1,2,3); v=(1,2)"],
            ["orbit", "3; h=(1,2,3); v=(1,2)"],
            ["enumerate", "--n", "4"],
            ["catalog", "write", "--n", "3", "--path", path],
            ["catalog", "query", "--path", path, "--n", "3"],
        )
        with contextlib.redirect_stdout(io.StringIO()):
            codes = [cli.main(argv) for argv in runs]
        assert codes == [0] * len(runs), codes
        {LOADED}
        """
    loaded = fresh(code, str(tmp_path / "catalog.jsonl"))
    assert "catalog" in loaded
    assert not {"flow", "lshape"} & set(loaded)


@pytest.mark.parametrize("module", MODULES)
def test_each_submodule_imports_first(module):
    assert module in fresh(f"import sys\nimport origamis.{module}\n{LOADED}")


def test_each_public_name_is_its_home_modules_object():
    code = f"""
        import importlib
        import origamis
        homes = {PUBLIC!r}
        print(repr([
            name
            for module, names in homes.items()
            for name in names
            if getattr(origamis, name) is not getattr(importlib.import_module("origamis." + module), name)
        ]))
        """
    assert fresh(code) == []


def test_star_import_binds_every_public_name():
    code = f"""
        from origamis import *
        print(repr(sorted(name for name in {ALL!r} if name in globals())))
        """
    assert fresh(code) == ALL


def test_submodules_stay_attributes_of_the_package():
    code = """
        import sys, origamis
        print(repr([origamis.flow is sys.modules["origamis.flow"], origamis.intlattice.__name__]))
        """
    assert fresh(code) == [True, "origamis.intlattice"]


def test_an_unknown_name_raises_attribute_error():
    with pytest.raises(AttributeError, match="module 'origamis' has no attribute 'nope'"):
        origamis.nope
    assert set(ALL) <= set(dir(origamis))


def test_the_package_imports_no_typing():
    # without site, nothing else in the interpreter imports typing
    code = f"import sys\nimport {', '.join('origamis.' + m for m in MODULES)}\nprint(repr('typing' in sys.modules))"
    assert fresh(code, flags=("-S",)) is False


# what the package's frozen records do without: dataclasses imports inspect
GENERATORS = "print(repr(sorted({'dataclasses', 'inspect'} & set(sys.modules))))"


def test_orbit_imports_no_dataclasses_or_inspect():
    # without site, nothing else in the interpreter imports either
    code = f"import sys\nfrom origamis import orbit, st3\norbit(st3())\n{GENERATORS}"
    assert fresh(code, flags=("-S",)) == []


def test_cli_info_imports_no_dataclasses_or_inspect():
    code = f"""
        import contextlib, io, sys
        from origamis import cli
        with contextlib.redirect_stdout(io.StringIO()):
            assert cli.main(["info", "3; h=(1,2,3); v=(1,2)"]) == 0
        {GENERATORS}
        """
    assert fresh(code, flags=("-S",)) == []


def test_the_package_imports_no_dataclasses_or_inspect():
    code = f"import sys\nimport {', '.join('origamis.' + m for m in MODULES)}\n{GENERATORS}"
    assert fresh(code, flags=("-S",)) == []
