import json
import os
import subprocess
import sys
from fractions import Fraction

import pytest

from origamis.catalog import (
    CatalogError,
    canonical_origamis,
    catalog_query,
    catalog_write,
    enumerate_origamis,
)
from origamis.cli import main
from origamis.origami import genus, is_reduced, parse_origami, stratum


class TestEnumerate:
    def test_one_square(self):
        entries = enumerate_origamis(1)
        assert len(entries) == 1 and entries[0].stratum == "H(0)"

    def test_three_square_h2(self):
        entries = enumerate_origamis(3, stratum_filter="H(2)", reduced_only=True)
        assert len(entries) == 2 + 1  # the staircase orbit has three members
        assert len({e.orbit_id for e in entries}) == 1
        assert entries[0].index == 3 and entries[0].cusp_widths == (2, 1)

    def test_five_square_h2_has_two_orbits(self):
        entries = enumerate_origamis(5, stratum_filter="H(2)", reduced_only=True)
        sizes = sorted(
            len([e for e in entries if e.orbit_id == oid]) for oid in {e.orbit_id for e in entries}
        )
        assert sizes == [9, 18]

    def test_h2_orbit_sizes_match_hubert_lelievre(self):
        # Hubert–Lelièvre (Israel J. Math. 151, 2006), McMullen (Math. Ann. 333,
        # 2005): with P = n²·∏_{p|n}(1 − p⁻²), even n gives one orbit of
        # (3/8)(n−2)P surfaces; odd n gives orbits of (3/16)(n−1)P and
        # (3/16)(n−3)P, the second empty at n = 3
        def closed_form(n):
            P = Fraction(n * n)
            for p in range(2, n + 1):
                if n % p == 0 and all(p % q for q in range(2, p)):
                    P *= 1 - Fraction(1, p * p)
            if n % 2 == 0:
                sizes = [Fraction(3, 8) * (n - 2) * P]
            else:
                sizes = [Fraction(3, 16) * (n - 1) * P, Fraction(3, 16) * (n - 3) * P]
            assert all(s.denominator == 1 for s in sizes)
            return sorted(int(s) for s in sizes if s)

        for n in (3, 4, 5, 6):
            entries = enumerate_origamis(n, stratum_filter="H(2)", reduced_only=True)
            oids = [e.orbit_id for e in entries]
            assert sorted(oids.count(oid) for oid in set(oids)) == closed_form(n), n

    def test_deterministic(self):
        a = enumerate_origamis(4, stratum_filter="H(1,1)")
        b = enumerate_origamis(4, stratum_filter="H(1,1)")
        assert [e.to_json() for e in a] == [e.to_json() for e in b]

    def test_partition_into_orbits(self):
        for n in (2, 3, 4, 5, 6):
            entries = enumerate_origamis(n, reduced_only=True)
            total = 0
            for oid in {e.orbit_id for e in entries}:
                members = [e for e in entries if e.orbit_id == oid]
                total += len(members)
                assert sum(members[0].cusp_widths) == members[0].index
            assert total == len(entries)

    def test_orbit_sizes_partition_where_rotation_by_pi_is_trivial(self):
        # in genus <= 2 the half-turn fixes every surface, so the projective
        # orbit sizes add up to the number of canonical forms; higher genus
        # surfaces (n >= 5) can be moved by it, and then a projective class
        # holds two canonical forms
        for n in (2, 3, 4):
            entries = enumerate_origamis(n, reduced_only=True)
            by_orbit = {}
            for e in entries:
                by_orbit.setdefault(e.orbit_id, e)
            assert sum(e.index for e in by_orbit.values()) == len(entries)
        h2 = enumerate_origamis(6, stratum_filter="H(2)", reduced_only=True)
        by_orbit = {}
        for e in h2:
            by_orbit.setdefault(e.orbit_id, e)
        assert sum(e.index for e in by_orbit.values()) == len(h2)

    def test_orbit_fields_match_the_per_surface_invariants(self):
        # genus, stratum and reducedness are read once per orbit; each entry
        # must still agree with the functions applied to its own surface
        for n in range(1, 7):
            for e in enumerate_origamis(n):
                o = parse_origami(e.origami)
                assert (e.genus, e.stratum, e.reduced) == (genus(o), str(stratum(o)), is_reduced(o)), e

    def test_filters_select_entries_of_the_unfiltered_list(self):
        for n in range(1, 7):
            entries = enumerate_origamis(n)
            for s in sorted({e.stratum for e in entries}) + [None]:
                for reduced_only in (False, True):
                    expected = [
                        e
                        for e in entries
                        if (s is None or e.stratum == s) and (e.reduced or not reduced_only)
                    ]
                    assert enumerate_origamis(n, s, reduced_only) == expected, (n, s, reduced_only)

    def test_invariants_are_computed_once_per_orbit(self, monkeypatch):
        from origamis import catalog

        calls = {"stratum": 0, "is_reduced": 0}

        def counted(name):
            fn = getattr(catalog, name)

            def wrapper(o):
                calls[name] += 1
                return fn(o)

            return wrapper

        for name in calls:
            monkeypatch.setattr(catalog, name, counted(name))
        entries = enumerate_origamis(6)
        assert calls == {"stratum": len({e.orbit_id for e in entries}), "is_reduced": 0}
        assert calls["stratum"] == 28

    def test_against_brute_force_count(self):
        # independent route: enumerate every (h, v) pair directly
        from itertools import permutations

        from origamis.catalog import _transitive_pair
        from origamis.origami import _canonical_key

        n = 4
        keys = set()
        for h in permutations(range(1, n + 1)):
            for v in permutations(range(1, n + 1)):
                if _transitive_pair(h, v):
                    keys.add(_canonical_key(h, v))
        assert len(keys) == len(canonical_origamis(n))

    def test_bounds(self):
        with pytest.raises(ValueError):
            enumerate_origamis(0)
        with pytest.raises(ValueError):
            enumerate_origamis(9)
        with pytest.raises(ValueError):
            enumerate_origamis(4, bound=3)


class TestCatalogFile:
    def test_round_trip(self, tmp_path):
        path = tmp_path / "cat.jsonl"
        entries = enumerate_origamis(3, stratum_filter="H(2)")
        written, skipped = catalog_write(path, entries)
        assert (written, skipped) == (len(entries), 0)
        back = catalog_query(path, n=3)
        assert back == entries

    def test_idempotent_append(self, tmp_path):
        path = tmp_path / "cat.jsonl"
        entries = enumerate_origamis(2)
        catalog_write(path, entries)
        with pytest.warns(UserWarning, match="duplicate"):
            written, skipped = catalog_write(path, entries)
        assert (written, skipped) == (0, len(entries))
        assert catalog_query(path) == entries

    def test_query_filters(self, tmp_path):
        path = tmp_path / "cat.jsonl"
        catalog_write(path, enumerate_origamis(2) + enumerate_origamis(3))
        assert all(e.n == 3 for e in catalog_query(path, n=3))
        assert all(e.stratum == "H(2)" for e in catalog_query(path, stratum_filter="H(2)"))
        some = catalog_query(path, n=3)[0]
        assert all(
            e.orbit_id == some.orbit_id for e in catalog_query(path, orbit_id=some.orbit_id)
        )

    def test_query_empty(self, tmp_path):
        path = tmp_path / "cat.jsonl"
        path.write_text("")
        assert catalog_query(path) == []

    def test_malformed_line_reports_number(self, tmp_path):
        path = tmp_path / "cat.jsonl"
        good = enumerate_origamis(1)[0].to_json()
        path.write_text(good + "\n{not json}\n")
        with pytest.raises(CatalogError, match="line 2"):
            catalog_query(path)

    def test_malformed_inner_line_raises_before_a_torn_last_line(self, tmp_path):
        path = tmp_path / "cat.jsonl"
        good = enumerate_origamis(1)[0].to_json()
        path.write_text(good + "\n{not json}\n" + good[:10])
        with pytest.raises(CatalogError, match="line 2"):
            catalog_query(path)
        with pytest.raises(CatalogError, match="line 2"):
            catalog_write(path, enumerate_origamis(2))

    @pytest.mark.parametrize(
        "bad",
        [
            lambda d: [d],  # not an object
            lambda d: {k: x for k, x in d.items() if k != "index"},  # a field missing
            lambda d: {**d, "extra": 1},  # a field too many
            lambda d: {**d, "cusp_widths": 1},  # cusp_widths not iterable
        ],
        ids=["list", "missing", "extra", "widths"],
    )
    def test_malformed_record_outside_the_filter_still_fails(self, tmp_path, bad):
        # the filters look at records before entries are built; the check
        # that rejects a record must not depend on whether it matches
        path = tmp_path / "cat.jsonl"
        catalog_write(path, enumerate_origamis(3))
        one = json.loads(enumerate_origamis(1)[0].to_json())
        with open(path, "a", encoding="utf-8") as fh:
            fh.write(json.dumps(bad(one)) + "\n")
        lineno = len(enumerate_origamis(3)) + 1
        with pytest.raises(CatalogError, match=f"line {lineno}"):
            catalog_query(path, n=3)
        code, out, err = run_cli("catalog", "query", "--path", str(path), "--n", "3")
        assert code == 1 and out == "" and f"line {lineno}" in err

    # the exact line that an untyped reader printed, and that a --n 1 query dropped
    UNTYPED = (
        '{"cusp_widths": [1], "curve_genus": 0, "genus": "one", "index": 1, "n": "1", "orbit_id": 5, '
        '"origami": "1; h=(); v=()", "reduced": "yes", "stratum": "H(0)"}'
    )

    @pytest.mark.parametrize("filters", [[], ["--n", "1"]], ids=["all", "n=1"])
    def test_record_with_wrong_value_types_fails_with_its_line(self, tmp_path, filters):
        path = tmp_path / "cat.jsonl"
        catalog_write(path, enumerate_origamis(2))
        with open(path, "a", encoding="utf-8") as fh:
            fh.write(self.UNTYPED + "\n")
        lineno = len(enumerate_origamis(2)) + 1
        code, out, err = run_cli("catalog", "query", "--path", str(path), *filters)
        assert code == 1 and out == "" and f"line {lineno}" in err and "n is '1'" in err

    @pytest.mark.parametrize(
        "field, value",
        [("n", True), ("n", 1.0), ("orbit_id", 5), ("origami", ["1; h=(); v=()"]), ("stratum", 0),
         ("cusp_widths", "1"), ("cusp_widths", {"1": 1})],
    )
    def test_filtered_fields_have_their_types_on_every_record(self, tmp_path, field, value):
        path = tmp_path / "cat.jsonl"
        catalog_write(path, enumerate_origamis(3))
        one = json.loads(enumerate_origamis(1)[0].to_json())
        with open(path, "a", encoding="utf-8") as fh:
            fh.write(json.dumps({**one, field: value}) + "\n")
        lineno = len(enumerate_origamis(3)) + 1
        with pytest.raises(CatalogError, match=f"line {lineno}: .*{field}"):
            catalog_query(path, n=3)

    @pytest.mark.parametrize(
        "field, value",
        [("genus", "one"), ("reduced", 1), ("index", None), ("curve_genus", False),
         ("cusp_widths", [True]), ("cusp_widths", ["1"]), ("cusp_widths", [1, 1.0])],
    )
    def test_other_fields_have_their_types_on_every_record_a_query_keeps(self, tmp_path, field, value):
        path = tmp_path / "cat.jsonl"
        catalog_write(path, enumerate_origamis(2))
        one = json.loads(enumerate_origamis(1)[0].to_json())
        with open(path, "a", encoding="utf-8") as fh:
            fh.write("\n" + json.dumps({**one, field: value}) + "\n")  # blank lines hold no record
        lineno = len(enumerate_origamis(2)) + 2
        with pytest.raises(CatalogError, match=f"line {lineno}: .*{field}"):
            catalog_query(path, n=1)
        code, out, err = run_cli("catalog", "query", "--path", str(path))
        assert code == 1 and out == "" and f"line {lineno}" in err
        # a record outside the filters is read for them only
        assert catalog_query(path, n=2) == enumerate_origamis(2)

    def test_torn_final_record_is_skipped_and_repaired(self, tmp_path):
        # an append interrupted mid-record leaves a last line with no newline
        path = str(tmp_path / "c.jsonl")
        code, out, _ = run_cli("catalog", "write", "--path", path, "--n", "3")
        assert code == 0
        three = json.loads(run_cli("catalog", "query", "--path", path)[1])
        with open(path, "a", encoding="utf-8") as fh:
            fh.write('{"origami": "4; h=(1,2')
        code, out, err = run_cli("catalog", "query", "--path", path)
        assert code == 0 and json.loads(out) == three and err == ""
        code, out, _ = run_cli("catalog", "write", "--path", path, "--n", "4")
        four = enumerate_origamis(4)
        assert code == 0 and json.loads(out) == {"written": len(four), "skipped": 0}
        with open(path, encoding="utf-8") as fh:
            text = fh.read()
        assert text.endswith("\n") and "4; h=(1,2\n" not in text
        assert catalog_query(path, n=4) == four
        assert len(catalog_query(path)) == len(three) + len(four)

    def test_record_cut_before_its_newline_is_kept(self, tmp_path):
        path = tmp_path / "cat.jsonl"
        one, two = enumerate_origamis(1), enumerate_origamis(2)
        path.write_text(one[0].to_json())
        assert catalog_query(path) == one
        assert catalog_write(path, two) == (len(two), 0)
        assert catalog_query(path) == one + two


def run_cli(*argv):
    import io
    from contextlib import redirect_stderr, redirect_stdout

    out, err = io.StringIO(), io.StringIO()
    with redirect_stdout(out), redirect_stderr(err):
        code = main(list(argv))
    return code, out.getvalue(), err.getvalue()


ST3 = "3; h=(1,2); v=(1,3)"


class TestCLI:
    def test_info(self):
        code, out, _ = run_cli("info", ST3)
        assert code == 0
        data = json.loads(out)
        assert data["genus"] == 2 and data["stratum"] == "H(2)" and data["reduced"] is True

    def test_orbit(self):
        code, out, _ = run_cli("orbit", ST3)
        data = json.loads(out)
        assert code == 0 and data["index"] == 3 and data["genus"] == 0
        assert data["cusps"] == [
            {"width": 2, "cylinders": 2},
            {"width": 1, "cylinders": 1},
        ]

    def test_cylinders(self):
        code, out, _ = run_cli("cylinders", ST3, "--dir", "1,1")
        data = json.loads(out)
        assert code == 0 and data == [{"width": 3, "height": 1, "length": "3*sqrt(2)"}]

    def test_cylinders_default_direction_is_horizontal(self):
        code, out, _ = run_cli("cylinders", ST3)
        assert code == 0
        assert json.loads(out) == [
            {"width": 2, "height": 1, "length": "2"},
            {"width": 1, "height": 1, "length": "1"},
        ]

    def test_flow(self):
        code, out, _ = run_cli("flow", ST3, "--dir", "0,1", "--start", "2:1/2:0")
        data = json.loads(out)
        assert code == 0 and data["periodic"] is True and data["length"] == "1"

    @pytest.mark.parametrize("bound", ["0", "-1"])
    def test_flow_rejects_a_crossing_bound_below_one(self, bound):
        code, out, err = run_cli("flow", ST3, "--max", bound)
        assert (code, out) == (1, "")
        assert err == f"error: max_crossings must be at least 1, got {bound}\n"

    def test_flow_discrepancy(self):
        code, out, _ = run_cli(
            "flow", "discrepancy", "1; h=(); v=()", "--slope", "1.618", "--crossings", "2000"
        )
        assert code == 0
        assert 0 <= json.loads(out) <= 1

    @pytest.mark.parametrize("slope", ["inf", "nan", "-inf"])
    def test_flow_discrepancy_rejects_non_finite_slope(self, slope):
        import origamis

        src = os.path.dirname(os.path.dirname(origamis.__file__))
        proc = subprocess.run(
            [sys.executable, "-m", "origamis", "flow", "discrepancy", "1; h=(); v=()", f"--slope={slope}"],
            capture_output=True,
            text=True,
            env={**os.environ, "PYTHONPATH": src},
        )
        assert proc.returncode == 1
        assert "Traceback" not in proc.stderr
        assert proc.stderr == "error: slope must be finite\n"

    @pytest.mark.parametrize(
        "argv",
        [
            ("flow", ST3, "--dir", "1,2", "--start", "1:1/0:0"),
            ("lshape", "--d", "5", "--shift", "1/0"),
        ],
    )
    def test_zero_denominator_is_an_input_error(self, argv):
        import origamis

        src = os.path.dirname(os.path.dirname(origamis.__file__))
        proc = subprocess.run(
            [sys.executable, "-m", "origamis", *argv],
            capture_output=True,
            text=True,
            env={**os.environ, "PYTHONPATH": src},
        )
        assert proc.returncode == 1
        assert "Traceback" not in proc.stderr
        assert proc.stderr == "error: Fraction(1, 0)\n"

    def test_unexpected_exception_is_an_internal_error(self, monkeypatch):
        import origamis.cli

        def boom(o):
            raise RuntimeError("boom")

        monkeypatch.setattr(origamis.cli, "orbit", boom)
        code, out, err = run_cli("orbit", ST3)
        assert (code, out, err) == (2, "", "internal error: RuntimeError: boom\n")

    def test_lshape(self):
        code, out, _ = run_cli("lshape", "--d", "5")
        data = json.loads(out)
        assert code == 0
        assert data["field"] == "Q[sqrt(5)]" and data["twist_powers"] == [4, 4]
        assert data["stratum"] == "H(2)"

    def test_lshape_shifted(self):
        code, out, _ = run_cli("lshape", "--d", "5", "--shift", "1/3")
        data = json.loads(out)
        assert code == 0 and data["stratum"] == "H(1,1)"

    def test_strata_dim(self):
        assert json.loads(run_cli("strata-dim", "--abelian", "2")[1]) == 4
        assert json.loads(run_cli("strata-dim", "--abelian", "1,1")[1]) == 5
        assert json.loads(run_cli("strata-dim", "--abelian", "0")[1]) == 2
        assert json.loads(run_cli("strata-dim", "--quadratic", "1,1,1,1")[1]) == 6
        assert json.loads(run_cli("strata-dim", "--quadratic", "2,-1,-1")[1]) == 3

    def test_strata_dim_pillowcase_needs_the_equals_form(self):
        # Q(-1^4) in genus 0: 2g + n - 2 = 0 + 4 - 2
        assert run_cli("strata-dim", "--quadratic=-1,-1,-1,-1") == (0, "2\n", "")

    @pytest.mark.parametrize(
        "argv",
        [("--abelian=-2,4",), ("--abelian=-1,1",), ("--quadratic=-3,-1",)]
        # the empty quadratic strata Q(1,-1), Q(4), Q(3,1), Q() and Q(0,0)
        # (Masur–Smillie, Comment. Math. Helv. 68, 1993)
        + [(f"--quadratic={orders}",) for orders in ("1,-1", "4", "3,1", "", "0,0")],
    )
    def test_strata_dim_rejects_impossible_orders(self, argv):
        code, out, err = run_cli("strata-dim", *argv)
        assert (code, out) == (1, "")
        assert err.startswith("error: ") and err.count("\n") == 1

    def test_enumerate(self):
        code, out, _ = run_cli("enumerate", "--n", "3", "--stratum", "H(2)", "--reduced")
        data = json.loads(out)
        assert code == 0 and len(data) == 3
        assert len({e["orbit_id"] for e in data}) == 1

    def test_catalog_roundtrip(self, tmp_path):
        path = str(tmp_path / "c.jsonl")
        code, out, _ = run_cli("catalog", "write", "--path", path, "--n", "3", "--stratum", "H(2)")
        assert code == 0 and json.loads(out)["written"] == 3
        code, out, _ = run_cli("catalog", "query", "--path", path, "--stratum", "H(2)")
        assert code == 0 and len(json.loads(out)) == 3

    def test_outputs_reparse(self):
        for argv in (
            ("info", ST3),
            ("orbit", ST3),
            ("cylinders", ST3, "--dir", "1,2"),
            ("lshape", "--d", "2"),
            ("strata-dim", "--abelian", "2"),
        ):
            code, out, _ = run_cli(*argv)
            assert code == 0
            json.loads(out)

    def test_input_error_exit_code(self):
        code, _, err = run_cli("info", "3; h=(1,2); v=(1,2)")  # disconnected
        assert code == 1 and "error" in err

    def test_zero_squares_is_an_input_error(self):
        code, out, err = run_cli("info", "0; h=[]; v=[]")
        assert (code, out) == (1, "")
        assert err == "error: (h, v) does not act transitively: the surface is disconnected\n"

    def test_unknown_subcommand(self):
        code, _, _ = run_cli("frobnicate")
        assert code == 1

    def test_console_script_entry(self):
        proc = subprocess.run(
            [sys.executable, "-m", "origamis", "info", ST3],
            capture_output=True,
            text=True,
        )
        assert proc.returncode == 0
        assert json.loads(proc.stdout)["stratum"] == "H(2)"
