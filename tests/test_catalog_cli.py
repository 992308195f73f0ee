import hashlib
import json
import multiprocessing
import os
import shlex
import subprocess
import sys
import tempfile
import warnings
from fractions import Fraction

import pytest

from origamis.catalog import (
    CatalogEntry,
    CatalogError,
    canonical_origamis,
    catalog_query,
    catalog_write,
    enumerate_origamis,
)
from origamis.cli import main
from origamis.flow import discrepancy
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

    @pytest.mark.parametrize("n", range(1, 8))
    def test_filters_select_entries_of_the_unfiltered_list(self, n):
        # the filters keep or drop whole orbits: every stratum that occurs, one
        # that does not (H(8) needs genus 5, so n >= 9), and no filter
        entries = enumerate_origamis(n)
        for s in [*sorted({e.stratum for e in entries}), "H(8)", None]:
            for reduced_only in (False, True):
                expected = [
                    e
                    for e in entries
                    if (s is None or e.stratum == s) and (e.reduced or not reduced_only)
                ]
                assert enumerate_origamis(n, s, reduced_only) == expected, (n, s, reduced_only)

    @pytest.mark.parametrize("reduced_only", [False, True])
    def test_invariants_are_computed_once_per_orbit(self, monkeypatch, reduced_only):
        # the census tests stratum itself and reads reducedness off the orbit
        # report; either way, once per orbit, filtered out or not
        from origamis import action, catalog

        orbits = len({e.orbit_id for e in enumerate_origamis(6)})
        assert orbits == 28
        calls = {(catalog, "stratum"): 0, (action, "is_reduced"): 0}

        def counted(module, name):
            fn = getattr(module, name)

            def wrapper(o):
                calls[module, name] += 1
                return fn(o)

            return wrapper

        for module, name in calls:
            monkeypatch.setattr(module, name, counted(module, name))
        enumerate_origamis(6, reduced_only=reduced_only)
        assert list(calls.values()) == [orbits, orbits]

    def test_against_brute_force_count(self):
        # independent route: enumerate every (h, v) pair directly
        from itertools import permutations

        from origamis.origami import _canonical_key, _tables
        from origamis.perm import Permutation, is_transitive

        n = 4
        keys = set()
        for h in permutations(range(1, n + 1)):
            for v in permutations(range(1, n + 1)):
                if is_transitive([Permutation(h), Permutation(v)]):
                    keys.add(_canonical_key(*_tables(h, v)))
        assert len(keys) == len(canonical_origamis(n))

    @pytest.mark.parametrize("n, options, bound", [(0, {}, 8), (-1, {}, 8), (9, {}, 8), (4, {"bound": 3}, 3)])
    def test_bounds(self, n, options, bound):
        with pytest.raises(ValueError, match=rf"^n must lie in 1\.\.{bound}, got {n}$"):
            enumerate_origamis(n, **options)

    @pytest.mark.parametrize("n", [0, -1])
    def test_canonical_origamis_refuses_n_below_one(self, n):
        with pytest.raises(ValueError, match=f"got {n}$"):
            canonical_origamis(n)


class TestCatalogFile:
    def test_round_trip(self, tmp_path):
        path = tmp_path / "cat.jsonl"
        entries = enumerate_origamis(3, stratum_filter="H(2)")
        written, skipped = catalog_write(path, entries)
        assert (written, skipped) == (len(entries), 0)
        back = catalog_query(path, n=3)
        assert back == entries

    def test_query_rows_hold_the_orbit_fields_of_their_entries(self, tmp_path):
        # a row's fields tuple is built from the orbit table's layout: it must
        # be exactly what _orbit_fields reads off the entry built from the row
        from origamis import catalog

        path = tmp_path / "cat.jsonl"
        entries = enumerate_origamis(5)
        catalog_write(path, entries[:40])
        catalog_write(path, entries[40:])
        for options in ({}, {"n": 5, "stratum_filter": "H(2)"}, {"reduced_only": True}):
            rows = catalog._query_rows(path, **options)
            assert rows
            for fields, text in rows:
                assert catalog._orbit_fields(CatalogEntry(text, *fields)) == fields
                assert type(fields) is tuple and list not in map(type, fields)  # cusp_widths a tuple
        assert [CatalogEntry(text, *fields) for fields, text in catalog._query_rows(path)] == entries

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
        path.write_text(written_line(enumerate_origamis(1)) + "{not json}\n")
        with pytest.raises(CatalogError, match="line 2"):
            catalog_query(path)

    def test_malformed_inner_line_raises_before_a_torn_last_line(self, tmp_path):
        path = tmp_path / "cat.jsonl"
        good = written_line(enumerate_origamis(1))
        path.write_text(good + "{not json}\n" + good[:10])
        with pytest.raises(CatalogError, match="line 2"):
            catalog_query(path)
        with pytest.raises(CatalogError, match="line 2"):
            catalog_write(path, enumerate_origamis(2))

    def test_a_write_appends_one_line_and_a_write_of_known_keys_none(self, tmp_path):
        path = tmp_path / "cat.jsonl"
        three = enumerate_origamis(3)
        with pytest.warns(UserWarning, match="duplicate"):
            assert catalog_write(path, three[:2] + three[:1]) == (2, 1)
            assert catalog_write(path, three) == (len(three) - 2, 2)
            assert catalog_write(path, three) == (0, len(three))
        lines = path.read_text().splitlines()
        assert len(lines) == 2 and path.read_text() == written_line(three[:2]) + written_line(three[2:])
        assert [len(json.loads(line)["orbits"]) for line in lines] == [1, 2]  # two orbits, one in both writes
        assert catalog_query(path) == three[:2] + three[2:]

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
        # the filters look at orbits before entries are built; the check
        # that rejects an orbit must not depend on whether it matches
        path = tmp_path / "cat.jsonl"
        catalog_write(path, enumerate_origamis(3))
        line = json.loads(written_line(enumerate_origamis(1)))
        with open(path, "a", encoding="utf-8") as fh:
            fh.write(json.dumps({**line, "orbits": [bad(line["orbits"][0])]}) + "\n")
        with pytest.raises(CatalogError, match="line 2"):
            catalog_query(path, n=3)
        code, out, err = run_cli("catalog", "query", "--path", str(path), "--n", "3")
        assert code == 1 and out == "" and "line 2" in err

    @pytest.mark.parametrize(
        "bad, named",
        [(lambda d: {**d, "orbits": [{k: x for k, x in d["orbits"][0].items() if k != "index"}]},
          "orbit 0: field 'index' is missing"),
         (lambda d: {**d, "orbits": [{**d["orbits"][0], "indx": 1}]}, "orbit 0: field 'indx' is not a catalog field"),
         (lambda d: [d], "the record is list, not an object"),
         (lambda d: {"orbits": d["orbits"], "texts": d["texts"]}, "the record: field 'orbit_of' is missing"),
         (lambda d: {"orbits": d["orbits"], "orbit_of": d["orbit_of"]}, "the record: field 'texts' is missing"),
         (lambda d: {**d, "extra": []}, "the record: field 'extra' is not a catalog field"),
         (lambda d: {**d, "orbits": [d["orbits"][0]["stratum"]]}, "orbit 0 is str, not an object"),
         (lambda d: {**d, "texts": [1]}, "text 0 is 1, not of type str"),
         (lambda d: {**d, "texts": d["texts"] + ["x"], "orbit_of": d["orbit_of"] + [1]}, "orbit_of 1 names orbit 1 of 1"),
         (lambda d: {**d, "orbit_of": [-1]}, "orbit_of 0 names orbit -1 of 1"),
         (lambda d: {**d, "orbit_of": [True]}, "orbit_of 0 is True, not of type int"),
         (lambda d: {**d, "orbit_of": [0.0]}, "orbit_of 0 is 0.0, not of type int"),
         (lambda d: {**d, "texts": d["texts"] + ["x"]}, "the record has 2 texts and 1 orbit_of indices")],
        ids=["missing", "extra", "list", "no-orbit-of", "no-texts", "extra-column", "orbit-str", "text-int",
             "index-range", "index-negative", "index-bool", "index-float", "unequal-columns"],
    )
    def test_malformed_record_names_what_is_wrong(self, tmp_path, bad, named):
        path = tmp_path / "cat.jsonl"
        line = json.loads(written_line(enumerate_origamis(1)))
        path.write_text(json.dumps(bad(line)) + "\n")
        code, out, err = run_cli("catalog", "query", "--path", str(path))
        assert (code, out) == (1, "") and err == f"error: line 1: malformed catalog record ({named})\n"

    # the orbit of the exact line that an untyped reader printed, and that a
    # --n 1 query dropped
    UNTYPED = (
        '{"orbits": [{"cusp_widths": [1], "curve_genus": 0, "genus": "one", "index": 1, "n": "1", "orbit_id": 5, '
        '"reduced": "yes", "stratum": "H(0)"}], "texts": ["1; h=(); v=()"], "orbit_of": [0]}'
    )

    @pytest.mark.parametrize("filters", [[], ["--n", "1"]], ids=["all", "n=1"])
    def test_record_with_wrong_value_types_fails_with_its_line(self, tmp_path, filters):
        path = tmp_path / "cat.jsonl"
        catalog_write(path, enumerate_origamis(2))
        with open(path, "a", encoding="utf-8") as fh:
            fh.write(self.UNTYPED + "\n")
        code, out, err = run_cli("catalog", "query", "--path", str(path), *filters)
        assert code == 1 and out == "" and "line 2" in err and "n is '1'" in err

    @pytest.mark.parametrize(
        "field, value",
        [("n", True), ("n", 1.0), ("orbit_id", 5), ("origami", ["1; h=(); v=()"]), ("stratum", 0),
         ("reduced", 1), ("reduced", "yes"), ("cusp_widths", "1"), ("cusp_widths", {"1": 1}),
         ("genus", "one"), ("index", None), ("curve_genus", False),
         ("cusp_widths", [True]), ("cusp_widths", ["1"]), ("cusp_widths", [1, 1.0])],
    )
    def test_every_field_has_its_type_on_every_line(self, tmp_path, field, value):
        # every field of every orbit, and every member, is checked when its
        # line is read, whether or not a query keeps it
        path = tmp_path / "cat.jsonl"
        catalog_write(path, enumerate_origamis(2))
        line = json.loads(written_line(enumerate_origamis(1)))
        if field == "origami":
            line["texts"] = [value]
        else:
            line["orbits"] = [{**line["orbits"][0], field: value}]
        with open(path, "a", encoding="utf-8") as fh:
            fh.write("\n" + json.dumps(line) + "\n")  # blank lines hold no record
        named = "text 0" if field == "origami" else f"orbit 0: {field}"
        for n in (1, 2, None):
            with pytest.raises(CatalogError, match=f"line 3: .*{named}"):
                catalog_query(path, n=n)
        code, out, err = run_cli("catalog", "query", "--path", str(path), "--n", "2")
        assert code == 1 and out == "" and "line 3" in err

    def test_torn_final_record_is_skipped_and_repaired(self, tmp_path):
        # an append interrupted mid-line leaves a last line with no newline;
        # the whole write it held is dropped
        path = str(tmp_path / "c.jsonl")
        code, out, _ = run_cli("catalog", "write", "--path", path, "--n", "3")
        assert code == 0
        three = json.loads(run_cli("catalog", "query", "--path", path)[1])
        four = enumerate_origamis(4)
        torn = written_line(four)[:-20]
        with open(path, "a", encoding="utf-8") as fh:
            fh.write(torn)
        code, out, err = run_cli("catalog", "query", "--path", path)
        assert code == 0 and json.loads(out) == three and err == ""
        code, out, _ = run_cli("catalog", "write", "--path", path, "--n", "4")
        assert code == 0 and json.loads(out) == {"written": len(four), "skipped": 0}
        with open(path, encoding="utf-8") as fh:
            text = fh.read()
        assert text.endswith("\n") and torn + "\n" not in text and text.count("\n") == 2
        assert catalog_query(path, n=4) == four
        assert len(catalog_query(path)) == len(three) + len(four)

    def test_record_cut_before_its_newline_is_kept(self, tmp_path):
        path = tmp_path / "cat.jsonl"
        one, two = enumerate_origamis(1), enumerate_origamis(2)
        path.write_text(written_line(one).rstrip("\n"))
        assert catalog_query(path) == one
        assert catalog_write(path, two) == (len(two), 0)
        assert catalog_query(path) == one + two

    DEEP = "[" * 100_000 + "]" * 100_000  # deeper than the JSON decoder recurses
    # more digits than int() converts from text (4 300)
    LONG_INT = '{"orbits": [{"n": ' + "1" * 5_000 + '}], "texts": [], "orbit_of": []}'

    @pytest.mark.parametrize("line", [DEEP, LONG_INT], ids=["deep", "long-int"])
    def test_undecodable_line_is_a_malformed_record(self, tmp_path, line):
        path = str(tmp_path / "c.jsonl")
        assert run_cli("catalog", "write", "--path", path, "--n", "2")[0] == 0
        with open(path, "a", encoding="utf-8") as fh:
            fh.write(line + "\n")
        for argv in (("query", "--path", path), ("write", "--path", path, "--n", "2")):
            code, out, err = run_cli("catalog", *argv)
            assert (code, out) == (1, ""), argv
            assert err.startswith("error: line 2: malformed catalog record") and err.count("\n") == 1, argv

    @pytest.mark.parametrize("line", [DEEP, LONG_INT], ids=["deep", "long-int"])
    def test_undecodable_last_line_is_a_torn_append(self, tmp_path, line):
        path = str(tmp_path / "c.jsonl")
        assert run_cli("catalog", "write", "--path", path, "--n", "2")[0] == 0
        two = run_cli("catalog", "query", "--path", path)[1]
        with open(path, "a", encoding="utf-8") as fh:
            fh.write(line)
        assert run_cli("catalog", "query", "--path", path) == (0, two, "")
        code, out, err = run_cli("catalog", "write", "--path", path, "--n", "3")
        three = enumerate_origamis(3)
        assert (code, err) == (0, "") and json.loads(out) == {"written": len(three), "skipped": 0}
        with open(path, encoding="utf-8") as fh:
            assert line[:30] not in fh.read()
        assert catalog_query(path) == enumerate_origamis(2) + three

    OLD_LAYOUT = "error: line {}: a per-surface record, of the catalog layout before orbit tables, which is not read; " \
                 "write the catalog anew\n"

    @pytest.mark.parametrize("end", ["\n", ""], ids=["whole", "no-newline"])
    def test_a_per_surface_catalog_is_refused_and_left_as_it_is(self, tmp_path, end):
        # the lines the per-surface layout wrote, one to_json() a surface; its
        # last line is refused too when it has no newline, not cut off as torn
        path = str(tmp_path / "old.jsonl")
        old = "".join(e.to_json() + "\n" for e in enumerate_origamis(3))[:-1] + end
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(old)
        for argv in (("query", "--path", path), ("query", "--path", path, "--n", "1"),
                     ("write", "--path", path, "--n", "4")):
            assert run_cli("catalog", *argv) == (1, "", self.OLD_LAYOUT.format(1)), argv
            with open(path, encoding="utf-8") as fh:
                assert fh.read() == old, argv  # nothing appended, nothing cut
        with pytest.raises(CatalogError, match="^line 1: a per-surface record"):
            catalog_query(path)
        one = enumerate_origamis(1)[0].to_json()
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(one + end)
        assert run_cli("catalog", "write", "--path", path, "--n", "1") == (1, "", self.OLD_LAYOUT.format(1))
        with open(path, encoding="utf-8") as fh:
            assert fh.read() == one + end

    def test_a_per_surface_line_after_a_write_is_refused_with_its_line(self, tmp_path):
        path = str(tmp_path / "c.jsonl")
        assert run_cli("catalog", "write", "--path", path, "--n", "2")[0] == 0
        with open(path, "a", encoding="utf-8") as fh:
            fh.write("\n" + enumerate_origamis(1)[0].to_json() + "\n")
        assert run_cli("catalog", "query", "--path", path) == (1, "", self.OLD_LAYOUT.format(3))

    PAIR_LAYOUT = "error: line {}: a [text, orbit] pair record, of the catalog layout before member columns, " \
                  "which is not read; write the catalog anew\n"

    @pytest.mark.parametrize("end", ["\n", ""], ids=["whole", "no-newline"])
    def test_a_pair_catalog_is_refused_and_left_as_it_is(self, tmp_path, end):
        # the lines the pair layout wrote, one a write; its last line is
        # refused too when it has no newline, not cut off as torn
        path = str(tmp_path / "pairs.jsonl")
        old = "".join(pair_line(enumerate_origamis(n)) for n in (1, 2, 3))[:-1] + end
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(old)
        for argv in (("query", "--path", path), ("query", "--path", path, "--n", "3"),
                     ("write", "--path", path, "--n", "4")):
            assert run_cli("catalog", *argv) == (1, "", self.PAIR_LAYOUT.format(1)), argv
            with open(path, encoding="utf-8") as fh:
                assert fh.read() == old, argv  # nothing appended, nothing cut
        with pytest.raises(CatalogError, match=r"^line 1: a \[text, orbit\] pair record"):
            catalog_query(path, n=3)
        with pytest.raises(CatalogError, match=r"^line 1: a \[text, orbit\] pair record"):
            catalog_write(path, enumerate_origamis(4))
        with open(path, encoding="utf-8") as fh:
            assert fh.read() == old

    def test_a_pair_line_after_a_write_is_refused_with_its_line(self, tmp_path):
        path = str(tmp_path / "c.jsonl")
        assert run_cli("catalog", "write", "--path", path, "--n", "2")[0] == 0
        with open(path, "a", encoding="utf-8") as fh:
            fh.write("\n" + pair_line(enumerate_origamis(1)))
        assert run_cli("catalog", "query", "--path", path) == (1, "", self.PAIR_LAYOUT.format(3))
        with pytest.raises(CatalogError, match=r"^line 3: a \[text, orbit\] pair record"):
            catalog_query(path, n=2)  # the line holds no surface with two squares

    def test_concurrent_writers_append_each_key_once(self, tmp_path):
        # two writers released together on each of five fresh files; without
        # the lock most rounds append some keys twice
        paths = [str(tmp_path / f"c{i}.jsonl") for i in range(5)]
        ctx = multiprocessing.get_context("spawn")
        ready, results = ctx.Queue(), ctx.Queue()
        starts = [ctx.Event() for _ in paths]
        writers = [ctx.Process(target=_write_census_to, args=(paths, 6, ready, starts, results)) for _ in range(2)]
        for w in writers:
            w.start()
        for start in starts:
            for _ in writers:
                ready.get(timeout=120)
            start.set()
        counts = [results.get(timeout=120) for _ in range(len(writers) * len(paths))]
        for w in writers:
            w.join(timeout=120)
            assert w.exitcode == 0
        six = enumerate_origamis(6)
        assert sorted(counts) == [(0, len(six))] * len(paths) + [(len(six), 0)] * len(paths)
        for path in paths:
            with open(path, encoding="utf-8") as fh:
                lines = fh.readlines()
            assert len(lines) == 1  # the later writer appends nothing
            keys = sorted(json.loads(lines[0])["texts"])
            assert keys == [e.origami for e in six]  # each key exactly once
            assert catalog_query(path) == six

    @pytest.mark.slow
    def test_census_at_eight_squares_round_trips_in_under_two_megabytes(self, tmp_path):
        path = tmp_path / "c.jsonl"
        eight = enumerate_origamis(8)
        assert catalog_write(path, eight) == (34_470, 0)
        assert catalog_query(path, n=8) == eight
        assert os.path.getsize(path) < 2_000_000

    def test_write_into_a_missing_directory_is_an_input_error(self, tmp_path):
        path = str(tmp_path / "missing" / "c.jsonl")
        code, out, err = run_cli("catalog", "write", "--path", path, "--n", "2")
        assert (code, out) == (1, "") and err.startswith("error: ") and err.count("\n") == 1

    @pytest.mark.parametrize(
        "bad, named",
        [(CatalogEntry("x", 1, 0, "H(0)", 1, "a", 1, (1,), 0), "reduced is 1, not of type bool"),
         (CatalogEntry("x", 1, 0, "H(0)", True, "a", 1, [1], 0), "cusp_widths is [1], not a tuple"),
         (CatalogEntry(1, 1, 0, "H(0)", True, "a", 1, (1,), 0), "origami is 1, not of type str"),
         (CatalogEntry("x", 1, 0, "H(0)", True, 1, 1, (1,), 0), "orbit_id is 1, not of type str")],
        ids=["int-reduced", "list-widths", "int-origami", "int-orbit-id"],
    )
    def test_an_entry_that_would_not_read_back_is_refused_and_nothing_is_written(self, tmp_path, bad, named):
        # the entry is checked as the reader will read its line, whether it
        # opens a new orbit, is the whole write, or comes after good entries
        path = tmp_path / "cat.jsonl"
        catalog_write(path, enumerate_origamis(2))
        before = path.read_bytes()
        three = enumerate_origamis(3)
        for entries in ([bad], three[:1] + [bad] + three[1:]):
            with pytest.raises(TypeError) as info:
                catalog_write(path, entries)
            assert str(info.value) == f"catalog entry {bad.origami!r}: {named}"
            assert path.read_bytes() == before
        assert catalog_query(path) == enumerate_origamis(2)
        assert catalog_write(path, three) == (len(three), 0)

    def test_a_write_of_an_int_reduced_leaves_a_fresh_file_readable(self, tmp_path):
        path = tmp_path / "cat.jsonl"
        with pytest.raises(TypeError, match="catalog entry 'x': reduced is 1, not of type bool"):
            catalog_write(path, [CatalogEntry("x", 1, 0, "H(0)", 1, "a", 1, (1,), 0)])
        assert path.read_bytes() == b"" and catalog_query(path) == []
        assert catalog_write(path, enumerate_origamis(1)) == (1, 0)

    @pytest.mark.parametrize(
        "bad",
        [object(),
         pytest.param(10**5000, marks=pytest.mark.skipif(
             not getattr(sys, "get_int_max_str_digits", lambda: 0)(),
             reason="this Python writes an int of any length"))],
        ids=["object", "long-int"],
    )
    def test_a_curve_genus_json_cannot_write_back_is_refused(self, tmp_path, bad):
        path = tmp_path / "cat.jsonl"
        with pytest.raises(TypeError, match=r"^catalog entry 'x': "):
            catalog_write(path, [CatalogEntry("x", 1, 0, "H(0)", True, "a", 1, (1,), bad)])
        assert path.read_bytes() == b"" and catalog_query(path) == []


def written_line(entries) -> str:
    """The line, with its newline, that catalog_write appends for entries to
    a fresh file."""
    with tempfile.TemporaryDirectory() as tmp:
        path = os.path.join(tmp, "c.jsonl")
        catalog_write(path, entries)
        with open(path, encoding="utf-8") as fh:
            return fh.read()


def pair_line(entries) -> str:
    """The line, with its newline, that the pair layout wrote for entries to
    a fresh file: the orbit table and each member as [text, index into it]."""
    line = json.loads(written_line(entries))
    return json.dumps({"orbits": line["orbits"], "members": [list(m) for m in zip(line["texts"], line["orbit_of"])]}) + "\n"


def _write_census_to(paths, n, ready, starts, results):
    """A writer process: enumerate once, then for each file in turn report
    ready and append as soon as that file's start is set."""
    entries = enumerate_origamis(n)
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")  # the later writer to a file skips every key
        for path, start in zip(paths, starts):
            ready.put(path)
            assert start.wait(timeout=120)
            results.put(catalog_write(path, entries))


def run_cli(*argv):
    import io
    from contextlib import redirect_stderr, redirect_stdout

    out, err = io.StringIO(), io.StringIO()
    with redirect_stdout(out), redirect_stderr(err):
        code = main(list(argv))
    return code, out.getvalue(), err.getvalue()


ST3 = "3; h=(1,2); v=(1,3)"

# `lshape` stdout, byte for byte, for four discriminants with and without a
# shift and for a shift in Q[sqrt(5)]
LSHAPE_STDOUT = {
    ('--d', '2'): (
        '{"a": "1/2 + 1/2*sqrt(2)"'
        ', "cylinders": [{"height": "1", "width": "1/2 + 1/2*sqrt(2)"}, {"height": "-1/2 + 1/2*sqrt(2)", "width": "1"}]'
        ', "degree": 2, "field": "Q[sqrt(2)]"'
        ', "generators": {"A": "[[1, 2 + 2*sqrt(2)], [0, 1]]", "B": "[[1, 0], [2 + 2*sqrt(2), 1]]"}'
        ', "period_lattice": {"basis": [[1, 1, 0, 0], [0, 2, 0, 0], [0, 0, 1, 1], [0, 0, 0, 2]], "denominator": 2}'
        ', "shift": "0", "stratum": "H(2)", "trace": "14 + 8*sqrt(2)", "twist_powers": [4, 1]}\n'
    ),
    ('--d', '2', '--shift', '1/3'): (
        '{"a": "1/2 + 1/2*sqrt(2)"'
        ', "cylinders": [{"height": "1", "width": "1/2 + 1/2*sqrt(2)"}, {"height": "-1/2 + 1/2*sqrt(2)", "width": "1"}]'
        ', "degree": 2, "field": "Q[sqrt(2)]"'
        ', "generators": {"A": "[[1, 2 + 2*sqrt(2)], [0, 1]]", "B": "[[1, 0], [2 + 2*sqrt(2), 1]]"}'
        ', "period_lattice": {"basis": [[1, 1, 0, 0], [0, 2, 0, 0], [0, 0, 1, 1], [0, 0, 0, 2]], "denominator": 2}'
        ', "shift": "1/3", "stratum": "H(1,1)", "trace": "14 + 8*sqrt(2)", "twist_powers": [4, 1]}\n'
    ),
    ('--d', '5'): (
        '{"a": "1/2 + 1/2*sqrt(5)"'
        ', "cylinders": [{"height": "1", "width": "1/2 + 1/2*sqrt(5)"}, {"height": "-1/2 + 1/2*sqrt(5)", "width": "1"}]'
        ', "degree": 2, "field": "Q[sqrt(5)]"'
        ', "generators": {"A": "[[1, 2 + 2*sqrt(5)], [0, 1]]", "B": "[[1, 0], [2 + 2*sqrt(5), 1]]"}'
        ', "period_lattice": {"basis": [[1, 1, 0, 0], [0, 2, 0, 0], [0, 0, 1, 1], [0, 0, 0, 2]], "denominator": 2}'
        ', "shift": "0", "stratum": "H(2)", "trace": "26 + 8*sqrt(5)", "twist_powers": [4, 4]}\n'
    ),
    ('--d', '5', '--shift', '1/3'): (
        '{"a": "1/2 + 1/2*sqrt(5)"'
        ', "cylinders": [{"height": "1", "width": "1/2 + 1/2*sqrt(5)"}, {"height": "-1/2 + 1/2*sqrt(5)", "width": "1"}]'
        ', "degree": 2, "field": "Q[sqrt(5)]"'
        ', "generators": {"A": "[[1, 2 + 2*sqrt(5)], [0, 1]]", "B": "[[1, 0], [2 + 2*sqrt(5), 1]]"}'
        ', "period_lattice": {"basis": [[1, 1, 0, 0], [0, 2, 0, 0], [0, 0, 1, 1], [0, 0, 0, 2]], "denominator": 2}'
        ', "shift": "1/3", "stratum": "H(1,1)", "trace": "26 + 8*sqrt(5)", "twist_powers": [4, 4]}\n'
    ),
    ('--d', '9'): (
        '{"a": "2"'
        ', "cylinders": [{"height": "1", "width": "2"}, {"height": "1", "width": "1"}]'
        ', "degree": 1, "field": "Q"'
        ', "generators": {"A": "[[1, 8], [0, 1]]", "B": "[[1, 0], [8, 1]]"}'
        ', "period_lattice": {"basis": [[1, 0, 0, 0], [0, 0, 1, 0]], "denominator": 1}'
        ', "shift": "0", "stratum": "H(2)", "trace": "66", "twist_powers": [4, 8]}\n'
    ),
    ('--d', '9', '--shift', '1/3'): (
        '{"a": "2"'
        ', "cylinders": [{"height": "1", "width": "2"}, {"height": "1", "width": "1"}]'
        ', "degree": 1, "field": "Q"'
        ', "generators": {"A": "[[1, 8], [0, 1]]", "B": "[[1, 0], [8, 1]]"}'
        ', "period_lattice": {"basis": [[1, 0, 0, 0], [0, 0, 1, 0]], "denominator": 1}'
        ', "shift": "1/3", "stratum": "H(1,1)", "trace": "66", "twist_powers": [4, 8]}\n'
    ),
    ('--d', '13'): (
        '{"a": "1/2 + 1/2*sqrt(13)"'
        ', "cylinders": [{"height": "1", "width": "1/2 + 1/2*sqrt(13)"}, {"height": "-1/2 + 1/2*sqrt(13)", "width": "1"}]'
        ', "degree": 2, "field": "Q[sqrt(13)]"'
        ', "generators": {"A": "[[1, 2 + 2*sqrt(13)], [0, 1]]", "B": "[[1, 0], [2 + 2*sqrt(13), 1]]"}'
        ', "period_lattice": {"basis": [[1, 1, 0, 0], [0, 2, 0, 0], [0, 0, 1, 1], [0, 0, 0, 2]], "denominator": 2}'
        ', "shift": "0", "stratum": "H(2)", "trace": "58 + 8*sqrt(13)", "twist_powers": [4, 12]}\n'
    ),
    ('--d', '13', '--shift', '1/3'): (
        '{"a": "1/2 + 1/2*sqrt(13)"'
        ', "cylinders": [{"height": "1", "width": "1/2 + 1/2*sqrt(13)"}, {"height": "-1/2 + 1/2*sqrt(13)", "width": "1"}]'
        ', "degree": 2, "field": "Q[sqrt(13)]"'
        ', "generators": {"A": "[[1, 2 + 2*sqrt(13)], [0, 1]]", "B": "[[1, 0], [2 + 2*sqrt(13), 1]]"}'
        ', "period_lattice": {"basis": [[1, 1, 0, 0], [0, 2, 0, 0], [0, 0, 1, 1], [0, 0, 0, 2]], "denominator": 2}'
        ', "shift": "1/3", "stratum": "H(1,1)", "trace": "58 + 8*sqrt(13)", "twist_powers": [4, 12]}\n'
    ),
    ('--d', '5', '--shift', '-2 + sqrt(5)'): (
        '{"a": "1/2 + 1/2*sqrt(5)"'
        ', "cylinders": [{"height": "1", "width": "1/2 + 1/2*sqrt(5)"}, {"height": "-1/2 + 1/2*sqrt(5)", "width": "1"}]'
        ', "degree": 2, "field": "Q[sqrt(5)]"'
        ', "generators": {"A": "[[1, 2 + 2*sqrt(5)], [0, 1]]", "B": "[[1, 0], [2 + 2*sqrt(5), 1]]"}'
        ', "period_lattice": {"basis": [[1, 1, 0, 0], [0, 2, 0, 0], [0, 0, 1, 1], [0, 0, 0, 2]], "denominator": 2}'
        ', "shift": "-2 + sqrt(5)", "stratum": "H(1,1)", "trace": "26 + 8*sqrt(5)", "twist_powers": [4, 4]}\n'
    ),
}


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

    def test_discrepancy(self):
        code, out, _ = run_cli("discrepancy", "1; h=(); v=()", "--slope", "1.618", "--crossings", "2000")
        assert code == 0
        assert 0 <= json.loads(out) <= 1

    @pytest.mark.parametrize("origami", ["1; h=(); v=()", ST3, "5; h=(1,2,3,4,5); v=(1,3)(2,5)"])
    @pytest.mark.parametrize("slope", ["1.618", "0.4142135623730951", "2.5"])
    def test_discrepancy_prints_the_statistic(self, origami, slope):
        code, out, err = run_cli("discrepancy", origami, "--slope", slope, "--crossings", "5000", "--grid", "7")
        assert (code, err) == (0, "")
        assert out == json.dumps(discrepancy(parse_origami(origami), float(slope), 5000, 7)) + "\n"

    def test_discrepancy_rejects_a_grid_beyond_the_cell_bound(self):
        code, out, err = run_cli("discrepancy", ST3, "--grid", "1000000")
        assert (code, out, err) == (1, "", "error: need n*grid**2 <= 10000000 cells, got 3000000000000\n")

    @pytest.mark.parametrize("slope", ["inf", "nan", "-inf"])
    def test_discrepancy_rejects_non_finite_slope(self, slope):
        import origamis

        src = os.path.dirname(os.path.dirname(origamis.__file__))
        proc = subprocess.run(
            [sys.executable, "-m", "origamis", "discrepancy", "1; h=(); v=()", f"--slope={slope}"],
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

    def test_lshape_with_a_fifteen_digit_prime_discriminant(self):
        # squarefreeness by trial division to the cube root, not the square root
        code, out, err = run_cli("lshape", "--d", "100000000000031")
        assert (code, err) == (0, "")
        assert json.loads(out)["field"] == "Q[sqrt(100000000000031)]"

    @pytest.mark.parametrize(
        "argv, message",
        [
            (("--d", "1000000000000000000000007"), "need 2 <= d"),
            (("--d", "5", "--shift", "sqrt(1000000000000000000000007)"), "d must satisfy 2 <= d"),
        ],
    )
    def test_lshape_rejects_a_radicand_above_the_bound(self, argv, message):
        code, out, err = run_cli("lshape", *argv)
        assert (code, out, err) == (1, "", f"error: {message} <= 1000000000000000000, got 1000000000000000000000007\n")

    @pytest.mark.parametrize(
        "d, sha256",
        [
            ("2", "b180bf9f0be84900ee52bfb7ebe5699770d383de9001496cac1e0fbaa639720b"),
            ("5", "b7f1fff0bf748511fa5034caa58c6a173b98694fa8fc7a1f664b60f7aa5d967f"),
            ("8", "34f239d77300b5d91420db96f5da57222bab51551821ecd6bc9bf65a36b8e31e"),
            ("13", "9a8b36bd136987ae8c83cc0e2ebca8c823d35011bf52390f33486fa85d73c707"),
            ("999999999999999989", "bf3dbcfd0289581c9c8263e248e71ae3a4efaaca86850fcf29964cce200afb55"),
        ],
    )
    def test_lshape_output_bytes_are_pinned(self, d, sha256):
        code, out, _ = run_cli("lshape", "--d", d)
        assert code == 0 and hashlib.sha256(out.encode()).hexdigest() == sha256

    @pytest.mark.parametrize("argv", list(LSHAPE_STDOUT))
    def test_lshape_stdout_is_pinned(self, argv):
        assert run_cli("lshape", *argv) == (0, LSHAPE_STDOUT[argv], "")

    def test_lshape_checks_its_radicand_once(self, monkeypatch):
        # the field's d is checked squarefree when a is built; every QuadNum
        # made from a afterwards is trusted
        from origamis import lshape, quadfield

        checked = []
        square_part = quadfield._square_part

        def counted(d):
            checked.append(d)
            return square_part(d)

        monkeypatch.setattr(quadfield, "_square_part", counted)
        monkeypatch.setattr(lshape, "_square_part", counted)
        assert run_cli("lshape", "--d", "5")[0] == 0
        assert checked == [5]
        checked.clear()
        assert run_cli("lshape", "--d", "5", "--shift", "1/3")[0] == 0
        assert checked == [2, 5]  # the shift is parsed as a QuadNum over d = 2

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

    def test_catalog_query_reduced(self, tmp_path):
        path = str(tmp_path / "c.jsonl")
        assert run_cli("catalog", "write", "--path", path, "--n", "3")[0] == 0
        everything = json.loads(run_cli("catalog", "query", "--path", path)[1])
        code, out, err = run_cli("catalog", "query", "--path", path, "--reduced")
        assert (code, err) == (0, "")
        assert json.loads(out) == [e for e in everything if e["reduced"]] != everything
        path = str(tmp_path / "two.jsonl")
        assert run_cli("catalog", "write", "--path", path, "--n", "2")[0] == 0
        assert run_cli("catalog", "query", "--path", path, "--reduced") == (0, "[]\n", "")

    def test_catalog_query_stratum_is_parsed(self, tmp_path):
        path = str(tmp_path / "c.jsonl")
        assert run_cli("catalog", "write", "--path", path, "--n", "2")[0] == 0
        code, out, _ = run_cli("catalog", "query", "--path", path, "--stratum", "H( 0 )")
        assert code == 0 and json.loads(out) == json.loads(run_cli("catalog", "query", "--path", path)[1])
        assert len(json.loads(out)) == 3
        code, out, err = run_cli("catalog", "query", "--path", path, "--stratum", "H(1,1")
        assert (code, out) == (1, "")
        assert err.startswith("error: ") and err.count("\n") == 1

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
        assert err == "error: square count must be at least 1, got 0\n"

    @pytest.mark.parametrize("count", ["0", "-1"])
    def test_square_count_below_one_is_named(self, count):
        code, out, err = run_cli("info", f"{count}; h=(); v=()")
        assert (code, out) == (1, "")
        assert err == f"error: square count must be at least 1, got {count}\n"

    def test_odd_abelian_stratum_is_an_input_error(self, tmp_path):
        path = str(tmp_path / "c.jsonl")
        assert run_cli("catalog", "write", "--path", path, "--n", "3")[0] == 0
        for argv in (("enumerate", "--n", "3", "--stratum", "H(1)"),
                     ("catalog", "query", "--path", path, "--stratum", "H(1)"),
                     ("strata-dim", "--abelian", "1")):
            code, out, err = run_cli(*argv)
            assert (code, out) == (1, ""), argv
            assert err.startswith("error: ") and err.count("\n") == 1, argv

    def test_consecutive_calls_share_no_state(self, tmp_path):
        path = str(tmp_path / "c.jsonl")
        assert run_cli("catalog", "write", "--path", path, "--n", "3")[0] == 0
        code, reduced, _ = run_cli("catalog", "query", "--path", path, "--reduced")
        assert code == 0
        code, everything, _ = run_cli("catalog", "query", "--path", path)
        assert code == 0 and len(json.loads(everything)) == 7 > len(json.loads(reduced))
        code, out, err = run_cli("enumerate", "--bound", "2", "--n", "3")
        assert (code, out) == (1, "") and err.count("\n") == 1
        code, out, err = run_cli("enumerate", "--n", "3")
        assert (code, err) == (0, "") and len(json.loads(out)) == 7

    def test_build_parser_returns_a_fresh_parser(self):
        from origamis.cli import build_parser

        assert build_parser() is not build_parser()

    def test_unknown_subcommand(self):
        code, out, err = run_cli("frobnicate")
        assert (code, out) == (1, "")
        assert err.startswith("error: argument command: invalid choice: 'frobnicate'") and err.count("\n") == 1

    @pytest.mark.parametrize(
        "argv, message",
        [(("flow",), "the following arguments are required: origami"),
         (("info", ST3, "--bogus"), "unrecognized arguments: --bogus"),
         (("strata-dim", "--quadratic", "-1,-1"), "argument --quadratic: expected one argument"),
         (("catalog", "write", "--path", "c.jsonl"), "the following arguments are required: --n"),
         (("catalog",), "the following arguments are required: mode")],
    )
    def test_argparse_failure_is_one_line(self, argv, message):
        code, out, err = run_cli(*argv)
        assert (code, out) == (1, "")
        assert err.startswith(f"error: {message}") and err.count("\n") == 1

    @pytest.mark.parametrize(
        "argv",
        [("flow", ST3, "junk"), ("flow", ST3, "--slope", "2"), ("flow", ST3, "--grid", "3"),
         ("discrepancy", ST3, "--max", "5"), ("discrepancy", ST3, "--dir", "1,1"),
         ("flow", "discrepancy", ST3)],
    )
    def test_a_value_the_subcommand_does_not_read_is_an_input_error(self, argv):
        code, out, err = run_cli(*argv)
        assert (code, out) == (1, "")
        assert err.startswith("error: ") and err.count("\n") == 1

    @pytest.mark.parametrize(
        "argv",
        [("enumerate", "--n=--"), ("flow", ST3, "--dir=--"), ("flow", ST3, "--start=--"),
         ("flow", ST3, "--max=--"), ("catalog", "query", "--path=--"), ("lshape", "--d=--"),
         ("strata-dim", "--abelian=--")],
    )
    def test_the_value_double_dash_is_an_input_error(self, argv, tmp_path, monkeypatch):
        # Pythons that drop the "--" leave no value; the others pass "--" on
        # to the subcommand, which rejects it (no file "--" exists here)
        monkeypatch.chdir(tmp_path)
        code, out, err = run_cli(*argv)
        assert (code, out) == (1, "")
        assert err.startswith("error: ") and err.count("\n") == 1

    def test_catalog_write_takes_no_orbit_id(self, tmp_path):
        path = tmp_path / "c.jsonl"
        code, out, err = run_cli("catalog", "write", "--path", str(path), "--n", "2", "--orbit-id", "x")
        assert (code, out, err) == (1, "", "error: unrecognized arguments: --orbit-id x\n")
        assert not path.exists()

    @pytest.mark.parametrize("argv", [("-h",), ("discrepancy", "-h"), ("catalog", "query", "--help")])
    def test_help_prints_usage(self, argv):
        code, out, err = run_cli(*argv)
        assert (code, err) == (0, "") and out.startswith("usage: origamis")

    def test_repeated_write_prints_only_its_json(self, tmp_path):
        # the library warns for each duplicate key; the CLI counts them in "skipped"
        path = str(tmp_path / "c.jsonl")
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            assert run_cli("catalog", "write", "--path", path, "--n", "2") == (0, '{"skipped": 0, "written": 3}\n', "")
            assert run_cli("catalog", "write", "--path", path, "--n", "2") == (0, '{"skipped": 3, "written": 0}\n', "")
        assert caught == []

    def test_readme_cli_examples_run(self, tmp_path, monkeypatch):
        # every `origamis ...` line of README's CLI block, in order, from an
        # empty directory: the catalog query reads what the write before it wrote
        readme = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "README.md")
        with open(readme, encoding="utf-8") as fh:
            block = fh.read().split("## CLI", 1)[1].split("```sh", 1)[1].split("```", 1)[0]
        lines = [line for line in block.splitlines() if line.startswith("origamis ")]
        assert len(lines) >= 12
        monkeypatch.chdir(tmp_path)
        for line in lines:
            code, out, err = run_cli(*shlex.split(line, comments=True)[1:])
            assert (code, err) == (0, ""), line
            json.loads(out)

    def test_console_script_entry(self):
        proc = subprocess.run(
            [sys.executable, "-m", "origamis", "info", ST3],
            capture_output=True,
            text=True,
        )
        assert proc.returncode == 0
        assert json.loads(proc.stdout)["stratum"] == "H(2)"
