"""The entry lists the CLI prints, against json.dumps of the entries.

`catalog query` and `enumerate` print their entries through one encoder that
encodes each orbit's fields once and each surface's text on its own. For any
catalog and any filters, the stdout of `catalog query` must be
json.dumps([vars(e) for e in catalog_query(...)], sort_keys=True) and a
newline, byte for byte; `enumerate` likewise against enumerate_origamis. The
made-up entries hold the strings an encoder can get wrong (quotes,
backslashes, non-ASCII text, U+2028, control characters, lone surrogates,
the empty string) and ints far beyond a machine word.
"""

import io
import json
import os
import tempfile
import warnings
from contextlib import redirect_stderr, redirect_stdout
from unittest import mock

import pytest
from hypothesis import example, given
from hypothesis import strategies as st

from origamis import catalog
from origamis.catalog import CatalogEntry, catalog_query, catalog_write, enumerate_origamis
from origamis.cli import main

AWKWARD = '"\\/é€  \x00\x1f\x7f\n\t\ud800\U0001f600a1 '
texts = st.text(AWKWARD, max_size=6) | st.text(max_size=6)
ints = st.integers(-9, 9) | st.integers(-(10**40), 10**40)
strata = st.sampled_from(["H(0)", "H(2)", "H(1,1)"]) | texts
orbit_fields = st.tuples(ints, ints, strata, st.booleans(), texts, ints, st.lists(ints, max_size=4).map(tuple), ints)


@st.composite
def writes(draw):
    """Made-up entries with distinct texts over a few orbits, split into up to
    three catalog writes."""
    orbits = draw(st.lists(orbit_fields, min_size=1, max_size=4))
    members = draw(st.lists(st.tuples(texts, st.sampled_from(orbits)), max_size=12, unique_by=lambda m: m[0]))
    entries = [CatalogEntry(text, *fields) for text, fields in members]
    cuts = sorted(draw(st.lists(st.integers(0, len(entries)), max_size=2)))
    return [entries[i:j] for i, j in zip([0] + cuts, cuts + [len(entries)])]


def run_cli(*argv):
    out, err = io.StringIO(), io.StringIO()
    with redirect_stdout(out), redirect_stderr(err):
        code = main(list(argv))
    return code, out.getvalue(), err.getvalue()


def expected(entries) -> str:
    return json.dumps([vars(e) for e in entries], sort_keys=True) + "\n"


def query_argv(path, n, stratum, orbit_id, reduced):
    # the --flag=value form, so that a value that starts with "-" is a value
    return (["catalog", "query", "--path", path] + ([f"--n={n}"] if n is not None else [])
            + ([f"--stratum={stratum}"] if stratum is not None else [])
            + ([f"--orbit-id={orbit_id}"] if orbit_id is not None else []) + (["--reduced"] if reduced else []))


def assert_query_prints_its_entries(path, n=None, stratum=None, orbit_id=None, reduced=False):
    code, out, err = run_cli(*query_argv(path, n, stratum, orbit_id, reduced))
    assert (code, err) == (0, "")
    assert out == expected(catalog_query(path, n, stratum, orbit_id, reduced))
    return out


@given(writes(), st.data())
@example([[]], None)  # an empty catalog
def test_catalog_query_prints_what_json_dumps_prints(batches, data):
    with tempfile.TemporaryDirectory() as tmp:
        path = os.path.join(tmp, "c.jsonl")
        for batch in batches:
            catalog_write(path, batch)
        entries = [e for batch in batches for e in batch]
        assert assert_query_prints_its_entries(path) == expected(entries)
        if data is None:
            return
        ns = sorted({e.n for e in entries}) + [10**50]
        ids = sorted({e.orbit_id for e in entries} - {"--"}) or ["none"]  # the value "--" is refused
        for _ in range(4):
            assert_query_prints_its_entries(
                path,
                data.draw(st.none() | st.sampled_from(ns), "n"),
                data.draw(st.none() | st.sampled_from(["H(0)", "H( 2 )", "H(1,1)", "H(4)"]), "stratum"),
                data.draw(st.none() | st.sampled_from(ids), "orbit_id"),
                data.draw(st.booleans(), "reduced"),
            )


@given(st.integers(1, 6), st.sampled_from([None, "H(0)", "H(2)", "H(1,1)", "H(2,1,1)"]), st.booleans())
def test_enumerate_prints_what_json_dumps_prints(n, stratum, reduced):
    argv = ["enumerate", "--n", str(n)] + (["--stratum", stratum] if stratum else []) + (["--reduced"] * reduced)
    assert run_cli(*argv) == (0, expected(enumerate_origamis(n, stratum, reduced)), "")


@given(writes())
def test_enumerate_prints_made_up_entries_as_json_dumps_does(batches):
    entries = [e for batch in batches for e in batch]
    with mock.patch.object(catalog, "enumerate_origamis", lambda *args, **kwargs: entries):
        assert run_cli("enumerate", "--n", "1") == (0, expected(entries), "")


@pytest.fixture(scope="module")
def census(tmp_path_factory):
    """The n ≤ 6 census, written by `catalog write` once per n and once more
    for n = 6, whose surfaces are all skipped."""
    path = str(tmp_path_factory.mktemp("census") / "c.jsonl")
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        for n in [1, 2, 3, 4, 5, 6, 6]:
            assert run_cli("catalog", "write", "--path", path, "--n", str(n))[0] == 0
    return path


def test_the_census_queries_print_what_json_dumps_prints(census):
    everything = catalog_query(census)
    ids = sorted({e.orbit_id for e in everything})
    assert len(everything) == 1 + 3 + 7 + 26 + 97 + 624  # A057005 for n ≤ 6
    for n in [None, 1, 2, 5, 6, 7]:
        for stratum in [None, "H(0)", "H(2)", "H(1,1)", "H(2,1,1)"]:
            for orbit_id in [None, ids[0], ids[len(ids) // 2], ids[-1]]:
                for reduced in (False, True):
                    assert_query_prints_its_entries(census, n, stratum, orbit_id, reduced)
