"""The catalog in its per-write layout against the per-surface code it replaced, kept verbatim.

`catalog_write`, `_read_entries` and `catalog_query` below, with the helpers
they call, are the catalog that wrote one JSON line per surface, each
repeating its orbit's fields. The catalog in `origamis.catalog` writes one
line per write: an orbit table and the new members, as a column of texts and
a column of indices into the table. For any lists of
entries, duplicates included, in any order and split into any sequence of
writes, the two must return the same (written, skipped) counts, warn with
the same messages, and give the same query results for every combination of
filters.

The per-write reader's checks are held against `spec_read` below, a plain
reading of the layout with `json.loads` that refuses a line of either older
layout (per surface, or members as [text, orbit] pairs): on any file the two
give the same
lines (compared by repr, so True does not match 1), or a CatalogError at the
same line; with repair, the two files end with the same bytes. Error
messages are not compared.
"""

import fcntl
import json
import os
import tempfile
import warnings

import pytest
from hypothesis import example, given
from hypothesis import strategies as st

from origamis import catalog
from origamis.catalog import CatalogEntry, CatalogError, enumerate_origamis
from origamis.origami import Stratum

# ---- the per-surface catalog, verbatim ----------------------------------------------------

# the JSON type of each field of a catalog record; type() tells an int from a bool
_FIELD_TYPES = {"origami": str, "n": int, "genus": int, "stratum": str, "reduced": bool, "orbit_id": str,
                "index": int, "cusp_widths": list, "curve_genus": int}
_KEYS = _FIELD_TYPES.keys()
_INT = frozenset({int})
_JSON_SPACE = " \t\n\r"  # the whitespace json.loads allows around a value
_scan = json.JSONDecoder().raw_decode


def _wrong_type(rec) -> str:
    """What is wrong with a record that is not an object with CatalogEntry's
    fields, each of its JSON type."""
    if type(rec) is not dict:
        return f"the record is {type(rec).__name__}, not an object"
    for name, want in _FIELD_TYPES.items():
        if name not in rec:
            return f"field {name!r} is missing"
        if type(rec[name]) is not want:
            return f"{name} is {rec[name]!r}, not of type {want.__name__}"
    for name in rec:
        if name not in _FIELD_TYPES:
            return f"field {name!r} is not a catalog field"
    return f"cusp_widths is {rec['cusp_widths']!r}, not a list of int"


def _decode_record(line: str) -> dict:
    """One catalog line: a JSON object with exactly CatalogEntry's fields, or a
    ValueError (a JSONDecodeError, or an int too long for int()), TypeError or
    (nested too deeply) RecursionError. One C-level scan decodes the line and
    accepts exactly what json.loads does. The fields that readers filter or
    key on and the list cusp_widths are checked here, on every record;
    catalog_query checks the rest on the records it keeps, since checking
    every field of every record costs a fifth of a full read."""
    text = line.strip(_JSON_SPACE)
    rec, end = _scan(text)
    if end != len(text):
        raise json.JSONDecodeError("Extra data", text, end)
    if not (type(rec) is dict and rec.keys() == _KEYS and type(rec["origami"]) is str and type(rec["n"]) is int
            and type(rec["stratum"]) is str and type(rec["reduced"]) is bool and type(rec["orbit_id"]) is str
            and type(rec["cusp_widths"]) is list):
        raise TypeError(_wrong_type(rec))
    return rec


def _read_entries(path, repair: bool = False) -> list[dict]:
    """The records of a catalog file, in file order, as decoded dicts; a
    caller builds a CatalogEntry only for the records it keeps.

    A line nested too deeply for the decoder, or holding an int too long for
    int(), is a malformed record like any other. A last line with no newline
    is what an interrupted append leaves. If it does not parse, readers skip
    it, and with repair it is cut off the file; if it does parse, repair
    completes it with its newline. Either way the next append starts on a
    fresh line.
    """
    records = []
    with open(path, "r", encoding="utf-8") as fh:
        for lineno, line in enumerate(fh, start=1):
            try:
                records.append(_decode_record(line))
            except (ValueError, TypeError, RecursionError) as exc:  # a JSONDecodeError is a ValueError
                if line.isspace():  # a blank line holds no record
                    continue
                if line.endswith("\n"):
                    raise CatalogError(f"malformed catalog record ({exc})", lineno) from None
                if repair:
                    os.truncate(path, os.path.getsize(path) - len(line.encode("utf-8")))
                return records
    if repair and records and not line.endswith("\n"):
        with open(path, "a", encoding="utf-8") as fh:
            fh.write("\n")
    return records


def catalog_write(path, entries) -> tuple[int, int]:
    """Append new entries (keyed by canonical origami text); duplicates are
    skipped with a warning.  Returns (written, skipped).

    The file is locked from the read of its keys to the end of the append, so
    concurrent writers take turns and each key is written once."""
    written = skipped = 0
    with open(path, "a", encoding="utf-8") as fh:
        fcntl.flock(fh, fcntl.LOCK_EX)  # released when fh closes, after its last write is flushed
        existing = {rec["origami"] for rec in _read_entries(path, repair=True)}
        for e in entries:
            if e.origami in existing:
                warnings.warn(f"duplicate canonical key skipped: {e.origami}")
                skipped += 1
                continue
            fh.write(e.to_json() + "\n")
            existing.add(e.origami)
            written += 1
    return written, skipped


def catalog_query(
    path,
    n: int | None = None,
    stratum_filter: str | None = None,
    orbit_id: str | None = None,
    reduced_only: bool = False,
) -> list[CatalogEntry]:
    # read as enumerate_origamis reads it: "H( 0 )" is H(0), "H(1,1" a ValueError
    stratum_text = None if stratum_filter is None else str(Stratum.parse(stratum_filter))
    out = []
    for i, rec in enumerate(_read_entries(path)):
        if n is not None and rec["n"] != n:
            continue
        if stratum_text is not None and rec["stratum"] != stratum_text:
            continue
        if orbit_id is not None and rec["orbit_id"] != orbit_id:
            continue
        if reduced_only and not rec["reduced"]:
            continue
        widths = rec["cusp_widths"]
        if not (type(rec["genus"]) is int and type(rec["index"]) is int and type(rec["curve_genus"]) is int
                and _INT.issuperset(map(type, widths))):
            raise CatalogError(f"malformed catalog record ({_wrong_type(rec)})", _line_of_record(path, i))
        rec["cusp_widths"] = tuple(widths)
        out.append(CatalogEntry(**rec))
    return out


def _line_of_record(path, index: int) -> int:
    """The number of the line that holds the index-th record of a catalog file
    (blank lines hold none); a failing query finds its line here, so that
    reads carry no line numbers."""
    with open(path, encoding="utf-8") as fh:
        return [lineno for lineno, line in enumerate(fh, start=1) if line.strip()][index]


# ---- the two layouts on the same writes ---------------------------------------------------

REAL_ENTRIES = [e for n in (1, 2, 3, 4) for e in enumerate_origamis(n)]
STRATA = ["H(0)", "H(2)", "H(1,1)"]
# entries that need not be surfaces: texts shared with real ones, one orbit_id
# with different fields, any ints
MADE_UP = st.builds(
    CatalogEntry,
    origami=st.sampled_from([e.origami for e in REAL_ENTRIES[:5]]) | st.text(max_size=6),
    n=st.integers(1, 3),
    genus=st.integers(0, 2),
    stratum=st.sampled_from(STRATA + ["H( 0 )", "", "é\n"]),
    reduced=st.booleans(),
    orbit_id=st.sampled_from(["a", "b", REAL_ENTRIES[0].orbit_id]),
    index=st.integers(-2, 5) | st.integers(),
    cusp_widths=st.lists(st.integers(-1, 3) | st.integers(), max_size=3).map(tuple),
    curve_genus=st.integers(0, 1),
)


@st.composite
def write_sequences(draw):
    """Lists of entries split into writes; an entry may come back in a later
    write or twice in one."""
    pool = draw(st.lists(st.sampled_from(REAL_ENTRIES) | MADE_UP, min_size=1, max_size=8))
    entries = draw(st.lists(st.sampled_from(pool), max_size=14))
    cuts = sorted(draw(st.lists(st.integers(0, len(entries)), max_size=4)))
    return [entries[i:j] for i, j in zip([0, *cuts], [*cuts, len(entries)])]


def run_writes(write, path, writes):
    """The (written, skipped) counts and the warnings of each write."""
    results = []
    for batch in writes:
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            counts = write(path, batch)
        results.append((counts, [(w.category, str(w.message)) for w in caught]))
    return results


def all_queries(query, path, entries):
    """The result of every combination of filters, from values the entries
    hold and values they do not."""
    ns = [None, 0, *sorted({e.n for e in entries})]
    strata = [None, "H(4)", *STRATA]
    orbit_ids = [None, "c", *sorted({e.orbit_id for e in entries})]
    return {(n, s, oid, reduced): query(path, n=n, stratum_filter=s, orbit_id=oid, reduced_only=reduced)
            for n in ns for s in strata for oid in orbit_ids for reduced in (False, True)}


@given(write_sequences())
@example([REAL_ENTRIES, REAL_ENTRIES[::-1], REAL_ENTRIES[3:9]])
@example([[CatalogEntry("x", 1, 0, "H(0)", True, "a", 1, (1,), 0),
           CatalogEntry("y", 1, 0, "H(0)", True, "a", 2, (2,), 0),  # one orbit_id, two rows of the table
           CatalogEntry("z", 1, 0, "H(0)", True, "a", 1, (1,), 0)], [], [CatalogEntry("x", 2, 0, "", False, "", 0, (), 0)]])
def test_both_layouts_give_the_same_counts_warnings_and_queries(writes):
    with tempfile.TemporaryDirectory() as tmp:
        old_path, new_path = os.path.join(tmp, "old.jsonl"), os.path.join(tmp, "new.jsonl")
        assert run_writes(catalog.catalog_write, new_path, writes) == run_writes(catalog_write, old_path, writes)
        entries = [e for batch in writes for e in batch]
        assert all_queries(catalog.catalog_query, new_path, entries) == all_queries(catalog_query, old_path, entries)
        seen, writing = set(), 0  # one line per write that has a new key
        for batch in writes:
            writing += any(e.origami not in seen for e in batch)
            seen.update(e.origami for e in batch)
        with open(new_path, encoding="utf-8") as fh:
            assert len(fh.readlines()) == writing


def test_layout_equivalence_is_not_vacuous(tmp_path):
    # two catalogs that always returned nothing would agree too
    old_path, new_path = tmp_path / "old.jsonl", tmp_path / "new.jsonl"
    assert catalog.catalog_write(new_path, REAL_ENTRIES) == catalog_write(old_path, REAL_ENTRIES) == (37, 0)
    assert catalog.catalog_query(new_path, n=4) == catalog_query(old_path, n=4) == REAL_ENTRIES[11:]
    assert os.path.getsize(new_path) < os.path.getsize(old_path) / 2


# ---- the per-write reader against a plain reading of the layout ---------------------------

ORBIT_TYPES = {"n": int, "genus": int, "stratum": str, "reduced": bool, "orbit_id": str, "index": int,
               "cusp_widths": list, "curve_genus": int}


def spec_line(line: str):
    """The (orbits, texts, orbit_of) of one line, None if it is malformed, or
    "old" for a record of the per-surface or the pair layout."""
    try:
        rec = json.loads(line)
    except (ValueError, RecursionError):
        return None
    if isinstance(rec, dict) and ("origami" in rec or "members" in rec):
        return "old"
    if not (isinstance(rec, dict) and set(rec) == {"orbits", "texts", "orbit_of"}
            and all(type(rec[k]) is list for k in rec)):
        return None
    orbits, texts, orbit_of = rec["orbits"], rec["texts"], rec["orbit_of"]
    for orbit in orbits:
        if not (isinstance(orbit, dict) and set(orbit) == set(ORBIT_TYPES)
                and all(type(orbit[k]) is t for k, t in ORBIT_TYPES.items())
                and all(type(w) is int for w in orbit["cusp_widths"])):
            return None
    if len(texts) != len(orbit_of):
        return None
    for text, k in zip(texts, orbit_of):
        if not (type(text) is str and type(k) is int and 0 <= k < len(orbits)):
            return None
    return orbits, texts, orbit_of


def spec_read(path, repair: bool = False):
    lines = []
    with open(path, "r", encoding="utf-8") as fh:
        for lineno, line in enumerate(fh, start=1):
            got = spec_line(line)
            if got == "old":
                raise CatalogError("old layout", lineno)
            if got is not None:
                lines.append(got)
                continue
            if line.isspace():
                continue
            if line.endswith("\n"):
                raise CatalogError("malformed", lineno)
            if repair:
                os.truncate(path, os.path.getsize(path) - len(line.encode("utf-8")))
            return lines
    if repair and lines and not line.endswith("\n"):
        with open(path, "a", encoding="utf-8") as fh:
            fh.write("\n")
    return lines


def written(entries) -> dict:
    """The line catalog_write appends for entries to a fresh file, decoded."""
    with tempfile.TemporaryDirectory() as tmp:
        path = os.path.join(tmp, "c.jsonl")
        catalog.catalog_write(path, entries)
        with open(path, encoding="utf-8") as fh:
            return json.loads(fh.read())


REAL = [written(enumerate_origamis(n)) for n in (1, 2, 3)] + [written(REAL_ENTRIES)]
OLD = [json.loads(e.to_json()) for e in REAL_ENTRIES[:4]]
# the lines of REAL in the pair layout, each member a [text, index into the table] list
PAIRS = [{"orbits": line["orbits"], "members": [list(m) for m in zip(line["texts"], line["orbit_of"])]}
         for line in REAL]

# every JSON value, NaN and ±Infinity included (json.dumps writes them as such)
ANY_JSON = st.recursive(
    st.none() | st.booleans() | st.integers() | st.floats() | st.text(max_size=4),
    lambda inner: st.lists(inner, max_size=3) | st.dictionaries(st.text(max_size=3), inner, max_size=3),
    max_leaves=5,
)
# values that are almost of a field's type: bools for ints, floats for ints, ...
NEAR_VALUES = [True, False, 0, 1, -1, 2, 1.0, float("nan"), float("inf"), -float("inf"), "1", "", None,
               [], [1], [True], [1.0], ["1"], ["x", 0], ["x", 0, 0], ["x", True], ["x", 1.0], [1, "x"], {}, {"1": 1}]
NEAR = st.sampled_from(NEAR_VALUES)
TYPED_ORBIT = st.fixed_dictionaries({
    "n": st.integers(), "genus": st.integers(), "stratum": st.text(max_size=6), "reduced": st.booleans(),
    "orbit_id": st.text(max_size=8), "index": st.integers(), "cusp_widths": st.lists(st.integers(), max_size=3),
    "curve_genus": st.integers(),
})


@st.composite
def typed_line(draw) -> dict:
    orbits = draw(st.lists(TYPED_ORBIT, max_size=3))
    if not orbits:
        return {"orbits": [], "texts": [], "orbit_of": []}
    members = draw(st.lists(st.tuples(st.text(max_size=8), st.integers(0, len(orbits) - 1)), max_size=4))
    return {"orbits": orbits, "texts": [text for text, _ in members], "orbit_of": [k for _, k in members]}


@st.composite
def changed(draw, pairs: list, names) -> list:
    """pairs, a JSON object's items, perhaps with one value wrong, or one key
    missing, renamed, added or repeated."""
    pairs = list(pairs)
    change = draw(st.sampled_from(["none", "type", "missing", "renamed", "extra", "duplicate"]))
    at = draw(st.integers(0, len(pairs) - 1))
    if change == "type":
        pairs[at] = (pairs[at][0], draw(NEAR | ANY_JSON))
    elif change == "missing":
        del pairs[at]
    elif change == "renamed":
        pairs[at] = (draw(st.text(max_size=4)), pairs[at][1])
    elif change == "extra":
        pairs.insert(at, (draw(st.text(max_size=4) | st.sampled_from(["origami", "members"])), draw(ANY_JSON)))
    elif change == "duplicate":  # the last copy of a key is the one json keeps
        pairs.insert(at, (draw(st.sampled_from(names)), draw(NEAR | ANY_JSON)))
    return draw(st.permutations(pairs))


def dumps(value, ascii_only) -> str:
    """JSON text of value, whose objects are lists of (key, value) pairs."""
    if isinstance(value, list) and value and all(isinstance(p, tuple) for p in value):
        return "{" + ", ".join(f"{json.dumps(k, ensure_ascii=ascii_only)}: {dumps(v, ascii_only)}"
                               for k, v in value) + "}"
    if isinstance(value, list):
        return "[" + ", ".join(dumps(v, ascii_only) for v in value) + "]"
    return json.dumps(value, ensure_ascii=ascii_only)


@st.composite
def line_text(draw) -> str:
    """A line of the per-write layout, perhaps with one thing wrong: in the
    line's own fields, in one orbit, in one text or orbit index, or in the
    length of a column; keys in any order."""
    line = draw(st.sampled_from(REAL) | typed_line())
    orbits = [list(o.items()) for o in line["orbits"]]
    texts, orbit_of = list(line["texts"]), list(line["orbit_of"])
    where = draw(st.sampled_from(["line", "orbit", "text", "orbit_of", "length", "none"]))
    if where == "orbit" and orbits:
        i = draw(st.integers(0, len(orbits) - 1))
        orbits[i] = draw(changed(orbits[i], list(ORBIT_TYPES)))
    elif where == "text" and texts:
        texts[draw(st.integers(0, len(texts) - 1))] = draw(NEAR | ANY_JSON)
    elif where == "orbit_of" and orbit_of:
        orbit_of[draw(st.integers(0, len(orbit_of) - 1))] = draw(NEAR | ANY_JSON | st.integers(-2, len(orbits) + 1))
    elif where == "length":  # one entry more or less in one column
        column = draw(st.sampled_from([texts, orbit_of]))
        if column and draw(st.booleans()):
            del column[draw(st.integers(0, len(column) - 1))]
        else:
            column.append(draw(st.text(max_size=3)) if column is texts else draw(st.integers(0, max(len(orbits) - 1, 0))))
    pairs = [("orbits", orbits), ("texts", texts), ("orbit_of", orbit_of)]
    if where == "line":
        pairs = draw(changed(pairs, ["orbits", "texts", "orbit_of"]))
    pairs = draw(st.permutations(pairs))
    return dumps(pairs, draw(st.booleans()))


@st.composite
def catalog_line(draw) -> str:
    kind = draw(st.sampled_from(["line", "spaced", "trailing", "bom", "old", "pairs", "non-object", "blank", "text"]))
    if kind == "non-object":
        return json.dumps(draw(ANY_JSON.filter(lambda v: type(v) is not dict)))
    if kind == "blank":
        return draw(SPACE)
    if kind == "text":
        return draw(st.text(max_size=12))
    if kind == "old":
        return json.dumps(draw(st.sampled_from(OLD)))
    if kind == "pairs":
        return json.dumps(draw(st.sampled_from(PAIRS)))
    line = draw(line_text())
    if kind == "spaced":
        return draw(SPACE) + line + draw(SPACE)
    if kind == "trailing":
        return line + draw(st.sampled_from([" x", "]", ",", "0", "{}", " " + line, line]))
    if kind == "bom":
        return "\ufeff" + line
    return line


# str.strip() removes all of these, json.loads only the first four
SPACE = st.text(alphabet=" \t\r\n\x0b\x0c\x1c\x1f\x85\u00a0\u2028\u3000", max_size=3)
GOOD_TEXT = json.dumps(REAL[1])
OLD_TEXT = json.dumps(OLD[0])
PAIR_TEXT = json.dumps(PAIRS[1])


def outcome(read, path, repair):
    try:
        lines = read(path, repair=repair)
    except CatalogError as exc:  # the line, not the message
        return CatalogError, exc.line
    return [repr(tuple(map(list, line))) for line in lines]


def read_both(text: str, repair: bool):
    results = []
    with tempfile.TemporaryDirectory() as tmp:
        for read in (spec_read, catalog._read_entries):
            path = os.path.join(tmp, f"{read.__module__}.jsonl")
            with open(path, "w", encoding="utf-8", newline="") as fh:
                fh.write(text)
            got = outcome(read, path, repair)
            with open(path, "rb") as fh:
                results.append((got, fh.read()))
    return results


def assert_agree(text: str, repair: bool):
    (spec, spec_bytes), (new, new_bytes) = read_both(text, repair)
    assert new == spec, text
    assert new_bytes == spec_bytes, text


@given(st.lists(catalog_line(), max_size=5), st.sampled_from(["\n", ""]), st.booleans())
@example([GOOD_TEXT, " \t" + GOOD_TEXT + "\r"], "\n", False)
@example([GOOD_TEXT, "\x0b" + GOOD_TEXT], "\n", False)
@example([GOOD_TEXT, GOOD_TEXT + "\x0c"], "", True)
@example([GOOD_TEXT, " ", "  "], "\n", True)
@example([GOOD_TEXT, " " + GOOD_TEXT], "", True)
@example([GOOD_TEXT + " " + GOOD_TEXT], "\n", False)
@example([GOOD_TEXT, GOOD_TEXT + "x"], "", True)
@example([GOOD_TEXT, GOOD_TEXT[:-7]], "", True)  # a torn write
@example(["\ufeff" + GOOD_TEXT], "\n", False)
@example([GOOD_TEXT, "[1, 2]", "null"], "\n", False)
@example([GOOD_TEXT, OLD_TEXT], "", True)  # the per-surface layout, also with no newline
@example([GOOD_TEXT, PAIR_TEXT], "", True)  # the pair layout, also with no newline
@example([json.dumps({"orbits": [], "texts": [], "orbit_of": []})], "\n", False)
@example([json.dumps({"orbits": [], "members": []})], "\n", False)
@example([json.dumps({**REAL[1], "members": []})], "\n", False)
@example([json.dumps({**REAL[1], "texts": [1], "orbit_of": [0]})], "\n", False)
@example([json.dumps({**REAL[1], "texts": ["x"], "orbit_of": [1]})], "\n", False)
@example([json.dumps({**REAL[1], "texts": ["x"], "orbit_of": [-1]})], "\n", False)
@example([json.dumps({**REAL[1], "texts": ["x"], "orbit_of": [True]})], "\n", False)
@example([json.dumps({**REAL[1], "texts": ["x"], "orbit_of": [0.0]})], "\n", False)
@example([json.dumps({**REAL[1], "texts": ["x", "y"], "orbit_of": [0]})], "\n", False)
@example([json.dumps({**REAL[1], "texts": ["x"], "orbit_of": [0, 0]})], "", True)
@example([json.dumps({"orbits": REAL[1]["orbits"], "texts": ["x"]})], "\n", False)
@example([json.dumps({**REAL[1], "orbits": [{**REAL[1]["orbits"][0], "n": True}]})], "\n", False)
@example([json.dumps({**REAL[1], "orbits": [{**REAL[1]["orbits"][0], "cusp_widths": [1, 1.0]}]})], "", True)
@example([GOOD_TEXT.replace('"index": ', '"index": Infinity, "index": ')], "\n", False)
@example([GOOD_TEXT[:-1] + ', "origami": "1"}'], "\n", False)
@example([json.dumps({**REAL[1], "extra": 1})], "\n", False)
def test_reader_agrees_with_a_plain_reading(lines, end, repair):
    # each line after a good one, so that an early malformed line hides no
    # later one, then the whole file
    for line in lines:
        assert_agree(GOOD_TEXT + "\n" + line + end, repair)
    assert_agree("\n".join(lines) + end if lines else "", repair)


@pytest.mark.parametrize("field", ORBIT_TYPES)
def test_each_orbit_field_missing_or_with_each_near_value(field):
    good = REAL[1]["orbits"][0]
    orbits = [{k: v for k, v in good.items() if k != field},  # missing
              {k if k != field else field.upper(): v for k, v in good.items()},  # renamed
              {**good, f"{field}x": 1}]  # one too many
    orbits += [{**good, field: value} for value in NEAR_VALUES]
    texts = [json.dumps({**REAL[1], "orbits": [orbit]}) for orbit in orbits]
    orbit_text = json.dumps(good)
    for value in NEAR_VALUES:  # a repeated key: the near value first (the good one kept), then last
        for bad in (f'{{"{field}": {json.dumps(value)}, ' + orbit_text[1:], orbit_text[:-1] + f', "{field}": '
                    f'{json.dumps(value)}}}'):
            texts.append(GOOD_TEXT.replace(orbit_text, bad))
    for text in texts:
        for end in ("\n", ""):
            assert_agree(GOOD_TEXT + "\n" + text + end, repair=True)


@pytest.mark.parametrize("field", ["orbits", "texts", "orbit_of"])
def test_each_line_field_missing_or_with_each_near_value(field):
    texts = [json.dumps({k: v for k, v in REAL[1].items() if k != field}),
             json.dumps({**REAL[1], f"{field}x": []})]
    texts += [json.dumps({**REAL[1], field: value}) for value in NEAR_VALUES]
    # one member, with each near value as its text or its orbit index
    texts += [json.dumps({**REAL[1], "texts": [value], "orbit_of": [0]}) for value in NEAR_VALUES]
    texts += [json.dumps({**REAL[1], "texts": ["x"], "orbit_of": [value]}) for value in NEAR_VALUES]
    # the line's columns of unequal length: one entry more, or one less
    texts += [json.dumps({**REAL[1], field: REAL[1][field] + REAL[1][field][:1]}),
              json.dumps({**REAL[1], field: REAL[1][field][1:]})]
    for text in texts:
        for end in ("\n", ""):
            assert_agree(GOOD_TEXT + "\n" + text + end, repair=True)


def test_agreement_is_not_vacuous():
    # two readers that always raised would agree too
    one = [repr((REAL[1]["orbits"], REAL[1]["texts"], REAL[1]["orbit_of"]))]
    assert read_both(GOOD_TEXT + "\n \n", False)[1][0] == one
    assert read_both("\ufeff" + GOOD_TEXT + "\n", False)[1][0] == (CatalogError, 1)
    for old in (OLD_TEXT, PAIR_TEXT):
        assert read_both(GOOD_TEXT + "\n" + old, True)[1] == ((CatalogError, 2), (GOOD_TEXT + "\n" + old).encode())
    assert read_both(GOOD_TEXT + "\n" + GOOD_TEXT + "x", True)[1] == (one, (GOOD_TEXT + "\n").encode())
    assert list(CatalogEntry.__match_args__) == ["origami", *ORBIT_TYPES]
