"""The catalog reader against the namedtuple reader it replaced, kept verbatim.

`_Record`, `_FIELD_TYPES`, `_wrong_type`, `_decode_record` and `_read_entries`
below are the reader that decoded each line with `json.loads` into a
namedtuple. The reader in `origamis.catalog` strips JSON whitespace, scans
the line once with `JSONDecoder.raw_decode` and keeps the dict. On any file
the two must agree: the same records (field values compared by repr, so NaN
matches NaN and True does not match 1), or the same error class with the same
line number; with repair, the two files must end with the same bytes. Error
messages may differ and are not compared.

Lines nested deeper than the decoder recurses are left out: the old reader let
the RecursionError through as an internal error, and
`tests/test_catalog_cli.py` pins the new behaviour (a malformed record). So are
lines with an int of more than 4 300 digits, for the same reason (the old
reader let int()'s ValueError through with no line number); the strategies
below cannot draw one, since hypothesis draws unbounded integers of at most a
few dozen digits and free text of at most 12 characters.
"""

import json
import os
import tempfile
from collections import namedtuple
from dataclasses import fields

import pytest
from hypothesis import example, given
from hypothesis import strategies as st

from origamis import catalog
from origamis.catalog import CatalogEntry, CatalogError, enumerate_origamis

# ---- the old reader, verbatim -------------------------------------------------------------

# a decoded catalog line: CatalogEntry's fields, in its order, as a plain
# tuple, so a read can hold every record and build entries only for some
_Record = namedtuple("_Record", [f.name for f in fields(CatalogEntry)])


# the JSON type of each field; type() tells an int from a bool
_FIELD_TYPES = _Record(origami=str, n=int, genus=int, stratum=str, reduced=bool, orbit_id=str, index=int,
                       cusp_widths=list, curve_genus=int)


def _wrong_type(rec: _Record) -> str:
    """What is wrong with a record whose fields do not all have their types."""
    for name, value, want in zip(rec._fields, rec, _FIELD_TYPES):
        if type(value) is not want:
            return f"{name} is {value!r}, not of type {want.__name__}"
    return f"cusp_widths is {rec.cusp_widths!r}, not a list of int"


def _decode_record(line: str) -> _Record:
    """One catalog line: a JSON object with exactly CatalogEntry's fields, or a
    JSONDecodeError or TypeError. The fields that readers filter or key on
    and the list cusp_widths are checked here, on every record; catalog_query
    checks the rest on the records it keeps, since checking every field of
    every record costs a fifth of a full read."""
    rec = _Record(**json.loads(line))  # TypeError for anything but such an object
    if not (type(rec.origami) is str and type(rec.n) is int and type(rec.stratum) is str
            and type(rec.reduced) is bool and type(rec.orbit_id) is str and type(rec.cusp_widths) is list):
        raise TypeError(_wrong_type(rec))
    return rec


def _read_entries(path, repair: bool = False) -> list[_Record]:
    """The records of a catalog file, in file order; a caller builds a
    CatalogEntry only for the records it keeps.

    A last line with no newline is what an interrupted append leaves. If it
    does not parse, readers skip it, and with repair it is cut off the file;
    if it does parse, repair completes it with its newline. Either way the
    next append starts on a fresh line.
    """
    records = []
    with open(path, "r", encoding="utf-8") as fh:
        for lineno, line in enumerate(fh, start=1):
            if not line.strip():
                continue
            try:
                records.append(_decode_record(line))
            except (json.JSONDecodeError, TypeError) as exc:
                if line.endswith("\n"):
                    raise CatalogError(f"malformed catalog record ({exc})", lineno) from None
                if repair:
                    os.truncate(path, os.path.getsize(path) - len(line.encode("utf-8")))
                return records
    if repair and records and not line.endswith("\n"):
        with open(path, "a", encoding="utf-8") as fh:
            fh.write("\n")
    return records


# ---- catalog lines ------------------------------------------------------------------------

FIELDS = _Record._fields
REAL = [json.loads(e.to_json()) for n in (1, 2, 3) for e in enumerate_origamis(n)]

# every JSON value, NaN and ±Infinity included (json.dumps writes them as such)
ANY_JSON = st.recursive(
    st.none() | st.booleans() | st.integers() | st.floats() | st.text(max_size=4),
    lambda inner: st.lists(inner, max_size=3) | st.dictionaries(st.text(max_size=3), inner, max_size=3),
    max_leaves=5,
)
# values that are almost of a field's type: bools for ints, floats for ints, ...
NEAR_VALUES = [True, False, 0, 1, 1.0, float("nan"), float("inf"), -float("inf"), "1", "", None,
               [], [1], [True], [1.0], ["1"], {}, {"1": 1}]
NEAR = st.sampled_from(NEAR_VALUES)
TYPED = st.fixed_dictionaries({
    "origami": st.text(max_size=8), "n": st.integers(), "genus": st.integers(), "stratum": st.text(max_size=6),
    "reduced": st.booleans(), "orbit_id": st.text(max_size=8), "index": st.integers(),
    "cusp_widths": st.lists(st.integers(), max_size=3), "curve_genus": st.integers(),
})
# str.strip() removes all of these, json.loads only the first four
SPACE = st.text(alphabet=" \t\r\n\x0b\x0c\x1c\x1f\x85\u00a0\u2028\u3000", max_size=3)


@st.composite
def record_text(draw) -> str:
    """A JSON object with CatalogEntry's fields, perhaps one field wrong,
    missing, renamed, added or repeated; keys in any order."""
    pairs = list(draw(st.sampled_from(REAL) | TYPED).items())
    change = draw(st.sampled_from(["none", "type", "missing", "renamed", "extra", "duplicate"]))
    at = draw(st.integers(0, len(pairs) - 1))
    if change == "type":
        pairs[at] = (pairs[at][0], draw(NEAR | ANY_JSON))
    elif change == "missing":
        del pairs[at]
    elif change == "renamed":
        pairs[at] = (draw(st.text(max_size=4)), pairs[at][1])
    elif change == "extra":
        pairs.insert(at, (draw(st.text(max_size=4)), draw(ANY_JSON)))
    elif change == "duplicate":  # the last copy of a key is the one json keeps
        pairs.insert(at, (draw(st.sampled_from(FIELDS)), draw(NEAR | ANY_JSON)))
    pairs = draw(st.permutations(pairs))
    ascii_only = draw(st.booleans())
    return "{" + ", ".join(f"{json.dumps(k, ensure_ascii=ascii_only)}: {json.dumps(v, ensure_ascii=ascii_only)}"
                           for k, v in pairs) + "}"


@st.composite
def catalog_line(draw) -> str:
    kind = draw(st.sampled_from(["record", "spaced", "trailing", "bom", "non-object", "blank", "text"]))
    if kind == "non-object":
        return json.dumps(draw(ANY_JSON.filter(lambda v: type(v) is not dict)))
    if kind == "blank":
        return draw(SPACE)
    if kind == "text":
        return draw(st.text(max_size=12))
    record = draw(record_text())
    if kind == "spaced":
        return draw(SPACE) + record + draw(SPACE)
    if kind == "trailing":
        return record + draw(st.sampled_from([" x", "]", ",", "0", "{}", " " + record, record]))
    if kind == "bom":
        return "\ufeff" + record
    return record


GOOD = REAL[0]
GOOD_TEXT = json.dumps(GOOD)


def outcome(read, path, repair):
    try:
        records = read(path, repair=repair)
    except Exception as exc:  # the class and the line, not the message
        return type(exc), getattr(exc, "line", None)
    return [repr(tuple(r) if isinstance(r, tuple) else tuple(r[name] for name in FIELDS)) for r in records]


def read_both(text: str, repair: bool):
    results = []
    with tempfile.TemporaryDirectory() as tmp:
        for read in (_read_entries, catalog._read_entries):
            path = os.path.join(tmp, f"{read.__module__}.jsonl")
            with open(path, "w", encoding="utf-8", newline="") as fh:
                fh.write(text)
            got = outcome(read, path, repair)
            with open(path, "rb") as fh:
                results.append((got, fh.read()))
    return results


@given(st.lists(catalog_line(), max_size=5), st.sampled_from(["\n", ""]), st.booleans())
@example([GOOD_TEXT, " \t" + GOOD_TEXT + "\r"], "\n", False)
@example([GOOD_TEXT, "\x0b" + GOOD_TEXT], "\n", False)
@example([GOOD_TEXT, GOOD_TEXT + "\x0c"], "", True)
@example([GOOD_TEXT, " ", "  "], "\n", True)
@example([GOOD_TEXT, " " + GOOD_TEXT], "", True)
@example([GOOD_TEXT + " " + GOOD_TEXT], "\n", False)
@example([GOOD_TEXT, GOOD_TEXT + "x"], "", True)
@example(["\ufeff" + GOOD_TEXT], "\n", False)
@example([GOOD_TEXT, "[1, 2]", "null"], "\n", False)
@example([json.dumps({**GOOD, "n": True})], "\n", False)
@example([json.dumps({**GOOD, "genus": float("nan")})], "\n", False)
@example([GOOD_TEXT.replace('"index": ', '"index": Infinity, "index": ')], "\n", False)
@example([GOOD_TEXT[:-1] + ', "n": "1"}'], "", True)
@example([json.dumps({k: v for k, v in GOOD.items() if k != "index"})], "", True)
@example([json.dumps({**GOOD, "extra": 1})], "\n", False)
def test_both_readers_agree(lines, end, repair):
    # each line after a good one, so that an early malformed line hides no
    # later one, then the whole file
    for line in lines:
        assert_agree(GOOD_TEXT + "\n" + line + end, repair)
    assert_agree("\n".join(lines) + end if lines else "", repair)


@pytest.mark.parametrize("field", FIELDS)
def test_each_field_missing_or_with_each_near_value(field):
    texts = [json.dumps({k: v for k, v in GOOD.items() if k != field}),  # missing
             json.dumps({k if k != field else field.upper(): v for k, v in GOOD.items()}),  # renamed
             GOOD_TEXT[:-1] + f', "{field}x": 1}}']  # one too many
    for value in NEAR_VALUES:
        texts.append(json.dumps({**GOOD, field: value}))
        texts.append(f'{{"{field}": {json.dumps(value)}, ' + GOOD_TEXT[1:])  # the good value is the last copy
        texts.append(GOOD_TEXT[:-1] + f', "{field}": {json.dumps(value)}}}')  # the near value is
    for text in texts:
        for end in ("\n", ""):
            assert_agree(GOOD_TEXT + "\n" + text + end, repair=True)


def assert_agree(text: str, repair: bool):
    (old, old_bytes), (new, new_bytes) = read_both(text, repair)
    assert new == old, text
    assert new_bytes == old_bytes, text


def test_agreement_is_not_vacuous():
    # two readers that always raised would agree too
    one = [repr(tuple(GOOD[name] for name in FIELDS))]
    assert read_both(GOOD_TEXT + "\n \n", False)[1][0] == one
    assert read_both("\ufeff" + GOOD_TEXT + "\n", False)[1][0] == (CatalogError, 1)
    assert read_both(GOOD_TEXT + "\n" + GOOD_TEXT + "x", True)[1] == (one, (GOOD_TEXT + "\n").encode())
