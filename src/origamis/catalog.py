"""Enumeration of origamis up to a square count, and the JSONL catalog.

Enumeration builds, once each, the transitive pairs (h, v) labelled by a
breadth-first search from square 1 whose square 1 lies in an h-cycle of least
class, and keeps those whose labelling is their canonical key (the generation
half of orderly generation: Read, 1978; McKay, 1998). The class of a square
is the length of its h-cycle, or 4 for four and more; the h-key from a root
of class 1, 2, 3 or 4 starts (1, …), (2, 1, …), (2, 3, …) or (2, e, …) with
e ≥ 4, so no other pair can be its own key. The result is grouped into
SL₂(ℤ)-orbits, and the genus, stratum and reducedness of each orbit are
computed once, on its first surface.  Output order is lexicographic on
canonical forms so repeated runs produce byte-identical catalogs.

The catalog is JSONL, one line per write: the table of the orbits the write
touches, each orbit's fields once, and the new surfaces in the order given,
each as [origami text, index into the table]. A query filters each table
once and reads the members of the orbits it keeps.
"""

from __future__ import annotations

import fcntl
import json
import os
import warnings
from dataclasses import dataclass
from operator import attrgetter

from .action import orbit
from .origami import Origami, Stratum, _canonical_key, _tables, is_reduced, stratum
from .perm import Permutation

DEFAULT_BOUND = 8


@dataclass(frozen=True)
class CatalogEntry:
    origami: str  # canonical text form, the primary key
    n: int
    genus: int
    stratum: str
    reduced: bool
    orbit_id: str
    index: int
    cusp_widths: tuple[int, ...]
    curve_genus: int

    def to_json(self) -> str:
        return json.dumps(vars(self), sort_keys=True)  # the tuple cusp_widths becomes a list


# the JSON type of each field of an orbit in a catalog line; type() tells an int from a bool
_ORBIT_TYPES = {"n": int, "genus": int, "stratum": str, "reduced": bool, "orbit_id": str, "index": int,
                "cusp_widths": list, "curve_genus": int}
_LINE_TYPES = {"orbits": list, "members": list}
_orbit_fields = attrgetter(*_ORBIT_TYPES)  # a CatalogEntry's orbit fields, in the layout's order
_INT, _STR, _LIST, _PAIR = frozenset({int}), frozenset({str}), frozenset({list}), frozenset({2})
_JSON_SPACE = " \t\n\r"  # the whitespace json.loads allows around a value
_scan = json.JSONDecoder().raw_decode


class _OldLayout(Exception):
    """A line of the per-surface layout, which held one surface and its orbit's fields."""


def _wrong_fields(rec, types: dict, what: str) -> str | None:
    """What is wrong with rec, if it is not an object with exactly the fields
    of types, each of its JSON type."""
    if type(rec) is not dict:
        return f"{what} is {type(rec).__name__}, not an object"
    for name, want in types.items():
        if name not in rec:
            return f"{what}: field {name!r} is missing"
        if type(rec[name]) is not want:
            return f"{what}: {name} is {rec[name]!r}, not of type {want.__name__}"
    for name in rec:
        if name not in types:
            return f"{what}: field {name!r} is not a catalog field"
    return None


def _wrong_orbit(orbit, what: str) -> str | None:
    """What is wrong with a decoded orbit, if it does not have exactly the
    orbit fields, each of its JSON type, with cusp_widths a list of int."""
    wrong = _wrong_fields(orbit, _ORBIT_TYPES, what)
    if wrong is None and not _INT.issuperset(map(type, orbit["cusp_widths"])):
        wrong = f"{what}: cusp_widths is {orbit['cusp_widths']!r}, not a list of int"
    return wrong


def _members_ok(members: list, count: int) -> bool:
    """Whether each member is a list [str, int] with the int in range(count),
    in C-level passes: the members are most of a line."""
    if not (_LIST.issuperset(map(type, members)) and _PAIR.issuperset(map(len, members))):
        return False
    if not members:
        return True
    texts, ks = zip(*members)
    return _STR.issuperset(map(type, texts)) and _INT.issuperset(map(type, ks)) and set(ks).issubset(range(count))


def _wrong_line(rec) -> str | None:
    """What is wrong with a decoded catalog line, if it is not an orbit table
    and members [origami text, index into the table], every field of every
    orbit and every member of its type."""
    wrong = _wrong_fields(rec, _LINE_TYPES, "the record")
    if wrong:
        return wrong
    orbits, members = rec["orbits"], rec["members"]
    for i, orbit in enumerate(orbits):
        wrong = _wrong_orbit(orbit, f"orbit {i}")
        if wrong:
            return wrong
    if _members_ok(members, len(orbits)):
        return None
    for i, member in enumerate(members):
        if not (type(member) is list and len(member) == 2 and type(member[0]) is str and type(member[1]) is int):
            return f"member {i} is {member!r}, not a [text, orbit] pair"
        if not 0 <= member[1] < len(orbits):
            return f"member {i} names orbit {member[1]} of {len(orbits)}"
    raise AssertionError("_members_ok refused members that are each well typed and in range")


def _decode_line(line: str) -> tuple[list[dict], list[list]]:
    """One catalog line, the record of one write: the orbit table and the
    members. A line that _wrong_line finds wrong is a TypeError, and one of
    the per-surface layout an _OldLayout; a line that does not decode is a
    ValueError (a JSONDecodeError, or an int too long for int()) or (nested
    too deeply) RecursionError. One C-level scan decodes the line and accepts
    exactly what json.loads does."""
    text = line.strip(_JSON_SPACE)
    rec, end = _scan(text)
    if end != len(text):
        raise json.JSONDecodeError("Extra data", text, end)
    if type(rec) is dict and "origami" in rec:
        raise _OldLayout()
    wrong = _wrong_line(rec)
    if wrong:
        raise TypeError(wrong)
    return rec["orbits"], rec["members"]


def canonical_origamis(n: int) -> list[Origami]:
    """All connected n-square origamis up to relabeling, lexicographically.

    Pairs are built once each, labelled by _canonical_key's BFS from square
    1: squares s = 1, 2, ... in queue order fill their slots h(s), h⁻¹(s),
    v(s), v⁻¹(s) in move order, each with a labelled square whose inverse
    slot is free or with the next new label.

    That BFS from a root r labels h(r), h⁻¹(r), v(r), v⁻¹(r) first, so the
    h-key from r starts (1, …) if r's h-cycle has length 1, (2, 1, …) if 2,
    (2, 3, …) if 3 and (2, e, …) with e ≥ 4 if longer: only the roots of the
    least of these four classes can give the canonical key. h(1), h⁻¹(1) and
    h(2) settle square 1's class, and an h or h⁻¹ choice that would close a
    cycle of a lesser class is skipped, in O(1). A pair that is built is kept
    when its labelling is its canonical key, i.e. when no other root gives a
    lesser one; the test stops at the first root that does. It reads the
    live maps, which are the pair's move tables, and a pair's image tuples
    are built only when its key is not cut short.
    """
    if n < 1:
        raise ValueError(f"n must be at least 1, got {n}")
    maps = [[0] * (n + 1) for _ in range(4)]  # h, h⁻¹, v, v⁻¹: maps[k ^ 1] inverts maps[k]
    last = 4 * n  # slot 4(s-1) + k holds maps[k][s]

    def pairs(slot: int, used: int, least: int):
        # least: square 1's class, a lower bound on it until h(2) is chosen, 0 before h(1)
        while slot < last and maps[slot & 3][(slot >> 2) + 1]:
            slot += 1  # filled by an earlier choice, through its inverse slot
        if slot == last:
            yield  # maps holds a whole pair
            return
        s, k = (slot >> 2) + 1, slot & 3
        if s > used:  # the queue ran dry before n squares: not transitive
            return
        fwd, back = maps[k], maps[k ^ 1]
        # h(1), then h⁻¹(1) if h(1) = 2, then h(2) if h⁻¹(1) = 3: the choice t
        # makes square 1's class min(t, 4)
        settles = slot < 2 or slot == 4 and least == 3
        # an h or h⁻¹ choice t closes a cycle of length 1, 2 or 3 when t = s,
        # fwd[t] = s or fwd[fwd[t]] = s; one of a lesser class than square 1's
        # makes another root's h-key the lesser
        prune = k < 2 and s > 1 and least > 1
        for t in range(1, min(used + 1, n) + 1):
            if back[t] or prune and (t == s or least > 2 and (fwd[t] == s or least > 3 and fwd[fwd[t]] == s)):
                continue
            fwd[s], back[t] = t, s
            yield from pairs(slot + 1, max(used, t), min(t, 4) if settles else least)
            fwd[s] = back[t] = 0

    keys = []
    for _ in pairs(0, 1, 0):
        # a losing root cuts the key to an h-prefix and an empty v-key: most
        # pairs are turned down without building their image tuples
        key = _canonical_key(*maps, bfs_labelled=True)
        if key[1] and key == (tuple(maps[0][1:]), tuple(maps[2][1:])):
            keys.append(key)
    keys.sort()
    return [Origami(Permutation(h), Permutation(v)) for h, v in keys]


def enumerate_origamis(
    n: int,
    stratum_filter: Stratum | str | None = None,
    reduced_only: bool = False,
    bound: int = DEFAULT_BOUND,
) -> list[CatalogEntry]:
    """CatalogEntries for all n-square origamis passing the filters, grouped
    into SL₂(ℤ)-orbits; the orbit id is the least member's canonical text."""
    if not 1 <= n <= bound:
        raise ValueError(f"n must lie in 1..{bound}, got {n}")
    if isinstance(stratum_filter, str):
        stratum_filter = Stratum.parse(stratum_filter)
    # A canonical origami's images are its canonical key, so the keys of an
    # orbit's members, and of their images under -I, look the surfaces up.
    surfaces = {(o.h.images, o.v.images): o for o in canonical_origamis(n)}
    entry_of: dict[tuple, CatalogEntry] = {}
    for images, o in surfaces.items():
        if images in entry_of:
            continue
        # stratum and reducedness are SL2(Z)-invariant (Per(g·o) = g·Per(o) and
        # g·Z² = Z²), so one test decides the whole orbit and orbits never
        # straddle the filters
        s = stratum(o)
        if stratum_filter is not None and s != stratum_filter:
            continue
        if reduced_only and not is_reduced(o):
            continue
        report = orbit(o)
        members = {key for key, _ in report.members}
        if report.minus_id_nontrivial:  # the census alone needs the other orientation
            members |= {_canonical_key(hinv, h, vinv, v) for h, hinv, v, vinv in (_tables(*k) for k in members)}
        assert members <= surfaces.keys(), "orbit members missing from the enumeration"
        texts = {k: surfaces[k].to_text() for k in members}
        fields = dict(
            n=n,
            genus=s.genus,
            stratum=str(s),
            reduced=report.input_reduced,
            orbit_id=min(texts.values()),
            index=report.index,
            cusp_widths=report.cusp_widths(),
            curve_genus=report.curve_genus,
        )
        for k, text in texts.items():
            entry_of[k] = CatalogEntry(origami=text, **fields)
    return sorted(entry_of.values(), key=lambda e: e.origami)


class CatalogError(ValueError):
    def __init__(self, message: str, line: int | None = None):
        super().__init__(message if line is None else f"line {line}: {message}")
        self.line = line


def _read_entries(path, repair: bool = False) -> list[tuple[list[dict], list[list]]]:
    """The lines of a catalog file, in file order, as decoded (orbits,
    members) pairs, one per write; a caller builds a CatalogEntry only for
    the members it keeps.

    A line nested too deeply for the decoder, or holding an int too long for
    int(), is a malformed record like any other, and a line of the
    per-surface layout is refused. A last line with no newline is what an
    interrupted append leaves. If it does not parse, readers skip it, and
    with repair it is cut off the file; if it does parse, repair completes it
    with its newline. Either way the next append starts on a fresh line, and
    a write is kept whole or not at all.
    """
    lines = []
    with open(path, "r", encoding="utf-8") as fh:
        for lineno, line in enumerate(fh, start=1):
            try:
                lines.append(_decode_line(line))
            except _OldLayout:
                raise CatalogError("a per-surface record, of the catalog layout before orbit tables, which is not "
                                   "read; write the catalog anew", lineno) from None
            except (ValueError, TypeError, RecursionError) as exc:  # a JSONDecodeError is a ValueError
                if line.isspace():  # a blank line holds no record
                    continue
                if line.endswith("\n"):
                    raise CatalogError(f"malformed catalog record ({exc})", lineno) from None
                if repair:
                    os.truncate(path, os.path.getsize(path) - len(line.encode("utf-8")))
                return lines
    if repair and lines and not line.endswith("\n"):
        with open(path, "a", encoding="utf-8") as fh:
            fh.write("\n")
    return lines


def _wrong_entry(e) -> str | None:
    """What would keep entry e from being read back as itself: what the
    reader's check finds wrong with its orbit and its text as they will be
    read, or a cusp_widths that is not a tuple (json writes a list as it
    writes a tuple, and a query returns a tuple)."""
    what = f"catalog entry {e.origami!r}"
    try:
        orbit, text = json.loads(json.dumps([dict(zip(_ORBIT_TYPES, _orbit_fields(e))), e.origami]))
    except (TypeError, ValueError) as exc:  # a value json does not write, or an int too long for str()
        return f"{what}: {exc}"
    wrong = _wrong_orbit(orbit, what)
    if wrong is None and type(text) is not str:
        wrong = f"{what}: origami is {e.origami!r}, not of type str"
    if wrong is None and not isinstance(e.cusp_widths, tuple):
        wrong = f"{what}: cusp_widths is {e.cusp_widths!r}, not a tuple"
    return wrong


def catalog_write(path, entries) -> tuple[int, int]:
    """Append new entries (keyed by canonical origami text); duplicates are
    skipped with a warning.  Returns (written, skipped).

    The new entries go in one line: a table of their distinct orbit field
    tuples, and the members [text, index into the table] in the order given.
    The line is checked as the reader will read it before it is appended: an
    entry that would not read back as itself is a TypeError naming the entry
    and its field, and nothing is written. The file is locked from the read
    of its keys to the end of the append, so concurrent writers take turns
    and each key is written once."""
    skipped = 0
    with open(path, "a", encoding="utf-8") as fh:
        fcntl.flock(fh, fcntl.LOCK_EX)  # released when fh closes, after its last write is flushed
        existing = {text for _, members in _read_entries(path, repair=True) for text, _ in members}
        orbits: dict[tuple, int] = {}
        members = []
        written = []
        for e in entries:
            try:
                if e.origami in existing:
                    warnings.warn(f"duplicate canonical key skipped: {e.origami}")
                    skipped += 1
                    continue
                members.append([e.origami, orbits.setdefault(_orbit_fields(e), len(orbits))])
            except TypeError as exc:  # an unhashable field, such as a list cusp_widths
                raise TypeError(_wrong_entry(e) or str(exc)) from None
            existing.add(e.origami)
            written.append(e)
        if members:
            table = [dict(zip(_ORBIT_TYPES, fields)) for fields in orbits]  # json writes cusp_widths as a list
            try:
                line = json.dumps({"orbits": table, "members": members}) + "\n"
                _decode_line(line)  # the reader's own check, on the line as it will be read
            except (TypeError, ValueError) as exc:
                raise TypeError(next(filter(None, map(_wrong_entry, written)), str(exc))) from None
            fh.write(line)
    return len(members), skipped


def _query_rows(
    path,
    n: int | None = None,
    stratum_filter: str | None = None,
    orbit_id: str | None = None,
    reduced_only: bool = False,
) -> list[tuple[tuple, str]]:
    """The members that pass every filter given, in file order, as rows
    (orbit fields in CatalogEntry's order after origami, origami text); the
    members of one orbit in one line share their fields tuple."""
    # read as enumerate_origamis reads it: "H( 0 )" is H(0), "H(1,1" a ValueError
    stratum_text = None if stratum_filter is None else str(Stratum.parse(stratum_filter))
    rows = []
    for orbits, members in _read_entries(path):
        kept = [
            (o["n"], o["genus"], o["stratum"], o["reduced"], o["orbit_id"], o["index"], tuple(o["cusp_widths"]),
             o["curve_genus"])
            if (n is None or o["n"] == n)
            and (stratum_text is None or o["stratum"] == stratum_text)
            and (orbit_id is None or o["orbit_id"] == orbit_id)
            and (o["reduced"] or not reduced_only)
            else None
            for o in orbits
        ]
        if any(kept):
            rows += [(fields, text) for text, k in members if (fields := kept[k])]
    return rows


def catalog_query(
    path,
    n: int | None = None,
    stratum_filter: str | None = None,
    orbit_id: str | None = None,
    reduced_only: bool = False,
) -> list[CatalogEntry]:
    rows = _query_rows(path, n, stratum_filter, orbit_id, reduced_only)
    return [CatalogEntry(text, *fields) for fields, text in rows]
