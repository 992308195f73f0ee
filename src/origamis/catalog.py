"""Enumeration of origamis up to a square count, and the JSONL catalog.

Enumeration builds, once each, the transitive pairs (h, v) labelled by a
breadth-first search from square 1 whose square 1 lies in an h-cycle of least
class; canonical_origamis keeps those whose labelling is their canonical key
(the generation half of orderly generation: Read, 1978; McKay, 1998). The
class of a square is the length of its h-cycle, or 4 for four and more; the
h-key from a root of class 1, 2, 3 or 4 starts (1, …), (2, 1, …), (2, 3, …)
or (2, e, …) with e ≥ 4, so no other pair can be its own key.
enumerate_origamis runs the same generation orbit by orbit: the first
canonical pair it meets in an SL₂(ℤ)-orbit seeds the orbit, orbit() places
the keys of all its members, and a later pair that is a placed key skips the
canonicity test. The number of classes is known in closed form (Liskovets,
1971), so the generation stops as soon as the placed orbits hold them all.
The genus, stratum and reducedness of each orbit are computed once, on its
seed. Output order is lexicographic on canonical forms so repeated runs
produce byte-identical catalogs.

The catalog is JSONL, one line per write: the table of the orbits the write
touches, each orbit's fields once, and the new surfaces in the order given,
as two columns: their origami texts, and the index of each one's orbit in
the table. A query filters each table once and reads the members of the
orbits it keeps.
"""

from __future__ import annotations

import fcntl
import json
import os
import warnings
from json.encoder import encode_basestring_ascii as _encode_str
from math import factorial
from operator import attrgetter, eq, itemgetter

from ._record import record
from .action import orbit
from .origami import Origami, Stratum, _canonical_key, _pair_text, _tables, stratum
from .perm import Permutation, _cycle_text

DEFAULT_BOUND = 8


@record
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
_LINE_TYPES = {"orbits": list, "texts": list, "orbit_of": list}
# a field that only a line of an older layout has, and that layout
_OLD_LAYOUTS = {"origami": "a per-surface record, of the catalog layout before orbit tables",
                "members": "a [text, orbit] pair record, of the catalog layout before member columns"}
_orbit_fields = attrgetter(*_ORBIT_TYPES)  # a CatalogEntry's orbit fields, in the layout's order
_orbit_values = itemgetter(*_ORBIT_TYPES)  # a decoded orbit's fields, in the layout's order
_INT, _STR = frozenset({int}), frozenset({str})
_JSON_SPACE = " \t\n\r"  # the whitespace json.loads allows around a value
_scan = json.JSONDecoder().raw_decode


class _OldLayout(Exception):
    """A line of an older layout, which is not read; its argument names the layout."""


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


def _wrong_line(rec) -> str | None:
    """What is wrong with a decoded catalog line, if it is not an orbit table,
    texts of type str and as many orbit_of indices into the table, every
    field of every orbit of its type. The columns, most of a line, are
    checked in C-level passes; a loop looks for the entry to name only when
    they fail."""
    wrong = _wrong_fields(rec, _LINE_TYPES, "the record")
    if wrong:
        return wrong
    orbits, texts, orbit_of = rec["orbits"], rec["texts"], rec["orbit_of"]
    for i, orbit in enumerate(orbits):
        wrong = _wrong_orbit(orbit, f"orbit {i}")
        if wrong:
            return wrong
    if len(texts) != len(orbit_of):
        return f"the record has {len(texts)} texts and {len(orbit_of)} orbit_of indices"
    if (_STR.issuperset(map(type, texts)) and _INT.issuperset(map(type, orbit_of))
            and set(orbit_of).issubset(range(len(orbits)))):
        return None
    for i, (text, k) in enumerate(zip(texts, orbit_of)):
        if type(text) is not str:
            return f"text {i} is {text!r}, not of type str"
        if type(k) is not int:
            return f"orbit_of {i} is {k!r}, not of type int"
        if not 0 <= k < len(orbits):
            return f"orbit_of {i} names orbit {k} of {len(orbits)}"
    raise AssertionError("the column check refused columns that are each well typed and in range")


def _decode_line(line: str) -> tuple[list[dict], list[str], list[int]]:
    """One catalog line, the record of one write: the orbit table, the texts
    and their orbit_of indices. A line that _wrong_line finds wrong is a
    TypeError, and one of an older layout an _OldLayout; a line that does not
    decode is a ValueError (a JSONDecodeError, or an int too long for int())
    or (nested too deeply) RecursionError. One C-level scan decodes the line
    and accepts exactly what json.loads does."""
    text = line.strip(_JSON_SPACE)
    rec, end = _scan(text)
    if end != len(text):
        raise json.JSONDecodeError("Extra data", text, end)
    if type(rec) is dict:
        for field, layout in _OLD_LAYOUTS.items():
            if field in rec:
                raise _OldLayout(layout)
    wrong = _wrong_line(rec)
    if wrong:
        raise TypeError(wrong)
    return rec["orbits"], rec["texts"], rec["orbit_of"]


def _orderly_generation(n: int, unbuilt: set, seed) -> None:
    """Build the n-square transitive pairs labelled by _canonical_key's BFS
    from square 1 whose square 1 lies in an h-cycle of least class, once
    each; take each pair that is in unbuilt out of it, and call seed with
    each other one that is its canonical key.

    Squares s = 1, 2, ... in queue order fill their slots h(s), h⁻¹(s),
    v(s), v⁻¹(s) in move order, each with a labelled square whose inverse
    slot is free or with the next new label.

    That BFS from a root r labels h(r), h⁻¹(r), v(r), v⁻¹(r) first, so the
    h-key from r starts (1, …), (2, 1, …), (2, 3, …) or (2, e, …) with e ≥ 4
    if r's h-cycle has length 1, 2, 3 or more: only the roots of the least
    of these four classes can give the canonical key. h(1), h⁻¹(1) and h(2)
    settle square 1's class, and an h or h⁻¹ choice that would close a cycle
    of a lesser class is skipped, in O(1). A pair that is built and not in
    unbuilt is tested: it is its canonical key when no other root gives a
    lesser one, and the test stops at the first root that does. It reads the
    live maps, which are the pair's move tables, and a pair's image tuples
    are built only when unbuilt is not empty or its key is not cut short.
    seed may add to unbuilt while the generation runs, and may end it by
    raising.
    """
    maps = [[0] * (n + 1) for _ in range(4)]  # h, h⁻¹, v, v⁻¹: maps[k ^ 1] inverts maps[k]
    last = 4 * n  # slot 4(s-1) + k holds maps[k][s]

    def pairs(slot: int, used: int, least: int) -> None:
        # least: square 1's class, a lower bound on it until h(2) is chosen, 0 before h(1)
        while slot < last and maps[slot & 3][(slot >> 2) + 1]:
            slot += 1  # filled by an earlier choice, through its inverse slot
        if slot == last:  # maps holds a whole pair
            if unbuilt:
                images = (tuple(maps[0][1:]), tuple(maps[2][1:]))
                if images in unbuilt:  # a canonical key whose orbit is placed: no test
                    unbuilt.remove(images)
                    return
            # a losing root cuts the key to an h-prefix and an empty v-key: most
            # pairs are turned down without building their image tuples
            key = _canonical_key(*maps, bfs_labelled=True)
            if key[1] and key == (tuple(maps[0][1:]), tuple(maps[2][1:])):
                seed(key)
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
            pairs(slot + 1, max(used, t), min(t, 4) if settles else least)
            fwd[s] = back[t] = 0

    try:
        pairs(0, 1, 0)
    finally:
        # pairs refers to itself through its closure: breaking that cycle frees
        # the closure and its maps now, not at the next full collection, also
        # when seed raises
        del pairs


def _jordan(k: int, m: int) -> int:
    """Jordan's totient J_k(m), the number of k-tuples mod m whose entries
    and m have gcd 1, by Σ_{d|m} J_k(d) = m^k."""
    return m**k - sum(_jordan(k, d) for d in range(1, m) if m % d == 0)


def _class_count(n: int) -> int:
    """The number of n-square origamis up to relabeling, the conjugacy classes
    of index-n subgroups of F₂ (OEIS A057005), in exact integers: c_n =
    (1/n)·Σ_{l|n} a_l·J_{l+1}(n/l) (Liskovets, 1971), where a_l = l·l! −
    Σ_{k<l} (l−k)!·a_k counts the index-l subgroups of F₂ (M. Hall, 1949)."""
    a = [0]
    for l in range(1, n + 1):
        a.append(l * factorial(l) - sum(factorial(l - k) * a[k] for k in range(1, l)))
    count, rest = divmod(sum(a[l] * _jordan(l + 1, n // l) for l in range(1, n + 1) if n % l == 0), n)
    assert not rest, "Liskovets' sum is a multiple of n"
    return count


def _build_order(key: tuple) -> tuple:
    """The place of the pair key = (h, v) of image tuples in the order
    _orderly_generation builds pairs in, in O(n): its moves (h(s), h⁻¹(s),
    v(s), v⁻¹(s)) for s = 1, ..., n, which the generation chooses in this
    order, each ascending (a move filled through its inverse follows from
    the moves before it). A pair the generation does not build gets (),
    which comes before every pair: one whose BFS from square 1 over h, h⁻¹,
    v, v⁻¹, in that order, does not meet the squares as 1, 2, ..., n, or
    whose square 1 does not lie in an h-cycle of least class."""
    h, hinv, v, vinv = _tables(*key)
    steps = tuple(zip(h, hinv, v, vinv))  # steps[s]: the moves of square s
    met = 1  # the squares 1..met are met
    for s in range(1, len(steps)):
        if s > met:  # the search ran dry: not transitive
            return ()
        for t in steps[s]:
            if t > met:
                if t != met + 1:
                    return ()
                met = t
    hk, squares = key[0], range(1, len(steps))
    for _ in range(3):  # hk holds the images of h, h², h³ in turn
        if hk[0] == 1:  # square 1's class is this power
            break
        if any(map(eq, hk, squares)):  # a square of this class, below square 1's
            return ()
        hk = tuple(map(h.__getitem__, hk))
    return steps[1:]


class _AllPlaced(Exception):
    """The census's orbits hold every class: the rest of the generation would place nothing."""


def canonical_origamis(n: int) -> list[Origami]:
    """All connected n-square origamis up to relabeling, lexicographically:
    the pairs of the orderly generation that are their own canonical key."""
    if n < 1:
        raise ValueError(f"n must be at least 1, got {n}")
    keys = []
    _orderly_generation(n, set(), keys.append)
    keys.sort()
    return [Origami(Permutation(h), Permutation(v)) for h, v in keys]


def enumerate_origamis(
    n: int,
    stratum_filter: Stratum | str | None = None,
    reduced_only: bool = False,
    bound: int = DEFAULT_BOUND,
) -> list[CatalogEntry]:
    """CatalogEntries for all n-square origamis passing the filters, grouped
    into SL₂(ℤ)-orbits; the orbit id is the least member's canonical text.

    The orderly generation runs once, and the first canonical pair it builds
    in an orbit is the orbit's seed: orbit() on it places the key of every
    member, and of its image under -I when -I moves the members, and a later
    pair that is a placed key skips the canonicity test. The generation stops
    at the seed that brings the surfaces placed to _class_count(n), which at
    n = 7 is the 2 367th of the 11 415 pairs it builds. A key placed twice
    would be counted twice, so no orbit may place a key still unbuilt. Every
    pair is built once, in _build_order, so the placed keys are all built or
    still to come exactly when each one left at the stop comes after the
    stop in that order; and the count must be the class count, which a
    generation that runs to its end has not reached.
    Stratum and reducedness are SL₂(ℤ)-invariant (Per(g·o) = g·Per(o) and
    g·Z² = Z²), so they are computed once, on the seed, and the filters keep
    or drop whole orbits. Only the seed is built as an Origami; the texts
    come from the keys, each image tuple's cycles formatted once a call
    (n ≤ 7 meets 1 001 tuples in 9 842 places)."""
    if not 1 <= n <= bound:
        raise ValueError(f"n must lie in 1..{bound}, got {n}")
    if isinstance(stratum_filter, str):
        stratum_filter = Stratum.parse(stratum_filter)
    unbuilt: set[tuple] = set()  # the keys of the placed orbits that the generation has yet to build
    entries = []
    classes = _class_count(n)
    placed = 0  # the surfaces in the placed orbits
    cycle_texts: dict[tuple, str] = {}  # _cycle_text of each image tuple met

    def place(key: tuple) -> None:
        nonlocal placed
        o = Origami(Permutation(key[0]), Permutation(key[1]))
        report = orbit(o)
        members = {k for k, _ in report.members}
        if report.minus_id_nontrivial:  # the census alone needs the other orientation
            members |= {_canonical_key(hinv, h, vinv, v) for h, hinv, v, vinv in (_tables(*k) for k in members)}
        # a report must hold its seed; a key already waiting would be counted
        # twice, and one already built comes back into unbuilt and fails the
        # stop's order check
        assert key in members and unbuilt.isdisjoint(members), "orbit members missing from the enumeration"
        unbuilt.update(members)
        unbuilt.remove(key)
        placed += len(members)
        s = stratum(o)
        if (stratum_filter is None or s == stratum_filter) and (report.input_reduced or not reduced_only):
            for images in {images for k in members for images in k}.difference(cycle_texts):
                cycle_texts[images] = _cycle_text(images)
            texts = [_pair_text(n, cycle_texts[h], cycle_texts[v]) for h, v in members]
            fields = (n, s.genus, str(s), report.input_reduced, min(texts), report.index, report.cusp_widths(),
                      report.curve_genus)
            entries.extend(CatalogEntry(text, *fields) for text in texts)
        if placed >= classes:
            raise _AllPlaced(key)

    try:
        _orderly_generation(n, unbuilt, place)
    except _AllPlaced as stop:  # the keys left must come after the stop in the generation, which is not run
        after_stop = _build_order(stop.args[0]).__lt__
        assert all(map(after_stop, map(_build_order, unbuilt))), "orbit members missing from the enumeration"
    assert placed == classes, f"the orbits hold {placed} surfaces, not the {classes} classes"
    return sorted(entries, key=attrgetter("origami"))


class CatalogError(ValueError):
    def __init__(self, message: str, line: int | None = None):
        super().__init__(message if line is None else f"line {line}: {message}")
        self.line = line


def _read_entries(path, repair: bool = False) -> list[tuple[list[dict], list[str], list[int]]]:
    """The lines of a catalog file, in file order, as decoded (orbits, texts,
    orbit_of) triples, one per write; a caller builds a CatalogEntry only for
    the members it keeps.

    A line nested too deeply for the decoder, or holding an int too long for
    int(), is a malformed record like any other, and a line of an older
    layout (per surface, or with [text, orbit] pairs) is refused. A last
    line with no newline is what an interrupted append leaves. If it does
    not parse, readers skip it, and with repair it is cut off the file; if
    it does parse, repair completes it with its newline. Either way the next append starts on a fresh line, and
    a write is kept whole or not at all.
    """
    lines = []
    with open(path, "r", encoding="utf-8") as fh:
        for lineno, line in enumerate(fh, start=1):
            try:
                lines.append(_decode_line(line))
            except _OldLayout as old:
                raise CatalogError(f"{old}, which is not read; write the catalog anew", lineno) from None
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


def _columns(entries) -> tuple[list[tuple], list[str], list[int]]:
    """The columns of a catalog line for entries: their distinct orbit field
    tuples (as _orbit_fields gives them) in order of first appearance, their
    texts in the order given, and the index of each one's orbit in the table."""
    orbits: dict[tuple, int] = {}
    orbit_of = [orbits.setdefault(_orbit_fields(e), len(orbits)) for e in entries]
    return list(orbits), [e.origami for e in entries], orbit_of


def catalog_write(path, entries) -> tuple[int, int]:
    """Append new entries (keyed by canonical origami text); duplicates are
    skipped, with one warning that counts them and names the first.
    Returns (written, skipped).

    The new entries go in one line, the _columns of the new entries.
    The line is checked as the reader will read it before it is appended: an
    entry that would not read back as itself is a TypeError naming the entry
    and its field, and nothing is written. The file is locked from the read
    of its keys to the end of the append, so concurrent writers take turns
    and each key is written once."""
    with open(path, "a", encoding="utf-8") as fh:
        fcntl.flock(fh, fcntl.LOCK_EX)  # released when fh closes, after its last write is flushed
        existing = set().union(*[line_texts for _, line_texts, _ in _read_entries(path, repair=True)])
        new, skipped = [], []
        for e in entries:
            try:
                if e.origami in existing:
                    skipped.append(e.origami)
                    continue
            except TypeError as exc:  # an unhashable origami
                raise TypeError(_wrong_entry(e) or str(exc)) from None
            existing.add(e.origami)
            new.append(e)
        if new:
            try:  # an unhashable field, such as a list cusp_widths, or a line the reader refuses
                orbits, texts, orbit_of = _columns(new)
                table = [dict(zip(_ORBIT_TYPES, fields)) for fields in orbits]  # json writes cusp_widths as a list
                line = json.dumps({"orbits": table, "texts": texts, "orbit_of": orbit_of}) + "\n"
                _decode_line(line)  # the reader's own check, on the line as it will be read
            except (TypeError, ValueError) as exc:
                raise TypeError(next(filter(None, map(_wrong_entry, new)), str(exc))) from None
            fh.write(line)
    if skipped:
        warnings.warn(f"duplicate canonical keys skipped: {len(skipped)}, the first {skipped[0]}")
    return len(new), len(skipped)


def _query_rows(
    path,
    n: int | None = None,
    stratum_filter: str | None = None,
    orbit_id: str | None = None,
    reduced_only: bool = False,
) -> list[tuple[list[tuple | None], list[str], list[int]]]:
    """The lines that keep an orbit, in file order, as (orbits, texts,
    orbit_of): each orbit that passes every filter given is the tuple of its
    fields as _orbit_fields gives them (the list one as a tuple), and each
    other one is None; the columns are as read."""
    # read as enumerate_origamis reads it: "H( 0 )" is H(0), "H(1,1" a ValueError
    stratum_text = None if stratum_filter is None else str(Stratum.parse(stratum_filter))
    lines = []
    for orbits, texts, orbit_of in _read_entries(path):
        kept = [
            tuple([tuple(x) if type(x) is list else x for x in _orbit_values(o)])
            if (n is None or o["n"] == n)
            and (stratum_text is None or o["stratum"] == stratum_text)
            and (orbit_id is None or o["orbit_id"] == orbit_id)
            and (o["reduced"] or not reduced_only)
            else None
            for o in orbits
        ]
        if any(kept):
            lines.append((kept, texts, orbit_of))
    return lines


def _head_tail(fields: tuple) -> tuple[str, str]:
    """The JSON text of the entries of the orbit with these fields (in the
    layout's order) before and after the origami's text: the object with an
    empty origami, split at that field. The split is at the field, not at its
    empty value, since a stratum or an orbit_id may be empty too; no encoded
    string holds an unescaped quote, so only the field matches."""
    head, tail = json.dumps({**dict(zip(_ORBIT_TYPES, fields)), "origami": ""}, sort_keys=True).split('"origami": ""')
    return head + '"origami": ', tail


def _entries_json(lines) -> str:
    """json.dumps([vars(e) for e in entries], sort_keys=True) for the members
    of the kept orbits of lines, each (orbits, texts, orbit_of) as _query_rows
    gives them, with each kept orbit's _head_tail encoded once a line."""
    out = []
    for orbits, texts, orbit_of in lines:
        parts = [None if fields is None else _head_tail(fields) for fields in orbits]
        out += [parts[k][0] + _encode_str(text) + parts[k][1] for text, k in zip(texts, orbit_of) if parts[k]]
    return "[" + ", ".join(out) + "]"


def catalog_query(
    path,
    n: int | None = None,
    stratum_filter: str | None = None,
    orbit_id: str | None = None,
    reduced_only: bool = False,
) -> list[CatalogEntry]:
    entries = []
    for orbits, texts, orbit_of in _query_rows(path, n, stratum_filter, orbit_id, reduced_only):
        entries += [CatalogEntry(text, *orbits[k]) for text, k in zip(texts, orbit_of) if orbits[k]]
    return entries
