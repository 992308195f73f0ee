"""Enumeration of origamis up to a square count, and the JSONL catalog.

Enumeration builds every transitive pair (h, v) labelled by a breadth-first
search from square 1 once, and keeps those whose labelling is their canonical
key (the generation half of orderly generation: Read, 1978; McKay, 1998); the
result is grouped into SL₂(ℤ)-orbits, and the genus, stratum and reducedness
of each orbit are computed once, on its first surface.  Output order is
lexicographic on canonical forms so repeated runs produce byte-identical
catalogs.
"""

from __future__ import annotations

import json
import os
import warnings
from collections import namedtuple
from dataclasses import dataclass, fields

from .action import _inverse, orbit
from .origami import Origami, Stratum, _canonical_key, is_reduced, stratum
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


# a decoded catalog line: CatalogEntry's fields, in its order, as a plain
# tuple, so a read can hold every record and build entries only for some
_Record = namedtuple("_Record", [f.name for f in fields(CatalogEntry)])


# the JSON type of each field; type() tells an int from a bool
_FIELD_TYPES = _Record(origami=str, n=int, genus=int, stratum=str, reduced=bool, orbit_id=str, index=int,
                       cusp_widths=list, curve_genus=int)
_INT = frozenset({int})


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


def canonical_origamis(n: int) -> list[Origami]:
    """All connected n-square origamis up to relabeling, lexicographically.

    Every pair is built once, labelled by _canonical_key's BFS from square 1:
    squares s = 1, 2, ... in queue order fill their slots h(s), h⁻¹(s), v(s),
    v⁻¹(s) in move order, each with a labelled square whose inverse slot is
    free or with the next new label. A pair is kept when that labelling is
    its canonical key, i.e. when no other root gives a lesser one; the test
    stops at the first root that does.
    """
    maps = [[0] * (n + 1) for _ in range(4)]  # h, h⁻¹, v, v⁻¹: maps[k ^ 1] inverts maps[k]
    last = 4 * n  # slot 4(s-1) + k holds maps[k][s]

    def pairs(slot: int, used: int):
        while slot < last and maps[slot & 3][(slot >> 2) + 1]:
            slot += 1  # filled by an earlier choice, through its inverse slot
        if slot == last:
            yield tuple(maps[0][1:]), tuple(maps[2][1:])
            return
        s, k = (slot >> 2) + 1, slot & 3
        if s > used:  # the queue ran dry before n squares: not transitive
            return
        fwd, back = maps[k], maps[k ^ 1]
        for t in range(1, min(used + 1, n) + 1):
            if not back[t]:
                fwd[s], back[t] = t, s
                yield from pairs(slot + 1, max(used, t))
                fwd[s] = back[t] = 0

    keys = sorted(key for key in pairs(0, 1) if _canonical_key(*key, bfs_labelled=True) == key)
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
            members |= {_canonical_key(_inverse(h), _inverse(v)) for h, v in members}
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


def catalog_write(path, entries) -> tuple[int, int]:
    """Append new entries (keyed by canonical origami text); duplicates are
    skipped with a warning.  Returns (written, skipped)."""
    try:
        existing = {rec.origami for rec in _read_entries(path, repair=True)}
    except FileNotFoundError:
        existing = set()
    written = skipped = 0
    with open(path, "a", encoding="utf-8") as fh:
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
        if n is not None and rec.n != n:
            continue
        if stratum_text is not None and rec.stratum != stratum_text:
            continue
        if orbit_id is not None and rec.orbit_id != orbit_id:
            continue
        if reduced_only and not rec.reduced:
            continue
        if not (type(rec.genus) is int and type(rec.index) is int and type(rec.curve_genus) is int
                and _INT.issuperset(map(type, rec.cusp_widths))):
            raise CatalogError(f"malformed catalog record ({_wrong_type(rec)})", _line_of_record(path, i))
        out.append(CatalogEntry(*rec._replace(cusp_widths=tuple(rec.cusp_widths))))
    return out


def _line_of_record(path, index: int) -> int:
    """The number of the line that holds the index-th record of a catalog file
    (blank lines hold none); a failing query finds its line here, so that
    reads carry no line numbers."""
    with open(path, encoding="utf-8") as fh:
        return [lineno for lineno, line in enumerate(fh, start=1) if line.strip()][index]
