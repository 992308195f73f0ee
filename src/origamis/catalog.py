"""Enumeration of origamis up to a square count, and the JSONL catalog.

Enumeration walks (h, v) with h fixed to one representative per cycle type
(every pair is simultaneously conjugate to such a pair), keeps the transitive
ones, and deduplicates by canonical form; the result is grouped into
SL₂(ℤ)-orbits, and the genus, stratum and reducedness of each orbit are
computed once, on its first surface.  Output order is lexicographic on
canonical forms so repeated runs produce byte-identical catalogs.
"""

from __future__ import annotations

import json
import os
import warnings
from collections import namedtuple
from dataclasses import dataclass, fields
from itertools import permutations

from .action import orbit
from .origami import Origami, Stratum, is_reduced, stratum
from .perm import Permutation, _reaches_all

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


def _decode_record(line: str) -> _Record:
    """One catalog line: a JSON object with exactly CatalogEntry's fields and
    an iterable cusp_widths, or a JSONDecodeError or TypeError."""
    rec = _Record(**json.loads(line))  # TypeError for anything but such an object
    iter(rec.cusp_widths)
    return rec


def _partitions(n: int):
    """Partitions of n, parts decreasing."""
    if n == 0:
        yield ()
        return
    for first in range(n, 0, -1):
        for rest in _partitions(n - first):
            if not rest or rest[0] <= first:
                yield (first,) + rest


def _cycle_type_rep(par) -> tuple[int, ...]:
    """One-line images of the permutation (1..λ₁)(λ₁+1..λ₁+λ₂)…"""
    images = []
    start = 1
    for part in par:
        images.extend(list(range(start + 1, start + part)) + [start])
        start += part
    return tuple(images)


def _transitive_pair(h_img, v_img) -> bool:
    # a named step only because the benchmark's census rows count its calls
    # and results under this name; it goes when that benchmark changes
    return _reaches_all((h_img, v_img))


def canonical_origamis(n: int) -> list[Origami]:
    """All connected n-square origamis up to relabeling, lexicographically."""
    from .origami import _canonical_key

    keys = set()
    for par in _partitions(n):
        h_img = _cycle_type_rep(par)
        for v_perm in permutations(range(1, n + 1)):
            if not _transitive_pair(h_img, v_perm):
                continue
            keys.add(_canonical_key(h_img, v_perm))
    return [Origami(Permutation(k[0]), Permutation(k[1])) for k in sorted(keys)]


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
    # A canonical origami's images are its canonical key, so the keys in an
    # orbit report (projective and -I alike) look the enumerated surfaces up.
    surfaces = {(o.h.images, o.v.images): o for o in canonical_origamis(n)}
    fields_of: dict[tuple, dict] = {}
    for images, o in surfaces.items():
        if images in fields_of:
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
        members = {k for key, minus_key, _ in report.members for k in (key, minus_key)}
        assert members <= surfaces.keys(), "orbit members missing from the enumeration"
        fields = dict(
            genus=s.genus,
            stratum=str(s),
            reduced=report.input_reduced,
            orbit_id=min(surfaces[k].to_text() for k in members),
            index=report.index,
            cusp_widths=report.cusp_widths(),
            curve_genus=report.curve_genus,
        )
        for k in members:
            fields_of[k] = fields
    entries = [CatalogEntry(origami=surfaces[k].to_text(), n=n, **f) for k, f in fields_of.items()]
    return sorted(entries, key=lambda e: e.origami)


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
) -> list[CatalogEntry]:
    out = []
    for rec in _read_entries(path):
        if n is not None and rec.n != n:
            continue
        if stratum_filter is not None and rec.stratum != stratum_filter:
            continue
        if orbit_id is not None and rec.orbit_id != orbit_id:
            continue
        out.append(CatalogEntry(*rec._replace(cusp_widths=tuple(rec.cusp_widths))))
    return out
