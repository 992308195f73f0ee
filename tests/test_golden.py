"""Byte-identity of the enumeration: SHA-256 of the catalog lines for n = 1..8.

The hashes pin canonical keys, orbit ids, cusp data and record order at once,
so any change to canonical labelling or to orbit grouping fails here. At
n = 8 (slow) the sorted canonical keys of the census are pinned, one
`(h, v)` repr a line, and so are the catalog bytes of `enumerate_origamis(8)`,
which tests only the pairs no orbit has placed yet.
"""

import hashlib

import pytest

from origamis.catalog import canonical_origamis, enumerate_origamis

GOLDEN = {
    1: "0bb7cb1270bf040927c908fcb8668d58a7904042d2f71c0ea544700f573255e7",
    2: "f2846c267aae2112684303711a9cae602902ee59c9cc1912a5ae5e1fd8cae61f",
    3: "ac91263387afb523653a2347aafcd9fc35d06cd442662efc3ddb4f404aeac744",
    4: "c6e6f5365c133b9c8de12a15aa2d200550c818bb62225a333426ebbd1939ab59",
    5: "9c50f3b570fdac6f359a4300a964e3af7aaee773a4e75787de3d83063e0f16f0",
    6: "bbcf394651b4ae9cda6201e0ccde0739ed71a0daf34d32e6c47c149e88fe5bcb",
    7: "15fb3d10a0c46fc440040a9d40736f09ec858363f42e542a37714dafd9e3e056",
    8: "66ea0c5f5c21925e1b9db525f8c544561c625367aa02491d5a68b09e2b20b919",  # slow
}


@pytest.mark.parametrize("n", [pytest.param(n, marks=pytest.mark.slow) if n == 8 else n for n in sorted(GOLDEN)])
def test_enumeration_bytes_are_pinned(n):
    # exactly the bytes `catalog write` appends for a fresh file
    data = "".join(e.to_json() + "\n" for e in enumerate_origamis(n)).encode()
    assert hashlib.sha256(data).hexdigest() == GOLDEN[n]


@pytest.mark.slow
def test_census_keys_at_eight_squares_are_pinned():
    data = "".join(f"{(o.h.images, o.v.images)}\n" for o in canonical_origamis(8)).encode()
    assert hashlib.sha256(data).hexdigest() == "8e13203e17458621c7d7a46118c8b14795c54d2ffbd47f1f0b49d23f7a44d5c2"
