"""Byte-identity of the enumeration: SHA-256 of the catalog lines for n = 1..8.

The hashes pin canonical keys, orbit ids, cusp data and record order at once,
so any change to canonical labelling or to orbit grouping fails here. At
n = 8 (slow) the sorted canonical keys of the census are pinned, one
`(h, v)` repr a line, and so are the catalog bytes of `enumerate_origamis(8)`,
which tests only the pairs no orbit has placed yet. The stdout of `catalog
query` under four filter sets, on a catalog written for n = 1..6, is pinned
too, so a change of the file's layout must keep what a query prints.
"""

import contextlib
import hashlib
import io

import pytest

from origamis.catalog import canonical_origamis, enumerate_origamis
from origamis.cli import main

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


# SHA-256 of `catalog query` stdout on a catalog of six writes, `catalog write
# --n k` for k = 1..6, under each filter set
QUERY_GOLDEN = {
    (): "56ad0118476cb7d86172521d596404a49765c3ead811df484e71321b095dc7e9",
    ("--n", "6"): "391540bbd5c2036243c650045e6788895db57be5425fa13f9871bcfeaef02f95",
    ("--stratum", "H(2)", "--reduced"): "3b942ea639426c6fc3ab500d0b36c0dd1cb4b970f35574fbae56b5e999fb285d",
    ("--orbit-id", "6; h=(1,2)(3,4,5,6); v=(1,3,6,5,2,4)"):
        "2348f691b00255b67ade29d8197342ea838f626c64d916e023b147e089be9e81",
}


def _stdout(argv) -> str:
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        assert main(argv) == 0
    return out.getvalue()


@pytest.fixture(scope="module")
def six_writes(tmp_path_factory):
    path = str(tmp_path_factory.mktemp("golden") / "catalog.jsonl")
    for k in range(1, 7):
        _stdout(["catalog", "write", "--path", path, "--n", str(k)])
    return path


@pytest.mark.parametrize("filters", sorted(QUERY_GOLDEN), ids=lambda f: " ".join(f) or "none")
def test_query_stdout_is_pinned(six_writes, filters):
    data = _stdout(["catalog", "query", "--path", six_writes, *filters]).encode()
    assert hashlib.sha256(data).hexdigest() == QUERY_GOLDEN[filters]
