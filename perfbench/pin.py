"""Regenerate perfbench/pinned.json: the fixed surface pools and the values
the checks compare against that have no closed form.

    python3 perfbench/pin.py

The pools are drawn with the harness's own generator from POOL_SEED; the
pinned values are computed by the library at the commit that runs this, so
run it only where the library is trusted (it was run where the benchmark was
added) and commit the result.
"""

from __future__ import annotations

import json
import os
import random
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, os.path.join(os.path.dirname(HERE), "src"))

import oracles as orc  # noqa: E402
import origamis as O  # noqa: E402

POOL_SEED = 2107
ORBIT_POOL = ((6, 38), (7, 8), (8, 1))  # (squares, surfaces)
FLOW_POOL = (9, 3)
BOX = 8


def main() -> None:
    rng = random.Random(POOL_SEED)
    orbit_pool = []
    for n, count in ORBIT_POOL:
        for _ in range(count):
            h, v = orc.random_pair(n, rng)
            rep = O.orbit(O.Origami(O.Permutation(h), O.Permutation(v)))
            orbit_pool.append({"h": h, "v": v, "index": rep.index, "cusp_widths": rep.cusp_widths()})
    flow_pool = []
    n, count = FLOW_POOL
    for _ in range(count):
        h, v = orc.random_pair(n, rng)
        o = O.Origami(O.Permutation(h), O.Permutation(v))
        widths = {}
        for p, q in orc.primitive_box(BOX):
            w = O.direction_is_periodic(o, p, q)
            widths[f"{p},{q}"] = orc.cylinder_widths([(x.coefficient, x.radicand) for x in w.lengths], p, q)
        flow_pool.append({"h": h, "v": v, "widths": widths})
    pinned = {
        "pool_seed": POOL_SEED,
        "orbit_pool": orbit_pool,
        "flow_pool": flow_pool,
        "discrepancy_st3_golden": O.discrepancy(O.st3(), (1 + 5**0.5) / 2, 100_000, 10),
    }
    with open(os.path.join(HERE, "pinned.json"), "w", encoding="utf-8") as fh:
        json.dump(pinned, fh, indent=1)
        fh.write("\n")


if __name__ == "__main__":
    main()
