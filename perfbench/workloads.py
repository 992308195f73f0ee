"""The three benchmark workloads: seeded inputs, the timed job list, checks.

Each workload builds every input from the seed in ``__init__`` (set-up), then
``run`` executes its fixed job list.  Only calls into the public API of
`origamis` are timed; input generation, output parsing and checks are not.
A check that fails, or a call that raises, is counted and the run goes on.

Why each workload exists, and which layer it stresses, is recorded in
BENCHMARK.json; the op counts below are chosen so that p50 and p90 of the op
latency fall inside groups of ops whose cost does not depend on the seed.
"""

from __future__ import annotations

import contextlib
import io
import json
import math
import os
import random
import warnings
from fractions import Fraction
from time import perf_counter

import oracles as orc


class Run:
    """Timings, op latencies and check outcomes of one pass of a job list."""

    def __init__(self, tracer=None, probe=None):
        self.tracer = tracer
        self.probe = probe
        self.calls: list[tuple] = []  # (name, start, end, work seconds, is op)
        self.attempted = 0
        self.failed = 0
        self.failures: list[str] = []
        self.extra: dict = {}

    def call(self, name, fn, *args, op=True, **kwargs):
        """Time one public call; ``op`` calls are the latency samples."""
        if self.tracer is not None:
            self.tracer.begin_op(name)
        spent = self.probe.spent if self.probe else 0.0
        t0 = perf_counter()
        try:
            return fn(*args, **kwargs)
        finally:
            t1 = perf_counter()
            if self.tracer is not None:
                self.tracer.end_op()
            work = t1 - t0 - ((self.probe.spent - spent) if self.probe else 0.0)
            self.calls.append((name, t0, t1, work, op))

    def checked(self, what, name, fn, *args, check, op=True, **kwargs):
        """Call, then check the result; failures are counted, not raised."""
        self.attempted += 1
        try:
            result = self.call(name, fn, *args, op=op, **kwargs)
            problem = check(result)
        except Exception as exc:  # a raising op is a failed op; keep going
            problem = f"raised {type(exc).__name__}: {exc}"
        if problem:
            self.failed += 1
            if len(self.failures) < 10:
                self.failures.append(f"{what}: {problem}")

    def summary(self) -> dict:
        """Call times in reference seconds (raw when there is no probe)."""
        wall = raw = 0.0
        op_ms = []
        by_name: dict[str, float] = {}
        for name, t0, t1, work, op in self.calls:
            ref = self.probe.reference(t0, t1, work) if self.probe else work
            wall += ref
            raw += work
            by_name[name] = by_name.get(name, 0.0) + ref
            if op:
                op_ms.append(ref * 1e3)
        return {"wall_s": wall, "raw_wall_s": raw, "op_ms": op_ms, "by_name": by_name}


def _origami(O, h, v):
    return O.Origami(O.Permutation(tuple(h)), O.Permutation(tuple(v)))


class Orbit:
    """About 100 ``orbit()`` calls on a fixed set of orbits.

    Seeded H(2) L-shapes with 9 <= n <= 14 are checked against the closed
    form of their orbit size.  Surfaces drawn once with n in {6, 7, 8} (the
    pinned pool) are entered at a seeded SL2(Z)-image and relabelling; a
    second seeded image of each is run as well, and both must give the pinned
    index and cusp widths.  The seed moves the inputs around inside fixed
    orbits, so the work per pass does not depend on it.
    """

    # (n, arm parity): for odd n the parity picks orbit A (even) or B (odd)
    H2_CASES = ((9, 1), (10, None), (11, 0), (12, None), (13, 1), (14, None))

    def __init__(self, O, seed, pinned, tmp):
        self.O = O
        rng = random.Random(seed)
        items = []
        for n, parity in self.H2_CASES:
            arms = [a for a in range(2, n) if parity is None or a % 2 == parity]
            arm = rng.choice(arms)
            h, v = orc.relabel(*orc.l_shape(arm, n), orc.random_relabelling(n, rng))
            want = orc.h2_orbit_index(n, arm)
            items.append((f"H(2) n={n} arm={arm}", _origami(O, h, v), want, None))
        for base in pinned["orbit_pool"]:
            n = len(base["h"])
            for _ in range(2):
                h, v = orc.act_word(orc.random_word(rng, rng.randint(4, 12)), base["h"], base["v"])
                h, v = orc.relabel(h, v, orc.random_relabelling(n, rng))
                widths = tuple(base["cusp_widths"])
                items.append((f"pool n={n} {base['h']}", _origami(O, h, v), base["index"], widths))
        rng.shuffle(items)
        self.items = items
        self.warm = _origami(O, (2, 1, 3), (3, 2, 1))

    def warm_up(self, run):
        run.call("orbit", self.O.orbit, self.warm)

    def run(self, run):
        for what, o, want_index, want_widths in self.items:

            def check(rep, want_index=want_index, want_widths=want_widths):
                widths = rep.cusp_widths()
                if sum(widths) != rep.index:
                    return f"cusp widths {widths} do not sum to index {rep.index}"
                if rep.index != want_index:
                    return f"index {rep.index}, expected {want_index}"
                if want_widths is not None and tuple(widths) != want_widths:
                    return f"cusp widths {widths}, expected {want_widths}"
                return None

            run.checked(what, "orbit", self.O.orbit, o, check=check)


def _entry_dict(e) -> dict:
    return {
        "origami": e.origami,
        "n": e.n,
        "genus": e.genus,
        "stratum": e.stratum,
        "reduced": e.reduced,
        "orbit_id": e.orbit_id,
        "index": e.index,
        "cusp_widths": list(e.cusp_widths),
        "curve_genus": e.curve_genus,
    }


class Census:
    """``enumerate_origamis(n)`` for n = 1..7, a catalog write after each, a
    repeated write of n = 7, and 100 seeded ``catalog query`` requests issued
    through ``cli.main`` between the writes.  An op is one query."""

    # queries issued after the write of n squares
    QUERIES_AFTER = {1: 4, 2: 4, 3: 4, 4: 4, 5: 4, 6: 50, 7: 30}
    STRATA = ("H(0)", "H(2)", "H(1,1)", "H(4)", "H(3,1)", "H(2,2)", "H(2,1,1)", "H(1,1,1,1)", "H(6)")

    def __init__(self, O, seed, pinned, tmp):
        import origamis.cli

        self.O = O
        self.cli = origamis.cli
        rng = random.Random(seed)
        self.queries = {}
        for n, count in self.QUERIES_AFTER.items():
            specs = []
            for j in range(count):
                kind = j % 4
                specs.append(
                    {
                        "n": rng.randint(1, n) if kind in (0, 1) else None,
                        "stratum": rng.choice(self.STRATA) if kind in (1, 2) else None,
                        "orbit_pick": rng.randrange(1 << 30) if kind == 3 else None,
                    }
                )
            self.queries[n] = specs
        # the largest page of the catalog, so that peak memory does not
        # depend on which other pages the seed asks for
        self.queries[7][0] = {"n": 7, "stratum": None, "orbit_pick": None}
        self.path = os.path.join(tmp, f"catalog-{os.getpid()}.jsonl")
        self.warm_path = os.path.join(tmp, f"warm-{os.getpid()}.jsonl")

    def _query(self, run, spec, written):
        argv = ["catalog", "query", "--path", self.path]
        orbit_id = None
        if spec["n"] is not None:
            argv += ["--n", str(spec["n"])]
        if spec["stratum"] is not None:
            argv += ["--stratum", spec["stratum"]]
        if spec["orbit_pick"] is not None:
            orbit_id = written[spec["orbit_pick"] % len(written)]["orbit_id"]
            argv += ["--orbit-id", orbit_id]
        want = [
            d
            for d in written
            if (spec["n"] is None or d["n"] == spec["n"])
            and (spec["stratum"] is None or d["stratum"] == spec["stratum"])
            and (orbit_id is None or d["orbit_id"] == orbit_id)
        ]
        out = io.StringIO()

        def query():
            with contextlib.redirect_stdout(out):
                return self.cli.main(argv)

        def check(code):
            if code != 0:
                return f"exit code {code}"
            got = json.loads(out.getvalue())
            if got != want:
                return f"{len(got)} records, expected {len(want)} (or different ones)"
            return None

        run.checked(" ".join(argv[4:]) or "all", "cli.main", query, check=check)

    def warm_up(self, run):
        entries = self.O.enumerate_origamis(3)
        self.O.catalog_write(self.warm_path, entries)
        with contextlib.redirect_stdout(io.StringIO()):
            self.cli.main(["catalog", "query", "--path", self.warm_path, "--n", "3"])
        os.remove(self.warm_path)

    def run(self, run):
        written: list[dict] = []
        try:
            for n in range(1, 8):
                found = []

                def enum_check(entries, n=n):
                    found[:] = entries
                    want = orc.A057005[n - 1]
                    return None if len(entries) == want else f"{len(entries)} origamis, expected {want}"

                run.checked(f"enumerate n={n}", "enumerate_origamis", self.O.enumerate_origamis, n,
                            check=enum_check, op=False)
                want_write = (len(found), 0)
                run.checked(f"catalog_write n={n}", "catalog_write", self.O.catalog_write, self.path, found,
                            check=lambda r, w=want_write: None if tuple(r) == w else f"returned {r}, expected {w}",
                            op=False)
                written.extend(_entry_dict(e) for e in found)
                if n == 7:
                    with warnings.catch_warnings():
                        warnings.simplefilter("ignore")
                        want_again = (0, len(found))
                        run.checked("catalog_write n=7 again", "catalog_write", self.O.catalog_write, self.path,
                                    found, check=lambda r, w=want_again: None if tuple(r) == w
                                    else f"returned {r}, expected {w}", op=False)
                for spec in self.queries[n]:
                    self._query(run, spec, written)
            run.extra["catalog_bytes"] = os.path.getsize(self.path)
        finally:
            if os.path.exists(self.path):
                os.remove(self.path)


class Flow:
    """The exact tracer and its neighbours on three pinned 9-square origamis,
    relabelled by the seed.  An op is one top-level public call:

    * ``direction_is_periodic`` for every primitive (p, q) in the box
      0 <= p <= 8, |q| <= 8, checked against cylinder widths pinned per
      direction;
    * the ``lshape`` invariants of L(a,1), a = (1+sqrt(d))/2, for 8 seeded
      squarefree d, checked against closed forms;
    * ``trace`` with Fraction data in 27 seeded rational directions, to
      recurrence: periodic with integer period T <= 9 and T(|p|+|q|)+1
      crossings;
    * ``trace`` with Q[sqrt 5] and Q[sqrt 2] data for 120 crossings from 56
      seeded generic starts: neither periodic nor singular;
    * one ``discrepancy(st3, golden slope, 1e5, 10)``, against its pinned value.
    """

    BOX = 8
    LSHAPE_DS = 8
    FRACTION_TRACES = 27
    FRACTION_BOX = 20
    QUAD_TRACES = 56
    QUAD_CROSSINGS = 120
    # directions (1, a + b*sqrt(d)) of the quadratic traces
    QUAD_SLOPES = ((Fraction(1, 2), Fraction(1, 2)), (0, 1), (Fraction(-1, 2), Fraction(1, 2)), (1, Fraction(-1, 3)))

    def __init__(self, O, seed, pinned, tmp):
        self.O = O
        rng = random.Random(seed)
        surfaces = []
        for base in pinned["flow_pool"]:
            h, v = orc.relabel(base["h"], base["v"], orc.random_relabelling(len(base["h"]), rng))
            surfaces.append((_origami(O, h, v), base["widths"]))
        self.n = len(pinned["flow_pool"][0]["h"])
        ops = []
        for i, (p, q) in enumerate(orc.primitive_box(self.BOX)):
            o, widths = surfaces[i % len(surfaces)]
            ops.append(("periodic", (o, p, q, widths[f"{p},{q}"])))
        ds = [d for d in range(2, 200) if orc.squarefree(d)]
        for d in rng.sample(ds, self.LSHAPE_DS):
            ops.append(("lshape", d))
        for i in range(self.FRACTION_TRACES):
            o, _ = surfaces[i % len(surfaces)]
            while True:
                p = rng.randint(1, self.FRACTION_BOX)
                q = rng.randint(-self.FRACTION_BOX, self.FRACTION_BOX)
                x0 = Fraction(rng.randint(1, 96), 97)
                y0 = Fraction(rng.randint(1, 88), 89)
                if math.gcd(p, q) == 1 and orc.misses_lattice(x0, y0, p, q):
                    break
            start = O.FlowState(rng.randint(1, self.n), (x0, y0), (Fraction(p), Fraction(q)))
            ops.append(("trace_fraction", (o, start, p, q)))
        for i in range(self.QUAD_TRACES):
            o, _ = surfaces[i % len(surfaces)]
            d = 5 if i % 2 == 0 else 2
            a, b = self.QUAD_SLOPES[(i // 2) % len(self.QUAD_SLOPES)]
            x0 = Fraction(rng.randint(1, 96), 97)
            y0 = Fraction(rng.randint(1, 88), 89)
            start = O.FlowState(
                rng.randint(1, self.n),
                (O.QuadNum(x0, 0, d), O.QuadNum(y0, 0, d)),
                (O.QuadNum(1, 0, d), O.QuadNum(a, b, d)),
            )
            ops.append(("trace_quad", (o, start)))
        ops.append(("discrepancy", (O.st3(), (1 + 5**0.5) / 2, pinned["discrepancy_st3_golden"])))
        rng.shuffle(ops)
        self.ops = ops
        self.crossings = {"trace[fraction]": 0, "trace[quad]": 0}

    def warm_up(self, run):
        O = self.O
        o = O.st3()
        O.direction_is_periodic(o, 1, 2)
        O.trace(o, O.FlowState(1, (Fraction(1, 3), Fraction(1, 5)), (Fraction(1), Fraction(2))))
        half = O.QuadNum(Fraction(1, 3), 0, 5)
        O.trace(o, O.FlowState(1, (half, half), (O.QuadNum(1, 0, 5), O.QuadNum.sqrt(5))), max_crossings=5)
        O.trace_field(O.LSurface.from_discriminant(5))

    def run(self, run):
        for kind, args in self.ops:
            getattr(self, "_" + kind)(run, args)
        run.extra["crossings"] = self.crossings

    def _periodic(self, run, args):
        o, p, q, want = args

        def check(w):
            if not w.periodic:
                return "not periodic"
            lengths = [(length.coefficient, length.radicand) for length in w.lengths]
            widths = orc.cylinder_widths(lengths, p, q)
            if w.cylinder_count != len(want) or widths != want:
                return f"{w.cylinder_count} cylinders of widths {widths}, expected {want}"
            return None

        run.checked(f"direction_is_periodic ({p},{q})", "direction_is_periodic", self.O.direction_is_periodic,
                    o, p, q, check=check)

    def _lshape(self, run, d):
        O = self.O
        holder = []

        def keep(L):
            holder.append(L)
            return None if (L.a.a, L.a.b, L.a.d) == (Fraction(1, 2), Fraction(1, 2), d) else f"a = {L.a}"

        run.checked(f"LSurface d={d}", "LSurface.from_discriminant", O.LSurface.from_discriminant, d, check=keep)
        if not holder:
            return
        L = holder[0]

        def quad(x):
            return (x.a, x.b) if x.b else (x.a, 0)

        a = (Fraction(1, 2), Fraction(1, 2))
        four_a = (Fraction(2), Fraction(2))
        one, zero = (1, 0), (0, 0)
        cases = [
            ("lshape_stratum", O.lshape_stratum, (L,), lambda s: str(s) == "H(2)"),
            ("horizontal_cylinders", O.horizontal_cylinders, (L,),
             lambda cs: [(quad(c.width), quad(c.height)) for c in cs]
             == [(a, one), (one, (a[0] - 1, a[1]))]),
            ("veech_generators", O.veech_generators, (L,),
             lambda AB: [tuple(quad(x) for x in M.entries()) for M in AB]
             == [(one, four_a, zero, one), (one, zero, four_a, one)]),
            ("trace_field", O.trace_field, (L,),
             lambda tf: quad(tf.generator_trace) == (6 + 4 * d, 8) and tf.degree == 2
             and tf.field == f"Q[sqrt({d})]"),
            ("absolute_period_lattice", O.absolute_period_lattice, (L,),
             lambda lat: (lat.denominator, tuple(map(tuple, lat.basis))) == orc.LSHAPE_LATTICE),
            ("twist_powers", O.twist_powers, (L, 4 * L.a), lambda tp: tuple(tp) == (4, d - 1)),
        ]
        for name, fn, fargs, ok in cases:
            run.checked(f"{name} d={d}", name, fn, *fargs, check=lambda r, ok=ok: None if ok(r) else f"got {r}")

    def _trace_fraction(self, run, args):
        o, start, p, q = args
        limit = self.n * (p + abs(q)) + 2

        def check(res):
            if not res.periodic or res.singular:
                return f"periodic={res.periodic} singular={res.singular}"
            T = res.period_time
            if T.denominator != 1 or not 1 <= T <= self.n:
                return f"period time {T} is not an integer in 1..{self.n}"
            if res.crossings != T * (p + abs(q)) + 1:
                return f"{res.crossings} crossings for period {T} in direction ({p},{q})"
            self.crossings["trace[fraction]"] += res.crossings
            return None

        run.checked(f"trace ({p},{q})", "trace[fraction]", self.O.trace, o, start, max_crossings=limit, check=check)

    def _trace_quad(self, run, args):
        o, start = args
        limit = self.QUAD_CROSSINGS

        def check(res):
            if res.periodic or res.singular or res.crossings != limit:
                return f"periodic={res.periodic} singular={res.singular} crossings={res.crossings}"
            self.crossings["trace[quad]"] += res.crossings
            return None

        run.checked(f"trace {start.direction}", "trace[quad]", self.O.trace, o, start, max_crossings=limit, check=check)

    def _discrepancy(self, run, args):
        o, slope, want = args

        def check(value):
            return None if abs(value - want) <= 1e-9 * abs(want) else f"{value!r}, pinned {want!r}"

        run.checked("discrepancy st3", "discrepancy", self.O.discrepancy, o, slope, 100_000, 10, check=check)


WORKLOADS = {"orbit": Orbit, "census": Census, "flow": Flow}
