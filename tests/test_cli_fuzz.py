"""`cli.main` under hypothesis: any command line gives JSON or one error line.

An argv is a subcommand name (or a junk word), then flags, mostly the
subcommand's own and sometimes another's (a misplaced flag), with values and
junk tokens in between. Values are ints, fractions, `1/0`, empty strings and
small origami texts. The CLI has no bound on the work a request asks for
yet, so the values that set it are drawn small: `--n` ≤ 5, `--max` and
`--crossings` ≤ 2000, `--grid` ≤ 10, `--d` ≤ 60, `--dir` p,q with |p| ≤ 10⁴ and
|q| ≤ 9, and origamis with n ≤ 6.

The property: exit 0 with one JSON document on stdout and nothing on stderr,
or exit 1 or 2 with nothing on stdout and one line on stderr; never a
traceback. A warning counts as stderr, since a process prints it there. `-h`
is the one exit-0 case whose stdout is usage text, not JSON.
"""

import io
import json
import os
import warnings
from contextlib import redirect_stderr, redirect_stdout

import pytest
from hypothesis import event, example, given
from hypothesis import strategies as st

from origamis.cli import main
from origamis.perm import Permutation

# the flags each subcommand takes; junk names and a bare `catalog` take none
OWN_FLAGS = {
    "info": [], "orbit": [], "cylinders": ["--dir"], "flow": ["--dir", "--start", "--max"],
    "discrepancy": ["--slope", "--crossings", "--grid"], "lshape": ["--d", "--shift"],
    "enumerate": ["--n", "--stratum", "--reduced", "--bound"],
    "catalog write": ["--path", "--n", "--stratum", "--reduced"],
    "catalog query": ["--path", "--n", "--stratum", "--reduced", "--orbit-id"],
    "strata-dim": ["--abelian", "--quadratic"], "catalog": [], "frobnicate": [], "": [],
}
TAKES_AN_ORIGAMI = {"info", "orbit", "cylinders", "flow", "discrepancy"}


@st.composite
def origami_text(draw) -> str:
    """An origami with n ≤ 6 squares, connected or not, in either notation;
    or a text that is almost one."""
    n = draw(st.integers(1, 6))
    perms = [Permutation(tuple(draw(st.permutations(range(1, n + 1))))) for _ in "hv"]
    if draw(st.booleans()):
        h, v = (str(p) for p in perms)
    else:
        h, v = (str(list(p.images)) for p in perms)
    text = f"{n}; h={h}; v={v}"
    return draw(st.sampled_from([text] * 6 + [text.replace(";", "", 1), f"0; h={h}; v={v}", f"{n}; h={h}",
                                              f"{n}; h={h}; h={v}", "1; h=(); v=(1,2)", "2; h=(1,2,2); v=()", "1/0"]))


NINE_IN_TEN = st.sampled_from([True] * 9 + [False])  # hypothesis draws integers(0, 9) as 0 far more often


def mostly(common, rare):
    """A draw from `common` nine times in ten, else from `rare`."""
    return NINE_IN_TEN.flatmap(lambda ok: common if ok else rare)


INTS = st.integers(-3, 12).map(str) | st.sampled_from(["2000", "-1", "10**3", "1e3", "0x10", " 5"])
FRACTIONS = mostly(st.fractions(0, 1, max_denominator=9).map(str), st.fractions(max_denominator=99).map(str)
                   | st.sampled_from(["1/0", "0/0", "-1/2", "1.5", "1e-3", ""]))
JUNK = st.sampled_from(["", " ", "junk", "-", "--", "-x", "--bogus", "=", ",", ":", "a\nb", "é", "None"])


def small_int(hi: int):
    return mostly(st.integers(-2, hi).map(str), st.sampled_from(["", "1/0", "1.0", "x"]))


def direction():
    return st.builds(lambda p, q: f"{p},{q}", st.integers(-10**4, 10**4), st.integers(-9, 9)) | st.sampled_from(
        ["0,0", "1", "1,2,3", "1/2,1", "1,0", "0,1", ""])


def start():
    return st.builds(lambda s, x, y: f"{s}:{x}:{y}", st.integers(-1, 7), FRACTIONS, FRACTIONS) | st.sampled_from(
        ["1:0:0", "1:1/2:1/2", "1:0", "", "1:1/0:0"])


ORDERS = st.lists(st.integers(-2, 6), max_size=5).map(lambda ks: ",".join(map(str, ks))) | st.sampled_from(
    ["", ",", "1,,1", "a"])
PATHS = st.sampled_from(["c.jsonl", "c.jsonl", "missing/c.jsonl", ".", ""])

# every flag of every subcommand, with the values it is drawn from
FLAGS = {
    "--dir": direction(),
    "--start": start(),
    "--max": small_int(2000),
    "--slope": FRACTIONS | st.floats(allow_nan=True).map(repr) | st.sampled_from(["inf", "nan", "1.618", "1e308"]),
    "--crossings": small_int(2000),
    "--grid": small_int(10),
    "--d": small_int(60),
    "--shift": FRACTIONS | st.sampled_from(["1/2 + 1/2*sqrt(5)", "sqrt(2)", "1/3*sqrt(5)", "sqrt(4)", "sqrt(0)"]),
    "--n": small_int(5),
    "--stratum": st.sampled_from(["H(2)", "H(1,1)", "H( 0 )", "H(0)", "H(1,1", "H(1)", "H(-1)", "", "Q(2)"]),
    "--reduced": st.none(),
    "--bound": small_int(9),
    "--path": PATHS,
    "--orbit-id": origami_text() | JUNK,
    "--abelian": ORDERS,
    "--quadratic": ORDERS,
    "-h": st.none(),
}


@st.composite
def flag_with_value(draw, flag: str) -> list[str]:
    """The flag with a value of its own kind nine times in ten, else with a
    junk value or none, as `--flag value` or `--flag=value`."""
    value = draw(FLAGS[flag]) if draw(NINE_IN_TEN) else draw(JUNK | st.none())
    if value is None:
        return [flag]
    return [f"{flag}={value}"] if draw(st.booleans()) else [flag, value]


STRAY = st.sampled_from(sorted(FLAGS)).flatmap(flag_with_value) | origami_text().map(lambda t: [t]) | (
    JUNK | INTS | FRACTIONS).map(lambda t: [t])


@st.composite
def command_line(draw) -> list[str]:
    """A subcommand, its origami (nine times in ten if it takes one, else one
    in ten), each of its own flags nine times in ten, in any order, then
    sometimes one or two stray tokens: any flag, an origami or junk."""
    name = draw(st.sampled_from(sorted(OWN_FLAGS)))
    argv = name.split()
    if name == "discrepancy":
        argv.append("--crossings=2000")  # the default, 10⁵ crossings, is slow; a later --crossings wins
    if draw(NINE_IN_TEN) == (name in TAKES_AN_ORIGAMI):
        argv.append(draw(origami_text()))
    own = OWN_FLAGS[name]
    if name == "strata-dim":  # its two flags exclude each other
        own = [draw(st.sampled_from(own))]
    for flag in draw(st.permutations([flag for flag in own if draw(NINE_IN_TEN)])):
        argv += draw(flag_with_value(flag))
    for _ in range(draw(st.sampled_from([0, 0, 0, 1, 2]))):
        argv += draw(STRAY)
    return argv


def run(argv):
    out, err = io.StringIO(), io.StringIO()
    with warnings.catch_warnings(record=True) as caught, redirect_stdout(out), redirect_stderr(err):
        warnings.simplefilter("always")
        code = main(argv)
    return code, out.getvalue(), err.getvalue() + "".join(f"{w.category.__name__}: {w.message}\n" for w in caught)


def check(argv):
    code, out, err = run(argv)
    event(f"{' '.join(argv[:2]) if argv[:1] == ['catalog'] else argv[0] if argv else '(none)'}: exit {code}")
    assert "Traceback" not in out + err, argv
    if code == 0 and out.startswith("usage: "):
        assert err == "" and any(token in ("-h", "--help") for token in argv), argv
    elif code == 0:
        assert err == "" and out.endswith("\n") and out.count("\n") == 1, argv
        json.loads(out)
    else:
        assert code in (1, 2) and out == "", (argv, code)
        assert err.endswith("\n") and err.count("\n") == 1, (argv, err)
        assert err.startswith("error: " if code == 1 else "internal error: "), (argv, err)


@pytest.fixture(scope="module", autouse=True)
def in_one_scratch_directory(tmp_path_factory):
    """Every path a command line names, a junk one too, is relative to one
    directory, so the catalogs that examples write persist between them."""
    home = os.getcwd()
    os.chdir(tmp_path_factory.mktemp("cli-fuzz"))
    try:
        yield
    finally:
        os.chdir(home)


@given(command_line())
@example(["flow", "3; h=(1,2); v=(1,3)", "junk"])
@example(["flow", "3; h=(1,2); v=(1,3)", "--slope", "2"])
@example(["discrepancy", "1; h=(); v=()", "--max", "0"])
@example(["catalog", "write", "--path", "c.jsonl", "--n", "2"])
@example(["catalog", "write", "--path", "c.jsonl", "--n", "2"])
@example(["catalog", "query", "--path", "c.jsonl", "--orbit-id", "2; h=(); v=(1,2)"])
@example(["lshape", "--d", "5", "--shift", "1/0"])
@example(["flow", "1; h=(); v=()", "--start", "1:0:0"])
@example(["strata-dim", "--quadratic", "-1,-1"])
@example(["info", "a\nb"])
@example(["flow", "1; h=(); v=()", "a\nb"])
@example(["-h"])
@example(["enumerate", "--n=--"])  # the value "--", which argparse may drop: an input error, exit 1
def test_cli_gives_json_or_one_error_line(argv):
    check(argv)
