"""The package's frozen records against ``dataclasses.dataclass(frozen=True)``.

Each class shape is declared twice by one builder, once with ``record`` and
once with the dataclass decorator, so both versions have the same qualified
names and their reprs compare as text. A second check reads every record
class of the package off the source with ``ast`` and compares its field tuple
with its annotated fields.
"""

import ast
import dataclasses
import importlib
import os
import types
from functools import cached_property

import pytest
from hypothesis import given
from hypothesis import strategies as st

import origamis
from origamis._record import FrozenInstanceError, record


def shapes(decorate):
    """One class per shape the package uses, made by ``decorate``."""

    class Plain:
        a: int
        b: object

    class Twin:  # Plain's fields in another class
        a: int
        b: object

    class Defaults:
        a: int
        b: tuple = ()
        c: object = None

    class PostInit:
        a: int
        b: object = 0

        def __post_init__(self):
            if self.a < 0:
                raise ValueError(f"negative a: {self.a}")

    class OwnInit:
        a: tuple

        def __init__(self, *items):
            object.__setattr__(self, "a", tuple(sorted(items, key=repr)))

    class OwnEqHash:
        a: int
        b: object

        def __eq__(self, other):
            if isinstance(other, int):
                return self.a == other
            return self.a == other.a if isinstance(other, OwnEqHash) else NotImplemented

        def __hash__(self):
            return hash(self.a)

    class OwnEqOnly:  # an own __eq__ leaves __hash__ to the decorator
        a: int
        b: object

        def __eq__(self, other):
            return self.a == other.a if isinstance(other, OwnEqOnly) else NotImplemented

    class OwnRepr:
        a: int

        def __repr__(self):
            return f"<{self.a}>"

    class Cached:
        a: int
        b: object = 1

        @cached_property
        def pair(self):
            return (self.a, self.b)

    class Empty:
        pass

    return {cls.__name__: decorate(cls) for cls in (Plain, Twin, Defaults, PostInit, OwnInit, OwnEqHash, OwnEqOnly,
                                                    OwnRepr, Cached, Empty)}


RECORDS = shapes(record)
DATACLASSES = shapes(dataclasses.dataclass(frozen=True))

# small pools, so that two draws are often equal
values = st.one_of(st.integers(-3, 3), st.sampled_from(["", "x"]), st.tuples(st.integers(0, 2)), st.none())
ARGS = {
    "Plain": st.tuples(st.integers(-3, 3), values),
    "Twin": st.tuples(st.integers(-3, 3), values),
    "Defaults": st.integers(1, 3).flatmap(lambda k: st.tuples(st.integers(-3, 3), st.tuples(values), values).map(
        lambda t: t[:k])),
    "PostInit": st.integers(1, 2).flatmap(lambda k: st.tuples(st.integers(-3, 3), values).map(lambda t: t[:k])),
    "OwnInit": st.lists(values, max_size=3).map(tuple),
    "OwnEqHash": st.tuples(st.integers(-3, 3), values),
    "OwnEqOnly": st.tuples(st.integers(-3, 3), values),
    "OwnRepr": st.tuples(st.integers(-3, 3)),
    "Cached": st.integers(1, 2).flatmap(lambda k: st.tuples(st.integers(-3, 3), values).map(lambda t: t[:k])),
    "Empty": st.just(()),
}


# one valid set of arguments for every shape
FIRST_FIELDS = (1, ("x",), None)


def build(cls, args):
    """The instance, or the type of the exception its constructor raised."""
    try:
        return cls(*args)
    except Exception as e:
        return type(e)


def bound(x, cls):
    """What ``case cls()``, ``case cls(a)`` and ``case cls(a, b)`` bind, as far
    as cls has match args; None where the pattern does not match."""
    out = []
    match x:
        case cls():
            out.append(())
        case _:
            out.append(None)
    if len(cls.__match_args__) >= 1:
        match x:
            case cls(a):
                out.append((a,))
            case _:
                out.append(None)
    if len(cls.__match_args__) >= 2:
        match x:
            case cls(a, b):
                out.append((a, b))
            case _:
                out.append(None)
    return out


def comparisons(x, y, field_values, foreign):
    """==, != and the hash of x against y, a plain tuple, an int and an
    instance of the class ``foreign`` made from x's first two field values."""
    others = (y, field_values, 0, foreign(*field_values[:2]) if len(field_values) >= 2 else None)
    hashed = hash(x) if type(x).__hash__ is not None else None
    return [(x == o, x != o) for o in others], hashed


def fields_of(x):
    return tuple(getattr(x, f) for f in type(x).__match_args__)


@pytest.mark.parametrize("name", sorted(ARGS))
@given(data=st.data())
def test_a_record_behaves_as_a_frozen_dataclass(name, data):
    R, D = RECORDS[name], DATACLASSES[name]
    assert R.__match_args__ == D.__match_args__
    args, other = data.draw(ARGS[name]), data.draw(ARGS[name])
    xr, yr, xd, yd = build(R, args), build(R, other), build(D, args), build(D, other)
    failed = [isinstance(x, type) for x in (xr, yr, xd, yd)]
    if any(failed):
        assert failed[:2] == failed[2:]
        assert [x for x in (xr, yr) if isinstance(x, type)] == [x for x in (xd, yd) if isinstance(x, type)]
        return
    assert repr(xr) == repr(xd) and repr(yr) == repr(yd)
    assert vars(xr) == vars(xd)
    assert fields_of(xr) == fields_of(xd)
    foreign = "Plain" if name == "Twin" else "Twin"  # the same fields in another class
    assert comparisons(xr, yr, fields_of(xr), RECORDS[foreign]) == comparisons(
        xd, yd, fields_of(xd), DATACLASSES[foreign]
    )
    assert bound(xr, R) == bound(xd, D)
    assert bound(xr, D) == bound(xd, R) == [None] * len(bound(xr, R))
    if name == "Cached":
        assert xr.pair == xd.pair
        assert vars(xr) == vars(xd)
        assert (xr == yr, hash(xr)) == (xd == yd, hash(xd))


@pytest.mark.parametrize("name", sorted(ARGS))
def test_assigning_or_deleting_a_field_raises_on_both(name):
    for cls in (RECORDS[name], DATACLASSES[name]):
        x = cls(*FIRST_FIELDS[: len(cls.__match_args__)])
        for attr in (*cls.__match_args__, "new"):
            with pytest.raises(AttributeError, match=f"cannot assign to field '{attr}'"):
                setattr(x, attr, 1)
            with pytest.raises(AttributeError, match=f"cannot delete field '{attr}'"):
                delattr(x, attr)
    with pytest.raises(FrozenInstanceError):
        RECORDS["Plain"](1, 2).a = 3


def _record_classes():
    """(module name, class name, annotated fields, own methods) of every
    ``@record`` class under src/origamis, read off the source."""
    root = os.path.dirname(origamis.__file__)
    out = []
    for file in sorted(os.listdir(root)):
        if not file.endswith(".py"):
            continue
        with open(os.path.join(root, file), encoding="utf-8") as fh:
            tree = ast.parse(fh.read())
        for node in tree.body:
            if isinstance(node, ast.ClassDef) and any(
                isinstance(d, ast.Name) and d.id == "record" for d in node.decorator_list
            ):
                fields = tuple(s.target.id for s in node.body if isinstance(s, ast.AnnAssign))
                own = {s.name for s in node.body if isinstance(s, ast.FunctionDef)}
                out.append((file[:-3], node.name, fields, own))
    return out


RECORD_CLASSES = _record_classes()


def test_every_record_class_is_found():
    assert len(RECORD_CLASSES) == 23
    assert len({module for module, *_ in RECORD_CLASSES}) == 8


@pytest.mark.parametrize("module, name, fields, own", RECORD_CLASSES, ids=lambda v: v if isinstance(v, str) else None)
def test_a_records_field_tuple_is_its_annotated_fields(module, name, fields, own):
    mod = importlib.import_module(f"origamis.{module}")
    cls = getattr(mod, name)
    assert cls.__match_args__ == fields
    for method in ("__init__", "__eq__", "__hash__"):
        fn = vars(cls)[method]
        # a plain function in the class dict, which the benchmark's tracer wraps
        assert type(fn) is types.FunctionType
        # the class's own method is written in its module; @record's are not
        assert (fn.__code__.co_filename == mod.__file__) == (method in own)
