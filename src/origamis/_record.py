"""Frozen records: what the package uses of ``dataclass(frozen=True)``, without
importing the standard library's module for it or the ``inspect`` it loads.

``@record`` reads the fields from the class annotations, in order, and adds:

* ``__init__``, built by one ``exec`` per class: it sets the fields with
  ``object.__setattr__``, takes the class attributes of the fields as defaults
  and ends with ``__post_init__()`` when the class has one;
* ``__eq__`` and ``__hash__``, plain closures over the class's field-tuple
  getter (an ``operator.attrgetter``): ``__eq__`` compares field tuples
  between instances of the same class only; ``__hash__`` hashes the field
  tuple;
* a ``__repr__`` in dataclass format, ``Name(field=value, ...)``;
* ``__setattr__`` and ``__delattr__``, which raise ``FrozenInstanceError``;
* ``__match_args__``, the tuple of field names.

As with a dataclass, a method the class defines itself is kept, and so is an
explicit ``__hash__``. Instances keep their ``__dict__``, so ``cached_property``
works on them.
"""

from operator import attrgetter


class FrozenInstanceError(AttributeError):
    """An assignment to, or deletion of, an attribute of a record."""


def _frozen_setattr(self, name, value):
    raise FrozenInstanceError(f"cannot assign to field {name!r}")


def _frozen_delattr(self, name):
    raise FrozenInstanceError(f"cannot delete field {name!r}")


def _repr(self) -> str:
    fields = ", ".join(f"{f}={getattr(self, f)!r}" for f in self.__match_args__)
    return f"{type(self).__qualname__}({fields})"


def _field_tuple(fields):
    """The function from an instance to its tuple of field values."""
    if len(fields) > 1:
        return attrgetter(*fields)
    if fields:  # attrgetter of one name returns the value itself, and of none refuses
        get = attrgetter(*fields)
        return lambda self: (get(self),)
    return lambda self: ()


def _eq_and_hash(key):
    def __eq__(self, other):
        if other.__class__ is self.__class__:
            return key(self) == key(other)
        return NotImplemented

    def __hash__(self):
        return hash(key(self))

    return __eq__, __hash__


def record(cls):
    own = cls.__dict__
    fields = tuple(cls.__annotations__)
    params = ", ".join(f"{f}=_default_{f}" if f in own else f for f in fields)
    body = "".join(f"    _setattr(self, {f!r}, {f})\n" for f in fields)
    if "__post_init__" in own:
        body += "    self.__post_init__()\n"
    namespace = {"__name__": cls.__module__, "_setattr": object.__setattr__}
    namespace.update((f"_default_{f}", own[f]) for f in fields if f in own)
    exec(f"def __init__(self, {params}):\n{body or '    pass'}\n", namespace)
    eq, hash_ = _eq_and_hash(_field_tuple(fields))
    made = {"__init__": namespace["__init__"], "__eq__": eq, "__hash__": hash_}
    for name, fn in made.items():
        fn.__qualname__ = f"{cls.__qualname__}.{name}"
    made.update(__repr__=_repr, __setattr__=_frozen_setattr, __delattr__=_frozen_delattr)
    for name, fn in made.items():
        # the class's own method wins; an own __eq__ alone leaves __hash__ None, which is replaced
        if own.get(name) is None:
            setattr(cls, name, fn)
    cls.__match_args__ = fields
    return cls
