"""The MARS-style key schema identifying weather fields.

An FDB key is an ordered set of metadata attributes (class, stream,
date, parameter, level, ...) that uniquely identifies one field — one
2-D slice of one variable of one forecast step.  fdb-hammer and Field
I/O both sweep sequences of such keys.

Every backend indexes a field by its key's canonical string, so a key
is validated once, kept in schema order and has its canonical string
formatted at construction: two keys are equal exactly when their
canonical strings are.
"""

from __future__ import annotations

import itertools
from typing import Any, Iterable, Iterator, List, Tuple

from repro.errors import InvalidArgumentError

__all__ = ["SCHEMA_KEYS", "REQUIRED_KEYS", "FdbKey", "make_key", "key_sequence"]

#: recognised attributes, in canonical order (a pragmatic MARS subset)
SCHEMA_KEYS: Tuple[str, ...] = (
    "class",
    "stream",
    "expver",
    "date",
    "time",
    "domain",
    "type",
    "levtype",
    "step",
    "param",
    "levelist",
)

#: attributes every key must carry to be archivable
REQUIRED_KEYS: Tuple[str, ...] = ("class", "stream", "date", "time", "step", "param")

#: the attributes of the index group (one forecast); they lead the
#: schema, so a key's index group is a prefix of its canonical string
_GROUP_KEYS: Tuple[str, ...] = SCHEMA_KEYS[:5]

Items = Tuple[Tuple[str, str], ...]


def _value(name: str, value: Any) -> str:
    """``value`` as the string a key stores; it must be non-empty and
    free of the canonical form's separators, or two distinct keys
    would share one index string."""
    text = str(value)
    if not text or "," in text or "=" in text:
        raise InvalidArgumentError(f"key attribute {name}={text!r} is empty or contains ',' or '='")
    return text


def _join(items: Iterable[Tuple[str, str]]) -> str:
    return ",".join(f"{k}={v}" for k, v in items)


class FdbKey:
    """An immutable, hashable field identifier.

    ``items`` are ``(attribute, value)`` pairs in schema order whatever
    order they are given in; the canonical string and index group are
    formatted once, here.
    """

    __slots__ = ("items", "_canonical", "_group")

    items: Items
    _canonical: str
    _group: str

    def __init__(self, items: Iterable[Tuple[str, Any]]) -> None:
        pairs = tuple(items)
        names = [k for k, _ in pairs]
        if len(set(names)) != len(names):
            raise InvalidArgumentError(f"duplicate attributes in key: {names}")
        unknown = set(names) - set(SCHEMA_KEYS)
        if unknown:
            raise InvalidArgumentError(f"unknown key attributes: {sorted(unknown)}")
        missing = set(REQUIRED_KEYS) - set(names)
        if missing:
            raise InvalidArgumentError(f"key is missing {sorted(missing)}")
        values = {k: _value(k, v) for k, v in pairs}
        ordered = tuple((k, values[k]) for k in SCHEMA_KEYS if k in values)
        n_group = sum(k in values for k in _GROUP_KEYS)
        self._set(ordered, _join(ordered), _join(ordered[:n_group]))

    @classmethod
    def _trusted(cls, items: Items, canonical: str, group: str) -> "FdbKey":
        """A key from parts the caller has already validated and formatted."""
        key = object.__new__(cls)
        key._set(items, canonical, group)
        return key

    def _set(self, items: Items, canonical: str, group: str) -> None:
        object.__setattr__(self, "items", items)
        object.__setattr__(self, "_canonical", canonical)
        object.__setattr__(self, "_group", group)

    def __setattr__(self, name: str, value: Any) -> None:
        raise AttributeError("FdbKey is immutable")

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, FdbKey):
            return NotImplemented
        return self.items == other.items

    def __hash__(self) -> int:
        return hash(self.items)

    def __repr__(self) -> str:
        return f"FdbKey({self._canonical!r})"

    def canonical(self) -> str:
        """Canonical string form, in schema order (the index key)."""
        return self._canonical

    def index_group(self) -> str:
        """The coarse prefix FDB groups index entries by (one forecast)."""
        return self._group

    def __str__(self) -> str:
        return self._canonical


def make_key(**attrs: "str | int") -> FdbKey:
    """Build a key from keyword attributes, normalising values to str.

    Rejects unknown, duplicate and missing attributes, and values that
    are empty or contain ``,`` or ``=``.

    >>> str(make_key(class_="od", stream="oper", date=20240101, time=0,
    ...              step=0, param=130))
    'class=od,stream=oper,date=20240101,time=0,step=0,param=130'
    """
    if "class_" in attrs:  # `class` is a Python keyword
        if "class" in attrs:
            raise InvalidArgumentError("duplicate attributes in key: ['class', 'class_']")
        attrs["class"] = attrs.pop("class_")
    return FdbKey(attrs.items())


def key_sequence(
    n_fields: int,
    member: int = 0,
    date: int = 20240101,
    params: Tuple[int, ...] = (129, 130, 131, 132, 133),
    levels: Tuple[int, ...] = (1000, 850, 700, 500, 300, 100),
) -> Iterator[FdbKey]:
    """The key sweep one fdb-hammer / Field I/O process archives.

    Fields iterate fastest over parameter, then level, then forecast
    step, mirroring how an NWP model emits output.  ``member`` (the
    ensemble member / process number) keeps per-process sequences
    disjoint.

    The sweep is validated once, up front: its first key is built by
    :func:`make_key` and every parameter and level value is checked.
    """
    if n_fields <= 0:
        return iter(())
    if not params or not levels:
        raise InvalidArgumentError("key_sequence needs at least one param and one level")
    levelists = [_value("levelist", f"{level}.{member}") for level in levels]
    param_values = [_value("param", p) for p in params]
    first = make_key(
        class_="od",
        stream="enfo",
        expver="0001",
        date=date,
        time="0000",
        domain="g",
        type="pf",
        levtype="pl",
        step=0,
        param=params[0],
        levelist=levelists[0],
    )
    return _sweep(first, n_fields, param_values, levelists)


def _sweep(first: FdbKey, n_fields: int, params: List[str], levelists: List[str]) -> Iterator[FdbKey]:
    # step, param and levelist close the schema, so every key of the
    # sweep is the first key's head plus those three
    head = first.items[:-3]
    prefix = _join(head)
    group = first.index_group()
    fields = (
        (step, levelist, param)
        for step in map(str, itertools.count(0, 6))
        for levelist in levelists
        for param in params
    )
    for step, levelist, param in itertools.islice(fields, n_fields):
        yield FdbKey._trusted(
            head + (("step", step), ("param", param), ("levelist", levelist)),
            f"{prefix},step={step},param={param},levelist={levelist}",
            group,
        )
