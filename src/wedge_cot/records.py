"""The base of the package's records.

Every record is written ``class Name(Record, namedtuple("Name", "a b"))``
and checks its fields in ``__new__``.  A named tuple's own ``_make`` and
``_replace`` build the tuple without calling ``__new__``, so they would skip
those checks; ``Record`` makes them go through the constructor.  It also
gives each record a ``__dataclass_fields__``, so that
``dataclasses.replace``, ``fields`` and ``asdict`` accept records as they
did when the records were dataclasses; ``dataclasses`` loads only when one
of them asks.
"""

from __future__ import annotations


class _DataclassFields:
    """Class attribute that describes a record's fields the way the
    dataclass decorator would, built on access."""

    def __get__(self, record, cls):
        import dataclasses

        made = dataclasses.make_dataclass(cls.__name__, cls._fields)
        return made.__dataclass_fields__


class Record:
    """Mixin that keeps a named tuple's copies checked."""

    __slots__ = ()
    __dataclass_fields__ = _DataclassFields()

    @classmethod
    def _make(cls, iterable):
        return cls(*iterable)

    def _replace(self, **changes):
        return type(self)(**{**self._asdict(), **changes})

    __replace__ = _replace  # copy.replace, from Python 3.13
