"""JSON codec shared by the report dataclasses.

A report's document is its dataclass fields in declaration order. Arrays
and tuples become lists, dict keys become strings and a nested report
becomes its own document. A field declared with
``field(metadata={"json": False})`` stays out of the document. A class that
sets ``KIND`` opens its document with a ``schema_version``/``kind`` header,
the version read from its ``schema_version`` field.

``from_json`` rebuilds a report from its document through the field
annotations: a (possibly optional) tuple comes back as a tuple, and a dict
annotated with int keys gets its keys back as ints. Other values are taken
as stored, so it applies to reports whose fields are plain JSON values.
"""

import dataclasses
import typing

import numpy as np


class JsonReport:
    """Mixin for dataclass reports: ``to_json`` and ``from_json``."""

    KIND = None

    def to_json(self):
        doc = {}
        if self.KIND is not None:
            doc["schema_version"] = self.schema_version
            doc["kind"] = self.KIND
        for f in dataclasses.fields(self):
            # the header already holds schema_version
            if f.metadata.get("json", True) and f.name not in doc:
                doc[f.name] = _encode(getattr(self, f.name))
        return doc

    @classmethod
    def from_json(cls, doc):
        hints = typing.get_type_hints(cls)
        return cls(**{
            f.name: _decode(hints[f.name], doc[f.name])
            for f in dataclasses.fields(cls)
            if f.init and f.metadata.get("json", True)
        })


def _encode(value):
    if isinstance(value, JsonReport):
        return value.to_json()
    if isinstance(value, np.ndarray):
        return value.tolist()
    if isinstance(value, (list, tuple)):
        return [_encode(v) for v in value]
    if isinstance(value, dict):
        return {str(k): _encode(v) for k, v in value.items()}
    return value


def _decode(tp, value):
    if value is None:
        return None
    if typing.get_origin(tp) is typing.Union:
        # Optional[X]: decode as X
        tp = next(a for a in typing.get_args(tp) if a is not type(None))
    origin = typing.get_origin(tp) or tp
    if origin is tuple:
        return tuple(value)
    if origin is dict and typing.get_args(tp)[:1] == (int,):
        return {int(k): v for k, v in value.items()}
    return value
