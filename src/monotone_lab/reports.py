"""JSON encoding shared by the report dataclasses.

A report's document is its dataclass fields in declaration order. Arrays
and tuples become lists, dict keys become strings and a nested report
becomes its own document. A field declared with
``field(metadata={"json": False})`` stays out of the document. A class that
sets ``KIND`` opens its document with a ``schema_version``/``kind`` header,
the version read from its ``schema_version`` field.
"""

import dataclasses

import numpy as np


class JsonReport:
    """Mixin for dataclass reports: ``to_json``."""

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
