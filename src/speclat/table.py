"""The record writer and its tables.

``record_text`` writes a record as ``json.dumps(record, sort_keys=True,
indent=2)`` does, byte for byte, plus a newline.  The stdlib has no C
encoder for indented output, and its pure-Python one makes several
generator steps per node; a spectrum record holds tens of thousands of
nodes.  So a record's long lists of rows of one shape are ``Table``s: the
shape (one row with each leaf a ``...`` slot) and one column of JSON
scalars per slot, slots in the order a row's text lists them (dict keys
sorted).  The writer formats a table with one ``%`` call: the row's text,
each slot ``%s``, once per row, applied to the leaves, a block of
``TABLE_BLOCK`` rows at a time.  In a block, a column of ints, or of
finite floats, goes in as it is; a float column of ``LONG_FLOAT_COLUMN``
rows or more goes in as the texts of the numpy kernel
``floattext.float_texts``, imported only then, which leaves the values it
does not decide to ``float.__repr__`` here; others go in written leaf by
leaf, as is every plain list.  The CSV reads the same columns, through
``row_leaves``.
"""

from __future__ import annotations

import itertools
import math
from json.encoder import encode_basestring_ascii as _json_string

TABLE_BLOCK = 4096  # rows a table is written in at a time: its texts stay small
LONG_FLOAT_COLUMN = 512  # rows from which the numpy kernel writes a float column faster
_JSON_NONFINITE = {"nan": "NaN", "inf": "Infinity", "-inf": "-Infinity"}
_JSON_CONSTANTS = {None: "null", True: "true", False: "false"}


def leaves(row) -> list:
    """A row's leaves, in the order its JSON text lists them."""
    if isinstance(row, dict):
        row = [row[key] for key in sorted(row)]
    return [leaf for item in row for leaf in leaves(item)] if isinstance(row, list) else [row]


def row_leaves(rows):
    """Each row's leaves, from a table or from a record's decoded JSON."""
    return zip(*rows.columns) if isinstance(rows, Table) else map(leaves, rows)


class Table:
    """The rows of shape ``row`` whose slot j holds ``columns[j]``, a leaf per row."""

    def __init__(self, row: list | dict, columns: tuple[list, ...]):
        self.row, self.columns = row, columns

    def __len__(self) -> int:
        return len(self.columns[0])


def record_text(record: dict) -> str:
    return _json_text(record) + "\n"


def _json_text(obj, pad: str = "\n") -> str:
    """``json.dumps(obj, sort_keys=True, indent=2)``, byte for byte, for
    trees with string keys (any other key raises TypeError), a ``Table``
    written as the list of its rows.  ``pad`` is the newline and
    indentation that ``obj``'s lines continue from."""
    if obj is None or obj is True or obj is False:
        return _JSON_CONSTANTS[obj]
    if isinstance(obj, float):  # np.float64 too, written as float.__repr__ writes it
        text = float.__repr__(obj)
        return _JSON_NONFINITE.get(text, text)
    if isinstance(obj, int):
        return int.__repr__(obj)
    if isinstance(obj, str):
        return _json_string(obj)
    inner = pad + "  "
    if isinstance(obj, Table):
        if not len(obj):
            return "[]"
        row, w, blocks = _template(obj.row, inner), len(obj.columns), []
        for start in range(0, len(obj), TABLE_BLOCK):
            block = [column[start:start + TABLE_BLOCK] for column in obj.columns]
            flat = [None] * (len(block[0]) * w)
            for j, column in enumerate(block):
                kinds = set(map(type, column))
                if kinds == {float} and len(column) >= LONG_FLOAT_COLUMN:
                    from .floattext import float_texts

                    flat[j::w] = float_texts(column, _json_text)
                elif kinds == {int} or kinds == {float} and all(map(math.isfinite, column)):
                    flat[j::w] = column
                else:
                    flat[j::w] = map(_json_text, column)
            blocks.append(("," + inner).join(itertools.repeat(row, len(block[0]))) % tuple(flat))
        return "[" + inner + ("," + inner).join(blocks) + pad + "]"
    if isinstance(obj, (list, tuple)):
        if not obj:
            return "[]"
        items = map(_json_text, obj, itertools.repeat(inner))
        return "[" + inner + ("," + inner).join(items) + pad + "]"
    if isinstance(obj, dict):
        if not obj:
            return "{}"
        items = [_json_string(k) + ": " + _json_text(v, inner) for k, v in sorted(obj.items())]
        return "{" + inner + ("," + inner).join(items) + pad + "}"
    raise TypeError(f"Object of type {type(obj).__name__} is not JSON serializable")


def _template(row, pad: str) -> str:
    """A table's row at ``pad``: each slot ``%s``, each ``%`` of a key doubled."""
    if row is ...:
        return "%s"
    inner = pad + "  "
    if isinstance(row, dict):
        keys = [_json_string(k).replace("%", "%%") + ": " + _template(row[k], inner)
                for k in sorted(row)]
        return "{" + inner + ("," + inner).join(keys) + pad + "}" if keys else "{}"
    items = [_template(item, inner) for item in row]
    return "[" + inner + ("," + inner).join(items) + pad + "]" if items else "[]"
