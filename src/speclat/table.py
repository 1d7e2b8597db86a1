"""The record writer and its tables.

``record_parts`` writes a record as ``json.dumps(record, sort_keys=True,
indent=2)`` does, byte for byte, plus a newline, as parts for
``writelines``: no container's text is ever joined into one string.  The
stdlib has no C encoder for indented output, and its pure-Python one
makes several generator steps per node; a spectrum record holds tens of
thousands of nodes.  So a record's long lists of rows of one shape are
``Table``s: the shape (one row with each leaf a ``...`` slot) and one
column of JSON scalars per slot, a list or a numpy array, slots in the
order a row's text lists them (dict keys sorted).  The writer formats a
block of ``TABLE_BLOCK`` rows with one ``%`` call: the row's text, each
slot ``%s``, once per row, applied to the leaves.  A float64 array column
of ``LONG_FLOAT_COLUMN`` rows or more goes in as the texts of the numpy
kernel ``floattext.float_texts``, imported only then; any other column,
an array as its ``tolist``, as it is if its leaves are all ints or all
finite floats, else leaf by leaf.  A list that is not a table is written
item by item.  The CSV reads the same columns, as Python scalars, through
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


def _plain(column):
    """A column as Python scalars: an array's ``tolist``, a list or tuple as it is."""
    return column.tolist() if hasattr(column, "tolist") else column


def row_leaves(rows):
    """Each row's leaves, from a table or from a record's decoded JSON."""
    return zip(*map(_plain, rows.columns)) if isinstance(rows, Table) else map(leaves, rows)


class Table:
    """The rows of shape ``row`` whose slot j holds ``columns[j]``, a leaf per row."""

    def __init__(self, row: list | dict, columns: tuple):
        self.row, self.columns = row, columns

    def __len__(self) -> int:
        return len(self.columns[0])


def record_parts(record: dict) -> list[str]:
    """The record's text, in parts to be written in turn."""
    _write(record, "\n", parts := [])
    return parts + ["\n"]


def _scalar(obj) -> str:
    """A JSON scalar's text; any other object raises TypeError."""
    if obj is None or obj is True or obj is False:
        return _JSON_CONSTANTS[obj]
    if isinstance(obj, float):  # np.float64 too, written as float.__repr__ writes it
        text = float.__repr__(obj)
        return _JSON_NONFINITE.get(text, text)
    if isinstance(obj, int):
        return int.__repr__(obj)
    if isinstance(obj, str):
        return _json_string(obj)
    raise TypeError(f"Object of type {type(obj).__name__} is not JSON serializable")


def _write(obj, pad: str, parts: list):
    """Append the text of ``json.dumps(obj, sort_keys=True, indent=2)`` to
    ``parts``, byte for byte, for trees with string keys (any other key
    raises TypeError), a ``Table`` written as the list of its rows.  ``pad``
    is the newline and indentation that ``obj``'s lines continue from."""
    if not isinstance(obj, (list, tuple, dict, Table)):
        return parts.append(_scalar(obj))
    brackets = "{}" if isinstance(obj, dict) else "[]"
    if not len(obj):
        return parts.append(brackets)
    inner = pad + "  "
    opened = itertools.chain((brackets[0] + inner,), itertools.repeat("," + inner))
    if isinstance(obj, Table):
        row, w, size = _template(obj.row, inner), len(obj.columns), TABLE_BLOCK
        for sep, start in zip(opened, range(0, len(obj), size)):
            block = [_block_leaves(column[start:start + size]) for column in obj.columns]
            flat = [None] * (len(block[0]) * w)
            for j, column in enumerate(block):
                flat[j::w] = column
            parts += sep, ("," + inner).join(itertools.repeat(row, len(block[0]))) % tuple(flat)
    elif isinstance(obj, dict):
        for sep, (key, value) in zip(opened, sorted(obj.items())):
            parts.append(sep + _json_string(key) + ": ")
            _write(value, inner, parts)
    else:
        for sep, item in zip(opened, obj):
            parts.append(sep)
            _write(item, inner, parts)
    parts.append(pad + brackets[1])


def _block_leaves(column):
    """A block of a table's column, as its ``%s`` slots take it."""
    if getattr(column, "dtype", None) == "float64" and len(column) >= LONG_FLOAT_COLUMN:
        from .floattext import float_texts

        return float_texts(column, _scalar)
    column = _plain(column)
    kinds = set(map(type, column))
    if kinds == {int} or kinds == {float} and all(map(math.isfinite, column)):
        return column
    return list(map(_scalar, column))


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
