"""Tables: a record's long lists of JSON rows of one shape, held as the
shape (one row with each leaf a ``...`` slot) and one column of JSON
scalars per slot, slots in the order a row's text lists them (dict keys
sorted).  The record writer formats a table with one ``%`` call; a long
float column goes in as the texts of ``floattext.float_texts``, the numpy
kernel that writes ``float.__repr__``'s digits, with ``float.__repr__``
itself for the values it leaves."""

from __future__ import annotations


def leaves(row) -> list:
    """A row's leaves, in the order its JSON text lists them."""
    if isinstance(row, dict):
        row = [row[key] for key in sorted(row)]
    return [leaf for item in row for leaf in leaves(item)] if isinstance(row, list) else [row]


class Table:
    """The rows of shape ``row`` whose slot j holds ``columns[j]``, a leaf per row."""

    def __init__(self, row: list | dict, columns: tuple[list, ...]):
        self.row, self.columns = row, columns

    def __len__(self) -> int:
        return len(self.columns[0])
