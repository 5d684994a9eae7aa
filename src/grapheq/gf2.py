"""Dense GF(2) linear algebra on rows packed into Python integers.

Bit j of a row is column j, so adding two rows is one XOR and a dot product
is the parity of an AND, whatever the width (the bit-packed rows of
stabilizer simulation).  All arithmetic is exact.
"""

from __future__ import annotations

import itertools

import numpy as np


def pack(bits) -> int:
    """The row whose bit j is ``bits[j]`` (taken mod 2)."""
    row = 0
    for j, b in enumerate(bits):
        if int(b) & 1:
            row |= 1 << j
    return row


def unpack(row: int, width: int) -> tuple[int, ...]:
    return tuple((row >> j) & 1 for j in range(width))


def to_matrix(rows, width: int) -> np.ndarray:
    """The (len(rows), width) uint8 matrix of packed rows."""
    return np.array([unpack(r, width) for r in rows], dtype=np.uint8).reshape(len(rows), width)


def rref(rows) -> tuple[list[int], list[int]]:
    """Reduced row echelon form: the independent reduced rows in pivot
    order, and the pivot column of each.

    A row's pivot is its lowest set bit, which no other reduced row has.
    """
    reduced: dict[int, int] = {}  # pivot column -> row
    for row in rows:
        for p, r in reduced.items():
            if (row >> p) & 1:
                row ^= r
        if row:
            p = (row & -row).bit_length() - 1
            for q, r in reduced.items():
                if (r >> p) & 1:
                    reduced[q] = r ^ row
            reduced[p] = row
    pivots = sorted(reduced)
    return [reduced[p] for p in pivots], pivots


def nullspace(rows, width: int) -> list[int]:
    """Basis of {x : row . x = 0 for every row}, one per free column, in
    column order (may be empty)."""
    reduced, pivots = rref(rows)
    basis = []
    for f in range(width):
        if f in pivots:
            continue
        x = 1 << f
        for row, p in zip(reduced, pivots):
            if (row >> f) & 1:
                x |= 1 << p
        basis.append(x)
    return basis


def reduce_augmented(rows, rhs, width: int) -> tuple[list[int], list[int]] | None:
    """Row reduce the system [rows | rhs], dropping dependent rows.

    Returns (reduced rows, reduced rhs bits) with independent rows only, or
    None if some combination of rows yields 0 = 1.
    """
    reduced, pivots = rref(row | ((int(b) & 1) << width) for row, b in zip(rows, rhs))
    if pivots and pivots[-1] == width:
        return None
    low = (1 << width) - 1
    return [r & low for r in reduced], [r >> width for r in reduced]


def coset(offset: int, basis):
    """Every point offset + span(basis), combinations in lexicographic
    order of the coefficient bits."""
    for combo in itertools.product((0, 1), repeat=len(basis)):
        point = offset
        for bit, row in zip(combo, basis):
            if bit:
                point ^= row
        yield point
