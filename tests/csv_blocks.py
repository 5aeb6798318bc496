"""Random blocks of CSV cells for the tests that hold each bulk CSV parser to its locator.

A block is a list of rows of cell strings. Most rows are well formed; up to
two edits per block replace a cell with an odd one, delete it, or append one.
"""

from hypothesis import strategies as st

ODD_CELLS = st.sampled_from(
    ['"6,a"', '"', "x", "", "1.0", " 3 ", "1_0", " 1.5 ", "1e999", "nan", " inf", str(2**53 + 1), str(-(2**53) - 1), "9" * 30]
)


def _edited(rows, edits):
    """rows with each (row, cell, replacement) edit applied: None deletes the cell, and a cell past the end is appended."""
    rows = [list(row) for row in rows]
    for row, col, cell in edits:
        cells = rows[row % len(rows)]
        cells[col : col + 1] = [] if cell is None else [cell]
    return rows


def blocks(*columns):
    """Blocks of 1 to 5 rows, one cell per column strategy, with up to two edits."""
    edits = st.tuples(st.integers(0, 4), st.integers(0, len(columns)), st.none() | ODD_CELLS)
    return st.builds(_edited, st.lists(st.tuples(*columns), min_size=1, max_size=5), st.lists(edits, max_size=2))


def no_locator(*args):
    raise AssertionError("a well-formed block reached the locator")
