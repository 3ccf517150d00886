"""Shared frozen fixtures: the published 6x16 sign grids and the 6x32 code.

The two frame grids and the code are kept here as character constants so the
tests compare construction output against values frozen independently of the
construction code.
"""

import numpy as np
import pytest

from etfkit.frames import Frame

# 6x16 sparse ETF, entries * sqrt(3)
FIG1_GRID = """\
+-+-+-+-00000000
00000000+-+-+-+-
++--0000++--0000
0000++--0000++--
+--+00000000+--+
0000+--++--+0000"""

# 6x16 constant-amplitude ETF, entries * sqrt(6)
FIG2_GRID = """\
+-+-+-+-+-+-+-+-
+-+-+-+--+-+-+-+
++--++--++--++--
++----++++----++
+--++--++--++--+
+--+-++--++-+--+"""

# 6x32 self-complementary code as displayed: rows are bit positions,
# columns are codewords
FIG3_GRID = """\
01010101010101011010101010101010
01010101101010101010101001010101
00110011001100111100110011001100
00111100001111001100001111000011
01100110011001101001100110011001
01101001100101101001011001101001"""

CHAR_VALUE = {"+": 1, "-": -1, "0": 0}


def grid_to_ints(grid: str) -> np.ndarray:
    return np.array([[CHAR_VALUE[c] for c in line] for line in grid.splitlines()],
                    dtype=np.int64)


def with_provenance(frame: Frame, provenance: dict) -> Frame:
    """frame rebuilt from its one stored form, with provenance in place of its
    own: the way a test forges what a frame claims about itself."""
    if frame.phases is not None:
        return Frame(scale_sq=frame.scale_sq, provenance=provenance, _phases=(frame.phases, frame.order))
    if frame.exact_ints is not None:
        return Frame(exact_ints=frame.exact_ints, scale_sq=frame.scale_sq, provenance=provenance)
    return Frame(entries=frame.entries, provenance=provenance)


def hamming(a: tuple[int, ...], b: tuple[int, ...]) -> int:
    return sum(x != y for x, y in zip(a, b))


def fig3_words() -> tuple[tuple[int, ...], ...]:
    rows = FIG3_GRID.splitlines()
    return tuple(tuple(int(row[n]) for row in rows) for n in range(len(rows[0])))


@pytest.fixture(scope="session")
def fig1_ints() -> np.ndarray:
    return grid_to_ints(FIG1_GRID)


@pytest.fixture(scope="session")
def fig2_ints() -> np.ndarray:
    return grid_to_ints(FIG2_GRID)
