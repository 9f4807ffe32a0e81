"""Displacement-gated Hamming matching of binary descriptors.

Every previous-frame feature is matched against the current-frame features
inside a square window of half-width `max_displacement` (Chebyshev gate).
The best and second-best Hamming scores are both kept so an optional ratio
test can suppress ambiguous matches downstream.

`match_features` buckets the current features into square cells of side
`max_displacement`. A window of half-width d around a point in one cell
reaches no further than the adjacent cells, so the 3x3 cell neighbourhood
holds every candidate. The cells form a dense grid over the occupied
bounding box plus a spare ring, at most `MAX_CELLS` cells, and an int32 map
gives every cell its row of one table: a row per occupied cell, listing its
features in row-major rank order padded with -1 to the fullest cell, and a
last all -1 row for empty cells. Each previous feature reads its nine rows
through the map into a fixed block that is gated, scored and reduced
row-wise. At the pipeline's default gate of 16 the cells are the 16x16
detection tiles, so a row holds at most `tile_budget` features. The
pipeline's sets arrive in row-major order; other orders are sorted first.

Matching consumes two `FeatureSet`s and returns a `VectorBatch`: one (n, 6)
integer array per frame, already in wire field order.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import RangeError
from .feature_engine import DESCRIPTOR_BITS, FeatureSet

NO_COMPETITOR = DESCRIPTOR_BITS  # score ceiling; second score with one candidate
# Cap on the cell grid, whose row map takes 4 bytes a cell. The pipeline's
# widest grid, gate 1 over a 640x480 OF frame, is 642 * 482 = 309 444 cells
# (1.2 MB); a tiny gate over a huge coordinate extent would otherwise
# allocate without bound.
MAX_CELLS = 1 << 22


@dataclass(frozen=True)
class FlowVector:
    """One motion vector: previous position, displacement and both scores.

    A record view: the pipeline keeps vectors in a `VectorBatch`, and
    records are built only when a batch is iterated.
    """

    x_prev: int
    y_prev: int
    dx: int
    dy: int
    best_score: int
    second_score: int

    def __post_init__(self) -> None:
        if not 0 <= self.best_score <= self.second_score <= NO_COMPETITOR:
            raise RangeError(
                f"need 0 <= best <= second <= {NO_COMPETITOR}, got "
                f"{self.best_score}/{self.second_score}"
            )


@dataclass(frozen=True, eq=False)
class VectorBatch:
    """One frame's flow vectors as an (n, 6) integer array `rows`.

    Columns are the wire fields in transmission order: x_prev, y_prev, dx,
    dy, best_score, second_score. Iterating yields `FlowVector` records;
    two batches are equal when their rows are.
    """

    rows: np.ndarray

    def __len__(self) -> int:
        return len(self.rows)

    def __iter__(self):
        return (FlowVector(*row) for row in self.rows.tolist())

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, VectorBatch):
            return NotImplemented
        return np.array_equal(self.rows, other.rows)

    __hash__ = None

    @classmethod
    def empty(cls) -> VectorBatch:
        return cls(np.empty((0, 6), dtype=np.int64))


def match_features(
    prev: FeatureSet, curr: FeatureSet, max_displacement: int
) -> VectorBatch:
    """Match previous-frame features to current-frame features.

    Candidates are the current features within Chebyshev distance
    `max_displacement` of the previous feature. The vector points at the
    lowest-Hamming candidate; ties go to the smaller displacement and then
    to the earlier row-major candidate. The second score is the second-lowest
    Hamming among the candidates, or `NO_COMPETITOR` when there is only one.
    Previous features with no candidate emit nothing; output is ordered by
    previous feature row-major position. Matching is not injective.
    """
    if max_displacement <= 0:
        raise RangeError(f"max_displacement must be positive, got {max_displacement}")
    if not len(prev) or not len(curr):
        return VectorBatch.empty()

    d = max_displacement
    cheb_bits, rank_bits = int(d).bit_length(), len(curr).bit_length()
    if NO_COMPETITOR.bit_length() + cheb_bits + rank_bits > 63:
        raise RangeError(f"max_displacement {d} with {len(curr)} current features "
                         "overflows the 63-bit candidate key")
    # Row-major order; an index into the ordered curr is its rank. The
    # pipeline's sets already are, so the sorts are skipped unless needed.
    # Descriptors are compared as four 64-bit words.
    px, py, pdesc = _row_major(prev)
    cx, cy, cdesc = _row_major(curr)

    # Cells of side d over the occupied bounding box plus a spare ring, so
    # the neighbours of an edge cell are empty cells, never the far side of
    # an adjacent row. Cell ids are row * n_cols + column.
    x0 = int(min(px.min(), cx.min())) // d - 1
    y0 = int(min(py.min(), cy.min())) // d - 1
    n_cols = int(max(px.max(), cx.max())) // d - x0 + 2
    n_rows = int(max(py.max(), cy.max())) // d - y0 + 2
    if n_cols * n_rows > MAX_CELLS:
        raise RangeError(
            f"max_displacement {d} over a {n_cols * d}x{n_rows * d} coordinate extent "
            f"needs {n_cols * n_rows} cells, more than {MAX_CELLS}")
    c_cell = (cy // d - y0) * n_cols + cx // d - x0
    p_cell = (py // d - y0) * n_cols + px // d - x0

    # One table row per occupied cell, listing its features in rank order and
    # padded with -1 to the fullest cell, plus a last all -1 row. The dense
    # `row_of` maps every cell of the grid to its table row.
    by_cell = np.argsort(c_cell, kind="stable")
    sorted_cells = c_cell[by_cell]
    starts = np.empty(by_cell.size, dtype=bool)
    starts[0] = True
    np.not_equal(sorted_cells[1:], sorted_cells[:-1], out=starts[1:])
    first = np.flatnonzero(starts)
    row = np.cumsum(starts) - 1
    fullest = np.diff(first, append=by_cell.size).max()
    table = np.full((first.size + 1, fullest), -1, dtype=np.int64)
    table[row, np.arange(by_cell.size) - first[row]] = by_cell
    row_of = np.full(n_cols * n_rows, first.size, dtype=np.int32)
    row_of[sorted_cells[first]] = np.arange(first.size)

    # Each prev feature reads its 3x3 cell block: (n_prev, 9*m) candidates.
    # Row gathers use `take`, which is several times faster than fancy
    # indexing on these small rows.
    offsets = (np.arange(-1, 2)[:, None] * n_cols + np.arange(-1, 2)).ravel()
    cand = table.take(row_of.take(p_cell[:, None] + offsets), axis=0).reshape(px.size, -1)

    cheb = np.maximum(np.abs(cx.take(cand) - px[:, None]), np.abs(cy.take(cand) - py[:, None]))
    gated = (cand >= 0) & (cheb <= d)

    # Hamming only where the gate admits, word by word; the NO_COMPETITOR
    # filler makes the second-smallest entry of each row the second score.
    at = np.flatnonzero(gated)
    words = pdesc.take(at // cand.shape[1], axis=0)
    words ^= cdesc.take(cand.ravel().take(at), axis=0)
    dist = np.zeros(at.size, dtype=np.int64)
    for column in np.bitwise_count(words).T:
        dist += column
    ham = np.full(cand.shape, NO_COMPETITOR, dtype=np.int64)
    np.put(ham, at, dist)
    second = np.partition(ham, 1, axis=1)[:, 1]

    # Candidate preference packed into one integer: Hamming, then Chebyshev
    # displacement (at most d when gated), then row-major rank of the
    # current feature, each field as wide as its largest value.
    key = np.where(gated, (ham << (cheb_bits + rank_bits)) | (cheb << rank_bits) | cand,
                   np.iinfo(np.int64).max)
    pick = key.argmin(axis=1)
    rows = np.arange(px.size)
    best = cand[rows, pick]
    out = np.stack([px, py, cx[best] - px, cy[best] - py, ham[rows, pick], second], axis=1)
    return VectorBatch(out[gated.any(axis=1)])


def _row_major(features: FeatureSet) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """xs, ys and descriptor words of `features` in stable row-major order."""
    xs, ys, words = features.xs, features.ys, features.desc.view(np.uint64)
    # Exact for any int64 coordinates: y rises, or ties and x does not fall.
    if np.all((ys[1:] > ys[:-1]) | ((ys[1:] == ys[:-1]) & (xs[1:] >= xs[:-1]))):
        return xs, ys, words
    order = np.lexsort((xs, ys))
    return xs[order], ys[order], words[order]


def ratio_filter(vectors: VectorBatch, ratio_threshold: float) -> VectorBatch:
    """Keep vectors whose best score beats `ratio_threshold` times the second.

    A best score of zero is always kept (a perfect match is maximally
    distinctive, including the 0/0 case). Order is preserved. The product
    is taken in float64, as Python floats would.
    """
    if not 0 < ratio_threshold <= 1:
        raise RangeError(f"ratio_threshold must be in (0, 1], got {ratio_threshold}")
    best, second = vectors.rows[:, 4], vectors.rows[:, 5]
    return VectorBatch(vectors.rows[(best == 0) | (best < ratio_threshold * second)])
