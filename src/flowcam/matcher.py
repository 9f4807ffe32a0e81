"""Displacement-gated Hamming matching of binary descriptors.

Every previous-frame feature is matched against the current-frame features
inside a square window of half-width `max_displacement` (Chebyshev gate).
The best and second-best Hamming scores are both kept so an optional ratio
test can suppress ambiguous matches downstream.

`match_features` buckets the current features into square cells of side
`max_displacement`. A window of half-width d around a point in one cell
reaches no further than the adjacent cells, so the 3x3 cell neighbourhood
holds every candidate. The cells become one table, a row per occupied cell
padded with -1 to the fullest cell, and each previous feature gathers its
nine rows into a fixed block that is gated, scored and reduced row-wise.
At the pipeline's default gate of 16 the cells are the 16x16 detection
tiles, so a row holds at most `tile_budget` features.

Matching consumes two `FeatureSet`s and returns a `VectorBatch`: one (n, 6)
integer array per frame, already in wire field order.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import RangeError
from .feature_engine import FeatureSet

NO_COMPETITOR = 256  # second score when the gate admits a single candidate


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
        if not 0 <= self.best_score <= self.second_score <= 256:
            raise RangeError(
                f"need 0 <= best <= second <= 256, got "
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
    Hamming among the candidates, or 256 when there is only one. Previous
    features with no candidate emit nothing; output is ordered by previous
    feature row-major position. Matching is not injective.
    """
    if max_displacement <= 0:
        raise RangeError(f"max_displacement must be positive, got {max_displacement}")
    if not len(prev) or not len(curr):
        return VectorBatch.empty()

    d = max_displacement
    # Stable row-major order; an index into the sorted curr is its rank.
    # Descriptors are compared as four 64-bit words.
    p_order = np.lexsort((prev.xs, prev.ys))
    c_order = np.lexsort((curr.xs, curr.ys))
    px, py, pdesc = prev.xs[p_order], prev.ys[p_order], prev.desc.view(np.uint64)[p_order]
    cx, cy, cdesc = curr.xs[c_order], curr.ys[c_order], curr.desc.view(np.uint64)[c_order]

    # Cell ids are row * n_cols + column, with an empty spare column on each
    # side of the occupied ones, so the column neighbours of an edge cell
    # never alias cells of the adjacent row.
    x0 = min(px.min(), cx.min()) // d - 1
    n_cols = max(px.max(), cx.max()) // d - x0 + 2
    c_cell = (cy // d) * n_cols + cx // d - x0
    p_cell = (py // d) * n_cols + px // d - x0

    # One table row per occupied cell, padded with -1 to the fullest cell,
    # plus a last all -1 row for empty neighbours.
    by_cell = np.argsort(c_cell, kind="stable")
    cells, row_of, counts = np.unique(c_cell[by_cell], return_inverse=True, return_counts=True)
    table = np.full((cells.size + 1, counts.max()), -1, dtype=np.int64)
    table[row_of, np.arange(by_cell.size) - (np.cumsum(counts) - counts)[row_of]] = by_cell

    # Each prev feature gathers its 3x3 cell neighbourhood: (n_prev, 9*m).
    offsets = (np.arange(-1, 2)[:, None] * n_cols + np.arange(-1, 2)).ravel()
    want = p_cell[:, None] + offsets
    at = np.minimum(np.searchsorted(cells, want), cells.size - 1)
    cand = table[np.where(cells[at] == want, at, cells.size)].reshape(px.size, -1)

    cheb = np.maximum(np.abs(cx[cand] - px[:, None]), np.abs(cy[cand] - py[:, None]))
    gated = (cand >= 0) & (cheb <= d)

    # Hamming only where the gate admits; the NO_COMPETITOR filler makes the
    # second-smallest entry of each row the second score.
    ham = np.full(cand.shape, NO_COMPETITOR, dtype=np.int64)
    p_idx, slot = np.nonzero(gated)
    ham[p_idx, slot] = np.bitwise_count(pdesc[p_idx] ^ cdesc[cand[p_idx, slot]]).sum(axis=1)
    second = np.partition(ham, 1, axis=1)[:, 1]

    # Candidate preference packed into one integer: Hamming, then Chebyshev
    # displacement, then row-major rank of the current feature.
    key = np.where(gated, (ham << 40) | (cheb << 24) | cand, np.iinfo(np.int64).max)
    pick = key.argmin(axis=1)
    rows = np.arange(px.size)
    best = cand[rows, pick]
    out = np.stack([px, py, cx[best] - px, cy[best] - py, ham[rows, pick], second], axis=1)
    return VectorBatch(out[gated.any(axis=1)])


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
