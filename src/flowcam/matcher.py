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
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import RangeError
from .feature_engine import DESCRIPTOR_BITS, Feature

NO_COMPETITOR = 256  # second score when the gate admits a single candidate


@dataclass(frozen=True)
class FlowVector:
    """One motion vector: previous position, displacement and both scores."""

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

    @property
    def x_curr(self) -> int:
        return self.x_prev + self.dx

    @property
    def y_curr(self) -> int:
        return self.y_prev + self.dy


def hamming(d1: bytes, d2: bytes) -> int:
    """Number of differing bits between two 256-bit descriptors."""
    if len(d1) * 8 != DESCRIPTOR_BITS or len(d2) * 8 != DESCRIPTOR_BITS:
        raise RangeError("descriptors must be 256 bits")
    return (int.from_bytes(d1, "little") ^ int.from_bytes(d2, "little")).bit_count()


def _pack_descriptors(features: list[Feature]) -> np.ndarray:
    blob = b"".join(f.descriptor for f in features)
    return np.frombuffer(blob, dtype="<u8").reshape(len(features), 4)


def match_features(
    prev: list[Feature], curr: list[Feature], max_displacement: int
) -> list[FlowVector]:
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
    if not prev or not curr:
        return []

    d = max_displacement
    # Stable row-major order; an index into the sorted curr is its rank.
    px, py = np.array([(f.x, f.y) for f in prev], dtype=np.int64).T
    cx, cy = np.array([(f.x, f.y) for f in curr], dtype=np.int64).T
    p_order = np.lexsort((px, py))
    c_order = np.lexsort((cx, cy))
    px, py, pdesc = px[p_order], py[p_order], _pack_descriptors(prev)[p_order]
    cx, cy, cdesc = cx[c_order], cy[c_order], _pack_descriptors(curr)[c_order]

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
    return [FlowVector(*row) for row in out[gated.any(axis=1)].tolist()]


def match_features_bruteforce(
    prev: list[Feature], curr: list[Feature], max_displacement: int
) -> list[FlowVector]:
    """All-pairs reference matcher with the same gate and tie rules.

    `match_features` must be output-identical to this.
    """
    if max_displacement <= 0:
        raise RangeError(f"max_displacement must be positive, got {max_displacement}")
    curr_ranked = sorted(range(len(curr)), key=lambda i: (curr[i].y, curr[i].x, i))
    vectors = []
    for f in sorted(prev, key=lambda f: (f.y, f.x)):
        scored = []
        for rank, i in enumerate(curr_ranked):
            g = curr[i]
            cheb = max(abs(g.x - f.x), abs(g.y - f.y))
            if cheb <= max_displacement:
                scored.append((hamming(f.descriptor, g.descriptor), cheb, rank, g))
        if not scored:
            continue
        scored.sort(key=lambda t: t[:3])
        best_ham, _, _, g = scored[0]
        second = scored[1][0] if len(scored) > 1 else NO_COMPETITOR
        vectors.append(
            FlowVector(f.x, f.y, g.x - f.x, g.y - f.y, best_ham, second)
        )
    return vectors


def ratio_filter(vectors: list[FlowVector], ratio_threshold: float) -> list[FlowVector]:
    """Keep vectors whose best score beats `ratio_threshold` times the second.

    A best score of zero is always kept (a perfect match is maximally
    distinctive, including the 0/0 case). Order is preserved.
    """
    if not 0 < ratio_threshold <= 1:
        raise RangeError(f"ratio_threshold must be in (0, 1], got {ratio_threshold}")
    return [
        v for v in vectors
        if v.best_score == 0 or v.best_score < ratio_threshold * v.second_score
    ]
