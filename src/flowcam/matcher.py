"""Displacement-gated Hamming matching of binary descriptors.

Every previous-frame feature is matched against the current-frame features
inside a square window of half-width `max_displacement` (Chebyshev gate).
The best and second-best Hamming scores are both kept so an optional ratio
test can suppress ambiguous matches downstream.
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
    px = np.array([f.x for f in prev], dtype=np.int64)
    py = np.array([f.y for f in prev], dtype=np.int64)
    cx = np.array([f.x for f in curr], dtype=np.int64)
    cy = np.array([f.y for f in curr], dtype=np.int64)
    pdesc = _pack_descriptors(prev)
    cdesc = _pack_descriptors(curr)

    # Row-major processing order for prev; deterministic rank for curr.
    prev_order = np.lexsort((np.arange(len(prev)), px, py))
    curr_rank_order = np.lexsort((np.arange(len(curr)), cx, cy))
    curr_rank = np.empty(len(curr), dtype=np.int64)
    curr_rank[curr_rank_order] = np.arange(len(curr))

    # Uniform grid over curr with cells of side max_displacement: all
    # candidates for a prev feature live in the 3x3 cell neighborhood.
    cell_cx = cx // d
    cell_cy = cy // d
    n_cells_x = int(cell_cx.max()) + 2
    cell_id = cell_cy * n_cells_x + cell_cx
    grid_order = np.argsort(cell_id, kind="stable")
    sorted_cells = cell_id[grid_order]

    pairs_p: list[np.ndarray] = []
    pairs_c: list[np.ndarray] = []
    pcell_x = px[prev_order] // d
    pcell_y = py[prev_order] // d
    for oy in (-1, 0, 1):
        for ox in (-1, 0, 1):
            nx = pcell_x + ox
            want = (pcell_y + oy) * n_cells_x + nx
            # Neighbor columns outside the grid would alias cells of the
            # adjacent row; mark them as not-a-cell.
            want[(nx < 0) | (nx >= n_cells_x)] = -1
            lo = np.searchsorted(sorted_cells, want, side="left")
            hi = np.searchsorted(sorted_cells, want, side="right")
            counts = hi - lo
            if counts.sum() == 0:
                continue
            p_idx = np.repeat(np.arange(prev_order.size), counts)
            offsets = np.arange(counts.sum()) - np.repeat(
                np.cumsum(counts) - counts, counts
            )
            c_idx = grid_order[np.repeat(lo, counts) + offsets]
            pairs_p.append(p_idx)
            pairs_c.append(c_idx)
    if not pairs_p:
        return []
    pair_p = np.concatenate(pairs_p)  # indices into prev_order
    pair_c = np.concatenate(pairs_c)  # indices into curr

    ddx = cx[pair_c] - px[prev_order][pair_p]
    ddy = cy[pair_c] - py[prev_order][pair_p]
    cheb = np.maximum(np.abs(ddx), np.abs(ddy))
    inside = cheb <= d
    if not inside.any():
        return []
    pair_p, pair_c = pair_p[inside], pair_c[inside]
    ddx, ddy, cheb = ddx[inside], ddy[inside], cheb[inside]

    ham = np.bitwise_count(
        pdesc[prev_order][pair_p] ^ cdesc[pair_c]
    ).sum(axis=1).astype(np.int64)

    # Candidate preference packed into one integer: Hamming, then Chebyshev
    # displacement, then row-major rank of the current feature.
    key = (ham << 40) | (cheb << 24) | curr_rank[pair_c]
    order = np.lexsort((key, pair_p))
    pair_p, pair_c, key, ham = pair_p[order], pair_c[order], key[order], ham[order]
    ddx, ddy = ddx[order], ddy[order]

    starts = np.flatnonzero(np.r_[True, pair_p[1:] != pair_p[:-1]])
    has_second = np.diff(np.r_[starts, pair_p.size]) > 1
    second = np.full(starts.size, NO_COMPETITOR, dtype=np.int64)
    second[has_second] = ham[starts[has_second] + 1]

    p = prev_order[pair_p[starts]]
    rows = np.stack([px[p], py[p], ddx[starts], ddy[starts], ham[starts], second], axis=1)
    return [FlowVector(*row) for row in rows.tolist()]


def match_features_bruteforce(
    prev: list[Feature], curr: list[Feature], max_displacement: int
) -> list[FlowVector]:
    """All-pairs reference matcher with the same gate and tie rules.

    The grid-accelerated `match_features` must be output-identical to this.
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
