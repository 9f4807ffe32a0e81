"""Per-record reference formulations the tests compare the pipeline against.

The pipeline keeps corners, features and vectors as NumPy batches. These
helpers work one corner or one pair at a time on the record types
(`Feature`, `FlowVector`) and have no caller in `src/`. The converters at
the top turn record lists into the batch types and back.
"""

import numpy as np

from flowcam.errors import MarginError, RangeError
from flowcam.feature_engine import (
    DESCRIPTOR_BITS,
    PATCH_RADIUS,
    Feature,
    FeatureSet,
    compute_orientations,
    describe_batch,
    describe_corners,
    select_corners,
)
from flowcam.matcher import NO_COMPETITOR, FlowVector, VectorBatch

# ---------------------------------------------------------------------------
# Records <-> batches
# ---------------------------------------------------------------------------


def corner_array(corners):
    """(x, y, score) tuples as the (n, 3) int64 array the detector returns."""
    return np.array(corners, dtype=np.int64).reshape(-1, 3)


def corner_list(corners):
    """A detector corner array as a list of (x, y, score) tuples."""
    assert corners.dtype == np.int64 and corners.shape[1:] == (3,)
    return [tuple(c) for c in corners.tolist()]


def feature_set(features):
    """A list of `Feature` records as a `FeatureSet`."""
    n = len(features)
    desc = np.frombuffer(b"".join(f.descriptor for f in features), dtype=np.uint8)
    return FeatureSet(
        np.array([f.x for f in features], dtype=np.int64),
        np.array([f.y for f in features], dtype=np.int64),
        np.array([f.score for f in features], dtype=np.int64),
        np.array([f.orientation for f in features], dtype=np.float64),
        desc.reshape(n, DESCRIPTOR_BITS // 8),
    )


def vector_batch(vectors):
    """A list of `FlowVector` records as a `VectorBatch`."""
    rows = [(v.x_prev, v.y_prev, v.dx, v.dy, v.best_score, v.second_score)
            for v in vectors]
    return VectorBatch(np.array(rows, dtype=np.int64).reshape(-1, 6))


# ---------------------------------------------------------------------------
# Feature engine, one corner at a time
# ---------------------------------------------------------------------------


def _check_margin(frame, x, y):
    if not (PATCH_RADIUS <= x < frame.width - PATCH_RADIUS
            and PATCH_RADIUS <= y < frame.height - PATCH_RADIUS):
        raise MarginError(
            f"corner ({x}, {y}) closer than {PATCH_RADIUS} px to the border of "
            f"a {frame.width}x{frame.height} frame"
        )


def compute_orientation(frame, corner):
    """Orientation of one corner via the patch intensity centroid."""
    x, y = corner
    _check_margin(frame, x, y)
    return float(compute_orientations(frame, np.array([x]), np.array([y]))[0])


def describe_brief(frame, corner, orientation):
    """256-bit descriptor: bit i set when intensity at p_i < intensity at q_i.

    The point pairs come from the fixed table shipped with the package,
    rotated by the orientation quantized to 12-degree steps and sampled with
    nearest-neighbor lookup.
    """
    x, y = corner
    _check_margin(frame, x, y)
    packed = describe_batch(
        frame, np.array([x]), np.array([y]), np.array([orientation], dtype=np.float64)
    )
    return packed[0].tobytes()


def extract_features(frame, state):
    """Full engine pass as records: detect, budget, cap, orient and describe.

    Returns the feature list and the produced descriptor count the
    controller consumes (after the per-tile budget and the global cap).
    """
    features = list(describe_corners(frame, select_corners(frame, state)))
    return features, len(features)


def describe_per_corner(frame, corners):
    """`Feature` records for detector corners, built with the per-corner
    orientation and descriptor."""
    features = []
    for x, y, score in corners.tolist():
        orientation = compute_orientation(frame, (x, y))
        features.append(
            Feature(x, y, score, orientation, describe_brief(frame, (x, y), orientation))
        )
    return features


# ---------------------------------------------------------------------------
# Matcher, one pair at a time
# ---------------------------------------------------------------------------


def hamming(d1, d2):
    """Number of differing bits between two 256-bit descriptors."""
    if len(d1) * 8 != DESCRIPTOR_BITS or len(d2) * 8 != DESCRIPTOR_BITS:
        raise RangeError("descriptors must be 256 bits")
    return (int.from_bytes(d1, "little") ^ int.from_bytes(d2, "little")).bit_count()


def match_features_bruteforce(prev, curr, max_displacement):
    """All-pairs reference matcher over `Feature` lists, with the same gate
    and tie rules. `match_features` must be output-identical to this."""
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
