"""Random generators for exact-rational test data.

All samplers draw from a named Stream (rng.py) and return values whose raw
denominators stay small, so composites remain cheap and printable.
"""

from __future__ import annotations

from fractions import Fraction

from .errors import OperadicError
from .exactgeom import MARK, Cube, MarkedFiberConfig, Rect, RectConfig
from .rng import Stream


def sample_rect(rng: Stream, dim: int) -> Rect:
    scales, offsets = [], []
    for _ in range(dim):
        a = rng.fraction_pos(max_den=8)
        b = rng.fraction(max_den=8, hi=Fraction(1) - a)
        scales.append(a)
        offsets.append(b)
    return Rect(tuple(scales), tuple(offsets))


def sample_overlapping_config(rng: Stream, dim: int, labels) -> RectConfig:
    return RectConfig(dim, {lbl: sample_rect(rng.split(lbl), dim) for lbl in labels}, "overlapping")


def _split_boxes(rng: Stream, box, n: int, axis_hint: int = 0) -> list:
    """Partition an axis-aligned box into n boxes by recursive cuts."""
    if n == 1:
        return [box]
    lo, hi = box
    dim = len(lo)
    axis = (axis_hint + rng.randint(0, dim - 1)) % dim
    cut = lo[axis] + (hi[axis] - lo[axis]) * Fraction(rng.randint(1, 3), 4)
    left = (lo, tuple(cut if j == axis else h for j, h in enumerate(hi)))
    right = (tuple(cut if j == axis else l for j, l in enumerate(lo)), hi)
    n_left = rng.randint(1, n - 1)
    return _split_boxes(rng.split("L"), left, n_left, axis + 1) + _split_boxes(
        rng.split("R"), right, n - n_left, axis + 1
    )


def _rect_in_box(rng: Stream, box, cube: bool) -> Rect:
    lo, hi = box
    if cube:
        side = min(h - l for l, h in zip(lo, hi))
        a = side * Fraction(rng.randint(1, 3), 4)
        offsets = tuple(l + (h - l - a) * Fraction(rng.randint(0, 2), 2) for l, h in zip(lo, hi))
        return Cube(a, offsets)
    scales, offsets = [], []
    for l, h in zip(lo, hi):
        a = (h - l) * Fraction(rng.randint(1, 3), 4)
        b = l + (h - l - a) * Fraction(rng.randint(0, 2), 2)
        scales.append(a)
        offsets.append(b)
    return Rect(tuple(scales), tuple(offsets))


def sample_disjoint_config(rng: Stream, dim: int, labels, cube: bool = False) -> RectConfig:
    labels = list(labels)
    if not labels:
        return RectConfig(dim, {}, "disjoint")
    unit_box = (tuple(Fraction(0) for _ in range(dim)), tuple(Fraction(1) for _ in range(dim)))
    boxes = _split_boxes(rng.split("boxes"), unit_box, len(labels))
    rects = {lbl: _rect_in_box(rng.split(lbl), box, cube) for lbl, box in zip(labels, boxes)}
    return RectConfig(dim, rects, "disjoint")


def sample_cube_config(rng: Stream, dim: int, labels) -> RectConfig:
    return sample_disjoint_config(rng, dim, labels, cube=True)


def sample_moverlap_config(rng: Stream, dim: int, labels, m: int) -> RectConfig:
    """Valid by construction: groups of size < m inside pairwise-disjoint boxes."""
    labels = list(labels)
    group_size = max(1, m - 1)
    n_groups = -(-len(labels) // group_size) if labels else 0
    if n_groups == 0:
        return RectConfig(dim, {}, ("m-overlap", m))
    unit_box = (tuple(Fraction(0) for _ in range(dim)), tuple(Fraction(1) for _ in range(dim)))
    boxes = _split_boxes(rng.split("groups"), unit_box, n_groups)
    rects = {}
    for idx, lbl in enumerate(labels):
        box = boxes[idx // group_size]
        rects[lbl] = _rect_in_box(rng.split(lbl), box, cube=False)
    return RectConfig(dim, rects, ("m-overlap", m))


def sample_marked_cube_config(rng: Stream, dim: int, labels, marked_cube: Rect) -> RectConfig:
    """Cubes over labels plus the given marked cube at "*", all disjoint.

    The non-marked cubes are packed into the two slabs on either side of the
    marked cube along the first axis.
    """
    labels = list(labels)
    b0 = marked_cube.offsets[0]
    a = marked_cube.scales[0]
    slabs = []
    if b0 > 0:
        slabs.append(((Fraction(0),) + tuple(Fraction(0) for _ in range(dim - 1)),
                      (b0,) + tuple(Fraction(1) for _ in range(dim - 1))))
    if b0 + a < 1:
        slabs.append(((b0 + a,) + tuple(Fraction(0) for _ in range(dim - 1)),
                      (Fraction(1),) + tuple(Fraction(1) for _ in range(dim - 1))))
    if labels and not slabs:
        raise OperadicError("marked cube leaves no room")
    rects = {MARK: marked_cube}
    if labels:
        counts = [0] * len(slabs)
        for i in range(len(labels)):
            counts[rng.randint(0, len(slabs) - 1)] += 1
        pos = 0
        for slab, cnt in zip(slabs, counts):
            if cnt == 0:
                continue
            boxes = _split_boxes(rng.split("slab%d" % pos), slab, cnt)
            for box in boxes:
                rects[labels[pos]] = _rect_in_box(rng.split(labels[pos]), box, cube=True)
                pos += 1
    return RectConfig(dim, rects, "disjoint")


def sample_marked_fiber(rng: Stream, dims, ambient: int, label_sets, present=None) -> MarkedFiberConfig:
    """Random MarkedFiberConfig: shared marked cube, per-component satellites."""
    k = len(dims)
    present = tuple(range(k)) if present is None else tuple(present)
    a = Fraction(rng.randint(1, 2), 4)  # marked scale in {1/4, 1/2}
    base_off = tuple(
        Fraction(rng.randint(1, 8), 16) for _ in range(dims[0])
    )
    base_off = tuple(min(b, 1 - a - Fraction(1, 16)) for b in base_off)
    marked0 = Cube(a, base_off)
    configs = []
    for i in range(k):
        if i not in present:
            configs.append(None)
            continue
        extra = dims[i] - dims[0]
        marked_i = Cube(a, marked0.offsets + ((1 - a) / 2,) * extra)
        configs.append(
            sample_marked_cube_config(rng.split("comp%d" % i), dims[i], label_sets[i], marked_i)
        )
    return MarkedFiberConfig(tuple(dims), ambient, tuple(configs))


def sample_fiber_configs(rng: Stream, dims, parts) -> tuple:
    """Cube configurations over the given label sets whose shared labels carry
    agreeing centered paddings.

    parts[i] is a label set or the sentinel "+" (absent component, yields
    None).  Labels common to every part live in the first-axis slab [0, 1/2]
    of the lowest present dimension and are extended by centered padding, so
    any two components agree on them after padding; private labels are packed
    into the complementary slab of the component's own dimension.
    """
    from .exactgeom import include_rect

    present = [i for i, p in enumerate(parts) if p != "+"]
    if not present:
        return tuple(None for _ in parts)
    shared = set.intersection(*(set(parts[i]) for i in range(len(parts)))) if len(present) == len(parts) else set()
    d0 = dims[present[0]]
    half = Fraction(1, 2)
    shared_cfg = RectConfig(d0, {}, "disjoint")
    if shared:
        box = ((Fraction(0),) * d0, (half,) + (Fraction(1),) * (d0 - 1))
        boxes = _split_boxes(rng.split("shared"), box, len(shared))
        rects = {lbl: _rect_in_box(rng.split("s:%s" % (lbl,)), b, cube=True)
                 for lbl, b in zip(sorted(shared), boxes)}
        shared_cfg = RectConfig(d0, rects, "disjoint")
    out = []
    for i, part in enumerate(parts):
        if part == "+":
            out.append(None)
            continue
        d = dims[i]
        rects = dict(include_rect(shared_cfg, d, "cube").rects)
        private = sorted(set(part) - shared)
        if private:
            box = ((half,) + (Fraction(0),) * (d - 1), (Fraction(1),) * d)
            boxes = _split_boxes(rng.split("priv%d" % i), box, len(private))
            for lbl, b in zip(private, boxes):
                rects[lbl] = _rect_in_box(rng.split("p%d:%s" % (i, lbl)), b, cube=True)
        out.append(RectConfig(d, rects, "disjoint"))
    return tuple(out)


def sample_perm(rng: Stream, n: int) -> tuple:
    return tuple(rng.shuffle(range(1, n + 1)))


def sample_points(rng: Stream, n: int, dim: int) -> list:
    pts = []
    seen = set()
    attempts = 0
    while len(pts) < n:
        attempts += 1
        if attempts > 100 * n:
            raise OperadicError("could not sample distinct points")
        p = tuple(rng.fraction(max_den=16) for _ in range(dim))
        if p not in seen:
            seen.add(p)
            pts.append(p)
    return pts
