"""Exact rational rectangle configurations.

A little rectangle is the affine map t |-> (a_1 t_1 + b_1, ..., a_d t_d + b_d)
with every a_j > 0; a configuration is a finite family of such maps indexed by
labels, optionally containing the reserved marked label "*".  Everything is
computed over `fractions.Fraction`, so equality of composites is exact and the
axiom suites can compare results literally.

Overlap regimes
---------------
"overlapping"            no constraint beyond unit-cube containment
"disjoint"               pairwise disjoint open images
("m-overlap", m)         every size-m subset of images has empty intersection
("u-overlap", blocks, u) block-graded bound: for p <= q, each image of block p
                         misses the common intersection of any u[p,q] distinct
                         images of block q (the rectangle itself excluded when
                         p == q); u[p,q] may be the string "inf" meaning no
                         constraint for that pair
"""

from __future__ import annotations

import json
import re
from dataclasses import dataclass
from fractions import Fraction

from .errors import OperadicError
from .trees import _is_count

MARK = "*"


def rat(value) -> Fraction:
    """Parse "p/q" / integer strings / ints into an exact rational."""
    if isinstance(value, Fraction):
        return value
    if isinstance(value, int):
        return Fraction(value)
    if isinstance(value, str):
        text = value.strip()
        if re.fullmatch(r"-?[0-9]+(/[0-9]+)?", text):
            try:
                return Fraction(text)
            except (ZeroDivisionError, ValueError):  # zero denominator, too many digits
                pass
    raise OperadicError("not an exact rational: %r" % (value,))


def rat_str(value) -> str:
    f = Fraction(value)
    return "%d/%d" % (f.numerator, f.denominator) if f.denominator != 1 else str(f.numerator)


def label_key(label: str):
    """Sort key putting numeric labels in numeric order, "*" first."""
    if label == MARK:
        return (0, 0, "")
    if label.isascii() and label.isdigit():
        # numeric order without int(), which refuses very long digit strings
        digits = label.lstrip("0")
        return (1, len(digits), digits)
    return (2, 0, label)


# ---------------------------------------------------------------------------
# rectangles


@dataclass(frozen=True)
class Rect:
    scales: tuple
    offsets: tuple

    def __post_init__(self):
        scales = tuple(rat(a) for a in self.scales)
        offsets = tuple(rat(b) for b in self.offsets)
        object.__setattr__(self, "scales", scales)
        object.__setattr__(self, "offsets", offsets)
        if len(scales) != len(offsets):
            raise OperadicError("scale/offset dimension mismatch")
        if not scales:
            raise OperadicError("rectangles need dimension >= 1")
        if any(a <= 0 for a in scales):
            raise OperadicError("rectangle scales must be positive")

    @property
    def dim(self) -> int:
        return len(self.scales)

    def compose(self, inner: "Rect") -> "Rect":
        """Affine substitution: (self o inner)(t) = self(inner(t))."""
        if inner.dim != self.dim:
            raise OperadicError("dim mismatch in rectangle composition")
        scales = tuple(a * a2 for a, a2 in zip(self.scales, inner.scales))
        offsets = tuple(a * b2 + b for a, b, b2 in zip(self.scales, self.offsets, inner.offsets))
        return Rect(scales, offsets)

    def axis_interval(self, j: int) -> tuple:
        """Open image interval on axis j (0-based)."""
        return (self.offsets[j], self.offsets[j] + self.scales[j])

    def in_unit(self) -> bool:
        return all(b >= 0 and a + b <= 1 for a, b in zip(self.scales, self.offsets))

    def is_cube(self) -> bool:
        return len(set(self.scales)) == 1

    @staticmethod
    def identity(dim: int) -> "Rect":
        one = Fraction(1)
        zero = Fraction(0)
        return Rect((one,) * dim, (zero,) * dim)


def Cube(scale, offsets) -> Rect:
    """A rectangle with one scale on every axis."""
    offsets = tuple(offsets)
    return Rect((rat(scale),) * len(offsets), offsets)


def _intervals(r: Rect) -> tuple:
    """The open image as one (lo, hi) interval per axis."""
    return tuple(map(r.axis_interval, range(r.dim)))


def _meet(box1, box2) -> bool:
    """Do two open boxes, given by their per-axis intervals, share a point?"""
    return all(l1 < h2 and l2 < h1 for (l1, h1), (l2, h2) in zip(box1, box2))


def rects_overlap(r1: Rect, r2: Rect) -> bool:
    """Open images intersect?"""
    return _meet(_intervals(r1), _intervals(r2))


def common_box(rects) -> tuple | None:
    """Common open intersection of images, as (lo, hi) tuples, or None."""
    axes = tuple(zip(*(_intervals(r) for r in rects)))
    lo = tuple(max(l for l, _ in axis) for axis in axes)
    hi = tuple(min(h for _, h in axis) for axis in axes)
    return None if any(l >= h for l, h in zip(lo, hi)) else (lo, hi)


def _overlap_graph(boxes) -> list:
    """Adjacency sets of the pairwise-overlap graph over positions in
    `boxes` (per-axis intervals): one sort on axis 0, then a sweep that
    compares whole boxes only with those still open at the current low end."""
    adj = [set() for _ in boxes]
    window = []
    for i in sorted(range(len(boxes)), key=lambda k: boxes[k][0][0]):
        low = boxes[i][0][0]
        window = [j for j in window if boxes[j][0][1] > low]
        for j in window:
            if _meet(boxes[i], boxes[j]):
                adj[i].add(j)
                adj[j].add(i)
        window.append(i)
    return adj


def _first_clique(adj, size: int, cands) -> tuple | None:
    """The first `size`-subset of `cands` in `combinations` order that is a
    clique of `adj`, or None.  Depth first in candidate order, each step
    keeping only the later candidates adjacent to every chosen vertex; a
    frame (chosen, rest, k) tries rest[k] next."""
    stack = [((), list(cands), 0)]
    while stack:
        chosen, rest, k = stack.pop()
        if len(chosen) == size:
            return chosen
        if len(rest) - k < size - len(chosen):
            continue
        v = rest[k]
        stack.append((chosen, rest, k + 1))
        stack.append((chosen + (v,), [w for w in rest[k + 1:] if w in adj[v]], 0))
    return None


def bounding_rect(rects) -> Rect:
    rects = list(rects)
    dim = rects[0].dim
    lo = tuple(min(r.offsets[j] for r in rects) for j in range(dim))
    hi = tuple(max(r.offsets[j] + r.scales[j] for r in rects) for j in range(dim))
    return Rect(tuple(h - l for l, h in zip(lo, hi)), lo)


# ---------------------------------------------------------------------------
# regimes


REGIMES = ("overlapping", "disjoint", "m-overlap", "u-overlap")


def regime_kind(regime) -> str:
    return regime if isinstance(regime, str) else regime[0]


def regime_str(regime) -> str:
    """The text form of a regime; anything `regime_parse` would not return
    raises OperadicError."""
    if regime in ("overlapping", "disjoint"):
        return regime
    kind = regime[0] if isinstance(regime, tuple) and regime else None
    if kind == "m-overlap" and len(regime) == 2 and _is_count(regime[1]) and regime[1] >= 1:
        return "m-overlap(%d)" % regime[1]
    if kind == "u-overlap" and len(regime) == 3 and isinstance(regime[1], tuple):
        _, blocks, u = regime
        pairs = [(p, q) for p in range(len(blocks)) for q in range(p, len(blocks))]
        # labels must survive the text form, and bounds sit on block pairs
        labels_ok = all(isinstance(block, tuple) and all(
            isinstance(lbl, str) and re.fullmatch(r"[^,|;]+", lbl) for lbl in block) for block in blocks)
        if (labels_ok and isinstance(u, dict) and set(u) <= set(pairs)
                and all(v == "inf" or _is_count(v) for v in u.values())):
            btxt = "|".join(",".join(block) for block in blocks)
            utxt = ",".join("%d:%d=%s" % (p + 1, q + 1, u.get((p, q), "inf")) for p, q in pairs)
            return "u-overlap(%s;%s)" % (btxt, utxt)
    raise OperadicError("unknown regime %r" % (regime,))


def regime_parse(text: str):
    """Inverse of regime_str.  A u-overlap bound "p:q=v" names blocks p <= q
    (1-based) and v is a count or "inf".  The legacy form "pq=v", one digit
    per block, is still read; it is unambiguous for fewer than ten blocks."""
    if not isinstance(text, str):
        raise OperadicError("a regime is written as a string, not %r" % (text,))
    text = text.strip()
    if text in ("overlapping", "disjoint"):
        return text
    m = re.fullmatch(r"m-overlap\(([0-9]{1,9})\)", text)
    if m:
        if int(m.group(1)) < 1:
            raise OperadicError("m-overlap needs m >= 1")
        return ("m-overlap", int(m.group(1)))
    m = re.fullmatch(r"u-overlap\(([^;]*);(.*)\)", text)
    if m:
        blocks = tuple(tuple(lbl for lbl in part.split(",") if lbl) for part in m.group(1).split("|"))
        u = {}
        for item in m.group(2).split(","):
            bound = (re.fullmatch(r"([0-9]{1,9}):([0-9]{1,9})=(inf|[0-9]{1,9})", item)
                     or re.fullmatch(r"([1-9])([1-9])=(inf|[0-9]{1,9})", item))
            if not bound:
                raise OperadicError("malformed u-overlap bound %r" % (item,))
            p, q = int(bound.group(1)) - 1, int(bound.group(2)) - 1
            if not 0 <= p <= q < len(blocks):
                raise OperadicError("u-overlap bound %r names no pair of blocks" % (item,))
            u[(p, q)] = "inf" if bound.group(3) == "inf" else int(bound.group(3))
        return ("u-overlap", blocks, u)
    raise OperadicError("unknown regime %r" % (text,))


# ---------------------------------------------------------------------------
# configurations


@dataclass(frozen=True)
class RectConfig:
    dim: int
    rects: tuple  # sorted tuple of (label, Rect)
    regime: object = "overlapping"

    def __post_init__(self):
        if type(self.dim) is not int or self.dim < 1:
            raise OperadicError("dimension %r is not a positive integer" % (self.dim,))
        try:
            items = tuple(self.rects.items() if isinstance(self.rects, dict) else self.rects)
        except TypeError:
            raise OperadicError("a configuration holds (label, Rect) pairs, not %r"
                                % (self.rects,)) from None
        seen = set()
        for item in items:
            if not (isinstance(item, tuple) and len(item) == 2):
                raise OperadicError("a configuration holds (label, Rect) pairs, not %r" % (item,))
            label, r = item
            if not isinstance(label, str) or not label:
                raise OperadicError("labels must be non-empty strings")
            if label in seen:
                raise OperadicError("duplicate label %r" % (label,))
            seen.add(label)
            if not isinstance(r, Rect) or r.dim != self.dim:
                raise OperadicError("%r is no rectangle of dim %d" % (r, self.dim))
        object.__setattr__(self, "rects", tuple(sorted(items, key=lambda kv: label_key(kv[0]))))
        regime_str(self.regime)  # raises on a malformed regime

    @property
    def labels(self) -> tuple:
        return tuple(lbl for lbl, _ in self.rects)

    @property
    def arity(self) -> int:
        return len(self.rects)

    def rect(self, label: str) -> Rect:
        for lbl, r in self.rects:
            if lbl == label:
                return r
        raise OperadicError("missing slot %r" % (label,))

    def has(self, label: str) -> bool:
        return any(lbl == label for lbl, _ in self.rects)

    def relabel(self, mapping: dict) -> "RectConfig":
        """Injectively rename labels; identity outside the mapping."""
        out = {}
        for lbl, r in self.rects:
            new = mapping.get(lbl, lbl)
            if new in out:
                raise OperadicError("label collision under relabeling: %r" % (new,))
            out[new] = r
        return RectConfig(self.dim, out, self.regime)

    def to_json(self) -> dict:
        return {
            "dim": self.dim,
            "regime": regime_str(self.regime),
            "rects": {
                lbl: {"a": [rat_str(a) for a in r.scales], "b": [rat_str(b) for b in r.offsets]}
                for lbl, r in self.rects
            },
        }

    @staticmethod
    def from_json(data) -> "RectConfig":
        """Inverse of to_json; malformed input raises OperadicError."""
        if isinstance(data, str):
            try:
                data = json.loads(data)
            except (ValueError, RecursionError) as exc:  # RecursionError: nested too deep
                raise OperadicError("configuration is not JSON: %s" % (exc,)) from None
        if not isinstance(data, dict) or "dim" not in data or not isinstance(data.get("rects"), dict):
            raise OperadicError('a configuration needs "dim" and a "rects" object')
        dim = rat(data["dim"])
        if dim.denominator != 1:
            raise OperadicError("dimension %r is not an integer" % (data["dim"],))
        rects = {}
        for lbl, spec in data["rects"].items():
            if not (isinstance(spec, dict) and isinstance(spec.get("a"), list)
                    and isinstance(spec.get("b"), list)):
                raise OperadicError('rectangle %r needs lists "a" and "b"' % (lbl,))
            rects[lbl] = Rect(tuple(rat(a) for a in spec["a"]), tuple(rat(b) for b in spec["b"]))
        return RectConfig(int(dim), rects, regime_parse(data.get("regime", "overlapping")))


def config_from_seq(dim: int, rect_list, regime="overlapping") -> RectConfig:
    """Labels "1", "2", ... in the given order."""
    return RectConfig(dim, {str(i + 1): r for i, r in enumerate(rect_list)}, regime)


def unit_config(label: str, dim: int, regime="overlapping") -> RectConfig:
    return RectConfig(dim, {label: Rect.identity(dim)}, regime)


# ---------------------------------------------------------------------------
# validation


@dataclass(frozen=True)
class ValidationResult:
    ok: bool
    reason: str = ""
    witness: tuple = ()

    def __bool__(self):
        return self.ok


def validate_config(config: RectConfig, regime=None) -> ValidationResult:
    """Containment plus the regime's overlap predicate; total on valid shapes.

    Open axis-parallel boxes have Helly number 2 (Danzer-Gruenbaum-Klee,
    "Helly's theorem and its relatives"): a set of them shares an open point
    exactly when every two of them overlap.  So each regime is decided on the
    pairwise-overlap graph: m-overlap fails on an m-clique, "disjoint" on an
    edge, and u-overlap when a rectangle of block p has u[p,q] pairwise
    overlapping neighbours in block q.

    The witness of a failure is the first forbidden subset in `combinations`
    order over `config.rects`; for u-overlap it is (a,) + chosen for the
    first (p, q, a, chosen) in loop order, with a running over blocks[p] and
    chosen over `combinations` of blocks[q], both in block order.
    """
    regime = config.regime if regime is None else regime
    regime_str(regime)  # raises on a malformed regime
    for lbl, r in config.rects:
        if not r.in_unit():
            return ValidationResult(False, "containment", (lbl,))
    kind = regime_kind(regime)
    if kind == "overlapping":
        return ValidationResult(True)
    labels = config.labels
    if kind == "u-overlap":
        _, blocks, u = regime
        if sorted((lbl for block in blocks for lbl in block), key=label_key) != list(labels):
            return ValidationResult(False, "u-overlap-blocks", labels)
    adj = _overlap_graph([_intervals(r) for _, r in config.rects])
    if kind != "u-overlap":
        got = _first_clique(adj, 2 if kind == "disjoint" else regime[1], range(len(adj)))
        if got is None:
            return ValidationResult(True)
        reason = "disjointness" if kind == "disjoint" else kind
        return ValidationResult(False, reason, tuple(labels[k] for k in got))
    pos = {lbl: k for k, lbl in enumerate(labels)}
    for p in range(len(blocks)):
        for q in range(p, len(blocks)):
            bound = u.get((p, q), "inf")
            if bound == "inf":
                continue
            for a in blocks[p]:
                near = adj[pos[a]]
                got = _first_clique(adj, bound, [pos[b] for b in blocks[q] if pos[b] in near])
                if got is not None:
                    return ValidationResult(False, "u-overlap", (a,) + tuple(labels[k] for k in got))
    return ValidationResult(True)


# ---------------------------------------------------------------------------
# operadic composition


def renumbering(n: int, pos: int, m: int) -> tuple:
    """The relabelings of positional substitution of an m-ary element into
    input pos of an n-ary one: "apart" moves the inner inputs 1..m to fresh
    labels, "back" renumbers the composite to 1..n+m-1, the inner inputs at
    pos..pos+m-1 and the outer inputs after pos shifted by m-1."""
    apart = {str(j): "in:%d" % j for j in range(1, m + 1)}
    back = {"in:%d" % j: str(pos + j - 1) for j in range(1, m + 1)}
    for t in range(pos + 1, n + 1):
        back[str(t)] = str(t + m - 1)
    return apart, back


def perm_mapping(sigma) -> dict:
    """The relabeling of the right permutation action: old input sigma[j]
    becomes input j + 1."""
    return {str(sigma[j]): str(j + 1) for j in range(len(sigma))}


def _positional(labels: tuple) -> bool:
    """Labels in label_key order are "1".."n"."""
    return labels == tuple(str(j) for j in range(1, len(labels) + 1))


def rect_compose(outer: RectConfig, slot, inner: RectConfig) -> RectConfig:
    """Substitute `inner` into input `slot` of `outer`.

    A string slot performs label-set composition: the result is indexed by
    (outer labels minus the slot) plus inner labels, and overlapping label
    sets are an error.  An integer slot requires numeric labels "1".."n" on
    both configurations and renumbers the result to "1".."n+m-1" in the
    standard way (inner block replaces position i).
    """
    if isinstance(slot, int):
        if not (_positional(outer.labels) and _positional(inner.labels)):
            raise OperadicError("positional composition needs labels 1..n")
        if not 1 <= slot <= outer.arity:
            raise OperadicError("missing slot %d" % slot)
        apart, back = renumbering(outer.arity, slot, inner.arity)
        return rect_compose(outer, str(slot), inner.relabel(apart)).relabel(back)
    if outer.dim != inner.dim:
        raise OperadicError("dim mismatch: %d vs %d" % (outer.dim, inner.dim))
    socket = outer.rect(slot)  # raises on missing slot
    out = {lbl: r for lbl, r in outer.rects if lbl != slot}
    for lbl, r in inner.rects:
        if lbl in out:
            raise OperadicError("label collision %r in composition" % (lbl,))
        out[lbl] = socket.compose(r)
    return RectConfig(outer.dim, out, outer.regime)


# ---------------------------------------------------------------------------
# paddings and splittings


def pad_rect(r: Rect, dim2: int, mode: str) -> Rect:
    """Extend a rectangle to a higher dimension.

    mode "rect": identity on the new axes.
    mode "cube": input must be a cube; new axes get the same scale, centered.
    """
    if dim2 < r.dim:
        raise OperadicError("cannot pad dim %d to smaller dim %d" % (r.dim, dim2))
    extra = dim2 - r.dim
    if mode == "rect":
        return Rect(r.scales + (Fraction(1),) * extra, r.offsets + (Fraction(0),) * extra)
    if mode == "cube":
        if not r.is_cube():
            raise OperadicError("non-cube rectangle in cube mode")
        a = r.scales[0]
        c = (1 - a) / 2
        return Rect(r.scales + (a,) * extra, r.offsets + (c,) * extra)
    raise OperadicError("unknown padding mode %r" % (mode,))


def include_rect(config: RectConfig, dim2: int, mode: str) -> RectConfig:
    """Apply pad_rect to every member; an operad map for both modes."""
    return RectConfig(dim2, {lbl: pad_rect(r, dim2, mode) for lbl, r in config.rects}, config.regime)


def embed_component(config: RectConfig, cube_dim: int, ambient_dim: int) -> RectConfig:
    """Centered padding up to cube_dim, then identity padding up to ambient_dim.

    Places a lower-dimensional cube configuration into the ambient rectangle
    operad; used for the per-component right actions on glued configurations.
    """
    return include_rect(include_rect(config, cube_dim, "cube"), ambient_dim, "rect")


def cube_split(k: int, n: int) -> RectConfig:
    """k slabs of [0,1]^n stacked along the last axis, labels "1".."k"."""
    if k < 1 or n < 1:
        raise OperadicError("cube_split needs k >= 1 and n >= 1")
    one = Fraction(1)
    rects = {}
    for i in range(k):
        scales = (one,) * (n - 1) + (Fraction(1, k),)
        offsets = (Fraction(0),) * (n - 1) + (Fraction(i, k),)
        rects[str(i + 1)] = Rect(scales, offsets)
    return RectConfig(n, rects, "disjoint")


# ---------------------------------------------------------------------------
# marked fiber configurations and the glueing map


@dataclass(frozen=True)
class MarkedFiberConfig:
    """Per-component cube configurations with matching marked images.

    configs[i] is a cube configuration of dimension dims[i] containing the
    marked label "*", or None when the component is absent.  The centered
    paddings of the marked cubes to the ambient dimension must coincide.
    """

    dims: tuple
    ambient: int
    configs: tuple

    def __post_init__(self):
        dims = tuple(int(d) for d in self.dims)
        object.__setattr__(self, "dims", dims)
        object.__setattr__(self, "configs", tuple(self.configs))
        if len(dims) != len(self.configs):
            raise OperadicError("dims/configs length mismatch")
        if any(d1 > d2 for d1, d2 in zip(dims, dims[1:])):
            raise OperadicError("component dimensions must be nondecreasing")
        if not any(c is not None for c in self.configs):
            raise OperadicError("at least one component must be present")
        marked_pads = []
        for d, cfg in zip(dims, self.configs):
            if cfg is None:
                continue
            if d >= self.ambient:
                raise OperadicError("component dimension %d must be < ambient %d" % (d, self.ambient))
            if cfg.dim != d:
                raise OperadicError("component config has wrong dimension")
            for lbl, r in cfg.rects:
                if not r.is_cube():
                    raise OperadicError("non-cube rectangle in marked fiber component")
            if not cfg.has(MARK):
                raise OperadicError("component config missing marked label")
            ok = validate_config(cfg, "disjoint")
            if not ok:
                raise OperadicError("marked fiber component invalid: %s %r" % (ok.reason, ok.witness))
            marked_pads.append(pad_rect(cfg.rect(MARK), self.ambient, "cube"))
        if any(p != marked_pads[0] for p in marked_pads):
            raise OperadicError("fiber condition violation: marked cubes disagree")

    @property
    def present(self) -> tuple:
        return tuple(i for i, c in enumerate(self.configs) if c is not None)


def qualify(i: int, a: str) -> str:
    """The label of input a of component i (0-based) in a glued configuration."""
    return "%d:%s" % (i + 1, a)


def glue_shared(dims: tuple, ambient: int, configs: tuple) -> RectConfig:
    """Stack compatible components into last-axis slabs and fuse the
    rectangles sharing a label.

    configs[i] is a cube configuration of dimension dims[i] over a plain label
    set, or None for an absent component.  A label appearing in several
    components must appear in all present ones, with centered paddings of its
    cubes agreeing (the pairwise compatibility condition); the fused rectangle
    is the bounding box of its copies, which that condition makes an exact
    union of slab columns.
    """
    present = [i for i, c in enumerate(configs) if c is not None]
    if not present:
        raise OperadicError("at least one component must be present")
    l = len(present)
    count = {}
    for i in present:
        cfg = configs[i]
        if cfg.dim != dims[i]:
            raise OperadicError("component config has wrong dimension")
        if dims[i] >= ambient:
            raise OperadicError("component dimension %d must be < ambient %d" % (dims[i], ambient))
        for lbl, r in cfg.rects:
            if not r.is_cube():
                raise OperadicError("non-cube rectangle in shared-glue component")
            count[lbl] = count.get(lbl, 0) + 1
        ok = validate_config(cfg, "disjoint")
        if not ok:
            raise OperadicError("shared-glue component invalid: %s %r" % (ok.reason, ok.witness))
    for lbl, c in count.items():
        if c != 1 and c != l:
            raise OperadicError("label %r shared by %d of %d components" % (lbl, c, l))
        if c == l and l > 1:
            pads = [pad_rect(configs[i].rect(lbl), ambient, "cube") for i in present]
            if any(p != pads[0] for p in pads):
                raise OperadicError("fiber condition violation at shared label %r" % (lbl,))
    slabs = cube_split(l, ambient)
    groups = {}
    for pos, i in enumerate(present):
        placed = embed_component(configs[i], dims[-1], ambient)
        slab = slabs.rect(str(pos + 1))
        for lbl, r in placed.rects:
            groups.setdefault(lbl, []).append(slab.compose(r))
    out = {}
    for lbl, rects in groups.items():
        fused = bounding_rect(rects)
        _assert_exact_union(fused, rects)
        out[lbl] = fused
    result = RectConfig(ambient, out, "disjoint")
    ok = validate_config(result, "disjoint")
    if not ok:
        raise OperadicError("glued configuration not disjoint: %r" % (ok.witness,))
    return result


def epsilon_glue(f: MarkedFiberConfig) -> RectConfig:
    """Stack the present components into last-axis slabs and fuse their marked
    rectangles into a single one.

    The result is a disjoint configuration over the labels "i:a" (component i,
    label a) plus "*": `glue_shared` with the mark as the one shared label.
    """
    configs = tuple(
        None if cfg is None else cfg.relabel({a: qualify(i, a) for a in cfg.labels if a != MARK})
        for i, cfg in enumerate(f.configs)
    )
    return glue_shared(f.dims, f.ambient, configs)


def _assert_exact_union(box: Rect, parts) -> None:
    """The fused rectangles must tile their bounding box exactly."""
    if any(_overlap_graph([_intervals(r) for r in parts])):
        raise OperadicError("glued rectangles overlap")
    total = Fraction(0)
    for r in parts:
        vol = Fraction(1)
        for a in r.scales:
            vol *= a
        total += vol
    box_vol = Fraction(1)
    for a in box.scales:
        box_vol *= a
    if total != box_vol:
        raise OperadicError("glued rectangles do not tile their bounding box")


# ---------------------------------------------------------------------------
# configuration-space coordinates


@dataclass(frozen=True)
class FMCoords:
    n: int
    dim: int
    directions: tuple  # tuple of ((i, j), vector)
    ratio_squares: tuple  # tuple of ((i, j, k), Fraction)

    def direction(self, i: int, j: int) -> tuple:
        return dict(self.directions)[(i, j)]

    def ratio_square(self, i: int, j: int, k: int):
        return dict(self.ratio_squares)[(i, j, k)]

    def to_json(self) -> dict:
        return {
            "n": self.n,
            "dim": self.dim,
            "directions": {"%d,%d" % ij: [rat_str(c) for c in v] for ij, v in self.directions},
            "ratioSquares": {"%d,%d,%d" % ijk: rat_str(v) for ijk, v in self.ratio_squares},
        }


def fm_coords(points) -> FMCoords:
    """Unnormalized pairwise directions and squared distance ratios.

    points are 1-indexed in the output keys; they must be pairwise distinct,
    so every ratio (i, j, k) = |x_i - x_j|^2 / |x_i - x_k|^2 is a positive
    finite Fraction.
    """
    pts = [tuple(rat(c) for c in p) for p in points]
    n = len(pts)
    if n < 1:
        raise OperadicError("need at least one point")
    dim = len(pts[0])
    if any(len(p) != dim for p in pts):
        raise OperadicError("points of mixed dimension")
    for i in range(n):
        for j in range(i + 1, n):
            if pts[i] == pts[j]:
                raise OperadicError("points %d and %d coincide" % (i + 1, j + 1))

    def dist2(p, q):
        return sum((a - b) ** 2 for a, b in zip(p, q))

    directions = []
    for i in range(n):
        for j in range(n):
            if i != j:
                vec = tuple(b - a for a, b in zip(pts[i], pts[j]))
                directions.append(((i + 1, j + 1), vec))
    ratios = []
    for i in range(n):
        for j in range(n):
            for k in range(n):
                if len({i, j, k}) == 3:
                    val = dist2(pts[i], pts[j]) / dist2(pts[i], pts[k])
                    ratios.append(((i + 1, j + 1, k + 1), val))
    return FMCoords(n, dim, tuple(directions), tuple(ratios))


# ---------------------------------------------------------------------------
# standard embeddings (cube components plus one anti-cube component)


@dataclass(frozen=True)
class StandardEmbedding:
    """Componentwise positive-scaling-plus-translation map between families of
    unit cubes with one distinguished unbounded component labeled "*".

    alpha sends source components to target components ("*" to "*"); maps[a]
    is (scale, translation) acting on component a's copy of the cube (or on
    the complement of the cube for "*").
    """

    dim: int
    source: tuple
    target: tuple
    alpha: tuple  # sorted tuple of (src, tgt)
    maps: tuple  # sorted tuple of (src, (scale, translation))

    def __post_init__(self):
        src = tuple(sorted(self.source, key=label_key))
        tgt = tuple(sorted(self.target, key=label_key))
        object.__setattr__(self, "source", src)
        object.__setattr__(self, "target", tgt)
        alpha = tuple(sorted(dict(self.alpha).items(), key=lambda kv: label_key(kv[0])))
        object.__setattr__(self, "alpha", alpha)
        maps = []
        for a, (scale, vec) in sorted(dict(self.maps).items(), key=lambda kv: label_key(kv[0])):
            maps.append((a, (rat(scale), tuple(rat(c) for c in vec))))
        object.__setattr__(self, "maps", tuple(maps))
        if MARK not in src or MARK not in tgt:
            raise OperadicError("families must contain the anti-cube label")
        amap = dict(alpha)
        if set(amap) != set(src) or not set(amap.values()) <= set(tgt):
            raise OperadicError("component map must cover the source family")
        if amap[MARK] != MARK:
            raise OperadicError("anti-cube must map to the anti-cube")
        mm = dict(maps)
        if set(mm) != set(src):
            raise OperadicError("every component needs an affine map")
        for a, (scale, vec) in mm.items():
            if scale <= 0:
                raise OperadicError("scales must be positive")
            if len(vec) != self.dim:
                raise OperadicError("translation dimension mismatch")

    def component_map(self, a: str) -> tuple:
        return dict(self.maps)[a]

    def image_box(self, a: str) -> tuple:
        """(lo, hi) of the image of the open unit cube under component a."""
        scale, vec = self.component_map(a)
        return (tuple(vec), tuple(scale + c for c in vec))


def _box_inside(inner, outer) -> bool:
    return all(lo >= lo2 and hi <= hi2 for lo, hi, lo2, hi2 in zip(inner[0], inner[1], outer[0], outer[1]))


def validate_embedding(e: StandardEmbedding) -> ValidationResult:
    amap = dict(e.alpha)
    hole_scale, hole_vec = e.component_map(MARK)
    hole = (tuple(hole_vec), tuple(hole_scale + c for c in hole_vec))
    unit = (tuple(Fraction(0) for _ in range(e.dim)), tuple(Fraction(1) for _ in range(e.dim)))
    if not _box_inside(unit, hole):
        return ValidationResult(False, "containment", (MARK,))
    for a in e.source:
        if a == MARK:
            continue
        box = e.image_box(a)
        if amap[a] == MARK:
            # into the complement: avoid the closed unit cube, stay in the hole
            if not any(hi <= 0 or lo >= 1 for lo, hi in zip(box[0], box[1])):
                return ValidationResult(False, "containment", (a,))
            if not _box_inside(box, hole):
                return ValidationResult(False, "containment", (a, MARK))
        else:
            if not _box_inside(box, unit):
                return ValidationResult(False, "containment", (a,))
    cubes = [a for a in e.source if a != MARK]
    boxes = {a: tuple(zip(*e.image_box(a))) for a in cubes}
    for i in range(len(cubes)):
        for j in range(i + 1, len(cubes)):
            a, b = cubes[i], cubes[j]
            if amap[a] == amap[b] and _meet(boxes[a], boxes[b]):
                return ValidationResult(False, "disjointness", (a, b))
    return ValidationResult(True)


def semb_compose(f: StandardEmbedding, g: StandardEmbedding) -> StandardEmbedding:
    """Diagrammatic composite: f from A to B, then g from B to C."""
    if f.dim != g.dim:
        raise OperadicError("dim mismatch in embedding composition")
    if f.target != g.source:
        raise OperadicError("embedding families do not line up")
    for e in (f, g):
        ok = validate_embedding(e)
        if not ok:
            raise OperadicError("containment violation at %r: %s" % (ok.witness, ok.reason))
    fa, ga = dict(f.alpha), dict(g.alpha)
    alpha = {a: ga[fa[a]] for a in f.source}
    maps = {}
    for a in f.source:
        s1, v1 = f.component_map(a)
        s2, v2 = g.component_map(fa[a])
        maps[a] = (s2 * s1, tuple(s2 * c1 + c2 for c1, c2 in zip(v1, v2)))
    out = StandardEmbedding(f.dim, f.source, g.target, alpha, maps)
    ok = validate_embedding(out)
    if not ok:
        raise OperadicError("containment violation at %r: %s" % (ok.witness, ok.reason))
    return out


def identity_embedding(dim: int, labels) -> StandardEmbedding:
    labels = tuple(labels)
    if MARK not in labels:
        labels = labels + (MARK,)
    one = Fraction(1)
    zero = tuple(Fraction(0) for _ in range(dim))
    return StandardEmbedding(
        dim,
        labels,
        labels,
        {a: a for a in labels},
        {a: (one, zero) for a in labels},
    )
