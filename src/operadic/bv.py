"""Resolutions by time-weighted decorated trees.

Four flavors of points share one rewrite engine, differing in tree layout
and in what decorates the vertices:

"ib"     pearled forests ("pTree"); the joint pearl carries a module value,
         spine vertices carry marked product points and the remaining
         vertices carry operad elements of their own component
"b"      section forests ("sTree"); pearls carry module values, the shared
         below part carries fiber points and the above parts carry operad
         elements
"inter"  a single pearled tree ("pTreeP") in which every vertex, pearl
         included, carries a fiber point over the edge pattern recorded in
         the marks
"w"      a single plain tree over one operad, every vertex carrying an
         operad element

Every non-pearl vertex carries a rational time in [0, 1]; pearls sit at
time zero.  Along an inner edge the time grows away from the pearls (for
"w" the times are unconstrained).  Canonical form contracts equal-time
neighbours, a pearl counting as time zero, removes unit-decorated vertices
and sorts children by content; `bv_normalize` is idempotent and its result
does not depend on the rewrite order.  The engine has seven rules:
`contract` and `drop-unit` for every pearled flavor, `absorb-star`,
`drop-base-pearl` and `pearlize` for the section forests of "b", and
`contract-zero` and `drop-unit-w` for "w", whose times are edge lengths.
`contract-zero` is `contract` under the W condition t == 0, and
`drop-unit-w` is `drop-unit` with the merged edge keeping the longer
length.

A point keys its pearls and the vertices below by path, its upper vertices
by (component, path) and each time as its vertex; a "w" point keys its
times by vertex path.  The engine keys all of them by vertex key (i, path),
i None for a joint vertex: a "w" vertex is an upper vertex of component 0,
so its time sits under (0, path).  `_TimedState.of_tree` converts a point's
keys on the way in and `_point_of` on the way out.

The rewrite engine is the one of `freeconstr`: a free point is the "ib" or
"b" point with every time at one (`bv_tau`), and the free normal form is the
timed one there.  The decoration checks of all four flavors live in
`freeconstr` (`_check_decorations`); this module adds the points with times,
the checks of their times and leaf labels, and their actions.  Absorbing into
the pearls goes through the module operations that `freeconstr.module_ops`
finds for the pearls' carrier.

Validation happens once, at the boundary.  `BVPoint` checks every point a
caller builds.  `bv_act`, `intermediate_act`, `bv_normalize` and `bv_tau`
start from checked points, check each operand as it is grafted on, and
freeze the engine's result without a second check (`_point_of`).
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

from .errors import OperadicError
from .exactgeom import rat
from .freeconstr import (
    _TimedState,
    _act,
    _check_decorations,
    _decorations,
    _free_state,
    _is_path,
    _is_upper_key,
    _name_inputs,
    _pearlward,
    _sorted_items,
)
from .trees import KFoldTree, _frozen, is_vertex, vertices

_LAYOUT = {"ib": "pTree", "b": "sTree", "inter": "pTreeP", "w": "plain"}


# ---------------------------------------------------------------------------
# keys and small helpers


def _time_sort_key(key):
    if _is_upper_key(key):
        return (1, key[0], key[1])
    return (0, 0, key)


def _as_time(value) -> Fraction:
    t = rat(value)
    if t < 0 or t > 1:
        raise OperadicError("time %s out of range" % (t,))
    return t


# ---------------------------------------------------------------------------
# the point


@dataclass(frozen=True)
class BVPoint:
    """A decorated tree family with rational vertex times.

    `pearls` and `below` map joint vertex paths to decorations, `upper` maps
    (component, path) pairs to operad elements, and `times` mixes both key
    kinds.  Leaf labels are distinct decimal strings per component; they need
    not be positional, so points can live inside larger label schemes.
    """

    flavor: str
    family: object
    tree: KFoldTree
    pearls: tuple = ()
    below: tuple = ()
    upper: tuple = ()
    times: tuple = ()

    def __post_init__(self):
        for name, keyed in (("pearls", _is_path), ("below", _is_path), ("upper", _is_upper_key)):
            object.__setattr__(self, name, _sorted_items(getattr(self, name), keyed))
        times = _sorted_items(self.times, lambda key: _is_path(key) or _is_upper_key(key),
                              lambda kv: _time_sort_key(kv[0]))
        object.__setattr__(self, "times", tuple((key, _as_time(t)) for key, t in times))
        _validate_point(self)

    def leaf_labels(self, i: int) -> tuple:
        """Leaf labels of one component in planar order."""
        return tuple(s for _, s in self.tree.components[i].labels)


def _check_decimal_labels(tree: KFoldTree):
    """Leaf labels are canonical decimals: "0" or ASCII digits without a
    leading zero, so that no two labels name one number."""
    for i, c in enumerate(tree.components):
        for _, s in c.labels:
            if s != "0" and not (s.isascii() and s.isdigit() and s[0] != "0"):
                raise OperadicError(
                    "leaf label %r of component %d is not decimal" % (s, i)
                )


def _check_monotone(p: BVPoint):
    """Times must not decrease along edges oriented away from the pearls.

    The pearls themselves sit at time zero, so their boundary constraints
    are vacuous and are not checked."""
    times = dict(p.times)
    for i, c in enumerate(p.tree.components):
        for v in vertices(c.shape):
            if not v or v in c.pearls or v[:-1] in c.pearls:
                continue
            tc, tp = (times[u] if u in times else times[(i, u)] for u in (v, v[:-1]))
            ok = tp >= tc if _pearlward(c.pearls, v) else tc >= tp
            if not ok:
                raise OperadicError(
                    "time monotonicity violated at edge %r of component %d"
                    % (v, i)
                )


def _validate_point(p: BVPoint):
    if p.flavor not in _LAYOUT:
        raise OperadicError("unknown flavor %r" % (p.flavor,))
    variant = getattr(p.tree, "variant", None)
    if variant != _LAYOUT[p.flavor]:
        raise OperadicError("flavor %r needs a %r tree, got %r" % (p.flavor, _LAYOUT[p.flavor], variant))
    timed = _check_decorations(p.flavor, p.family, p.tree, dict(p.pearls), dict(p.below),
                               dict(p.upper))
    _check_decimal_labels(p.tree)
    if {key for key, _ in p.times} != timed:
        raise OperadicError("times must cover the timed vertices of flavor %r" % (p.flavor,))
    if p.flavor != "w":  # W-construction edge lengths are unconstrained
        _check_monotone(p)


# ---------------------------------------------------------------------------
# conversions with the free constructions


def _state_of(p):
    """The engine state of a timed point."""
    if not isinstance(p, BVPoint):
        raise OperadicError("%r is no timed point" % (type(p).__name__,))
    return _TimedState.of_tree(p.flavor, p.family, p.tree, dict(p.pearls), dict(p.below),
                               dict(p.upper), dict(p.times))


def _point_of(st: _TimedState) -> BVPoint:
    """The timed point of a state built from checked points and operands,
    frozen without `BVPoint`'s checks; the fields are ordered as
    `BVPoint.__post_init__` orders them."""
    times = {(path if i is None or st.flavor == "w" else (i, path)): t
             for (i, path), t in st.times.items()}
    return _frozen(
        BVPoint,
        st.flavor,
        st.family,
        KFoldTree(_LAYOUT[st.flavor], st.components(), tuple(st.marks.items())),
        *_decorations(st),
        tuple(sorted(times.items(), key=lambda kv: _time_sort_key(kv[0]))),
    )


def bv_tau(pt) -> BVPoint:
    """Embed a free point with every non-pearl vertex at time one."""
    return _point_of(_free_state(pt))


def bv_eta(p: BVPoint, rng=None):
    """Send every time to zero and contract fully; the result is the value
    of the underlying composition, with inputs named by the leaf labels."""
    st = _state_of(p)
    st.times = dict.fromkeys(st.times, Fraction(0))
    st.run(rng)
    if p.flavor == "w":
        model = p.family
        shape = st.shapes[0]
        if not is_vertex(shape):
            return model.unit(st.labels[0][()])
        if vertices(shape) != [()]:
            raise OperadicError("the collapse left more than one vertex")
        mapping = {str(s + 1): st.labels[0][(s,)] for s in range(len(shape))}
        return model.relabel(st.dec[(0, ())], mapping)
    if set(st.dec) != {(None, ())} or st.pearls != {()}:
        raise OperadicError("the collapse left non-pearl vertices")
    return _name_inputs(st.dec[(None, ())], st.shapes, st.labels)


def bv_normalize(p: BVPoint, rng=None) -> BVPoint:
    """The canonical form; the rewrite order (rng) never changes the result."""
    return _point_of(_state_of(p).run(rng))


# ---------------------------------------------------------------------------
# module actions on the pearled flavors


def bv_act(p: BVPoint, action, rng=None) -> BVPoint:
    """Graft at time one and renormalize.

    Actions are ("right", i, j, x) with x an operad element of component i
    placed at the leaf labeled j, ("left", theta) for the "ib" flavor, and
    ("left", fiber, operands) with operand points for the "b" flavor."""
    st = _state_of(p)
    if st.flavor not in ("ib", "b"):
        raise OperadicError("module actions apply to the pearled flavors")
    return _point_of(_act(st, action, _state_of).run(rng))


# ---------------------------------------------------------------------------
# actions on the single-tree fiber flavor


def intermediate_act(x: BVPoint, action, rng=None) -> BVPoint:
    """Graft a fiber corolla at time one.

    ("right", j, fiber) replaces the leaf labeled j; the fiber's sentinel
    pattern must match the leaf's marks.  ("left", theta) adds a new root
    whose first input carries the old tree and whose remaining inputs split
    into consecutive blocks, one per component."""
    st = _state_of(x)
    if st.flavor != "inter":
        raise OperadicError("intermediate actions apply to the fiber flavor")
    return _point_of(_act(st, action, _state_of).run(rng))
