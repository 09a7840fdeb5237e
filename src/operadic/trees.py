"""Planar rooted trees, pearls, sections and their labeled families.

A tree is a nested tuple: every vertex is the tuple of its children and every
child is either a vertex or the LEAF sentinel; () is a vertex with no inputs
(a univalent vertex).  Vertices, leaves and edges are addressed by paths from
the root; the edge above a node shares the node's path, so the trunk (the
root's output edge) is ().

Variants of labeled families (KFoldTree):

"rpTree"  pearled trees, one per component, equal pearl depth, reduced:
          every non-pearl vertex shares an edge with the pearl
"pTree"   pearled trees with equal pearl depth, no reduction
"rsTree"  trees with a pearl section and identical below-section parts,
          reduced (every inner edge touches a pearl), plus internal/external
          markings of the below-part edges
"sTree"   as rsTree without the reduction
"pTreeP"  a single pearled tree without univalent vertices other than the
          pearl, plus k internal/external markings defined on all edges

Pearls of pearled variants sit on the leftmost spine (the path from the first
tip in planar order to the root), so their paths are all zeros.  Marks are
stored as {(component index, edge path): internal?}.

Enumeration lists one canonical representative (`canonicalize`: every child
list sorted by encoding, bottom-up) per orbit that holds a tree with leaves
labeled "1".."n" in planar order.  The representative itself need not keep
that order: pTree ((1, 2), 3) with the pearl at the root is listed as
(3, (1, 2)), because a leaf sorts before a vertex.  Each representative is
built once, directly.  In a tree labeled in planar order, the children of a
vertex that carry leaves hold consecutive label intervals, in slot order, and
are told apart by them; only leafless children, with their marks, can trade
places.  So one memoised recursion over (label interval, vertex count, parent
edge's internal set) picks an interval composition plus a multiset of
leafless children and sorts them by their encodings; on the spine of a
pearled variant the spine child keeps slot 0 and takes the first interval.
Below a section the components share their vertices and sort their children
jointly; two joint children may trade places only when no component gives
leaves to both, so a sequence of them is kept in its least order only.

Markings are pushed down in the same recursion.  Each edge carries the set
of marking indices in which it is internal, and an edge's set lies inside
its parent edge's set (an external output forces external inputs).  In
pTreeP the pearl's edge and its ancestors are internal in every marking, and
any other edge is internal in none, exactly one or all of them.  In section
variants the trunk is internal exactly in the components with a leaf count
(arity None is a trivial component), every other edge is internal in exactly
one component or in all, and an edge below a pearl with inputs is internal
in that pearl's component.

The poset of non-planar pearled trees (psi_category) is generated, not
filtered: one recursion over set partitions of the leaf labels builds each
isomorphism class once, as its canonical representative.  Its arrows are
edge contractions computed on the objects' nested-tuple keys.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from itertools import product
from operator import add, itemgetter

from .errors import OperadicError

VARIANTS = ("rpTree", "pTree", "rsTree", "sTree", "pTreeP", "plain")


class _LeafType:
    _instance = None

    def __new__(cls):
        if cls._instance is None:
            cls._instance = super().__new__(cls)
        return cls._instance

    def __repr__(self):
        return "leaf"


LEAF = _LeafType()


def _is_count(v) -> bool:
    return type(v) is int and v >= 0


def _frozen(cls, *values):
    """An instance of the frozen dataclass cls from its field values, in
    field order, that are already checked and normal: __post_init__ does not
    run.  Only results built from checked inputs by operations that keep
    every condition of cls come through here."""
    obj = object.__new__(cls)
    for name, value in zip(cls.__dataclass_fields__, values, strict=True):
        object.__setattr__(obj, name, value)
    return obj


# ---------------------------------------------------------------------------
# shape primitives


def is_vertex(node) -> bool:
    return isinstance(node, tuple)


def subtree(tree, path):
    node = tree
    for i in path:
        if not (is_vertex(node) and type(i) is int and 0 <= i < len(node)):
            raise OperadicError("path %r not in tree" % (path,))
        node = node[i]
    return node


def replace(tree, path, new):
    if not path:
        return new
    head, rest = path[0], path[1:]
    return tree[:head] + (replace(tree[head], rest, new),) + tree[head + 1 :]


def vertices(tree) -> list:
    """Paths of all vertices, depth-first preorder."""
    out = []

    def walk(node, path):
        if is_vertex(node):
            out.append(path)
            for i, child in enumerate(node):
                walk(child, path + (i,))

    walk(tree, ())
    return out


def leaves(tree) -> list:
    out = []

    def walk(node, path):
        if is_vertex(node):
            for i, child in enumerate(node):
                walk(child, path + (i,))
        else:
            out.append(path)

    walk(tree, ())
    return out


def tips(tree) -> list:
    """Leaves and univalent vertices, planar order."""
    out = []

    def walk(node, path):
        if is_vertex(node):
            if not node:
                out.append(path)
            for i, child in enumerate(node):
                walk(child, path + (i,))
        else:
            out.append(path)

    walk(tree, ())
    return out


def arity(tree, path) -> int:
    node = subtree(tree, path)
    if not is_vertex(node):
        raise OperadicError("not a vertex: %r" % (path,))
    return len(node)


def is_ancestor(p, q) -> bool:
    """p weakly above q (a prefix of q)."""
    return len(p) <= len(q) and q[: len(p)] == p


def pearl_positions(shape) -> list:
    """Valid pearl paths: all-zeros descents ending at a vertex."""
    out, node, path = [], shape, ()
    while is_vertex(node):
        out.append(path)
        if not node:
            break
        node, path = node[0], path + (0,)
    return out


def corolla(n: int):
    return (LEAF,) * n


# ---------------------------------------------------------------------------
# component trees and k-fold families


@dataclass(frozen=True)
class ComponentTree:
    """One planar tree with pearls and leaf labels."""

    shape: tuple
    pearls: frozenset = frozenset()
    labels: tuple = ()  # ((leaf path, label), ...) covering leaves in order
    n_vertices: int = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        object.__setattr__(self, "pearls", frozenset(tuple(p) for p in self.pearls))
        lvs = leaves(self.shape)
        if self.labels:
            lab = tuple((tuple(p), str(s)) for p, s in self.labels)
        else:
            lab = tuple((p, str(i + 1)) for i, p in enumerate(lvs))
        object.__setattr__(self, "labels", lab)
        if [p for p, _ in lab] != lvs:
            raise OperadicError("labels must cover the leaves in planar order")
        if len({s for _, s in lab}) != len(lab):
            raise OperadicError("duplicate leaf labels")
        vs = set(vertices(self.shape))
        object.__setattr__(self, "n_vertices", len(vs))
        for p in self.pearls:
            if p not in vs:
                raise OperadicError("pearl %r is not a vertex" % (p,))

    @property
    def n_leaves(self) -> int:
        return len(self.labels)

    def relabel(self, mapping: dict) -> "ComponentTree":
        new = tuple((p, mapping.get(s, s)) for p, s in self.labels)
        return ComponentTree(self.shape, self.pearls, new)


@dataclass(frozen=True)
class KFoldTree:
    """A family of component trees with edge marks and a variant tag.

    marks[(i, path)] is True when the edge above `path` is internal in the
    i-th marking.  Section variants mark the below-part edges (keyed by pearl
    and below-vertex paths, trunk included); pTreeP marks every edge of its
    single tree for each of the k markings.
    """

    variant: str
    components: tuple
    marks: tuple = ()

    def __post_init__(self):
        if self.variant not in VARIANTS:
            raise OperadicError("unknown variant %r" % (self.variant,))
        if not (isinstance(self.components, (tuple, list))
                and all(isinstance(c, ComponentTree) for c in self.components)):
            raise OperadicError("components must be a sequence of ComponentTree")
        object.__setattr__(self, "components", tuple(self.components))
        items = tuple(sorted(((int(i), tuple(p)), bool(v)) for (i, p), v in dict(self.marks).items()))
        object.__setattr__(self, "marks", items)

    def marks_dict(self) -> dict:
        return dict(self.marks)

    @property
    def arities(self) -> tuple:
        """Leaf counts; None for trivial (all-external) section components."""
        if self.variant in ("rsTree", "sTree"):
            marks = self.marks_dict()
            return tuple(
                c.n_leaves if marks.get((i, ()), False) else None for i, c in enumerate(self.components)
            )
        return tuple(c.n_leaves for c in self.components)

    @property
    def total_vertices(self) -> int:
        return sum(c.n_vertices for c in self.components)


# ---------------------------------------------------------------------------
# pearls and sections


def pearl_of(c: ComponentTree) -> tuple:
    if len(c.pearls) != 1:
        raise OperadicError("expected a single pearl")
    return next(iter(c.pearls))


def spine_paths(c: ComponentTree) -> list:
    """The pearl's strict ancestors, root first."""
    p = pearl_of(c)
    return [p[:j] for j in range(len(p))]


def below_paths(c: ComponentTree) -> list:
    """Vertices strictly below the section."""
    out = []
    for v in vertices(c.shape):
        if v in c.pearls:
            continue
        if not any(is_ancestor(p, v) for p in c.pearls):
            out.append(v)
    return out


def truncate_below(c: ComponentTree):
    """The below-section shape with pearls cut to markers."""

    def walk(node, path):
        if path in c.pearls:
            return ("P",)
        if not is_vertex(node):
            raise OperadicError("a tip escapes the section")
        return tuple(walk(child, path + (i,)) for i, child in enumerate(node))

    return walk(c.shape, ())


def section_edge_paths(c: ComponentTree) -> list:
    """Paths keying the below-part edges: each below vertex and each pearl
    keys its own output edge, the root keying the trunk."""
    return sorted(below_paths(c) + list(c.pearls))


# ---------------------------------------------------------------------------
# validation


def has_null_non_pearl(c: ComponentTree) -> bool:
    """True when some vertex other than a pearl has no inputs (is univalent)."""
    return any(arity(c.shape, v) == 0 and v not in c.pearls for v in vertices(c.shape))


def _check_pearled(c: ComponentTree):
    if len(c.pearls) != 1:
        return "pearl-count"
    if pearl_of(c) not in pearl_positions(c.shape):
        return "pearl-not-on-spine"
    return None


def _reduced(c: ComponentTree) -> bool:
    """Every vertex is the pearl, the pearl's parent or a child of the pearl."""
    p = pearl_of(c)
    return all(v == p or v == p[:-1] or v[:-1] == p for v in vertices(c.shape))


def _check_section(c: ComponentTree):
    if not c.pearls:
        return "pearl-count"
    for t in tips(c.shape):
        hits = sum(1 for p in c.pearls if is_ancestor(p, t))
        if hits != 1:
            return "section-cover"
    for p in c.pearls:
        for q in c.pearls:
            if p != q and is_ancestor(p, q):
                return "section-cover"
    return None


def validate_labeling(t: KFoldTree):
    """(ok, clause): clause names the first violated condition, if any."""
    if not isinstance(t, KFoldTree):
        return False, "not-a-tree"
    try:
        clause = _validate(t)
    except OperadicError as exc:
        return False, str(exc)
    return clause is None, clause


def _validate(t: KFoldTree):
    if t.variant in ("rpTree", "pTree"):
        if not t.components:
            return "component-count"
        if t.marks:
            return "unexpected-marks"
        depths = set()
        for c in t.components:
            bad = _check_pearled(c)
            if bad:
                return bad
            depths.add(len(pearl_of(c)))
        if len(depths) != 1:
            return "pearl-depth-mismatch"
        if t.variant == "rpTree" and not all(_reduced(c) for c in t.components):
            return "not-reduced"
        return None

    if t.variant in ("rsTree", "sTree"):
        if not t.components:
            return "component-count"
        shapes = set()
        for c in t.components:
            bad = _check_section(c)
            if bad:
                return bad
            shapes.add(truncate_below(c))
        if len(shapes) != 1:
            return "below-shape-mismatch"
        if t.variant == "rsTree":
            for c in t.components:
                for v in vertices(c.shape):
                    if v and v not in c.pearls and v[:-1] not in c.pearls:
                        return "not-reduced"
        k = len(t.components)
        marks = t.marks_dict()
        edge_paths = section_edge_paths(t.components[0])
        if set(marks) != {(i, e) for i in range(k) for e in edge_paths}:
            return "mark-keys"
        for i, c in enumerate(t.components):
            for p in c.pearls:
                if not marks[(i, p)] and arity(c.shape, p) != 0:
                    return "external-pearl-not-univalent"
            for v in below_paths(c):
                if not marks[(i, v)]:
                    for j in range(arity(c.shape, v)):
                        if marks[(i, v + (j,))]:
                            return "external-output-internal-input"
        for e in edge_paths:
            if e == ():
                continue  # the trunk is not an inner edge
            n_int = sum(1 for i in range(k) if marks[(i, e)])
            if n_int not in (1, k):
                return "edge-pattern"
        if not any(marks[(i, ())] for i in range(k)):
            return "all-components-trivial"
        return None

    if t.variant == "pTreeP":
        if len(t.components) != 1:
            return "component-count"
        c = t.components[0]
        bad = _check_pearled(c)
        if bad:
            return bad
        if has_null_non_pearl(c):
            return "univalent-vertex"
        p = pearl_of(c)
        marks = t.marks_dict()
        ks = sorted({i for (i, _) in marks})
        edge_paths = vertices(c.shape) + leaves(c.shape)
        if not ks or ks != list(range(len(ks))):
            return "mark-keys"
        if set(marks) != {(i, e) for i in ks for e in edge_paths}:
            return "mark-keys"
        for i in ks:
            if not marks[(i, p)]:
                return "pearl-output-external"
            for v in vertices(c.shape):
                if not marks[(i, v)]:
                    for j in range(arity(c.shape, v)):
                        if marks[(i, v + (j,))]:
                            return "external-output-internal-input"
        for e in edge_paths:
            n_int = sum(1 for i in ks if marks[(i, e)])
            if n_int not in (0, 1, len(ks)):
                return "edge-pattern"
        return None

    if t.variant == "plain":
        if len(t.components) != 1:
            return "component-count"
        if t.marks:
            return "unexpected-marks"
        c = t.components[0]
        if c.pearls:
            return "unexpected-pearls"
        if c.n_leaves == 0:
            # the nullary point is the bare zero-corolla
            return None if c.shape == () else "univalent-vertex"
        return "univalent-vertex" if has_null_non_pearl(c) else None

    raise OperadicError("unknown variant %r" % (t.variant,))


# ---------------------------------------------------------------------------
# canonical forms

# Orbit moves permute the children of a vertex, carrying labels, pearls and
# marks along.  Spine slots of pearled variants stay pinned (the pearl keeps
# its position); below-section vertices of section variants reorder all
# components together.  The representative sorts every other child list by
# the children's encodings, bottom-up.


def _mk(v):
    return -1 if v is None else int(v)


def _payload(t: KFoldTree):
    """payload(i, path): the marks of a node as a one-item encoding prefix."""
    marks = t.marks_dict()
    if t.variant == "pTreeP":
        mark_is = sorted({i for (i, _) in marks}) or [0]
        return lambda i, path: (tuple(_mk(marks.get((j, path))) for j in mark_is),)
    return lambda i, path: ((_mk(marks.get((i, path))),),)


def _sort_bottom_up(components, payload, pinned: bool, joint: bool) -> list:
    """(encoding, sorted shape, moves) per component, in one bottom-up pass.

    An encoding is ("L", *payload, label) at a leaf and ("V", pearl?,
    *payload, child encodings) at a vertex; moves maps every old path to
    its new path.  With pinned, the child towards the pearl keeps slot 0.
    With joint, the vertices below the pearls sort the children of all
    components together, by the list of their encodings.
    """
    labels = [dict(c.labels) for c in components]

    def vertex(i, path, kids):
        moves = [(path, ())]
        for q, (_, _, mv) in enumerate(kids):
            moves += [(old, (q,) + new) for old, new in mv]
        enc = ("V", path in components[i].pearls) + payload(i, path) + (tuple([e for e, _, _ in kids]),)
        return enc, tuple([s for _, s, _ in kids]), moves

    def build(i, path, node):
        if not is_vertex(node):
            return ("L",) + payload(i, path) + (labels[i][path],), LEAF, [(path, ())]
        kids = [build(i, path + (j,), child) for j, child in enumerate(node)]
        spine = pinned and any(is_ancestor(path, p) and p != path for p in components[i].pearls)
        first = 1 if spine else 0
        kids[first:] = sorted(kids[first:], key=itemgetter(0))
        return vertex(i, path, kids)

    def build_below(path, nodes):
        # a pearl ends the shared part: above it each component sorts alone
        if path in components[0].pearls or not is_vertex(nodes[0]):
            return [build(i, path, node) for i, node in enumerate(nodes)]
        kids = [build_below(path + (j,), [node[j] for node in nodes]) for j in range(len(nodes[0]))]
        kids.sort(key=lambda per: [enc for enc, _, _ in per])
        return [vertex(i, path, [per[i] for per in kids]) for i in range(len(nodes))]

    if joint:
        built = build_below((), [c.shape for c in components])
    else:
        built = [build(i, (), c.shape) for i, c in enumerate(components)]
    return [(enc, shape, dict(moves)) for enc, shape, moves in built]


def _moved(c: ComponentTree, shape, new: dict) -> ComponentTree:
    """c's pearls and labels carried to the shape by old path -> new path."""
    labels = tuple(sorted((new[p], s) for p, s in c.labels))
    return ComponentTree(shape, frozenset(new[p] for p in c.pearls), labels)


def _canonical(t: KFoldTree):
    """The orbit representative of t and its encoding."""
    built = _sort_bottom_up(t.components, _payload(t), t.variant in ("rpTree", "pTree", "pTreeP"),
                            t.variant in ("rsTree", "sTree"))
    code = (t.variant, tuple(enc for enc, _, _ in built))
    moves = [new for _, _, new in built]
    if all(old == new for move in moves for old, new in move.items()):
        return t, code  # every child list was already sorted
    comps = tuple(_moved(c, shape, new) for c, (_, shape, new) in zip(t.components, built))
    # the marks of every pTreeP marking sit on its single component
    marks = tuple(((j, moves[0 if t.variant == "pTreeP" else j][p]), v) for (j, p), v in t.marks)
    return KFoldTree(t.variant, comps, marks), code


def canonicalize(t: KFoldTree) -> KFoldTree:
    """Deterministic orbit representative (children sorted by encoding) of a
    valid tree; an invalid one raises OperadicError."""
    ok, clause = validate_labeling(t)
    if not ok:
        raise OperadicError("invalid tree: %s" % (clause,))
    return _canonical(t)[0]


def encode(t: KFoldTree):
    """Structural encoding; equal encodings mean equal trees."""
    if not isinstance(t, KFoldTree):
        raise OperadicError("not a KFoldTree: %r" % (t,))
    payload = _payload(t)

    def enc(c, i, labels, node, path):
        if not is_vertex(node):
            return ("L",) + payload(i, path) + (labels[path],)
        return ("V", path in c.pearls) + payload(i, path) + (
            tuple(enc(c, i, labels, ch, path + (j,)) for j, ch in enumerate(node)),)

    return (t.variant, tuple(enc(c, i, dict(c.labels), c.shape, ()) for i, c in enumerate(t.components)))


# ---------------------------------------------------------------------------
# enumeration


@dataclass(frozen=True)
class Enumeration:
    trees: tuple
    truncated: bool

    def __iter__(self):
        return iter(self.trees)

    def __len__(self):
        return len(self.trees)


def enumerate_trees(variant, arities, max_vertices: int, k=None, no_univalent: bool = False) -> Enumeration:
    """Exhaustive, duplicate-free enumeration of a variant within a vertex
    bound.  Entries are canonical representatives sorted by (vertex count,
    encoding); truncated reports whether raising the bound would add members.
    With no_univalent, components may not contain univalent non-pearl
    vertices.

    arities holds one leaf count per component; section variants take None
    for a trivial (all-external) component.  pTreeP takes exactly one leaf
    count and the number of markings from k (default 2, at least 1).  The
    "plain" variant has no enumerator.  Malformed requests raise
    OperadicError.

    `_Orbits` builds each representative once, already canonical, together
    with its encoding (see the module docstring), so the entries are only
    sorted.  The same recursion, asked for a first tree only, decides
    truncated: whether a tree of max_vertices + 1 vertices exists.
    """
    arities, k = _check_request(variant, arities, max_vertices, k)
    orbits = _Orbits(variant, arities, k, no_univalent)
    found = sorted((v, encs, shapes) for v in range(1, max_vertices + 1) for encs, shapes in orbits.trees(v))
    over = next(orbits.trees(max_vertices + 1, 1), None)
    return Enumeration(tuple(orbits.freeze(encs, shapes) for _, encs, shapes in found), over is not None)


def _check_request(variant, arities, max_vertices, k):
    if variant not in VARIANTS:
        raise OperadicError("unknown variant %r" % (variant,))
    if variant == "plain":
        raise OperadicError("no enumerator for plain trees")
    if not _is_count(max_vertices) or max_vertices < 1:
        raise OperadicError("vertex bound must be a positive integer")
    if not isinstance(arities, (tuple, list)) or not arities:
        raise OperadicError("arities must be a non-empty tuple of leaf counts")
    arities = tuple(arities)
    trivial_ok = variant in ("rsTree", "sTree")
    for n in arities:
        if not (_is_count(n) or n is None and trivial_ok):
            raise OperadicError("bad arity %r for %s" % (n, variant))
    if variant == "pTreeP":
        if len(arities) != 1:
            raise OperadicError("pTreeP takes exactly one arity")
        k = 2 if k is None else k
        if not _is_count(k) or k < 1:
            raise OperadicError("pTreeP needs at least one marking")
    return arities, k


def _inner_sets(k, with_empty):
    """The distinct internal sets of a non-trunk edge: one index or all."""
    sets = [frozenset({i}) for i in range(k)] + [frozenset(range(k))]
    if with_empty:
        sets.insert(0, frozenset())
    return list(dict.fromkeys(sets))


def _memo(method):
    """Per-instance memo of a method returning a list."""
    def wrapped(self, *args):
        key = (method, args)
        got = self.memo.get(key)
        if got is None:
            got = self.memo[key] = method(self, *args)
        return got
    return wrapped


def _compositions(total, parts):
    """Tuples of `parts` positive integers summing to total."""
    return [c for c in product(range(1, total + 1), repeat=parts) if sum(c) == total]


def _multisets(options, total):
    """Every multiset of items (encoding, shape, vertex count) from options,
    exactly total vertices, each once, as a tuple in options order."""
    out = []

    def grow(i, left, acc):
        if not left:
            out.append(acc)
        for j in range(i, len(options)):
            if options[j][2] <= left:
                grow(j, left - options[j][2], acc + (options[j],))

    grow(0, total, ())
    return out


_TALL = float("inf")  # no height limit


class _Orbits:
    """The canonical representatives of one enumeration request, each built
    once, by exact vertex count, in the recursion the module docstring
    describes.

    An item is (encoding, shape, vertex count) of a subtree whose leaves
    carry the labels a+1..b; below a section, a joint item holds one
    encoding and one shape per component and sorts by the tuple of the
    encodings.  Lists are memoised per request.  With limit=1 every list
    keeps its first item and no sequence order is enforced: the recursion
    then only decides whether a tree exists.

    The output is memoised in the same per-request memo, which dies with
    the instance: the labels, pearls and mark entries of a subtree at one
    place, one ComponentTree per distinct component and one marks tuple per
    component encoding.  The trees of one request share them; two requests
    share nothing.
    """

    def __init__(self, variant, arities, k, no_univalent):
        self.variant, self.arities, self.k, self.memo = variant, arities, k, {}
        self.null_ok = not no_univalent and variant != "pTreeP"
        reduced = variant in ("rpTree", "rsTree")
        self.pearl_h = 1 if reduced else _TALL  # height of a pearl's children
        self.side_h = 0 if reduced else _TALL  # of a spine vertex's other children
        self.below_ok = variant != "rsTree"  # below vertices under the root
        self.top = None
        self.sets = {None: [None]}
        self.payload = {None: (-1,)}
        if variant == "pTreeP":
            inner = _inner_sets(k, with_empty=True)
            self.top = frozenset(range(k))
            self.sets = {s: [t for t in inner if t <= s] for s in inner}
            self.payload = {s: tuple(int(i in s) for i in range(k)) for s in inner}

    def trees(self, total, limit=None):
        """(encodings, shapes) per tree with exactly total vertices."""
        if self.variant in ("rsTree", "sTree"):
            trunk = frozenset(i for i, n in enumerate(self.arities) if n is not None)
            if not trunk:
                return iter(())
            spans = tuple(None if n is None else (0, n) for n in self.arities)
            roots = self.pearl(spans, total, trunk, limit) + self.joint_vertex(spans, total, trunk, limit)
            return ((encs, shapes) for encs, shapes, _ in roots)
        return self.pearled(total, limit)

    def pearled(self, total, limit):
        """One spine per component, all with the pearl at one depth; a
        reduced pearl is the root or one of its children."""
        depths = range(2) if self.variant == "rpTree" else range(total)
        for d in depths:
            for counts in _compositions(total, len(self.arities)):
                lists = [self.spine(d, n, c, limit) for n, c in zip(self.arities, counts)]
                for combo in product(*lists):
                    yield tuple(e for e, _, _ in combo), tuple(s for _, s, _ in combo)

    # -- one component

    @_memo
    def child(self, a, b, v, pset, h, limit):
        """A child edge under an edge of internal set pset: labels a+1..b,
        exactly v vertices, height at most h."""
        out = []
        for s in self.sets[pset]:
            if v == 0:
                if b - a == 1:
                    out.append((("L", self.payload[s], str(b)), LEAF, 0))
            elif h > 0:
                out += self.vertex(a, b, v, self.payload[s], s, h - 1, False, limit)
        return out[:limit]

    @_memo
    def vertex(self, a, b, v, mark, s, h, pearl, limit):
        """A vertex with payload mark over labels a+1..b, exactly v vertices;
        its children sit under internal set s, at most h high."""
        out = []
        for kids in self.forest(a, b, v - 1, s, h, limit):
            if kids or pearl or self.null_ok:
                kids = sorted(kids, key=itemgetter(0))
                out.append((("V", pearl, mark, tuple([e for e, _, _ in kids])),
                            tuple([sh for _, sh, _ in kids]), v))
                if len(out) == limit:
                    break
        return out

    def forest(self, a, b, v, s, h, limit):
        """Children tuples: leafless ones, then those carrying a+1..b."""
        for nv in range(v + 1):
            for nulls in self.nulls(nv, s, h, limit):
                yield from self.carriers(a, b, v - nv, s, h, limit, nulls)

    @_memo
    def nulls(self, v, s, h, limit):
        if not v:
            return [()]
        if not self.null_ok or h < 1:
            return []  # a leafless subtree ends in a univalent vertex
        return _multisets([item for cv in range(1, v + 1) for item in self.child(0, 0, cv, s, h, limit)],
                          v)[:limit]

    def carriers(self, a, b, v, s, h, limit, done):
        if a == b:
            if not v:
                yield done
            return
        for c in range(a + 1, b + 1):
            for cv in range(v + 1):
                for item in self.child(a, c, cv, s, h, limit):
                    yield from self.carriers(c, b, v - cv, s, h, limit, done + (item,))

    @_memo
    def spine(self, d, b, v, limit):
        """A spine vertex d above the pearl, labels 1..b, exactly v vertices:
        the spine child keeps slot 0 and takes the first labels."""
        mark, top = self.payload[self.top], self.top
        if not d:
            return self.vertex(0, b, v, mark, top, self.pearl_h, True, limit)
        out = []
        for c in range(b + 1):
            for sv in range(d, v):
                for first in self.spine(d - 1, c, sv, limit):
                    for rest in self.forest(c, b, v - 1 - sv, top, self.side_h, limit):
                        kids = (first,) + tuple(sorted(rest, key=itemgetter(0)))
                        out.append((("V", False, mark, tuple([e for e, _, _ in kids])),
                                    tuple([sh for _, sh, _ in kids]), v))
                        if len(out) == limit:
                            return out
        return out

    # -- below the section: joint items (encodings, shapes, vertex count)

    @_memo
    def joint_child(self, spans, v, pset, limit):
        out = []
        for s in _inner_sets(len(spans), with_empty=False):
            if s <= pset:
                out += self.pearl(spans, v, s, limit)
                if self.below_ok:
                    out += self.joint_vertex(spans, v, s, limit)
        return out[:limit]

    @_memo
    def pearl(self, spans, v, s, limit):
        """A pearl in every component, exactly v vertices together, internal
        in the components of s; an external pearl is univalent."""

        def fillings(i, c):
            mark = (int(i in s),)
            if i in s:
                return self.vertex(*spans[i], c, mark, None, self.pearl_h, True, limit)
            return [(("V", True, mark, ()), (), 1)] if c == 1 and spans[i] in (None, (0, 0)) else []

        out = []
        for counts in _compositions(v, len(spans)):
            for combo in product(*(fillings(i, c) for i, c in enumerate(counts))):
                out.append((tuple(e for e, _, _ in combo), tuple(sh for _, sh, _ in combo), v))
                if len(out) == limit:
                    return out
        return out

    @_memo
    def joint_vertex(self, spans, v, s, limit):
        """A below vertex in every component, internal in the components of
        s, with at least one joint child."""
        k = len(spans)
        marks = [(int(i in s),) for i in range(k)]
        out = []
        for kids in self.joint_forest(spans, v - k, s, limit):
            if kids:
                kids = sorted(kids, key=itemgetter(0))
                encs = tuple(("V", False, marks[i], tuple([kid[0][i] for kid in kids])) for i in range(k))
                out.append((encs, tuple(tuple([kid[1][i] for kid in kids]) for i in range(k)), v))
                if len(out) == limit:
                    break
        return out

    def joint_forest(self, spans, v, s, limit):
        empty = tuple(span and (0, 0) for span in spans)
        starts = tuple(span and span[0] for span in spans)
        ends = tuple(span and span[1] for span in spans)
        for nv in range(v + 1):
            options = [item for cv in range(len(spans), nv + 1) for item in self.joint_child(empty, cv, s, limit)]
            for nulls in _multisets(options, nv)[:limit]:
                for seq in self.joint_carriers(starts, ends, v - nv, s, limit, ()):
                    yield nulls + tuple(item for item, _ in seq)

    def joint_carriers(self, pos, ends, v, s, limit, done):
        """Sequences of (joint child, components it gives leaves to) that
        carry the labels pos..ends in order, in least order unless limit."""
        if pos == ends:
            if not v:
                yield done
            return
        for lens in product(*(range(e - p + 1) if p is not None else (None,) for p, e in zip(pos, ends))):
            leafy = {i for i, n in enumerate(lens) if n}
            if not leafy:
                continue
            spans = tuple(None if n is None else (p, p + n) if n else (0, 0) for p, n in zip(pos, lens))
            nxt = tuple(None if n is None else p + n for p, n in zip(pos, lens))
            for cv in range(len(spans), v + 1):
                for item in self.joint_child(spans, cv, s, limit):
                    if limit is None and not _least(done, item, leafy):
                        continue
                    yield from self.joint_carriers(nxt, ends, v - cv, s, limit, done + ((item, leafy),))

    # -- output: each part built once per request and shared

    def freeze(self, encs, shapes):
        """The KFoldTree of one representative, frozen without re-validation
        from parts shared by every tree of this request that holds them:
        equal components are one ComponentTree, so trees that differ only in
        their marks share it, and each component encoding joins its marks
        once."""
        comps, marks = [], ()
        for i, (enc, shape) in enumerate(zip(encs, shapes)):
            got = self.memo.get(key := (id(enc), i))
            if got is None:
                labels, pearls, comp_marks, n = self.parts(enc, i, ())
                comp = self.memo.get(value := (shape, pearls, labels))
                if comp is None:
                    comp = self.memo[value] = _frozen(ComponentTree, shape, frozenset(pearls), labels, n)
                got = self.memo[key] = comp, sum(comp_marks, ())
            comps.append(got[0])
            marks += got[1]
        return _frozen(KFoldTree, self.variant, tuple(comps), marks)

    def parts(self, e, i, path):
        """(leaf labels, pearls, marks per marking, vertex count) of the
        subtree with encoding e at place (component i, path), by full paths
        in preorder, the order KFoldTree sorts its marks to.  Each is built
        once per place, a vertex's by joining its children's tuples.  A mark
        entry is ((marking, path), internal?), interned per edge: bit j of a
        pTreeP edge belongs to marking j, the one bit of a section edge to
        component i, and -1 is no mark.  Encodings live in the memo, so their
        ids key these parts."""
        got = self.memo.get(key := (id(e), i, path))
        if got is None:
            leaf = e[0] == "L"
            bits = e[1] if leaf else e[2]
            marks = self.memo.get(edge := (i, path, bits))
            if marks is None:
                marks = self.memo[edge] = tuple((((i + j, path), bool(b)),) if b >= 0 else ()
                                                for j, b in enumerate(bits))
            if leaf:
                got = ((path, e[2]),), (), marks, 0
            else:
                labels, pearls, n = (), (path,) if e[1] else (), 1
                for j, ce in enumerate(e[3]):
                    cl, cp, cm, cn = self.parts(ce, i, path + (j,))
                    labels, pearls, n = labels + cl, pearls + cp, n + cn
                    marks = tuple(map(add, marks, cm))
                got = labels, pearls, marks, n
            self.memo[key] = got
        return got


def _least(done, item, leafy):
    """True when item may follow the sequence done: it is not less than any
    joint child it could swap back past."""
    for prev, prev_leafy in reversed(done):
        if prev_leafy & leafy:
            return True
        if item[0] < prev[0]:
            return False
    return True


# ---------------------------------------------------------------------------
# edge contraction


def contraction(shape, path):
    """Splice the children of the vertex at `path` into its parent's slot.

    Returns the new shape and the move of every other path to its new place;
    the move keeps planar order, leaves included."""
    node = subtree(shape, path)
    par, slot = path[:-1], path[-1]
    parent_node = subtree(shape, par)
    new_shape = replace(shape, par, parent_node[:slot] + node + parent_node[slot + 1 :])

    def move(p):
        if is_ancestor(path, p) and p != path:
            return par + (slot + p[len(path)],) + p[len(path) + 1 :]
        if len(p) > len(par) and p[: len(par)] == par and p[len(par)] > slot:
            return par + (p[len(par)] + len(node) - 1,) + p[len(par) + 1 :]
        return p

    return new_shape, move


def contract_edge(c: ComponentTree, path) -> ComponentTree:
    """Merge the vertex at `path` into its parent.  A pearl endpoint makes
    the merged vertex a pearl."""
    if not path or type(path) is not tuple:
        raise OperadicError("cannot contract %r: the trunk or not a path" % (path,))
    if not is_vertex(subtree(c.shape, path)):
        raise OperadicError("cannot contract a leaf edge")
    new_shape, move = contraction(c.shape, path)
    pearls = {move(p) for p in c.pearls if p != path}
    if path in c.pearls or path[:-1] in c.pearls:
        pearls.add(path[:-1])
    labels = tuple((move(p), s) for p, s in c.labels)
    return ComponentTree(new_shape, frozenset(pearls), labels)


# ---------------------------------------------------------------------------
# the poset of non-planar pearled trees on a fixed leaf set


@dataclass(frozen=True)
class PsiObject:
    """Non-planar pearled tree held as a canonical planar representative;
    key is the representative's encoding without marks."""

    tree: ComponentTree
    key: tuple = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        if not isinstance(self.tree, ComponentTree):
            raise OperadicError("not a ComponentTree: %r" % (self.tree,))
        ((key, shape, moves),) = _sort_bottom_up((self.tree,), lambda i, path: (), False, False)
        object.__setattr__(self, "tree", _moved(self.tree, shape, moves))
        object.__setattr__(self, "key", key)


def _set_partitions(items: tuple):
    """Every set partition of `items` into blocks, each partition once."""
    if not items:
        yield []
        return
    first, rest = items[0], items[1:]
    for part in _set_partitions(rest):
        yield [(first,)] + part
        for i, block in enumerate(part):
            yield part[:i] + [(first,) + block] + part[i + 1 :]


def _psi_trees(labels: tuple, pearl: bool, memo: dict) -> list:
    """(key, shape, pearl path, leaf labels, vertex count), once per
    non-planar tree on the leaf set `labels` with one pearl if `pearl` (else
    none, path None) and every other vertex of arity >= 2.  One label without
    the pearl is also a leaf.  The shape is the canonical representative
    that PsiObject would build, and key its encoding.

    A root splits `labels` into blocks, one child each.  The pearl is the
    root itself, of any arity, or sits in the child of one block, the empty
    block standing for a leafless extra child.  The children are sorted by
    their keys.
    """
    if (labels, pearl) not in memo:
        out = [(("L", labels[0]), LEAF, None, (((), labels[0]),), 0)] if len(labels) == 1 and not pearl else []
        for blocks in _set_partitions(labels):
            # carrier: the block whose child holds the pearl, None for none
            for carrier in [None, *range(len(blocks) + 1)] if pearl else [None]:
                kids = blocks + [()] if carrier == len(blocks) else blocks
                at_root = pearl and carrier is None
                if len(kids) < 2 and not at_root:
                    continue
                for combo in product(*(_psi_trees(b, i == carrier, memo) for i, b in enumerate(kids))):
                    combo = sorted(combo, key=itemgetter(0))
                    path = () if at_root else None
                    for i, (_, _, p, _, _) in enumerate(combo):
                        if p is not None:
                            path = (i,) + p
                    leaf_labels = tuple(((i,) + q, a) for i, kid in enumerate(combo) for q, a in kid[3])
                    out.append((("V", at_root, tuple(kid[0] for kid in combo)), tuple(kid[1] for kid in combo),
                                path, leaf_labels, 1 + sum(kid[4] for kid in combo)))
        memo[labels, pearl] = out
    return memo[labels, pearl]


def _psi_contractions(key):
    """The keys of every single inner-edge contraction of a PsiObject key.

    Contracting the edge to a vertex child splices the child's children into
    the parent's, and the merged vertex is a pearl when either end was; every
    vertex on the way back to the root re-sorts its children.
    """
    _, pearl, kids = key
    for i, kid in enumerate(kids):
        if kid[0] != "V":
            continue
        others = kids[:i] + kids[i + 1 :]
        yield "V", pearl or kid[1], tuple(sorted(others + kid[2]))
        for sub in _psi_contractions(kid):
            yield "V", pearl, tuple(sorted(others + (sub,)))


def psi_category(k: int) -> dict:
    """The poset of non-planar pearled trees with k labeled leaves, k <= 4.

    Objects: one pearl of any arity, every other vertex of arity at least
    two; `_psi_trees` builds each class once, 2 t(k+1) of them (t counts
    Schroeder's trees, OEIS A000311).  One arrow per single inner-edge
    contraction, computed on the objects' keys (`_psi_contractions`, which
    agrees with `contract_edge`); composites via psi_closure.  The pearled
    corolla is terminal; prime_morphisms drops the covering arrow from the
    two-vertex tree to it.
    """
    if not _is_count(k) or k > 4:
        raise OperadicError("leaf count must be an integer in 0..4")
    objects = {key: _frozen(PsiObject, _frozen(ComponentTree, shape, frozenset({p}), labels, n), key)
               for key, shape, p, labels, n in _psi_trees(tuple(str(i + 1) for i in range(k)), True, {})}
    keys = sorted(objects)
    index = {key: i for i, key in enumerate(keys)}
    arrows = sorted({(index[key], index[target]) for key in keys for target in _psi_contractions(key)})
    leaves_key = tuple(sorted(("L", str(i + 1)) for i in range(k)))
    terminal = index[("V", True, leaves_key)]
    near_terminal = index[("V", True, (("V", False, leaves_key),))] if k >= 2 else None
    prime = [a for a in arrows if a != (near_terminal, terminal)]
    sources = {s for s, _ in arrows}
    return {
        "objects": [objects[key] for key in keys],
        "morphisms": arrows,
        "boundary": sorted(sources),
        "prime_morphisms": prime,
        "terminal": terminal,
        "near_terminal": near_terminal,
    }


def psi_closure(morphisms, n_objects: int):
    """All composable pairs: reachability through single contractions.

    Every contraction lowers the vertex count by one, so the arrows form a
    DAG.  One pass takes each object once its targets are done, sinks
    first, and joins its targets' reaches.  A count that is not a
    non-negative integer, morphisms that are not a list or tuple of pairs of
    objects, or a cycle raises OperadicError."""
    if not _is_count(n_objects):
        raise OperadicError("object count must be a non-negative integer")
    if not isinstance(morphisms, (list, tuple)):
        raise OperadicError("morphisms must be a list or tuple, got %r" % (morphisms,))
    targets = {i: set() for i in range(n_objects)}
    sources = {i: [] for i in range(n_objects)}
    for arrow in morphisms:
        if not (isinstance(arrow, tuple) and len(arrow) == 2
                and all(_is_count(i) and i < n_objects for i in arrow)):
            raise OperadicError("morphism %r is not a pair of the %d objects" % (arrow, n_objects))
        s, t = arrow
        if t not in targets[s]:
            targets[s].add(t)
            sources[t].append(s)
    waiting = {s: len(ts) for s, ts in targets.items()}
    ready = [s for s, n in waiting.items() if not n]
    reach = {}
    for s in ready:  # grows while it is walked
        reach[s] = targets[s].union(*(reach[t] for t in targets[s]))
        for u in sources[s]:
            waiting[u] -= 1
            if not waiting[u]:
                ready.append(u)
    if len(reach) < n_objects:
        raise OperadicError("morphisms form a cycle")
    return sorted((s, t) for s in reach for t in reach[s])


# ---------------------------------------------------------------------------
# DOT output


def emit_dot(t: KFoldTree, times: dict | None = None) -> str:
    """Graphviz rendering: pearls as double circles, external edges dashed.
    times maps vertex keys (i, path) to the labels shown, i None for a joint
    vertex, as the rewrite engine keys its times."""
    if not isinstance(t, KFoldTree):
        raise OperadicError("not a KFoldTree: %r" % (t,))
    times = {} if times is None else times
    if not isinstance(times, dict):
        raise OperadicError("times must be a dict of vertex keys, got %r" % (times,))
    lines = ["digraph tree {", "  rankdir=BT;"]
    marks = t.marks_dict()
    mark_is = sorted({i for (i, _) in marks})
    for i, c in enumerate(t.components):
        lines.append("  subgraph cluster_%d {" % i)
        lines.append('    label="component %d";' % (i + 1))

        def node_id(path, i=i):
            return '"c%d_%s"' % (i, "r" if not path else "_".join(map(str, path)))

        for v in vertices(c.shape):
            shape = "doublecircle" if v in c.pearls else "circle"
            tm = times.get((i, v), times.get((None, v)))
            label = "t=%s" % (tm,) if tm is not None else ""
            lines.append('    %s [shape=%s,label="%s"];' % (node_id(v), shape, label))
        for p, s in c.labels:
            lines.append('    %s [shape=plaintext,label="%s"];' % (node_id(p), s))
        for v in vertices(c.shape)[1:] + leaves(c.shape):
            if v == ():
                continue  # a bare-leaf tree has no edges
            if t.variant == "pTreeP":
                external = bool(mark_is) and not all(marks.get((j, v), True) for j in mark_is)
            else:
                external = (i, v) in marks and not marks[(i, v)]
            style = " [style=dashed]" if external else ""
            lines.append("    %s -> %s%s;" % (node_id(v), node_id(v[:-1]), style))
        lines.append("  }")
    lines.append("}")
    return "\n".join(lines)
