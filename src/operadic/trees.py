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
stored as {(component index, edge path): internal?}.  Enumeration lists
canonical representatives with leaves labeled "1".."n" in planar order.

Enumeration generates only valid markings, pushing them down from the root.
Each edge carries the set of marking indices in which it is internal, and an
edge's set lies inside its parent edge's set (an external output forces
external inputs).  In pTreeP the pearl's edge and its ancestors are internal
in every marking, and any other edge is internal in none, exactly one or all
of them.  In section variants the trunk is internal exactly in the
components with a leaf count (arity None is a trivial component), every other
edge is internal in exactly one component or in all, and an edge below a
pearl with inputs is internal in that pearl's component.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import permutations, product

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


# ---------------------------------------------------------------------------
# shape primitives


def is_vertex(node) -> bool:
    return isinstance(node, tuple)


def subtree(tree, path):
    node = tree
    for i in path:
        if not is_vertex(node) or i >= len(node):
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


def spine_depth(tree) -> int:
    """Length of the maximal all-zeros descent (to the first tip)."""
    depth = 0
    node = tree
    while is_vertex(node) and node:
        node = node[0]
        depth += 1
    return depth


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
        for p in self.pearls:
            if p not in vs:
                raise OperadicError("pearl %r is not a vertex" % (p,))

    @property
    def n_leaves(self) -> int:
        return len(self.labels)

    @property
    def n_vertices(self) -> int:
        return len(vertices(self.shape))

    def label_of(self, leaf_path) -> str:
        return dict(self.labels)[tuple(leaf_path)]

    def leaf_of(self, label):
        for p, s in self.labels:
            if s == str(label):
                return p
        raise OperadicError("no leaf labeled %r" % label)

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
            raise OperadicError("unknown variant %r" % self.variant)
        object.__setattr__(self, "components", tuple(self.components))
        items = tuple(sorted(((int(i), tuple(p)), bool(v)) for (i, p), v in dict(self.marks).items()))
        object.__setattr__(self, "marks", items)

    @property
    def k(self) -> int:
        if self.variant == "pTreeP":
            return len({i for (i, _), _ in self.marks})
        return len(self.components)

    def mark(self, i: int, path) -> bool:
        return dict(self.marks)[(i, tuple(path))]

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


def above_paths(c: ComponentTree) -> list:
    """Vertices strictly above the section."""
    out = []
    for v in vertices(c.shape):
        if v in c.pearls:
            continue
        if any(is_ancestor(p, v) and p != v for p in c.pearls):
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


def _check_pearled(c: ComponentTree):
    if len(c.pearls) != 1:
        return "pearl-count"
    p = pearl_of(c)
    if any(i != 0 for i in p):
        return "pearl-not-on-spine"
    if len(p) > spine_depth(c.shape):
        return "pearl-not-on-spine"
    return None


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
        if t.variant == "rpTree":
            for c in t.components:
                p = pearl_of(c)
                for v in vertices(c.shape):
                    if v == p:
                        continue
                    if v[:-1] == p or (is_ancestor(v, p) and len(p) - len(v) == 1):
                        continue
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
        p = pearl_of(c)
        for v in vertices(c.shape):
            if arity(c.shape, v) == 0 and v != p:
                return "univalent-vertex"
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
        for v in vertices(c.shape):
            if arity(c.shape, v) == 0:
                return "univalent-vertex"
        return None

    raise OperadicError("unknown variant %r" % t.variant)


# ---------------------------------------------------------------------------
# canonical forms

# Orbit moves permute the children of a vertex, carrying labels, marks and
# any client decoration keys along.  Spine slots of pearled variants stay
# pinned (the pearl keeps its position); below-section vertices of section
# variants reorder all components simultaneously.


def _mk(v):
    return -1 if v is None else int(v)


class _Canonicalizer:
    def __init__(self, t: KFoldTree, extras):
        self.t = t
        self.shapes = [c.shape for c in t.components]
        self.pearls = [set(c.pearls) for c in t.components]
        self.labels = [dict(c.labels) for c in t.components]
        self.marks = dict(t.marks_dict())
        self.extras = dict(extras or {})
        self.mark_is = sorted({i for (i, _) in self.marks}) or [0]

    def payload(self, i, path):
        if self.t.variant == "pTreeP":
            mk = tuple(_mk(self.marks.get((j, path))) for j in self.mark_is)
        else:
            mk = (_mk(self.marks.get((i, path))),)
        return mk + (repr(self.extras.get((i, path))), repr(self.extras.get((None, path))))

    def key(self, i, path):
        node = subtree(self.shapes[i], path)
        if not is_vertex(node):
            return ("L", self.payload(i, path), self.labels[i][path])
        return (
            "V",
            path in self.pearls[i],
            self.payload(i, path),
            tuple(self.key(i, path + (j,)) for j in range(len(node))),
        )

    def apply_perm(self, path, perm, comp_ids, move_all_keys):
        def move(p):
            if len(p) > len(path) and p[: len(path)] == path:
                return path + (perm.index(p[len(path)]),) + p[len(path) + 1 :]
            return p

        for i in comp_ids:
            node = subtree(self.shapes[i], path)
            self.shapes[i] = replace(self.shapes[i], path, tuple(node[old] for old in perm))
            self.pearls[i] = {move(p) for p in self.pearls[i]}
            self.labels[i] = {move(p): s for p, s in self.labels[i].items()}
        self.marks = {
            ((j, move(p)) if (move_all_keys or j in comp_ids) else (j, p)): v
            for (j, p), v in self.marks.items()
        }
        self.extras = {
            ((j, move(p)) if (move_all_keys or j is None or j in comp_ids) else (j, p)): v
            for (j, p), v in self.extras.items()
        }

    def pinned(self, i, path):
        if self.t.variant in ("rpTree", "pTree", "pTreeP"):
            p = next(iter(self.pearls[i]))
            return is_ancestor(path, p) and path != p
        return False

    def sort_vertex(self, i, path):
        node = subtree(self.shapes[i], path)
        free = list(range(len(node)))
        if self.pinned(i, path):
            free.remove(0)
        if len(free) < 2:
            return
        order = sorted(free, key=lambda j: self.key(i, path + (j,)))
        perm, it = [], iter(order)
        for j in range(len(node)):
            perm.append(next(it) if j in free else j)
        if perm != list(range(len(node))):
            self.apply_perm(path, perm, [i], self.t.variant == "pTreeP")

    def sort_shared(self, path):
        n = len(subtree(self.shapes[0], path))
        if n < 2:
            return
        order = sorted(
            range(n),
            key=lambda j: tuple(self.key(i, path + (j,)) for i in range(len(self.shapes))),
        )
        if order != list(range(n)):
            self.apply_perm(path, order, list(range(len(self.shapes))), True)

    def run(self):
        if self.t.variant in ("rsTree", "sTree"):
            for i, c in enumerate(self.t.components):
                for path in sorted(above_paths(c) + list(c.pearls), key=len, reverse=True):
                    self.sort_vertex(i, path)
            for path in sorted(below_paths(self.t.components[0]), key=len, reverse=True):
                self.sort_shared(path)
        else:
            for i in range(len(self.shapes)):
                for path in sorted(vertices(self.shapes[i]), key=len, reverse=True):
                    self.sort_vertex(i, path)
        comps = []
        for i in range(len(self.shapes)):
            lab = tuple((p, self.labels[i][p]) for p in leaves(self.shapes[i]))
            comps.append(ComponentTree(self.shapes[i], frozenset(self.pearls[i]), lab))
        return KFoldTree(self.t.variant, tuple(comps), tuple(self.marks.items())), self.extras


def canonicalize(t: KFoldTree) -> KFoldTree:
    """Deterministic orbit representative (children sorted by encoding)."""
    out, _ = _Canonicalizer(t, None).run()
    return out


def canonicalize_with(t: KFoldTree, extras: dict):
    """Canonicalize while transporting decoration keys.

    extras maps (component index, path) or (None, path) to arbitrary values;
    values enter the sort keys through repr, so decorated points of one orbit
    land on identical representatives.
    """
    return _Canonicalizer(t, extras).run()


def encode(t: KFoldTree):
    """Structural encoding; equal encodings mean equal trees."""
    marks = t.marks_dict()
    mark_is = sorted({i for (i, _) in marks}) or [0]

    def enc(c, i, labels, node, path):
        if t.variant == "pTreeP":
            mk = tuple(_mk(marks.get((j, path))) for j in mark_is)
        else:
            mk = (_mk(marks.get((i, path))),)
        if not is_vertex(node):
            return ("L", mk, labels[path])
        return ("V", path in c.pearls, mk,
                tuple(enc(c, i, labels, ch, path + (j,)) for j, ch in enumerate(node)))

    return (t.variant, tuple(enc(c, i, dict(c.labels), c.shape, ()) for i, c in enumerate(t.components)))


def canonical_encoding(t: KFoldTree):
    return encode(canonicalize(t))


# ---------------------------------------------------------------------------
# planar shape generation

_shape_cache: dict = {}


def _trees_upto(n_leaves, vmax, allow_null):
    """(shape, n_vertices) pairs: exactly n_leaves leaves, <= vmax vertices."""
    if vmax < 1:
        return []
    key = ("t", n_leaves, vmax, allow_null)
    got = _shape_cache.get(key)
    if got is None:
        got = []
        for kids, kv in _forests(n_leaves, vmax - 1, allow_null):
            if kids == () and not (n_leaves == 0 and allow_null):
                continue
            got.append((kids, kv + 1))
        _shape_cache[key] = got
    return got


def _forests(n_leaves, vmax, allow_null):
    """(children tuple, total vertices) with n_leaves leaves, <= vmax vertices."""
    if vmax < 0:
        return []
    key = ("f", n_leaves, vmax, allow_null)
    got = _shape_cache.get(key)
    if got is None:
        got = []
        if n_leaves == 0:
            got.append(((), 0))
        if n_leaves >= 1:
            for rest, rv in _forests(n_leaves - 1, vmax, allow_null):
                got.append(((LEAF,) + rest, rv))
        for fn in range(0, n_leaves + 1):
            for tr, tv in _trees_upto(fn, vmax, allow_null):
                for rest, rv in _forests(n_leaves - fn, vmax - tv, allow_null):
                    got.append(((tr,) + rest, tv + rv))
        _shape_cache[key] = got
    return got


def gen_planar_trees(n_leaves: int, vmax: int, allow_null: bool = True) -> list:
    """All planar shapes with the given leaf count and at most vmax vertices."""
    shapes = {s for s, _ in _trees_upto(n_leaves, vmax, allow_null)}
    return sorted(shapes, key=lambda s: (len(vertices(s)), repr(s)))


def pearl_positions(shape) -> list:
    """Valid pearl paths: all-zeros descents ending at a vertex."""
    out, node, path = [], shape, ()
    while is_vertex(node):
        out.append(path)
        if not node:
            break
        node, path = node[0], path + (0,)
    return out


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


def _has_null_non_pearl(c: ComponentTree) -> bool:
    return any(arity(c.shape, v) == 0 and v not in c.pearls for v in vertices(c.shape))


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

    Markings are generated valid, pushed down from the root: every edge
    takes the set of marking indices in which it is internal, and that set
    lies inside its parent edge's set.  In pTreeP the pearl's edge and its
    ancestors are internal in every marking and any other edge in none, in
    exactly one or in all.  In section variants the trunk is internal
    exactly for the components with a leaf count; every other edge is
    internal in exactly one component or in all, and in each component
    whose pearl at its top is not univalent.
    """
    arities, k = _check_request(variant, arities, max_vertices, k)
    # Candidates are generated once, one vertex over the bound: every
    # generator filters by <= on the vertex count, so the candidates within
    # the bound are exactly those of a run at the bound, and any candidate
    # beyond it shows that the bound cuts the enumeration.
    candidates = _candidates(variant, arities, max_vertices + 1, k, no_univalent)
    kept = [t for t in candidates if t.total_vertices <= max_vertices]
    return Enumeration(_ordered_dedup(kept), len(kept) < len(candidates))


def _check_request(variant, arities, max_vertices, k):
    if variant not in VARIANTS:
        raise OperadicError("unknown variant %r" % variant)
    if variant == "plain":
        raise OperadicError("no enumerator for plain trees")
    if not isinstance(max_vertices, int) or max_vertices < 1:
        raise OperadicError("vertex bound must be a positive integer")
    arities = tuple(arities)
    if not arities:
        raise OperadicError("at least one arity is required")
    trivial_ok = variant in ("rsTree", "sTree")
    for n in arities:
        if n is None and trivial_ok:
            continue
        if not isinstance(n, int) or n < 0:
            raise OperadicError("bad arity %r for %s" % (n, variant))
    if variant == "pTreeP":
        if len(arities) != 1:
            raise OperadicError("pTreeP takes exactly one arity")
        k = 2 if k is None else k
        if not isinstance(k, int) or k < 1:
            raise OperadicError("pTreeP needs at least one marking")
    return arities, k


def _ordered_dedup(trees):
    dedup = {}
    for t in trees:
        c = canonicalize(t)
        dedup[encode(c)] = c
    return tuple(sorted(dedup.values(), key=lambda t: (t.total_vertices, encode(t))))


def _candidates(variant, arities, max_vertices, k, no_univalent):
    if variant in ("rpTree", "pTree"):
        return _enumerate_pearled(variant, arities, max_vertices, no_univalent)
    if variant in ("rsTree", "sTree"):
        return _enumerate_section(variant, arities, max_vertices, no_univalent)
    return _enumerate_intermediate(arities[0], max_vertices, k)


def _enumerate_pearled(variant, arities, max_vertices, no_univalent):
    k = len(arities)
    per_comp = []
    for n in arities:
        options = []
        for shape in gen_planar_trees(n, max_vertices - (k - 1), allow_null=not no_univalent):
            for p in pearl_positions(shape):
                c = ComponentTree(shape, frozenset({p}))
                if no_univalent and _has_null_non_pearl(c):
                    continue
                ok, _ = validate_labeling(KFoldTree(variant, (c,)))
                if ok:
                    options.append((len(p), c))
        per_comp.append(options)
    out = []
    for combo in product(*per_comp):
        if len({d for d, _ in combo}) != 1:
            continue
        t = KFoldTree(variant, tuple(c for _, c in combo))
        if t.total_vertices <= max_vertices:
            out.append(t)
    return out


def _push_down(edges, choices, k):
    """Markings from internal sets assigned edge by edge, parents first.

    edges must list every edge after its parent edge; choices(edge, parent
    set) gives the sets the edge may take (the parent set is None for the
    trunk).  Yields {(marking index, edge): internal?}.
    """
    sets = {}

    def assign(j):
        if j == len(edges):
            yield {(i, e): i in s for e, s in sets.items() for i in range(k)}
            return
        e = edges[j]
        for s in choices(e, sets[e[:-1]] if e else None):
            sets[e] = s
            yield from assign(j + 1)

    return assign(0)


def _inner_sets(k, with_empty):
    """The distinct internal sets of a non-trunk edge: one index or all."""
    sets = [frozenset({i}) for i in range(k)] + [frozenset(range(k))]
    if with_empty:
        sets.insert(0, frozenset())
    return list(dict.fromkeys(sets))


def _above_forests(n_leaves_max, vmax, corollas_only, allow_null):
    """Children sequences for one pearl: (children, leaves, vertices)."""
    singles = [(LEAF, 1, 0)]
    for n in range(0, n_leaves_max + 1):
        for s in gen_planar_trees(n, vmax, allow_null=allow_null):
            if corollas_only and any(is_vertex(ch) for ch in s):
                continue
            singles.append((s, n, len(vertices(s))))
    seqs = [((), 0, 0)]
    frontier = [((), 0, 0)]
    while frontier:
        new = []
        for seq, ls, vs in frontier:
            for s, sn, sv in singles:
                if ls + sn <= n_leaves_max and vs + sv <= vmax:
                    new.append((seq + (s,), ls + sn, vs + sv))
        seqs.extend(new)
        frontier = new
    return seqs


def _enumerate_section(variant, arities, max_vertices, no_univalent):
    k = len(arities)
    out = []
    for n_pearls in range(1, max_vertices + 1):
        skeletons = list(gen_planar_trees(n_pearls, max_vertices, allow_null=False))
        if n_pearls == 1:
            skeletons.append(LEAF)  # the section through the root
        for skel in skeletons:
            if variant == "rsTree" and len(vertices(skel)) > 1:
                continue  # a below vertex other than the root touches no pearl
            pearl_slots = leaves(skel)
            base_vertices = (len(vertices(skel)) + len(pearl_slots)) * k
            if base_vertices > max_vertices:
                continue
            comp_options = [
                _component_fillings(variant, skel, pearl_slots, arities[i],
                                    max_vertices - base_vertices, no_univalent)
                for i in range(k)
            ]
            for combo in product(*comp_options):
                if sum(c.n_vertices for c in combo) > max_vertices:
                    continue
                # skeleton and fillings make valid components with one below
                # part, so only the markings remain to be chosen
                for marks in _section_marks(combo, arities):
                    out.append(KFoldTree(variant, combo, marks))
    return out


def _component_fillings(variant, skel, pearl_slots, n_i, v_extra, no_univalent):
    """All ways to hang above-section parts on the pearls of one component."""
    if n_i is None:
        shape = skel
        for slot in pearl_slots:
            shape = replace(shape, slot, ())
        return [ComponentTree(shape, frozenset(pearl_slots))]
    outs = []

    def fill(slot_idx, shape, leaves_left, v_left):
        if slot_idx == len(pearl_slots):
            if leaves_left == 0:
                outs.append(ComponentTree(shape, frozenset(pearl_slots)))
            return
        slot = pearl_slots[slot_idx]
        for kids, ls, vs in _above_forests(leaves_left, v_left, variant == "rsTree", not no_univalent):
            fill(slot_idx + 1, replace(shape, slot, kids), leaves_left - ls, v_left - vs)

    fill(0, skel, n_i, v_extra)
    return outs


def _section_marks(components, arities):
    """Every valid marking of section components that share their below
    part, each once, by the rules in the module docstring."""
    k = len(components)
    trunk = frozenset(i for i, n in enumerate(arities) if n is not None)
    if not trunk:
        return
    inner = _inner_sets(k, with_empty=False)

    def choices(e, parent):
        if not e:
            return [trunk]
        need = {i for i, c in enumerate(components) if e in c.pearls and arity(c.shape, e)}
        return [s for s in inner if s <= parent and need <= s]

    yield from _push_down(section_edge_paths(components[0]), choices, k)


def _intermediate_marks(shape, pearl, k):
    """Every valid pTreeP marking of one pearled shape, each once."""
    every = frozenset(range(k))
    inner = _inner_sets(k, with_empty=True)

    def choices(e, parent):
        if is_ancestor(e, pearl):
            return [every]
        return [s for s in inner if s <= parent]

    return _push_down(sorted(vertices(shape) + leaves(shape)), choices, k)


def _enumerate_intermediate(n, max_vertices, k):
    out = []
    for shape in gen_planar_trees(n, max_vertices, allow_null=True):
        for p in pearl_positions(shape):
            c = ComponentTree(shape, frozenset({p}))
            if _has_null_non_pearl(c):
                continue
            for marks in _intermediate_marks(shape, p, k):
                out.append(KFoldTree("pTreeP", (c,), marks))
    return out


# ---------------------------------------------------------------------------
# edge contraction


def contract_edge(c: ComponentTree, path) -> ComponentTree:
    """Merge the vertex at `path` into its parent.  A pearl endpoint makes
    the merged vertex a pearl."""
    if not path:
        raise OperadicError("cannot contract the trunk")
    node = subtree(c.shape, path)
    if not is_vertex(node):
        raise OperadicError("cannot contract a leaf edge")
    par, slot = path[:-1], path[-1]
    parent_node = subtree(c.shape, par)
    merged = parent_node[:slot] + node + parent_node[slot + 1 :]
    new_shape = replace(c.shape, par, merged)

    def move(p):
        if is_ancestor(path, p) and p != path:
            return par + (slot + p[len(path)],) + p[len(path) + 1 :]
        if len(p) > len(par) and p[: len(par)] == par and p[len(par)] > slot:
            return par + (p[len(par)] + len(node) - 1,) + p[len(par) + 1 :]
        return p

    was_pearl = path in c.pearls or par in c.pearls
    pearls = {move(p) for p in c.pearls if p != path}
    if was_pearl:
        pearls.add(par)
    lvs = leaves(new_shape)
    labels = sorted(((move(p), s) for p, s in c.labels), key=lambda ps: lvs.index(ps[0]))
    return ComponentTree(new_shape, frozenset(pearls), tuple(labels))


# ---------------------------------------------------------------------------
# the poset of non-planar pearled trees on a fixed leaf set


@dataclass(frozen=True)
class PsiObject:
    """Non-planar pearled tree held as a canonical planar representative."""

    tree: ComponentTree

    def __post_init__(self):
        object.__setattr__(self, "tree", _nonplanar_canonical(self.tree))

    @property
    def key(self):
        c = self.tree
        labels = dict(c.labels)

        def enc(node, path):
            if not is_vertex(node):
                return ("L", labels[path])
            return ("V", path in c.pearls, tuple(enc(ch, path + (j,)) for j, ch in enumerate(node)))

        return enc(c.shape, ())


def _nonplanar_canonical(c: ComponentTree) -> ComponentTree:
    leaf_labels = dict(c.labels)

    def build(node, path):
        if not is_vertex(node):
            lab = leaf_labels[path]
            return ("L", lab), LEAF, {(): lab}, set()
        packed = sorted((build(ch, path + (j,)) for j, ch in enumerate(node)), key=lambda x: x[0])
        key = ("V", path in c.pearls, tuple(p[0] for p in packed))
        shape = tuple(p[1] for p in packed)
        labels, pearls = {}, set()
        if path in c.pearls:
            pearls.add(())
        for j, (_, _, labs, prs) in enumerate(packed):
            for rp, lab in labs.items():
                labels[(j,) + rp] = lab
            for rp in prs:
                pearls.add((j,) + rp)
        return key, shape, labels, pearls

    _, shape, labels, pearls = build(c.shape, ())
    lab = tuple((p, labels[p]) for p in leaves(shape))
    return ComponentTree(shape, frozenset(pearls), lab)


def _psi_valid(c: ComponentTree) -> bool:
    if len(c.pearls) != 1:
        return False
    p = next(iter(c.pearls))
    return all(v == p or arity(c.shape, v) >= 2 for v in vertices(c.shape))


def _psi_shapes(k: int):
    """(shape, pearl path) pairs covering every object class: a pearl at a
    vertex of a min-arity-two shape, a unary pearl spliced into an edge, or
    a nullary pearl standing in for an extra tip."""
    out = []

    def min_arity_two(s):
        return all(arity(s, v) >= 2 for v in vertices(s))

    base = [s for s in gen_planar_trees(k, max(k, 1), allow_null=False) if min_arity_two(s)]
    for s in base:
        for p in vertices(s):
            out.append((s, p))
        for e in vertices(s) + leaves(s):
            out.append((replace(s, e, (subtree(s, e),)), e))
    for s in gen_planar_trees(k + 1, max(k + 1, 1), allow_null=False):
        if not min_arity_two(s):
            continue
        for leaf in leaves(s):
            out.append((replace(s, leaf, ()), leaf))
    if k == 0:
        out.append(((), ()))
    if k == 1:
        out.append((corolla(1), ()))
    return out


def psi_category(k: int, max_k: int = 4) -> dict:
    """The poset of non-planar pearled trees with k labeled leaves.

    Objects: one pearl of any arity, every other vertex of arity at least
    two.  One arrow per single inner-edge contraction, composites via
    psi_closure.  The pearled corolla is terminal; prime_morphisms drops
    the covering arrow from the two-vertex tree to it.
    """
    if not 0 <= k <= max_k:
        raise OperadicError("leaf count out of the configured range")
    objects: dict = {}
    for shape, p in _psi_shapes(k):
        c0 = ComponentTree(shape, frozenset({p}))
        if not _psi_valid(c0):
            continue
        lvs = leaves(shape)
        for perm in permutations(range(1, k + 1)):
            labs = tuple((q, str(s)) for q, s in zip(lvs, perm))
            obj = PsiObject(ComponentTree(shape, frozenset({p}), labs))
            objects.setdefault(obj.key, obj)
    keys = sorted(objects)
    index = {key: i for i, key in enumerate(keys)}
    arrows = set()
    for key in keys:
        c = objects[key].tree
        for v in vertices(c.shape):
            if v == ():
                continue
            target = PsiObject(contract_edge(c, v))
            arrows.add((index[key], index[target.key]))
    arrows = sorted(arrows)
    terminal = index[PsiObject(ComponentTree(corolla(k), frozenset({()}))).key]
    near_terminal = None
    if k >= 2:
        near_terminal = index[PsiObject(ComponentTree((corolla(k),), frozenset({()}))).key]
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
    """All composable pairs: reachability through single contractions."""
    reach = {i: set() for i in range(n_objects)}
    for s, t in morphisms:
        reach[s].add(t)
    changed = True
    while changed:
        changed = False
        for s in reach:
            extra = set()
            for t in reach[s]:
                extra |= reach[t] - reach[s]
            if extra:
                reach[s] |= extra
                changed = True
    return sorted((s, t) for s in reach for t in reach[s])


# ---------------------------------------------------------------------------
# DOT output


def emit_dot(t: KFoldTree, times: dict | None = None) -> str:
    """Graphviz rendering: pearls as double circles, external edges dashed."""
    times = times or {}
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
            label = "t=%s" % tm if tm is not None else ""
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
