"""Free constructions on decorated trees and the one rewrite engine they share
with the timed resolutions.

Two free calculi:

* marked-product points over k pearled trees: a joint generator decoration
  on the pearl, a joint marked-product decoration on each spine vertex and
  per-component operad decorations elsewhere (the free object with one
  distinguished input direction), and
* section points over k trees with a shared below-section part: pearls
  jointly decorated by generators with designated base points, the root
  decorated by a fiber point and per-component operad decorations above
  the section (the free object with a ground-indexed left action).

The rewrite engine works on decorated forests whose non-pearl vertices carry
rational times; `bv` builds its resolutions on it.  A free point is the slice
where every non-pearl vertex sits at time one: there equal-time neighbours
always contract, nothing is absorbed into a pearl, and the snapshot drops the
times.  Normal form: no contractible vertex-vertex edge, no eliminable unit
decoration, base-point pearls only at the root, children sorted by their
encodings.  Point equality is field equality.  The public constructors
check the decorations, re-run normalization and reject anything that is not
already normal.  The builders (`ib_point`, `b_point`) and the grafts check
their input on entry, run the engine once and freeze the snapshot of its
exhausted state without that second check.

The engine keys its state as its rules do, by vertex key (i, path): i is the
component of an upper vertex and None for a joint one, a pearl or a vertex
below.  One dict holds the decorations, one the times and one set the pearl
paths.  A free point's fields are converted to it by `_fields_state` and
back by `_point_fields`, once each, at the boundary.
One table holds the seven rules, each with its flavors, its test at a vertex
key and its handler; listing and applying rewrites both read it.

Absorbing into a pearl at time zero goes through the module operations of
the pearls' carrier.  `module_ops` looks them up here, next to the carriers'
operations it returns (`ProductIbOps`, `GluedIbOps`, `GluedBOps` and the
free carriers themselves).
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from itertools import chain, groupby, permutations, product

from .algebra import (
    PLUS,
    AugmentedPoint,
    FiberPoint,
    GluedElement,
    OperadModel,
    OVecPoint,
    ProductPoint,
    RelativeFamily,
    act_numeric,
    block_fiber,
    compose_at,
    fiber_compose_at,
    fiber_drop,
    fiber_relabel,
    glued_circ,
    glued_mu_direct,
    glued_mu_s,
    glued_relabel,
    is_unit_fiber,
    is_unit_ovec,
    ovec_compose_at,
    ovec_shift,
    ovec_splice,
    prod_mu,
)
from .errors import OperadicError
from .exactgeom import RectConfig, _positional, label_key, perm_mapping, renumbering
from .trees import (
    LEAF,
    ComponentTree,
    KFoldTree,
    _frozen,
    arity,
    below_paths,
    contraction,
    corolla,
    has_null_non_pearl,
    is_ancestor,
    is_vertex,
    leaves,
    pearl_of,
    replace,
    spine_paths,
    subtree,
    validate_labeling,
    vertices,
)

ONE = Fraction(1)


# ---------------------------------------------------------------------------
# formal generators


@dataclass(frozen=True)
class FormalGenerator:
    """Opaque generator symbol; orders[i] lists component i's input labels
    in the symbol's own input order, or is the sentinel."""

    name: str
    orders: tuple
    base: bool = False

    def __post_init__(self):
        object.__setattr__(
            self, "orders", tuple(o if o == PLUS else tuple(o) for o in self.orders)
        )
        if self.base and any(o not in (PLUS, ()) for o in self.orders):
            raise OperadicError("a base generator must have empty or absent components")

    @property
    def arity_vector(self) -> tuple:
        return tuple(PLUS if o == PLUS else len(o) for o in self.orders)


def formal_generator(name: str, arities) -> FormalGenerator:
    orders = tuple(
        PLUS if n == PLUS else tuple(str(j + 1) for j in range(n)) for n in arities
    )
    return FormalGenerator(name, orders)


def base_generator(pattern) -> FormalGenerator:
    if any(n not in (PLUS, 0) for n in pattern):
        raise OperadicError("a base pattern draws entries from {0, +}")
    orders = tuple(PLUS if n == PLUS else () for n in pattern)
    return FormalGenerator("*", orders, base=True)


# ---------------------------------------------------------------------------
# decoration dispatch: component action, stable text


def stable_key(value) -> str:
    """Deterministic injective text for sort keys; frozensets are ordered."""
    if isinstance(value, frozenset):
        return "{%s}" % (",".join(sorted((str(x) for x in value), key=label_key)),)
    if isinstance(value, tuple):
        return "(%s)" % (",".join(stable_key(x) for x in value),)
    if isinstance(value, OVecPoint):
        return "OVec[%s]" % (stable_key(value.points),)
    if isinstance(value, ProductPoint):
        return "Prod[%s]" % (stable_key(value.points),)
    if isinstance(value, FiberPoint):
        return "Fiber[%s]" % (stable_key((value.pk.ground, value.pk.parts, value.points)),)
    if isinstance(value, GluedElement):
        return "Glued[%s]" % (stable_key((value.sets, value.config)),)
    if isinstance(value, AugmentedPoint):
        return "Aug[%s]" % (stable_key(value.points),)
    if isinstance(value, FormalGenerator):
        return "Gen[%s;%s;%d]" % (value.name, stable_key(value.orders), value.base)
    if isinstance(value, (FreeIbPoint, FreeBPoint)):
        tree = value.tree
        comps = tuple((c.shape, c.pearls, c.labels) for c in tree.components)
        pearls = value.pearl if isinstance(value, FreeIbPoint) else value.pearls
        return "%s[%s]" % (type(value).__name__,
                           stable_key((comps, tree.marks, pearls, value.below, value.upper)))
    return repr(value)


def act_component(value, i: int, perm) -> object:
    """Slot permutation on component i of a decoration; result slot j carries
    old slot perm[j].  A fiber point permutes its whole ground at once."""
    return _relabel_component(value, i, perm_mapping(perm))


def _relabel_component(value, i: int, mapping: dict) -> object:
    """Rename the inputs of component i of a decoration; a free point renames
    that component's leaves and renormalizes."""
    if isinstance(value, FormalGenerator):
        orders = list(value.orders)
        if orders[i] != PLUS:
            orders[i] = tuple(mapping.get(a, a) for a in orders[i])
        return FormalGenerator(value.name, tuple(orders), value.base)
    if isinstance(value, (OVecPoint, ProductPoint)):
        # renaming inputs other than the mark keeps the marked images
        points = list(value.points)
        points[i] = value.family.components[i].relabel(points[i], mapping)
        return _frozen(type(value), value.family, tuple(points))
    if isinstance(value, FiberPoint):
        return fiber_relabel(value, mapping)
    if isinstance(value, AugmentedPoint):
        points = list(value.points)
        if points[i] != PLUS:
            points[i] = value.family.base.relabel(points[i], mapping)
        return AugmentedPoint(value.family, tuple(points))
    if isinstance(value, GluedElement):
        return glued_relabel(value, i, mapping)
    if isinstance(value, (FreeIbPoint, FreeBPoint)):
        flavor, (family, tree, *rest) = _free_fields(value)
        comps = list(tree.components)
        comps[i] = comps[i].relabel(mapping)
        return _build(flavor, (family, KFoldTree(tree.variant, tuple(comps), tree.marks), *rest))
    raise OperadicError("no component action for %r" % (type(value).__name__,))


def is_base_value(value) -> bool:
    """Does the value decorate a pearl with the designated base point?"""
    if isinstance(value, FormalGenerator):
        return value.base
    if isinstance(value, GluedElement):
        return all(s in (PLUS, ()) for s in value.sets)
    if isinstance(value, AugmentedPoint):
        return all(x == PLUS or value.family.base.arity(x) == 0 for x in value.points)
    return False


def base_like(template, family: RelativeFamily, pattern) -> object:
    """The base point at an arity pattern, in the template's encoding."""
    if isinstance(template, FormalGenerator):
        return base_generator(pattern)
    if isinstance(template, GluedElement):
        sets = tuple(PLUS if n == PLUS else () for n in pattern)
        return GluedElement(family, sets, RectConfig(family.base.dim, {}, "disjoint"))
    if isinstance(template, AugmentedPoint):
        points = tuple(PLUS if n == PLUS else family.base.point0() for n in pattern)
        return AugmentedPoint(family, points)
    raise OperadicError("no base point for %r" % (type(template).__name__,))


def decoration_arities(value) -> tuple:
    """The arity pattern of a pearl decoration, PLUS for an absent component."""
    if isinstance(value, (FormalGenerator, OVecPoint)):
        return value.arity_vector
    if isinstance(value, FiberPoint):
        return value.pk.arity_vector
    if isinstance(value, (FreeIbPoint, FreeBPoint)):
        return value.arities
    if isinstance(value, ProductPoint):
        return tuple(len(s) for s in value.sets)
    if isinstance(value, (GluedElement, AugmentedPoint)):
        return tuple(PLUS if s == PLUS else len(s) for s in value.sets)
    raise OperadicError("unsupported pearl decoration %r" % (type(value).__name__,))


# ---------------------------------------------------------------------------
# decoration checks shared by the free and the timed points


def _positional_ovec(theta: OVecPoint, arities) -> bool:
    return all(
        set(theta.sets[i]) == {str(t) for t in range(2, m + 1)}
        for i, m in enumerate(arities)
    )


def _check_fiber_marks(fiber: FiberPoint, marks: dict, v, m: int):
    """The fiber's sentinel pattern and parts must match the marks of the
    vertex's output edge and of its m input edges."""
    for i, part in enumerate(fiber.pk.parts):
        if (part == PLUS) != (not marks[(i, v)]):
            raise OperadicError("fiber pattern does not match the marks at %r" % (v,))
        if part != PLUS:
            internal = {str(s + 1) for s in range(m) if marks[(i, v + (s,))]}
            if set(part) != internal:
                raise OperadicError("fiber pattern does not match the marks at %r" % (v,))


def _check_decorations(flavor, family, tree: KFoldTree, pearls: dict, below: dict,
                       upper: dict) -> set:
    """Check that the decorations fit the tree of a point of one flavor and
    return the keys of its timed vertices.  The four layouts:

    "ib"     a generator at the pearl, positional marked product points on
             the spine (the pearl's ancestors), operad elements elsewhere
    "b"      generators at the pearls, positional fiber points below the
             section, operad elements above it
    "inter"  positional fiber points at every vertex of one tree, the pearl
             included; only the non-pearl vertices are timed
    "w"      an operad element of the one model at every vertex of a plain
             tree; the timed vertices are the non-root paths

    Pearls, spine and below-section vertices are joint and keyed by path;
    operad elements are keyed by (component, path)."""
    if not isinstance(tree, KFoldTree):
        raise OperadicError("expected a KFoldTree, got %r" % (type(tree).__name__,))
    ok, clause = validate_labeling(tree)
    if not ok:
        raise OperadicError("invalid tree: %s" % (clause,))
    comps, marks = tree.components, dict(tree.marks)
    first = comps[0]
    if flavor == "w":
        if not isinstance(family, OperadModel):
            raise OperadicError("flavor 'w' needs an operad model")
        models, pearl_keys, below_keys = (family,), set(), set()
    else:
        if not isinstance(family, RelativeFamily):
            raise OperadicError("a relative family is required")
        models = family.components
        if len({i for i, _ in marks} if flavor == "inter" else comps) != family.k:
            raise OperadicError("component count mismatch")
        if flavor == "b":
            pearl_keys, below_keys = set(first.pearls), set(below_paths(first))
        else:
            pearl_keys = {pearl_of(first)}
            below_keys = (set(spine_paths(first)) if flavor == "ib"
                          else set(vertices(first.shape)) - pearl_keys)
    upper_keys = set() if flavor == "inter" else {
        (i, v) for i, c in enumerate(comps) for v in vertices(c.shape)
        if v not in pearl_keys and v not in below_keys
    }
    for name, dec, want in (("pearl", pearls, pearl_keys), ("joint", below, below_keys),
                            ("operad", upper, upper_keys)):
        if set(dec) != want:
            raise OperadicError("%s decorations do not fit the %r layout" % (name, flavor))
    if flavor in ("ib", "b"):
        for v, value in pearls.items():
            want = tuple(arity(c.shape, v) if flavor == "ib" or marks[(i, v)] else PLUS
                         for i, c in enumerate(comps))
            if decoration_arities(value) != want:
                raise OperadicError("pearl decoration arity mismatch at %r" % (v,))
    if flavor == "ib":
        for v, theta in below.items():
            if not isinstance(theta, OVecPoint) or theta.family != family:
                raise OperadicError("spine decorations must be marked product points")
            if not _positional_ovec(theta, [arity(c.shape, v) for c in comps]):
                raise OperadicError("spine decoration labels must be positional")
    fibers = {"b": below, "inter": {**pearls, **below}}.get(flavor, {})
    for v, fiber in fibers.items():
        m = arity(first.shape, v)
        if not isinstance(fiber, FiberPoint) or fiber.family != family:
            raise OperadicError("decorations at %r must be fiber points" % (v,))
        if len(fiber.pk.ground) != m or not _positional(fiber.pk.ground):
            raise OperadicError("fiber ground must be positional at %r" % (v,))
        _check_fiber_marks(fiber, marks, v, m)
    for (i, v), x in upper.items():
        labels = models[i].labels(x)
        if len(labels) != arity(comps[i].shape, v) or not _positional(labels):
            raise OperadicError("operad decoration labels must be positional")
        if not models[i].validate(x):
            raise OperadicError("operad decoration at %r is no element of %s"
                                % ((i, v), models[i].name))
    if flavor == "w":
        return {v for v in vertices(first.shape) if v}
    return below_keys | upper_keys


# ---------------------------------------------------------------------------
# the rewrite engine


class _TimedState:
    """Mutable decorated forest with vertex times; rewrites run here and
    points are frozen snapshots of exhausted states.

    The flavor fixes the layout: "ib" pearled forests, "b" section forests,
    "inter" a single pearled tree decorated by fiber points and "w" a single
    plain tree over one operad (the timed points of `bv`).  Free points are
    the "ib" and "b" states with every time at one.

    One key space: a vertex key (i, path) names a vertex, i being the
    component of an upper vertex and None for a joint one, a pearl or a
    vertex below.  `dec` maps every vertex key to its decoration and `times`
    every timed one to its time; `pearls` holds the paths of the joint keys
    that are pearls.  A pearl sits at time zero and has no entry in `times`.
    A "w" vertex is an upper vertex of component 0, its time the length of
    the edge below it; `bv` keys a "w" time by the path alone.

    `RULES` holds the seven rules, each with the flavors it serves, its test
    at a vertex key and its handler:

    contract         a vertex and its parent at equal times become one
                     vertex; when either is a pearl, the merged vertex is
                     the pearl ("b" absorbs pearls into their parent only by
                     absorb-star, as the section's left action takes all its
                     operands at once)
    drop-unit        a unit vertex of arity one goes
    absorb-star      a "b" vertex at time zero whose inputs are all pearls
                     becomes one pearl
    drop-base-pearl  a "b" pearl carrying a base point leaves its fiber
    pearlize         a "b" root without inputs becomes a base-point pearl
    contract-zero    contract under the "w" condition: an edge of length
                     zero (t == 0) contracts
    drop-unit-w      drop-unit for "w", the merged edge keeping the longer
                     length

    `available()` lists the rewrites scan by scan (`SCANS`): a scan walks
    the upper or the joint keys in sorted order and tests its rules, in
    turn, at each key.  `apply()` runs a rule's handler on a vertex key.

    Composing with a pearl goes through `module_ops(flavor, family,
    template)` of the pearls' carrier, looked up when first needed and kept
    in `ops`.

    Children sort by their encodings, which describe whole subtrees.  Ties
    go to the order whose acted parent decoration has the least
    `stable_key`.

    Validation happens once, at the boundary: a state is built from a
    checked point or from builder input checked over its unreduced variant,
    and every operand is checked as it is grafted on (`_graft_right`,
    `_graft_fiber`, `_check_ovec_operand`, the operand states of `_act`).
    The rules keep every decoration, time and label condition, so the
    snapshot of an exhausted state is a valid normal point, and the
    builders, the grafts and `bv` freeze it without the points' constructor
    checks."""

    def __init__(self, flavor, family, shapes, labels, marks, pearls, dec, times):
        self.flavor = flavor
        self.family = family
        self.shapes = list(shapes)
        self.labels = [dict(l) for l in labels]
        self.marks = dict(marks)
        self.pearls = set(pearls)
        self.dec = dict(dec)
        self.times = dict(times)
        self.ops = None
        # the carrier of the pearls; it survives the drop of every pearl, so
        # that a pearl rebuilt at the root keeps the encoding
        self.base_template = next(
            (x for (i, p), x in self.dec.items() if i is None and p in self.pearls), None)

    @classmethod
    def of_tree(cls, flavor, family, tree: KFoldTree, pearls, below, upper,
                times) -> "_TimedState":
        """The state of a decorated tree family with the given times, all
        keyed as the points key them: a joint vertex by its path, an upper
        vertex by (component, path) and a "w" time by its path."""
        comps = tree.components
        joint = {(None, p): x for p, x in chain(pearls.items(), below.items())}
        # the joint times are those of the vertices below
        times = {((0, key) if flavor == "w" else (None, key) if key in below else key): t
                 for key, t in times.items()}
        return cls(flavor, family, [c.shape for c in comps], [dict(c.labels) for c in comps],
                   dict(tree.marks), pearls, {**joint, **upper}, times)

    @property
    def k(self) -> int:
        return len(self.shapes)

    def components(self) -> tuple:
        pearls = frozenset(self.pearls)
        return tuple(
            ComponentTree(shape, pearls, tuple((p, self.labels[i][p]) for p in leaves(shape)))
            for i, shape in enumerate(self.shapes)
        )

    def _ops(self):
        if self.ops is None:
            self.ops = module_ops(self.flavor, self.family, self.base_template)
        return self.ops

    def _key(self, i, path):
        """The key of the vertex at path in component i."""
        return (None, path) if (None, path) in self.dec else (i, path)

    def _clock(self, i, path):
        """The time of the vertex at path in component i; a pearl sits at
        time zero."""
        if path in self.pearls:
            return 0
        return self.times.get((None, path), self.times.get((i, path)))

    # -- rewrite enumeration ----------------------------------------------

    def available(self) -> list:
        keys = {"upper": [], "joint": []}
        for key in self.dec:
            keys["joint" if key[0] is None else "upper"].append(key)
        out = []
        for scan, names in self.SCANS:
            tests = [(name, self.RULES[name][1]) for name in names
                     if self.flavor in self.RULES[name][0]]
            out += [(name, key) for key in sorted(keys[scan]) for name, test in tests
                    if test(self, *key)]
        return out

    def apply(self, rule, arg):
        if rule not in self.RULES:
            raise OperadicError("unknown rewrite %r" % (rule,))
        self.RULES[rule][2](self, *arg)

    def run(self, rng=None) -> "_TimedState":
        while True:
            todo = self.available()
            if not todo:
                break
            rule, arg = todo[0] if rng is None else todo[rng.randint(0, len(todo) - 1)]
            self.apply(rule, arg)
        self.sort()
        return self

    # -- the tests at a vertex key -------------------------------------------

    def _contracts(self, i, path):
        return bool(path) and not (self.flavor == "b" and path in self.pearls) and (
            self._clock(i, path) == self._clock(i, path[:-1]))

    def _is_unit_vertex(self, i, path):
        if path in self.pearls or arity(self.shapes[0 if i is None else i], path) != 1:
            return False
        x = self.dec[(i, path)]
        if i is not None:
            return x == self._model(i).units["1"]
        return (is_unit_ovec if self.flavor == "ib" else is_unit_fiber)(x)

    def _absorbs(self, i, path):
        if self.times.get((i, path)) != 0:
            return False
        width = arity(self.shapes[0], path)
        return width > 0 and all(path + (s,) in self.pearls for s in range(width))

    def _is_base_pearl(self, i, path):
        return bool(path) and path in self.pearls and is_base_value(self.dec[(i, path)])

    def _is_bare_root(self, _, path):
        return not path and path not in self.pearls and arity(self.shapes[0], path) == 0

    def _at_time_zero(self, i, path):
        return self.times.get((i, path)) == 0

    # -- path bookkeeping ---------------------------------------------------

    def _move(self, moves: dict, drops=frozenset()):
        """Move the paths of each component i in moves by moves[i], dropping
        the vertices at drops.  When every component moves, so do the joint
        keys, by the last component's move: no joint vertex lies right of a
        spliced joint vertex whose arity differs between the components (a
        pearl sits at slot zero, and absorb-star splices its pearls last
        first).  "inter" marks are keyed by marking index over its single
        tree."""
        joint = moves[self.k - 1] if len(moves) == self.k else None

        def rekey(keyed):
            out = {}
            for (i, p), v in keyed.items():
                move = joint if i is None else moves.get(0 if self.flavor == "inter" else i)
                if move is None:
                    out[(i, p)] = v
                elif p not in drops:
                    out[(i, move(p))] = v
            return out

        self.dec, self.times, self.marks = rekey(self.dec), rekey(self.times), rekey(self.marks)
        for i, move in moves.items():
            self.labels[i] = {move(p): s for p, s in self.labels[i].items()}
        if joint is not None:
            self.pearls = {joint(p) for p in self.pearls if p not in drops}

    # -- the rewrites --------------------------------------------------------

    def _pop(self, i, path):
        """Remove the decoration and time of the vertex (i, path) and return
        the decoration."""
        self.times.pop((i, path), None)
        return self.dec.pop((i, path))

    def _splice_out(self, i, path):
        """Remove the vertex at path, its children taking its slot in the
        parent, and return its decoration.  i names the component of an upper
        vertex and is None for a joint one, which goes in every component."""
        x = self._pop(i, path)
        moves = {}
        for j in range(self.k) if i is None else (i,):
            self.shapes[j], moves[j] = contraction(self.shapes[j], path)
        self._move(moves, drops={path})
        return x

    def _contract(self, i, path):
        """Compose the vertex at path into its parent, the two sitting at equal
        times; when either end is a pearl, the merged vertex is the pearl."""
        par, slot = path[:-1], path[-1]
        pearl_child = path in self.pearls
        x = self._splice_out(i, path)
        key = self._key(i, par)
        parent = self.dec[key]
        if i is None and self.flavor != "ib":
            value = fiber_compose_at(parent, slot + 1, x)
        elif i is None:
            value = self._ops().left(parent, x) if pearl_child else ovec_splice(parent, x)
        elif par in self.pearls:
            value = self._ops().right(parent, i, slot + 1, x)
        elif key[0] is None:
            value = ovec_compose_at(parent, i, slot + 1, x)
        else:
            value = compose_at(self._model(i), parent, slot + 1, x)
        if pearl_child:
            self.times.pop(key)
            self.pearls.add(par)
        self.dec[key] = value

    def _drop_unit(self, i, path):
        """Remove a unit vertex of arity one; at the root its child becomes
        the root."""
        if path:
            self._splice_out(i, path)
            return
        self._pop(i, path)
        self.marks = {(j, p): v for (j, p), v in self.marks.items() if p != ()}
        for j in range(self.k):
            self.shapes[j] = subtree(self.shapes[j], (0,))
        self._move(dict.fromkeys(range(self.k), lambda p: p[1:]))

    def _absorb_star(self, _, path):
        fiber = self._pop(None, path)
        width = arity(self.shapes[0], path)
        operands = [self._splice_out(None, path + (s,)) for s in reversed(range(width))]
        self.pearls.add(path)
        self.dec[(None, path)] = self._ops().left(fiber, operands[::-1])

    def _drop_base_pearl(self, _, path):
        self.base_template = self._splice_out(None, path)
        par = (None, path[:-1])
        self.dec[par] = fiber_drop(self.dec[par], path[-1] + 1)

    def _pearlize(self, _, path):
        # the surviving datum of a zero-width root is its arity pattern; the
        # time has nothing left to weight and is discarded
        fiber = self._pop(None, path)
        pattern = tuple(PLUS if part == PLUS else 0 for part in fiber.pk.parts)
        self.pearls.add(path)
        self.dec[(None, path)] = base_like(self.base_template, self.family, pattern)

    def _drop_unit_w(self, i, path):
        t_out = self.times.get((i, path))
        t_in = self.times.pop((i, path + (0,)), None)
        self._drop_unit(i, path)
        if t_out is not None and t_in is not None:
            # both edges are inner, so the merged edge keeps the longer one
            self.times[(i, path)] = max(t_out, t_in)

    # rule: (flavors it serves, test at a vertex key, handler)
    RULES = {
        "contract": (("ib", "b", "inter"), _contracts, _contract),
        "drop-unit": (("ib", "b", "inter"), _is_unit_vertex, _drop_unit),
        "absorb-star": (("b",), _absorbs, _absorb_star),
        "drop-base-pearl": (("b",), _is_base_pearl, _drop_base_pearl),
        "pearlize": (("b",), _is_bare_root, _pearlize),
        "contract-zero": (("w",), _at_time_zero, _contract),
        "drop-unit-w": (("w",), _is_unit_vertex, _drop_unit_w),
    }
    # the scans of available(), in order, each with the keys it walks and
    # the rules it tests at each key.  The order is part of the results: a
    # seeded run picks its rewrites from the list.
    SCANS = (
        ("upper", ("contract", "drop-unit", "contract-zero")),
        ("upper", ("drop-unit-w",)),
        ("joint", ("drop-unit", "contract", "absorb-star")),
        ("joint", ("drop-base-pearl", "pearlize")),
    )

    # -- canonical child order ----------------------------------------------

    def _model(self, i):
        return self.family if self.flavor == "w" else self.family.components[i]

    def _marks_at(self, i, path):
        if self.flavor == "b":
            return self.marks.get((i, path))
        if self.flavor == "inter":
            return tuple(
                self.marks.get((j, path)) for j in range(self.family.k)
            )
        return None

    def _enc(self, i, path, node):
        """The encoding of the subtree node at path in component i: its leaf
        labels, marks, times and decorations.  Leaves come before vertices,
        in the order of their decimal labels."""
        # marks are None, a bool or a tuple of them: repr is stable text
        marks = repr(self._marks_at(i, path))
        if not is_vertex(node):
            label = self.labels[i][path]
            return ("L", marks, len(label), label)
        key = self._key(i, path)
        t = self.times.get(key)
        return (
            "V",
            path in self.pearls,
            marks,
            "" if t is None else str(t),
            stable_key(self.dec[key]),
            tuple(self._enc(i, path + (s,), child) for s, child in enumerate(node)),
        )

    def _acted(self, path, order, comp_ids):
        """The decoration at path once its children in the components
        comp_ids take the order: new slot j holds old slot order[j]."""
        perm = tuple(j + 1 for j in order)
        key = self._key(comp_ids[0], path)
        value = self.dec[key]
        if key[0] is not None:
            return act_numeric(self._model(key[0]), value, perm)
        if isinstance(value, FiberPoint):
            return act_component(value, 0, perm)
        for i in comp_ids:
            value = act_component(value, i, perm)
        return value

    def _apply_child_perm(self, path, order, comp_ids):
        self.dec[self._key(comp_ids[0], path)] = self._acted(path, order, comp_ids)

        def move(p):
            if len(p) > len(path) and p[: len(path)] == path:
                return path + (order.index(p[len(path)]),) + p[len(path) + 1 :]
            return p

        for i in comp_ids:
            node = subtree(self.shapes[i], path)
            self.shapes[i] = replace(
                self.shapes[i], path, tuple(node[j] for j in order)
            )
        self._move(dict.fromkeys(comp_ids, move))

    def sort(self):
        """Order the children of every vertex, deepest first; in "b" the
        vertices below the section order theirs jointly, last."""
        joint = {p for i, p in self.dec if i is None} - self.pearls if self.flavor == "b" else set()
        for i in range(self.k):
            for path in sorted(vertices(self.shapes[i]), key=len, reverse=True):
                if path not in joint:
                    self._sort_children(path, [i], 1 if self._pinned(i, path) else 0)
        for path in sorted(joint, key=len, reverse=True):
            self._sort_children(path, range(self.k))

    def _pinned(self, i, path) -> bool:
        if self.flavor == "ib":
            return (None, path) in self.dec and path not in self.pearls
        if self.flavor == "inter":
            return _pearlward(self.pearls, path)
        return False

    def _sort_children(self, path, comp_ids, first=0):
        """Order the children of path from slot first on by their encodings
        in the components comp_ids.  Equal encodings are identical leafless
        subtrees, since leaf labels are distinct; each run of them takes the
        permutation whose acted decoration at path has the least stable
        key."""
        nodes = [subtree(self.shapes[i], path) for i in comp_ids]
        n = len(nodes[0])
        if n - first < 2:
            return
        keys = {j: tuple(self._enc(i, path + (j,), node[j]) for i, node in zip(comp_ids, nodes))
                for j in range(first, n)}
        runs = [list(run) for _, run in groupby(sorted(keys, key=keys.get), key=keys.get)]
        orders = (list(range(first)) + list(chain.from_iterable(p))
                  for p in product(*map(permutations, runs)))
        if len(runs) == len(keys):
            order = next(orders)
        else:
            order = min(orders, key=lambda o: stable_key(self._acted(path, o, comp_ids)))
        if order != list(range(n)):
            self._apply_child_perm(path, order, comp_ids)


def _pearlward(pearls, path) -> bool:
    """Is the path a strict ancestor of one of the pearls?"""
    return any(is_ancestor(path, q) and path != q for q in pearls)


# ---------------------------------------------------------------------------
# the points


def _is_path(key) -> bool:
    return isinstance(key, tuple) and all(isinstance(i, int) for i in key)


def _is_upper_key(key) -> bool:
    """Distinguish a (component, path) key from a joint vertex path."""
    return isinstance(key, tuple) and len(key) == 2 and isinstance(key[0], int) and _is_path(key[1])


def _sorted_items(dec, keyed, order=None) -> tuple:
    """The items of a decoration map, sorted, once every key passes `keyed`;
    a malformed key would otherwise fail the sort or the engine."""
    dec = dict(dec)
    for key in dec:
        if not keyed(key):
            raise OperadicError("malformed decoration key %r" % (key,))
    return tuple(sorted(dec.items(), key=order))


def _free_fields(pt) -> tuple:
    """The flavor of a free point and its fields, in constructor order."""
    if isinstance(pt, FreeIbPoint):
        return "ib", (pt.family, pt.tree, pt.pearl, pt.below, pt.upper)
    if isinstance(pt, FreeBPoint):
        return "b", (pt.family, pt.tree, pt.pearls, pt.below, pt.upper)
    raise OperadicError("%r is no free point" % (type(pt).__name__,))


def _fields_state(flavor, fields, check=False) -> _TimedState:
    """The fields of a free point as an engine state at time one.  The pearls
    and the vertex below them are joint and keyed by path; "ib" takes its one
    pearl's decoration for the pearl field.  With check, the decorations must
    fit the tree's layout and the leaf labels must be positional."""
    family, tree, pearls, below, upper = fields
    if flavor == "ib":
        # a forest without components reaches the tree check, not an IndexError
        pearls = {pearl_of(c): pearls for c in getattr(tree, "components", ())[:1]}
    pearls, below, upper = dict(pearls), {} if below is None else {(): below}, dict(upper)
    if check:
        _check_decorations(flavor, family, tree, pearls, below, upper)
        _check_positional_labels(tree)
    return _TimedState.of_tree(flavor, family, tree, pearls, below, upper,
                               dict.fromkeys(chain(below, upper), ONE))


def _free_state(pt) -> _TimedState:
    """The point as an engine state at time one."""
    return _fields_state(*_free_fields(pt))


def _decorations(state: _TimedState) -> tuple:
    """The decorations of a state as the points keep them: sorted items of
    the pearls and of the vertices below, keyed by path, and of the upper
    vertices, keyed by (component, path)."""
    joint = sorted((p, x) for (i, p), x in state.dec.items() if i is None)
    return (tuple(kv for kv in joint if kv[0] in state.pearls),
            tuple(kv for kv in joint if kv[0] not in state.pearls),
            tuple(sorted(kv for kv in state.dec.items() if kv[0][0] is not None)))


def _point_fields(state: _TimedState) -> tuple:
    """The fields of the free point of an exhausted state, in constructor
    order; the times are all one and are dropped."""
    pearls, below, upper = _decorations(state)
    ib = state.flavor == "ib"
    tree = KFoldTree("rpTree" if ib else "rsTree", state.components(), tuple(state.marks.items()))
    return state.family, tree, pearls[0][1] if ib else pearls, below[0][1] if below else None, upper


def _check_normal(pt):
    """Reject a free point whose decorations do not fit its tree or which
    normalization would change; every rewrite changes the tree or its pearls."""
    flavor, fields = _free_fields(pt)
    if _point_fields(_fields_state(flavor, fields, check=True).run()) != fields:
        raise OperadicError("point is not in normal form")


def _check_positional_labels(tree: KFoldTree):
    for c in tree.components:
        want = {str(j + 1) for j in range(c.n_leaves)}
        if {s for _, s in c.labels} != want:
            raise OperadicError("leaf labels must be a permutation of 1..n")


@dataclass(frozen=True)
class FreeIbPoint:
    """Normal-form point of the free construction with one distinguished
    direction.  The spine decoration is present exactly when the pearl sits
    below the root; upper maps (component, path) to operad elements."""

    family: RelativeFamily
    tree: KFoldTree
    pearl: object
    below: object
    upper: tuple

    def __post_init__(self):
        object.__setattr__(self, "upper", _sorted_items(self.upper, _is_upper_key))
        if getattr(self.tree, "variant", None) != "rpTree":
            raise OperadicError("expected the reduced pearled variant")
        _check_normal(self)

    @property
    def arities(self) -> tuple:
        return self.tree.arities


@dataclass(frozen=True)
class FreeBPoint:
    """Normal-form point of the free construction with a ground-indexed left
    action.  The root decoration is present exactly when the root is not a
    pearl; pearls and upper map paths to decorations."""

    family: RelativeFamily
    tree: KFoldTree
    pearls: tuple
    below: object
    upper: tuple

    def __post_init__(self):
        object.__setattr__(self, "pearls", _sorted_items(self.pearls, _is_path))
        object.__setattr__(self, "upper", _sorted_items(self.upper, _is_upper_key))
        if getattr(self.tree, "variant", None) != "rsTree":
            raise OperadicError("expected the reduced section variant")
        _check_normal(self)

    @property
    def arities(self) -> tuple:
        return tuple(PLUS if n is None else n for n in self.tree.arities)


def has_univalent_vertex(pt) -> bool:
    """True when some non-pearl vertex has no inputs; the restricted variants
    exclude such points."""
    return any(has_null_non_pearl(c) for c in pt.tree.components)


# ---------------------------------------------------------------------------
# builders


def _build(flavor, fields, rng=None):
    """Check the fields of a decorated forest, normalize it and freeze the
    result.  The rewrites reduce the tree, so the decorations must fit the
    layout over its unreduced variant."""
    family, tree, *rest = fields
    if isinstance(tree, KFoldTree):
        tree = KFoldTree("pTree" if flavor == "ib" else "sTree", tree.components, tree.marks)
    state = _fields_state(flavor, (family, tree, *rest), check=True).run(rng)
    return _frozen(FreeIbPoint if flavor == "ib" else FreeBPoint, *_point_fields(state))


def ib_point(family, tree, pearl, below=None, upper=(), rng=None) -> FreeIbPoint:
    """Normalize a decorated pearled forest and freeze the result."""
    return _build("ib", (family, tree, pearl, below, upper), rng)


def b_point(family, tree, pearls, below=None, upper=(), rng=None) -> FreeBPoint:
    """Normalize a decorated section forest and freeze the result."""
    return _build("b", (family, tree, pearls, below, upper), rng)


def ib_generator(family: RelativeFamily, pearl) -> FreeIbPoint:
    """The corolla point of a generator decoration with every component
    present."""
    arities = decoration_arities(pearl)
    if PLUS in arities:
        raise OperadicError("an ib generator needs every component present")
    comps = tuple(ComponentTree(corolla(n), frozenset({()})) for n in arities)
    return FreeIbPoint(family, KFoldTree("rpTree", comps), pearl, None, ())


def b_generator(family: RelativeFamily, pearl) -> FreeBPoint:
    """The pearled-corolla point of a generator decoration."""
    arities = decoration_arities(pearl)
    comps = tuple(
        ComponentTree(corolla(0 if n == PLUS else n), frozenset({()})) for n in arities
    )
    marks = tuple(((i, ()), n != PLUS) for i, n in enumerate(arities))
    return FreeBPoint(family, KFoldTree("rsTree", comps, marks), (((), pearl),), None, ())


def base_point(family: RelativeFamily, pattern) -> FreeBPoint:
    """The designated point at an arity pattern drawn from {0, +}."""
    pattern = tuple(pattern)
    return b_generator(family, base_like(base_generator(pattern), family, pattern))


# ---------------------------------------------------------------------------
# grafting at time one, shared with the timed points


def _graft_leaf(state: _TimedState, i: int, j: int, m: int):
    """Replace the leaf labeled j in component i by an m-corolla; higher labels
    shift by m - 1 and the new leaves take j .. j + m - 1.  Returns the
    corolla's path."""
    for p, s in state.labels[i].items():
        if s == str(j):
            path = p
            break
    else:
        raise OperadicError("no leaf labeled %r in component %d" % (j, i))
    state.shapes[i] = replace(state.shapes[i], path, corolla(m))
    del state.labels[i][path]
    for p, s in state.labels[i].items():
        if int(s) > j:
            state.labels[i][p] = str(int(s) + m - 1)
    for t in range(m):
        state.labels[i][path + (t,)] = str(j + t)
    return path


def _graft_right(state: _TimedState, i: int, j, x) -> _TimedState:
    """Graft the operad element x of component i onto the leaf labeled j."""
    model = state.family.components[i]
    labels = model.labels(x)
    if not _positional(labels):
        raise OperadicError("operand labels must be positional")
    if not model.validate(x):
        raise OperadicError("the operand is no element of %s" % (model.name,))
    path = _graft_leaf(state, i, j, len(labels))
    state.dec[(i, path)] = x
    state.times[(i, path)] = ONE
    return state


def _check_fiber_operand(family, fiber):
    if not isinstance(fiber, FiberPoint) or fiber.family != family:
        raise OperadicError("the operand must be a fiber point over the family")
    if not _positional(fiber.pk.ground):
        raise OperadicError("fiber ground must be positional")


def _mark_inputs(state: _TimedState, path, fiber):
    """Mark the input edges of the fiber vertex at path from its parts."""
    for u, part in enumerate(fiber.pk.parts):
        for t in range(len(fiber.pk.ground)):
            state.marks[(u, path + (t,))] = part != PLUS and str(t + 1) in part


def _graft_fiber(state: _TimedState, j, fiber) -> _TimedState:
    """Graft a corolla of the fiber point onto the leaf labeled j of a
    single-tree fiber state; the fiber's sentinel pattern must match the
    leaf's marks."""
    _check_fiber_operand(state.family, fiber)
    path = _graft_leaf(state, 0, j, len(fiber.pk.ground))
    if any(state.marks[(u, path)] == (part == PLUS) for u, part in enumerate(fiber.pk.parts)):
        raise OperadicError("sentinel pattern does not match the marking of leaf %r" % (j,))
    state.dec[(None, path)] = fiber
    state.times[(None, path)] = ONE
    _mark_inputs(state, path, fiber)
    return state


def _new_root(state: _TimedState, extras, decoration) -> _TimedState:
    """Put a new root with the given decoration at time one below the forest;
    its first input carries the old tree, and component i gets extras[i] more
    inputs, new leaves labeled after its old ones."""
    state._move(dict.fromkeys(range(state.k), lambda p: (0,) + p))
    for i, extra in enumerate(extras):
        top = max((int(s) for s in state.labels[i].values()), default=0)
        state.shapes[i] = (state.shapes[i],) + (LEAF,) * extra
        for t in range(extra):
            state.labels[i][(t + 1,)] = str(top + t + 1)
    state.dec[(None, ())] = decoration
    state.times[(None, ())] = ONE
    return state


def _check_ovec_operand(family, theta):
    if not isinstance(theta, OVecPoint) or theta.family != family:
        raise OperadicError("the left operand must be a marked product point")
    if not _positional_ovec(theta, [len(s) + 1 for s in theta.sets]):
        raise OperadicError("left operand labels must be positional")


def _graft_left_ib(state: _TimedState, theta) -> _TimedState:
    """Put a new root decorated by the marked product point theta below the
    forest."""
    _check_ovec_operand(state.family, theta)
    return _new_root(state, [len(s) for s in theta.sets], theta)


def _graft_left_inter(state: _TimedState, theta) -> _TimedState:
    """Put a new root decorated by the block fiber of the marked product
    point theta below a single-tree fiber state; its inputs after the first
    split into consecutive blocks, one per component."""
    _check_ovec_operand(state.family, theta)
    fiber = block_fiber(theta)
    _new_root(state, [len(fiber.pk.ground) - 1], fiber)
    for u in range(theta.family.k):
        state.marks[(u, ())] = True
    _mark_inputs(state, (), fiber)
    return state


def _merge_b_operands(family, fiber, operands) -> _TimedState:
    """Put a new root decorated by the fiber point below the operand states,
    one per ground element, continuing each component's leaf labels."""
    _check_fiber_operand(family, fiber)
    if len(operands) != len(fiber.pk.ground):
        raise OperadicError("one operand per ground element is required")
    k = family.k
    shapes = [[] for _ in range(k)]
    labels = [dict() for _ in range(k)]
    marks = {(i, ()): part != PLUS for i, part in enumerate(fiber.pk.parts)}
    pearls, dec, times = set(), {(None, ()): fiber}, {(None, ()): ONE}
    for l, op in enumerate(operands):
        for i, part in enumerate(fiber.pk.parts):
            if (part != PLUS and str(l + 1) in part) != op.marks[(i, ())]:
                raise OperadicError(
                    "operand %d presence does not match the ground pattern" % (l + 1)
                )
        for i in range(k):
            offset = max((int(s) for s in labels[i].values()), default=0)
            shapes[i].append(op.shapes[i])
            for p, s in op.labels[i].items():
                labels[i][(l,) + p] = str(int(s) + offset)
        pearls |= {(l,) + p for p in op.pearls}
        for keyed, theirs in ((marks, op.marks), (dec, op.dec), (times, op.times)):
            keyed.update({(i, (l,) + p): v for (i, p), v in theirs.items()})
    return _TimedState("b", family, [tuple(s) for s in shapes], labels, marks, pearls, dec, times)


def _act(state: _TimedState, action, operand_state) -> _TimedState:
    """Apply a module action to a pearled ("ib"), section ("b") or single-tree
    fiber ("inter") state at time one: ("right", i, j, x) grafts the operad
    element x of component i onto the leaf labeled j, ("right", j, fiber) a
    fiber corolla onto the leaf labeled j of a fiber state, ("left", theta)
    puts a marked product point (or its block fiber) below the tree and
    ("left", fiber, operands) a fiber point below the section states that
    operand_state makes of the operands."""
    kind = action[0] if isinstance(action, (tuple, list)) and action else None
    inter = state.flavor == "inter"
    width = {"right": 3 if inter else 4, "left": 3 if state.flavor == "b" else 2}.get(kind)
    if width is None or len(action) != width:
        raise OperadicError("malformed action %r" % (action,))
    if kind == "right":
        i, j, x = (0, *action[1:]) if inter else action[1:]
        if type(i) is not int or not 0 <= i < state.k:
            raise OperadicError("no component %r" % (i,))
        if type(j) is not int:
            raise OperadicError("leaf label %r is not an integer" % (j,))
        return _graft_fiber(state, j, x) if inter else _graft_right(state, i, j, x)
    if state.flavor != "b":
        return (_graft_left_inter if inter else _graft_left_ib)(state, action[1])
    _, fiber, operands = action
    if not isinstance(operands, (tuple, list)):
        raise OperadicError("the operands must be a sequence")
    states = [operand_state(op) for op in operands]
    if any(s.flavor != "b" or s.family != state.family for s in states):
        raise OperadicError("operands must be section points over the family")
    return _merge_b_operands(state.family, fiber, states)


def _graft(cls, pt, action, rng):
    """The normal form of a free point of class cls after the action, frozen
    without the constructor's re-check: pt and the operands are checked."""
    if not isinstance(pt, cls):
        raise OperadicError("%r is no %s" % (type(pt).__name__, cls.__name__))
    return _frozen(cls, *_point_fields(_act(_free_state(pt), action, _free_state).run(rng)))


def free_graft_ib(pt: FreeIbPoint, action, rng=None) -> FreeIbPoint:
    """Apply a right corolla graft ("right", i, j, x) or a left marked
    product graft ("left", theta); returns the normal form."""
    return _graft(FreeIbPoint, pt, action, rng)


def free_graft_b(pt: FreeBPoint, action, rng=None) -> FreeBPoint:
    """Apply a right corolla graft ("right", i, j, x) or a ground-indexed
    left graft ("left", fiber, operands); returns the normal form."""
    return _graft(FreeBPoint, pt, action, rng)


# ---------------------------------------------------------------------------
# counit evaluation against concrete carriers


class ProductIbOps:
    """Right and left operations of the plain componentwise product."""

    def __init__(self, family: RelativeFamily):
        self.family = family

    def right(self, p: ProductPoint, i: int, pos: int, x) -> ProductPoint:
        points = list(p.points)
        points[i] = compose_at(self.family.components[i], points[i], pos, x)
        return ProductPoint(self.family, tuple(points))

    def left(self, theta: OVecPoint, p: ProductPoint) -> ProductPoint:
        _check_ovec_operand(self.family, theta)
        return prod_mu(ovec_shift(theta, tuple(len(s) - 1 for s in p.sets)), p)


class _GluedOps:
    """Right operations of the glued rectangles carrier: positional
    substitution in one component."""

    def __init__(self, family: RelativeFamily):
        self.family = family

    def right(self, p: GluedElement, i: int, pos: int, x) -> GluedElement:
        if p.sets[i] == PLUS:
            raise OperadicError("component %d is absent" % i)
        apart, back = renumbering(len(p.sets[i]), pos, len(x.labels))
        z = glued_circ(p, i, str(pos), x.relabel(apart))
        return glued_relabel(z, i, back)


class GluedIbOps(_GluedOps):
    """The glued rectangles carrier with the marked left action, in the
    all-present range."""

    def left(self, theta: OVecPoint, p: GluedElement) -> GluedElement:
        _check_ovec_operand(self.family, theta)
        return glued_mu_direct(ovec_shift(theta, tuple(len(s) - 1 for s in p.sets)), p)


class GluedBOps(_GluedOps):
    """The glued rectangles carrier with the ground-indexed left action."""

    def left(self, fiber: FiberPoint, operands) -> GluedElement:
        shifted = {}
        offsets = [1] * self.family.k
        for l, op in enumerate(operands):
            value = op
            for i in range(self.family.k):
                if value.sets[i] == PLUS:
                    continue
                mapping = {a: str(int(a) + offsets[i] - 1) for a in value.sets[i]}
                value = glued_relabel(value, i, mapping)
                offsets[i] += len(value.sets[i])
            shifted[str(l + 1)] = value
        return glued_mu_s(fiber, shifted)


class _FreeModuleOps:
    """Right and left operations of the free module carriers."""

    def __init__(self, flavor: str, family: RelativeFamily):
        self.flavor = flavor
        self.family = family

    def _lift(self, value):
        if isinstance(value, FormalGenerator):
            lift = ib_generator if self.flavor == "ib" else b_generator
            return lift(self.family, value)
        return value

    def right(self, value, i, pos, x):
        graft = free_graft_ib if self.flavor == "ib" else free_graft_b
        return graft(self._lift(value), ("right", i, pos, x))

    def left(self, arg, value):
        if self.flavor == "ib":
            return free_graft_ib(self._lift(value), ("left", arg))
        operands = [self._lift(v) for v in value]
        return free_graft_b(operands[0], ("left", arg, operands))


def module_ops(flavor: str, family: RelativeFamily, template):
    """The module operations matching a pearl decoration's carrier."""
    if isinstance(template, GluedElement):
        return GluedBOps(family) if flavor == "b" else GluedIbOps(family)
    if isinstance(template, ProductPoint):
        if flavor != "ib":
            raise OperadicError("the plain product carries no section action")
        return ProductIbOps(family)
    if isinstance(template, (FormalGenerator, FreeIbPoint, FreeBPoint)):
        return _FreeModuleOps(flavor, family)
    raise OperadicError("no module operations for %r" % (type(template).__name__,))


def _pearl_fold(pt, path, value, ops):
    """Compose the corollas hanging under one pearl into its decoration."""
    upper = dict(pt.upper)
    for i in range(len(pt.tree.components)):
        slots = sorted(
            (q[-1] for (j, q) in upper if j == i and q[:-1] == path), reverse=True
        )
        for s in slots:
            value = ops.right(value, i, s + 1, upper[(i, path + (s,))])
    return value


def _name_inputs(value, shapes, labels):
    """Rename input p of each component i of a decoration to the label of the
    p-th leaf of shapes[i] in planar order; labels[i] maps leaf paths to
    labels."""
    for i, shape in enumerate(shapes):
        mapping = {str(pos + 1): labels[i][q] for pos, q in enumerate(leaves(shape))}
        mapping = {a: b for a, b in mapping.items() if a != b}
        if mapping:
            value = _relabel_component(value, i, mapping)
    return value


def evaluate_ib(pt: FreeIbPoint, ops):
    """Fold the decorated tree into the concrete carrier of its pearl
    decoration (the counit of the free construction)."""
    for (i, q) in dict(pt.upper):
        if q[:-1] != pearl_of(pt.tree.components[i]):
            raise OperadicError("normal points carry corollas under pearls only")
    value = _pearl_fold(pt, pearl_of(pt.tree.components[0]), pt.pearl, ops)
    if pt.below is not None:
        value = ops.left(pt.below, value)
    comps = pt.tree.components
    return _name_inputs(value, [c.shape for c in comps], [dict(c.labels) for c in comps])


def evaluate_b(pt: FreeBPoint, ops):
    """Fold a section point into the concrete carrier of its pearls."""
    folded = {path: _pearl_fold(pt, path, value, ops) for path, value in pt.pearls}
    if pt.below is None:
        value = folded[()]
    else:
        value = ops.left(pt.below, [folded[(l,)] for l in range(len(folded))])
    comps = pt.tree.components
    return _name_inputs(value, [c.shape for c in comps], [dict(c.labels) for c in comps])
