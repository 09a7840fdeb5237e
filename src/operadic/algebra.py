"""Set-indexed operad models and the sequence-level algebra built on them.

The module provides a small registry of exact operad models (little
rectangles and cubes in several flavors, linear orders, the one-point
operad), families of such models mapped into a common base, and the derived
objects: partition families with an augmented sentinel, fiber points over
them with their substitution product, marked product points, the category of
pointed maps with operadic decorations and its twisted composition law, the
gluing functor into the ambient rectangles operad, and the conversions
between single-slot and indexed-slot module actions.

Everything is exact: elements are built from Fractions and compared with ==.
All values are immutable after construction; caller-supplied evaluators must
be safe for concurrent invocation if the caller shares them across threads.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from functools import cached_property
from types import MappingProxyType

from .errors import OperadicError
from .exactgeom import (
    MARK,
    MarkedFiberConfig,
    RectConfig,
    embed_component,
    epsilon_glue,
    glue_shared,
    include_rect,
    label_key,
    perm_mapping,
    qualify,
    rect_compose,
    renumbering,
    unit_config,
    validate_config,
)
from .rng import Stream
from .sampling import (
    sample_cube_config,
    sample_disjoint_config,
    sample_fiber_configs,
    sample_marked_fiber,
    sample_overlapping_config,
)
from .trees import _frozen

PLUS = "+"

MODEL_KINDS = ("rect", "cube", "rect-inf", "sym", "terminal")


# ---------------------------------------------------------------------------
# operad models


@dataclass(frozen=True)
class OperadModel:
    """A named operad with exact set-indexed elements.

    kind "rect": disjoint little rectangles in the unit cube.
    kind "cube": disjoint little cubes in the unit cube.
    kind "rect-inf": little rectangles with arbitrary overlap.
    kind "sym": linear orders on the index set (splice composition).
    kind "terminal": one point per index set.

    All five are reduced: the arity-zero part is a single point.
    """

    name: str
    kind: str
    dim: int = 0

    def __post_init__(self):
        if self.kind not in MODEL_KINDS:
            raise OperadicError("unknown model kind %r" % (self.kind,))
        if self.kind in ("rect", "cube", "rect-inf") and self.dim < 1:
            raise OperadicError("geometric models need a positive dimension")

    @property
    def geometric(self) -> bool:
        return self.kind in ("rect", "cube", "rect-inf")

    @property
    def regime(self):
        return "overlapping" if self.kind == "rect-inf" else "disjoint"

    def labels(self, x) -> tuple:
        """The input labels of x; anything but an element of this model's
        carrier (a configuration, a tuple or a frozenset of string labels)
        raises OperadicError."""
        if self.geometric:
            if isinstance(x, RectConfig):
                return x.labels
        elif (isinstance(x, tuple if self.kind == "sym" else frozenset)
              and all(isinstance(a, str) for a in x)):
            return tuple(sorted(x, key=label_key))
        raise OperadicError("%r is no element of the operad %s" % (x, self.name))

    def arity(self, x) -> int:
        return len(self.labels(x))

    def unit(self, a: str):
        if self.geometric:
            return unit_config(a, self.dim, self.regime)
        if self.kind == "sym":
            return (a,)
        return frozenset({a})

    @cached_property
    def units(self) -> MappingProxyType:
        """The units on "1" and on the mark, the ones the unit tests compare
        with, built once per model, read-only and shared by every caller."""
        return MappingProxyType({a: self.unit(a) for a in ("1", MARK)})

    def point0(self):
        if self.geometric:
            return RectConfig(self.dim, {}, self.regime)
        if self.kind == "sym":
            return ()
        return frozenset()

    def compose(self, x, a: str, y):
        """Substitute y into input a of x; label sets must not collide."""
        if self.geometric:
            return rect_compose(x, a, y)
        if self.kind == "sym":
            if a not in x:
                raise OperadicError("missing slot %r" % (a,))
            rest = set(x) - {a}
            if rest & set(y):
                raise OperadicError("label collision in composition")
            pos = x.index(a)
            return x[:pos] + tuple(y) + x[pos + 1 :]
        if a not in x:
            raise OperadicError("missing slot %r" % (a,))
        rest = x - {a}
        if rest & set(y):
            raise OperadicError("label collision in composition")
        return rest | set(y)

    def relabel(self, x, mapping: dict):
        if self.geometric:
            return x.relabel(mapping)
        out = tuple(mapping.get(e, e) for e in (x if self.kind == "sym" else sorted(x, key=label_key)))
        if len(set(out)) != len(out):
            raise OperadicError("label collision under relabeling")
        return out if self.kind == "sym" else frozenset(out)

    def validate(self, x) -> bool:
        if self.geometric:
            if x.dim != self.dim:
                return False
            if self.kind == "cube" and not all(r.is_cube() for _, r in x.rects):
                return False
            return bool(validate_config(x, self.regime))
        if self.kind == "sym":
            return len(set(x)) == len(x)
        return True

    def sample(self, rng: Stream, labels):
        labels = tuple(labels)
        if self.kind == "cube":
            return sample_cube_config(rng, self.dim, labels)
        if self.kind == "rect":
            return sample_disjoint_config(rng, self.dim, labels)
        if self.kind == "rect-inf":
            return sample_overlapping_config(rng, self.dim, labels)
        if self.kind == "sym":
            return tuple(rng.shuffle(labels))
        return frozenset(labels)


def operad_model(name: str) -> OperadModel:
    """Look up a registry name: "cube:2", "rect:3", "rect-inf:2", "sym",
    "terminal"."""
    if name in ("sym", "terminal"):
        return OperadModel(name, name)
    if ":" in name:
        kind, _, dim = name.partition(":")
        if kind in ("rect", "cube", "rect-inf") and dim.isdigit():
            return OperadModel(name, kind, int(dim))
    raise OperadicError("unknown operad model %r" % (name,))


# ---------------------------------------------------------------------------
# numeric-slot helpers


def _require_numeric(model: OperadModel, x) -> int:
    labels = model.labels(x)
    n = len(labels)
    if sorted(labels, key=label_key) != [str(j) for j in range(1, n + 1)]:
        raise OperadicError("positional operations need labels 1..n")
    return n


def compose_at(model: OperadModel, x, i: int, y):
    """Positional substitution with the standard renumbering."""
    n = _require_numeric(model, x)
    m = _require_numeric(model, y)
    if not 1 <= i <= n:
        raise OperadicError("missing slot %d" % i)
    apart, back = renumbering(n, i, m)
    z = model.compose(x, str(i), model.relabel(y, apart))
    return model.relabel(z, back)


def act_numeric(model: OperadModel, x, sigma) -> object:
    """Right permutation action: result slot j carries old slot sigma[j]."""
    n = _require_numeric(model, x)
    if sorted(sigma) != list(range(1, n + 1)):
        raise OperadicError("not a permutation of 1..%d" % n)
    return model.relabel(x, perm_mapping(sigma))


def inverse_perm(sigma) -> tuple:
    out = [0] * len(sigma)
    for j, v in enumerate(sigma):
        out[v - 1] = j + 1
    return tuple(out)


def compose_away(model: OperadModel, x, keep):
    """Plug the arity-zero point into every input outside `keep`."""
    keep = set(keep)
    for a in model.labels(x):
        if a not in keep:
            x = model.compose(x, a, model.point0())
    return x


# ---------------------------------------------------------------------------
# families of operads over a base


@dataclass(frozen=True)
class RelativeFamily:
    """Operad models O_1..O_k with maps into a common base model.

    kind "cube-pad": cube models mapped by centered padding into a rectangle
    model of higher dimension.
    kind "identity": every component equals the base.
    kind "collapse": anything mapped to the one-point operad.
    """

    components: tuple
    base: OperadModel
    kind: str

    def __post_init__(self):
        object.__setattr__(self, "components", tuple(self.components))
        if not self.components:
            raise OperadicError("a family needs at least one component")
        if self.kind == "cube-pad":
            dims = [m.dim for m in self.components]
            if any(m.kind != "cube" for m in self.components):
                raise OperadicError("cube-pad components must be cube models")
            if not self.base.geometric:
                raise OperadicError("cube-pad base must be geometric")
            if any(d1 > d2 for d1, d2 in zip(dims, dims[1:])):
                raise OperadicError("component dimensions must be nondecreasing")
            if dims[-1] >= self.base.dim:
                raise OperadicError("component dimensions must stay below the base")
        elif self.kind == "identity":
            if any(m != self.base for m in self.components):
                raise OperadicError("identity family components must equal the base")
        elif self.kind == "collapse":
            if self.base.kind != "terminal":
                raise OperadicError("collapse family needs the one-point base")
        else:
            raise OperadicError("unknown family kind %r" % (self.kind,))

    @property
    def k(self) -> int:
        return len(self.components)

    @property
    def dims(self) -> tuple:
        return tuple(m.dim for m in self.components)

    def f(self, i: int, x):
        """The operad map from component i into the base."""
        if self.kind == "cube-pad":
            return include_rect(x, self.base.dim, "cube")
        if self.kind == "identity":
            return x
        return frozenset(self.components[i].labels(x))


def cube_family(dims, ambient: int) -> RelativeFamily:
    comps = tuple(operad_model("cube:%d" % d) for d in dims)
    return RelativeFamily(comps, operad_model("rect:%d" % ambient), "cube-pad")


def identity_family(model: OperadModel) -> RelativeFamily:
    return RelativeFamily((model,), model, "identity")


def collapse_family(components) -> RelativeFamily:
    return RelativeFamily(tuple(components), operad_model("terminal"), "collapse")


def _agree_in_base(family: RelativeFamily, points, keep) -> bool:
    """The fiber condition: the components other than the sentinel agree in
    the base once every input outside keep is composed away.  A fiber point
    keeps pk.shared(), as two finite parts of a partition family share
    exactly those labels."""
    present = [(i, x) for i, x in enumerate(points) if x != PLUS]
    if len(present) < 2:
        return True
    images = [family.f(i, compose_away(family.components[i], x, keep)) for i, x in present]
    return all(img == images[0] for img in images[1:])


# ---------------------------------------------------------------------------
# partition families with the augmented sentinel


@dataclass(frozen=True)
class PKFamily:
    """k subsets of a ground set, each possibly the sentinel "+", such that
    every ground element lies in all parts or in exactly one."""

    ground: tuple
    parts: tuple

    def __post_init__(self):
        ground = tuple(sorted(set(self.ground), key=label_key))
        if len(ground) != len(tuple(self.ground)):
            raise OperadicError("duplicate ground labels")
        parts = []
        for part in self.parts:
            if part == PLUS:
                parts.append(PLUS)
                continue
            entries = tuple(sorted(set(part), key=label_key))
            if len(entries) != len(tuple(part)):
                raise OperadicError("duplicate part labels")
            if not set(entries) <= set(ground):
                raise OperadicError("part labels outside the ground set")
            parts.append(entries)
        object.__setattr__(self, "ground", ground)
        object.__setattr__(self, "parts", tuple(parts))
        if not parts:
            raise OperadicError("a partition family needs at least one part")
        for a in ground:
            count = sum(1 for p in self.parts if p != PLUS and a in p)
            if count != len(self.parts) and count != 1:
                raise OperadicError("label %r lies in %d parts" % (a, count))

    @property
    def k(self) -> int:
        return len(self.parts)

    @property
    def is_all_plus(self) -> bool:
        return all(p == PLUS for p in self.parts)

    @property
    def arity_vector(self) -> tuple:
        return tuple(PLUS if p == PLUS else len(p) for p in self.parts)

    def shared(self) -> tuple:
        return tuple(a for a in self.ground
                     if all(p != PLUS and a in p for p in self.parts))


def pk_valid(ground, parts) -> bool:
    """Standalone membership predicate for the partition-family conditions."""
    try:
        PKFamily(tuple(ground), tuple(parts))
    except OperadicError:
        return False
    return True


def pk_enumerate(ground, k: int) -> list:
    """All valid partition families over a ground set of at most 4 labels,
    brute force."""
    ground = tuple(sorted(set(ground), key=label_key))
    if len(ground) > 4:
        raise OperadicError("ground set larger than the enumeration bound")
    if k < 1:
        raise OperadicError("need k >= 1")
    subsets = [PLUS]
    for r in range(len(ground) + 1):
        subsets.extend(itertools.combinations(ground, r))
    out = []
    for combo in itertools.product(subsets, repeat=k):
        if pk_valid(ground, combo):
            out.append(PKFamily(ground, combo))
    return out


def pk_union(s1: PKFamily, a: str, s2: PKFamily) -> PKFamily:
    """Substitute the second family into ground element a of the first."""
    if a not in s1.ground:
        raise OperadicError("missing ground label %r" % (a,))
    if s1.k != s2.k:
        raise OperadicError("component count mismatch")
    rest = set(s1.ground) - {a}
    if rest & set(s2.ground):
        raise OperadicError("ground label collision in substitution")
    parts = []
    for p1, p2 in zip(s1.parts, s2.parts):
        if p1 != PLUS and a in p1:
            if p2 == PLUS:
                raise OperadicError("second family must be present where %r occurs" % (a,))
            parts.append(tuple(x for x in p1 if x != a) + p2)
        else:
            if p2 != PLUS:
                raise OperadicError("second family must be absent where %r is absent" % (a,))
            parts.append(p1)
    return PKFamily(tuple(rest | set(s2.ground)), tuple(parts))


def sample_pk(rng: Stream, ground, k: int, finite=None) -> PKFamily:
    """Random valid family; `finite` fixes which parts are not the sentinel."""
    ground = tuple(sorted(set(ground), key=label_key))
    finite = tuple(range(k)) if finite is None else tuple(sorted(set(finite)))
    if not finite:
        if ground:
            raise OperadicError("nonempty ground set needs a finite part")
        return PKFamily((), (PLUS,) * k)
    parts = [set() if i in finite else PLUS for i in range(k)]
    for a in ground:
        if len(finite) == k and rng.maybe():
            for p in parts:
                p.add(a)
        else:
            parts[rng.choice(finite)].add(a)
    return PKFamily(ground, tuple(PLUS if p == PLUS else tuple(p) for p in parts))


# ---------------------------------------------------------------------------
# fiber points


@dataclass(frozen=True)
class FiberPoint:
    """One element per non-sentinel part, agreeing in the base after the
    complementary inputs are composed away."""

    family: RelativeFamily
    pk: PKFamily
    points: tuple

    def __post_init__(self):
        object.__setattr__(self, "points", tuple(self.points))
        if self.family.k != self.pk.k or len(self.points) != self.pk.k:
            raise OperadicError("component count mismatch")
        for i, (part, x) in enumerate(zip(self.pk.parts, self.points)):
            if part == PLUS:
                if x != PLUS:
                    raise OperadicError("component %d must be the sentinel" % i)
                continue
            if x == PLUS:
                raise OperadicError("component %d must not be the sentinel" % i)
            if self.family.components[i].labels(x) != part:
                raise OperadicError("component %d labels do not match its part" % i)
        if not _agree_in_base(self.family, self.points, self.pk.shared()):
            raise OperadicError("fiber condition violation")


def fiber_mu_a(p: FiberPoint, a: str, q: FiberPoint) -> FiberPoint:
    """Substitute the second fiber point into ground element a of the first."""
    if p.family != q.family:
        raise OperadicError("fiber points over different families")
    for i, part in enumerate(p.pk.parts):
        absent = part == PLUS or a not in part
        if absent != (q.pk.parts[i] == PLUS):
            raise OperadicError("sentinel pattern does not match the occurrences of %r" % (a,))
    pk = pk_union(p.pk, a, q.pk)
    points = []
    for i, part in enumerate(p.pk.parts):
        if part != PLUS and a in part:
            points.append(p.family.components[i].compose(p.points[i], a, q.points[i]))
        else:
            points.append(p.points[i])
    # each f is an operad map, so the composites agree in the base
    return _frozen(FiberPoint, p.family, pk, tuple(points))


def fiber_relabel(p: FiberPoint, mapping: dict) -> FiberPoint:
    ground = tuple(mapping.get(a, a) for a in p.pk.ground)
    parts = tuple(part if part == PLUS else tuple(mapping.get(a, a) for a in part)
                  for part in p.pk.parts)
    points = tuple(
        x if x == PLUS else p.family.components[i].relabel(x, mapping)
        for i, x in enumerate(p.points)
    )
    # relabeling commutes with each f, so the images still agree
    return _frozen(FiberPoint, p.family, PKFamily(ground, parts), points)


def sample_fiber_point(rng: Stream, family: RelativeFamily, pk: PKFamily) -> FiberPoint:
    if family.kind == "cube-pad":
        configs = sample_fiber_configs(rng, family.dims, pk.parts)
        return FiberPoint(family, pk, tuple(PLUS if c is None else c for c in configs))
    if family.kind == "collapse":
        points = tuple(
            PLUS if part == PLUS else family.components[i].sample(rng.split(i), part)
            for i, part in enumerate(pk.parts)
        )
        return FiberPoint(family, pk, points)
    raise OperadicError("no fiber sampler for family kind %r" % (family.kind,))


def fiber_compose_at(p: FiberPoint, pos: int, q: FiberPoint) -> FiberPoint:
    """Substitute q into ground position pos of p, renumbering to 1..n+m-1."""
    if not isinstance(pos, int) or not 1 <= pos <= len(p.pk.ground):
        raise OperadicError("no ground position %r" % (pos,))
    apart, back = renumbering(len(p.pk.ground), pos, len(q.pk.ground))
    z = fiber_mu_a(p, str(pos), fiber_relabel(q, apart))
    return fiber_relabel(z, back)


def fiber_drop(p: FiberPoint, pos: int) -> FiberPoint:
    """Compose the arity-zero fiber point into ground position pos."""
    hit = [part != PLUS and str(pos) in part for part in p.pk.parts]
    zero = FiberPoint(p.family, PKFamily((), tuple(() if h else PLUS for h in hit)),
                      tuple(m.point0() if h else PLUS for m, h in zip(p.family.components, hit)))
    return fiber_compose_at(p, pos, zero)


def is_unit_fiber(p: FiberPoint) -> bool:
    """Unit pattern: singleton ground, every present part carries the unit."""
    if p.pk.ground != ("1",):
        return False
    for i, part in enumerate(p.pk.parts):
        if part == PLUS:
            continue
        if part != ("1",) or p.points[i] != p.family.components[i].units["1"]:
            return False
    return True


# ---------------------------------------------------------------------------
# marked product points


@dataclass(frozen=True)
class OVecPoint:
    """One element per component over its own inputs plus the shared mark,
    with all marked images agreeing in the base."""

    family: RelativeFamily
    points: tuple

    def __post_init__(self):
        object.__setattr__(self, "points", tuple(self.points))
        if len(self.points) != self.family.k:
            raise OperadicError("component count mismatch")
        for i, x in enumerate(self.points):
            if MARK not in self.family.components[i].labels(x):
                raise OperadicError("component %d is missing the marked input" % i)
        if not _agree_in_base(self.family, self.points, {MARK}):
            raise OperadicError("fiber condition violation at the marked input")

    @property
    def sets(self) -> tuple:
        return tuple(
            tuple(a for a in self.family.components[i].labels(x) if a != MARK)
            for i, x in enumerate(self.points)
        )

    @property
    def arity_vector(self) -> tuple:
        return tuple(len(s) + 1 for s in self.sets)


def ovec_unit(family: RelativeFamily) -> OVecPoint:
    return OVecPoint(family, tuple(m.unit(MARK) for m in family.components))


def ovec_mu(p: OVecPoint, q: OVecPoint) -> OVecPoint:
    """Substitute q into the marked input of p, componentwise."""
    if p.family != q.family:
        raise OperadicError("points over different families")
    points = tuple(
        p.family.components[i].compose(p.points[i], MARK, q.points[i])
        for i in range(p.family.k)
    )
    return OVecPoint(p.family, points)


def sample_ovec(rng: Stream, family: RelativeFamily, sets) -> OVecPoint:
    sets = tuple(tuple(s) for s in sets)
    if len(sets) != family.k:
        raise OperadicError("component count mismatch")
    if family.kind == "cube-pad":
        fiber = sample_marked_fiber(rng, family.dims, family.base.dim, sets)
        return OVecPoint(family, fiber.configs)
    if family.kind == "collapse":
        return OVecPoint(family, tuple(
            family.components[i].sample(rng.split(i), s + (MARK,)) for i, s in enumerate(sets)
        ))
    raise OperadicError("no marked-point sampler for family kind %r" % (family.kind,))


def ovec_compose_at(theta: OVecPoint, i: int, pos: int, x) -> OVecPoint:
    """Substitute x into the non-marked input labeled pos of component i."""
    model = theta.family.components[i]
    apart, back = renumbering(model.arity(theta.points[i]), pos, model.arity(x))
    z = model.compose(theta.points[i], str(pos), model.relabel(x, apart))
    points = list(theta.points)
    points[i] = model.relabel(z, back)
    # x's inputs are composed away with the rest, so the marked images stay
    return _frozen(OVecPoint, theta.family, tuple(points))


def ovec_splice(parent: OVecPoint, child: OVecPoint) -> OVecPoint:
    """Substitute the child into the marked input; the child's non-marked
    slots come first in the merged numbering."""
    family = parent.family
    if child.family != family:
        raise OperadicError("points over different families")
    points = []
    for i in range(family.k):
        model = family.components[i]
        extra = len(child.sets[i])
        shifted = model.relabel(parent.points[i], {
            str(t): str(t + extra)
            for t in range(2, model.arity(parent.points[i]) + 1)
        })
        points.append(model.compose(shifted, MARK, child.points[i]))
    return _frozen(OVecPoint, family, tuple(points))


def is_unit_ovec(theta: OVecPoint) -> bool:
    return all(x == m.units[MARK] for m, x in zip(theta.family.components, theta.points))


# ---------------------------------------------------------------------------
# componentwise product points (one element per component, no condition)


@dataclass(frozen=True)
class ProductPoint:
    family: RelativeFamily
    points: tuple

    def __post_init__(self):
        object.__setattr__(self, "points", tuple(self.points))
        if len(self.points) != self.family.k:
            raise OperadicError("component count mismatch")

    @property
    def sets(self) -> tuple:
        return tuple(self.family.components[i].labels(x) for i, x in enumerate(self.points))


def prod_circ(p: ProductPoint, i: int, a: str, y) -> ProductPoint:
    """Operadic substitution in one component."""
    points = list(p.points)
    points[i] = p.family.components[i].compose(points[i], a, y)
    return ProductPoint(p.family, tuple(points))


def prod_mu(theta: OVecPoint, p: ProductPoint) -> ProductPoint:
    """Substitute the components of p into the marked inputs of theta."""
    if theta.family != p.family:
        raise OperadicError("points over different families")
    points = tuple(
        p.family.components[i].compose(theta.points[i], MARK, p.points[i])
        for i in range(p.family.k)
    )
    return ProductPoint(p.family, points)


# ---------------------------------------------------------------------------
# augmented product points with values in the base


@dataclass(frozen=True)
class AugmentedPoint:
    """One base-operad element per non-sentinel component."""

    family: RelativeFamily
    points: tuple

    def __post_init__(self):
        object.__setattr__(self, "points", tuple(self.points))
        if len(self.points) != self.family.k:
            raise OperadicError("component count mismatch")
        if all(x == PLUS for x in self.points):
            raise OperadicError("at least one component must be present")

    @property
    def sets(self) -> tuple:
        return tuple(PLUS if x == PLUS else self.family.base.labels(x) for x in self.points)


def aug_circ(p: AugmentedPoint, i: int, a: str, y) -> AugmentedPoint:
    """Substitute a component-operad element through its map into the base."""
    if p.points[i] == PLUS:
        raise OperadicError("component %d is the sentinel" % i)
    points = list(p.points)
    points[i] = p.family.base.compose(points[i], a, p.family.f(i, y))
    return AugmentedPoint(p.family, tuple(points))


def aug_mu_s(fiber: FiberPoint, operands: dict) -> AugmentedPoint:
    """Left action of a fiber point on a ground-indexed family of augmented
    points; componentwise iterated substitution in the base."""
    family = fiber.family
    pk = fiber.pk
    for a in pk.ground:
        if a not in operands:
            raise OperadicError("missing operand for ground label %r" % (a,))
        for i, part in enumerate(pk.parts):
            present = part != PLUS and a in part
            if present == (operands[a].points[i] == PLUS):
                raise OperadicError("operand sentinel pattern does not match part membership")
    points = []
    for i, part in enumerate(pk.parts):
        if part == PLUS:
            points.append(PLUS)
            continue
        z = family.f(i, fiber.points[i])
        for a in part:
            z = family.base.compose(z, a, operands[a].points[i])
        points.append(z)
    return AugmentedPoint(family, tuple(points))


# ---------------------------------------------------------------------------
# glued rectangle elements over component-qualified labels


@dataclass(frozen=True)
class GluedElement:
    """A rectangle configuration in the base dimension whose inputs are
    component-qualified labels; sets[i] lists component i's own labels or is
    the sentinel."""

    family: RelativeFamily
    sets: tuple
    config: RectConfig

    def __post_init__(self):
        sets = tuple(PLUS if s == PLUS else tuple(sorted(s, key=label_key)) for s in self.sets)
        object.__setattr__(self, "sets", sets)
        if len(sets) != self.family.k:
            raise OperadicError("component count mismatch")
        if all(s == PLUS for s in sets):
            raise OperadicError("at least one component must be present")
        want = sorted(
            (qualify(i, a) for i, s in enumerate(sets) if s != PLUS for a in s),
            key=label_key,
        )
        if list(self.config.labels) != want:
            raise OperadicError("configuration labels do not match the component sets")
        if self.config.dim != self.family.base.dim:
            raise OperadicError("configuration dimension mismatch")


def glued_circ(x: GluedElement, i: int, a: str, y) -> GluedElement:
    """Substitute a component element, embedded by centered padding, into one
    of that component's inputs."""
    if x.sets[i] == PLUS or a not in x.sets[i]:
        raise OperadicError("missing slot %r in component %d" % (a, i))
    family = x.family
    emb = embed_component(y, family.dims[-1], family.base.dim)
    emb = emb.relabel({b: qualify(i, b) for b in emb.labels})
    config = rect_compose(x.config, qualify(i, a), emb)
    sets = list(x.sets)
    sets[i] = tuple(b for b in sets[i] if b != a) + tuple(y.labels)
    return GluedElement(family, tuple(sets), config)


def glued_relabel(value: GluedElement, i: int, mapping: dict) -> GluedElement:
    """Simultaneous slot relabeling of one component of a glued element."""
    if value.sets[i] == PLUS:
        return value
    sets = list(value.sets)
    sets[i] = tuple(mapping.get(a, a) for a in sets[i])
    cfg = value.config.relabel(
        {qualify(i, a): qualify(i, b) for a, b in mapping.items()}
    )
    return GluedElement(value.family, tuple(sets), cfg)


def glued_eta(family: RelativeFamily, xs) -> GluedElement:
    """Stack the component elements into last-axis slabs of the base cube;
    the image of a tuple of units is the bare slab configuration."""
    configs = tuple(
        None if x == PLUS else x.relabel({b: qualify(i, b) for b in x.labels})
        for i, x in enumerate(xs)
    )
    sets = tuple(PLUS if x == PLUS else tuple(x.labels) for x in xs)
    return GluedElement(family, sets, glue_shared(family.dims, family.base.dim, configs))


def glued_mu_s(fiber: FiberPoint, operands: dict) -> GluedElement:
    """Left action: glue the fiber point along its shared labels, then
    substitute the ground-indexed operands."""
    family = fiber.family
    pk = fiber.pk
    configs = tuple(None if x == PLUS else x for x in fiber.points)
    glued = glue_shared(family.dims, family.base.dim, configs)
    sets = [PLUS if p == PLUS else () for p in pk.parts]
    for a in pk.ground:
        if a not in operands:
            raise OperadicError("missing operand for ground label %r" % (a,))
        y = operands[a]
        for i, part in enumerate(pk.parts):
            present = part != PLUS and a in part
            if present == (y.sets[i] == PLUS):
                raise OperadicError("operand sentinel pattern does not match part membership")
            if present:
                sets[i] = sets[i] + y.sets[i]
        glued = rect_compose(glued, a, y.config)
    return GluedElement(family, tuple(sets), glued)


def glued_mu_direct(theta: OVecPoint, m: GluedElement) -> GluedElement:
    """Left action in the non-augmented range: glue the marked product point
    along its marked column, then substitute m into the fused slot."""
    family = theta.family
    if m.family != family:
        raise OperadicError("operands over different families")
    if any(s == PLUS for s in m.sets):
        raise OperadicError("the operand must be present in every component")
    fused = epsilon_glue(MarkedFiberConfig(family.dims, family.base.dim, theta.points))
    config = rect_compose(fused, MARK, m.config)
    sets = tuple(theta.sets[i] + m.sets[i] for i in range(family.k))
    return GluedElement(family, sets, config)


class GluedEvaluator:
    """Unit images and left actions of the glued-rectangles model, packaged
    for the induced-action construction."""

    def __init__(self, family: RelativeFamily):
        if family.kind != "cube-pad":
            raise OperadicError("glued elements need a cube-pad family")
        self.family = family

    @property
    def k(self) -> int:
        return self.family.k

    def unit_image(self, slots) -> GluedElement:
        xs = tuple(
            PLUS if s == PLUS else unit_config(s, self.family.dims[i], "disjoint")
            for i, s in enumerate(slots)
        )
        return glued_eta(self.family, xs)

    def mu_s(self, fiber: FiberPoint, operands: dict) -> GluedElement:
        return glued_mu_s(fiber, operands)


def block_fiber(theta: OVecPoint) -> FiberPoint:
    """The fiber point over the ground set 1..n whose parts share the label 1
    and otherwise split into consecutive blocks, one per component; component
    i carries theta's element with the mark renamed 1 and its other inputs,
    in label order, renamed into block i."""
    family = theta.family
    parts = []
    points = []
    n = 1
    for i, s in enumerate(theta.sets):
        block = tuple(str(n + 1 + t) for t in range(len(s)))
        n += len(s)
        parts.append(("1",) + block)
        mapping = {MARK: "1", **dict(zip(sorted(s, key=label_key), block))}
        points.append(family.components[i].relabel(theta.points[i], mapping))
    ground = tuple(str(j) for j in range(1, n + 1))
    return FiberPoint(family, PKFamily(ground, tuple(parts)), tuple(points))


def induced_infinitesimal(eta, theta: OVecPoint, m):
    """Derive the marked left action from the augmented one.

    The left action of the block fiber of theta receives m at position 1 and
    at every other position the image under eta of a unit on the input of
    theta that the position renames.
    """
    k = theta.family.k
    if eta.k != k:
        raise OperadicError("evaluator and point have different component counts")
    fiber = block_fiber(theta)
    operands = {"1": m}
    for i, part in enumerate(fiber.pk.parts):
        for a, b in zip(sorted(theta.sets[i], key=label_key), part[1:]):
            operands[b] = eta.unit_image(tuple(a if j == i else PLUS for j in range(k)))
    return eta.mu_s(fiber, operands)


# ---------------------------------------------------------------------------
# the category of pointed maps with operadic decorations


@dataclass(frozen=True)
class GammaComponent:
    """A pointed map together with one operad element per target point,
    indexed by the preimage of that point."""

    model: OperadModel
    source: tuple
    target: tuple
    alpha: tuple
    decor: tuple

    def __post_init__(self):
        source = tuple(sorted(set(self.source) | {MARK}, key=label_key))
        target = tuple(sorted(set(self.target) | {MARK}, key=label_key))
        alpha = tuple(sorted(dict(self.alpha).items(), key=lambda kv: label_key(kv[0])))
        decor = tuple(sorted(dict(self.decor).items(), key=lambda kv: label_key(kv[0])))
        object.__setattr__(self, "source", source)
        object.__setattr__(self, "target", target)
        object.__setattr__(self, "alpha", alpha)
        object.__setattr__(self, "decor", decor)
        amap = dict(alpha)
        if set(amap) != set(source) or not set(amap.values()) <= set(target):
            raise OperadicError("the pointed map must cover the source")
        if amap[MARK] != MARK:
            raise OperadicError("the pointed map must preserve the mark")
        dmap = dict(decor)
        if set(dmap) != set(target):
            raise OperadicError("decorations must cover the target")
        for b, x in dmap.items():
            fiber = tuple(sorted((a for a in source if amap[a] == b), key=label_key))
            if self.model.labels(x) != fiber:
                raise OperadicError("decoration at %r is not indexed by its preimage" % (b,))

    def fiber(self, b: str) -> tuple:
        amap = dict(self.alpha)
        return tuple(sorted((a for a in self.source if amap[a] == b), key=label_key))

    def decoration(self, b: str):
        return dict(self.decor)[b]


def _fresh_labels(count: int, avoid) -> list:
    avoid = set(avoid)
    out = []
    j = 1
    while len(out) < count:
        name = "t%d" % j
        j += 1
        if name not in avoid:
            out.append(name)
    return out


def _component_compose(g: GammaComponent, h: GammaComponent) -> GammaComponent:
    """Twisted composition: away from the mark the decorations substitute
    operadically; at the mark the first factor's decoration swallows the
    second's before the remaining preimages are filled in."""
    if g.model != h.model:
        raise OperadicError("components over different models")
    if g.target != h.source:
        raise OperadicError("components do not line up")
    model = g.model
    galpha, halpha = dict(g.alpha), dict(h.alpha)
    alpha = {a: halpha[galpha[a]] for a in g.source}
    avoid = set(g.source) | set(g.target) | set(h.target)
    decor = {}
    for c in h.target:
        y = h.decoration(c)
        fiber = h.fiber(c)
        tmp = dict(zip(fiber, _fresh_labels(len(fiber), avoid)))
        z = model.relabel(y, tmp)
        if c == MARK:
            z = model.compose(g.decoration(MARK), MARK, z)
            for b in fiber:
                if b != MARK:
                    z = model.compose(z, tmp[b], g.decoration(b))
            z = model.relabel(z, {tmp[MARK]: MARK})
        else:
            for b in fiber:
                z = model.compose(z, tmp[b], g.decoration(b))
        decor[c] = z
    return GammaComponent(model, g.source, h.target, alpha, decor)


@dataclass(frozen=True)
class GammaMorphism:
    """One decorated pointed map per family component; the marked decorations
    agree in the base after composing their other inputs away."""

    family: RelativeFamily
    arrows: tuple

    def __post_init__(self):
        object.__setattr__(self, "arrows", tuple(self.arrows))
        if len(self.arrows) != self.family.k:
            raise OperadicError("component count mismatch")
        for i, arrow in enumerate(self.arrows):
            if arrow.model != self.family.components[i]:
                raise OperadicError("component %d uses the wrong model" % i)
        marked = tuple(arrow.decoration(MARK) for arrow in self.arrows)
        if not _agree_in_base(self.family, marked, {MARK}):
            raise OperadicError("fiber condition violation at the marked decorations")

    @property
    def sources(self) -> tuple:
        return tuple(a.source for a in self.arrows)

    @property
    def targets(self) -> tuple:
        return tuple(a.target for a in self.arrows)


def gamma_identity(family: RelativeFamily, sets) -> GammaMorphism:
    arrows = []
    for i, labels in enumerate(sets):
        model = family.components[i]
        pointed = tuple(sorted(set(labels) | {MARK}, key=label_key))
        arrows.append(GammaComponent(
            model, pointed, pointed,
            {a: a for a in pointed},
            {a: model.unit(a) for a in pointed},
        ))
    return GammaMorphism(family, tuple(arrows))


def gamma_compose(g: GammaMorphism, h: GammaMorphism) -> GammaMorphism:
    """Diagrammatic composite (g first, then h)."""
    if g.family != h.family:
        raise OperadicError("morphisms over different families")
    return GammaMorphism(g.family, tuple(
        _component_compose(gi, hi) for gi, hi in zip(g.arrows, h.arrows)
    ))


def sample_gamma(rng: Stream, family: RelativeFamily, source_sets, target_sets) -> GammaMorphism:
    """Random decorated pointed maps; marked decorations are drawn jointly so
    the fiber condition holds."""
    if family.kind != "cube-pad":
        raise OperadicError("no morphism sampler for family kind %r" % (family.kind,))
    source_sets = tuple(tuple(s) for s in source_sets)
    target_sets = tuple(tuple(t) for t in target_sets)
    alphas = []
    for i, labels in enumerate(source_sets):
        options = target_sets[i] + (MARK,)
        amap = {MARK: MARK}
        for a in labels:
            amap[a] = rng.split("a%d:%s" % (i, a)).choice(options)
        alphas.append(amap)
    marked_sets = tuple(
        tuple(a for a in source_sets[i] if alphas[i][a] == MARK) for i in range(family.k)
    )
    fiber = sample_marked_fiber(rng.split("marked"), family.dims, family.base.dim, marked_sets)
    arrows = []
    for i in range(family.k):
        model = family.components[i]
        decor = {MARK: fiber.configs[i]}
        for b in target_sets[i]:
            fib = tuple(a for a in source_sets[i] if alphas[i][a] == b)
            decor[b] = model.sample(rng.split("d%d:%s" % (i, b)), fib)
        arrows.append(GammaComponent(
            model,
            source_sets[i] + (MARK,),
            target_sets[i] + (MARK,),
            alphas[i],
            decor,
        ))
    return GammaMorphism(family, tuple(arrows))


# ---------------------------------------------------------------------------
# the gluing functor into the ambient rectangles operad


def gamma_object_glue(family: RelativeFamily, sets) -> tuple:
    """Object map: one shared mark plus the qualified disjoint union."""
    out = [MARK]
    for i, labels in enumerate(sets):
        out.extend(qualify(i, a) for a in labels if a != MARK)
    return tuple(sorted(out, key=label_key))


def gamma_glue(g: GammaMorphism) -> GammaMorphism:
    """Collapse a family morphism to a single morphism over the base: the
    non-marked decorations embed by centered padding, the marked ones glue
    into slabs with their marked rectangles fused."""
    family = g.family
    if family.kind != "cube-pad":
        raise OperadicError("gluing needs a cube-pad family")
    n = family.base.dim
    source = gamma_object_glue(family, g.sources)
    target = gamma_object_glue(family, g.targets)
    alpha = {MARK: MARK}
    decor = {}
    marked = []
    for i, arrow in enumerate(g.arrows):
        amap = dict(arrow.alpha)
        for a in arrow.source:
            if a == MARK:
                continue
            b = amap[a]
            alpha[qualify(i, a)] = MARK if b == MARK else qualify(i, b)
        for b in arrow.target:
            if b == MARK:
                marked.append(arrow.decoration(MARK))
                continue
            emb = embed_component(arrow.decoration(b), family.dims[-1], n)
            decor[qualify(i, b)] = emb.relabel({a: qualify(i, a) for a in emb.labels})
    decor[MARK] = epsilon_glue(MarkedFiberConfig(family.dims, n, tuple(marked)))
    base = identity_family(family.base)
    return GammaMorphism(base, (GammaComponent(family.base, source, target, alpha, decor),))


# ---------------------------------------------------------------------------
# translation to standard embeddings (cube components, one unbounded piece)


def gamma_to_semb(g: GammaMorphism):
    """Geometric form of a one-component morphism: each source cube lands in
    its decoration's rectangle, preimages of the mark are pushed through the
    inverse of the marked rectangle, which also maps the unbounded piece."""
    from .exactgeom import StandardEmbedding

    if g.family.k != 1:
        raise OperadicError("embedding translation needs a single component")
    arrow = g.arrows[0]
    model = arrow.model
    amap = dict(arrow.alpha)
    star = arrow.decoration(MARK)
    for b in arrow.target:
        for _, r in arrow.decoration(b).rects:
            if not r.is_cube():
                raise OperadicError("embedding translation needs cube decorations")
    rs = star.rect(MARK)
    s0, v0 = rs.scales[0], rs.offsets
    maps = {MARK: (1 / s0, tuple(-c / s0 for c in v0))}
    for a in arrow.source:
        if a == MARK:
            continue
        b = amap[a]
        if b == MARK:
            r = star.rect(a)
            maps[a] = (r.scales[0] / s0, tuple((c - c0) / s0 for c, c0 in zip(r.offsets, v0)))
        else:
            r = arrow.decoration(b).rect(a)
            maps[a] = (r.scales[0], r.offsets)
    return StandardEmbedding(model.dim, arrow.source, arrow.target, amap, maps)


# ---------------------------------------------------------------------------
# single-slot versus indexed-slot module actions


def _settle_perm(n: int, m: int, i: int) -> tuple:
    """Permutation carrying the slot-1 composite of the (1 i)-swapped element
    onto the slot-i composite; identity when i is 1."""
    rho = []
    for j in range(1, n + m):
        if j < i:
            rho.append(m + i - 1 if j == 1 else m + j - 1)
        elif j < i + m:
            rho.append(j - i + 1)
        else:
            rho.append(j)
    return tuple(rho)


def convert_onefold(model: OperadModel, direction: str, x, y, i: int):
    """Realize the indexed-slot action from the slot-1 action or conversely.

    direction "from-single": return the composite of y into slot i of x,
    computed with only the slot-1 action and the symmetric actions.
    direction "from-indexed": return the composite of y into slot 1 of x,
    computed with only the slot-i action and the symmetric actions.
    """
    n = _require_numeric(model, x)
    m = _require_numeric(model, y)
    if not 1 <= i <= n:
        raise OperadicError("slot %d out of range" % i)
    swap = tuple(i if j == 1 else 1 if j == i else j for j in range(1, n + 1))
    rho = _settle_perm(n, m, i)
    if direction == "from-single":
        z = compose_at(model, act_numeric(model, x, swap), 1, y)
        return act_numeric(model, z, rho)
    if direction == "from-indexed":
        z = compose_at(model, act_numeric(model, x, swap), i, y)
        return act_numeric(model, z, inverse_perm(rho))
    raise OperadicError("unknown direction %r" % (direction,))
