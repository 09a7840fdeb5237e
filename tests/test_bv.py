"""Timed resolutions: the time-one slice against the free constructions, the
counit against the carriers, confluence, time monotonicity, the fiber flavor,
the plain-tree flavor and the time-scaling homotopy."""

import hashlib
import os
import re
import subprocess
import sys
from collections import Counter
from dataclasses import replace
from fractions import Fraction
from pathlib import Path

import pytest

from operadic.algebra import (
    MODEL_KINDS,
    PLUS,
    AugmentedPoint,
    FiberPoint,
    OperadModel,
    OVecPoint,
    PKFamily,
    ProductPoint,
    compose_at,
    cube_family,
    fiber_compose_at,
    fiber_drop,
    fiber_relabel,
    glued_eta,
    operad_model,
    ovec_unit,
    sample_fiber_point,
    sample_ovec,
    sample_pk,
)
from operadic.bv import (
    BVPoint,
    _point_of,
    _state_of,
    bv_act,
    bv_eta,
    bv_normalize,
    bv_tau,
    intermediate_act,
)
from operadic.errors import OperadicError
from operadic.exactgeom import Rect, RectConfig, cube_split
from operadic.freeconstr import (
    FreeBPoint,
    FreeIbPoint,
    GluedBOps,
    GluedIbOps,
    ProductIbOps,
    _act,
    _TimedState,
    act_component,
    b_generator,
    base_generator,
    base_like,
    evaluate_b,
    evaluate_ib,
    formal_generator,
    free_graft_b,
    free_graft_ib,
    ib_generator,
    is_base_value,
    stable_key,
)
from operadic.rng import Stream
from operadic.trees import (
    LEAF,
    ComponentTree,
    KFoldTree,
    corolla,
    emit_dot,
    is_vertex,
    pearl_of,
    subtree,
    vertices,
)

FAM = cube_family((1, 2), 3)
HALF = Fraction(1, 2)


def positional(model, rng, m):
    return model.sample(rng, tuple(str(t + 1) for t in range(m)))


def rand_glued(r, arities):
    xs = tuple(
        PLUS if n == PLUS else positional(FAM.components[i], r.split(i), n)
        for i, n in enumerate(arities)
    )
    return glued_eta(FAM, xs)


def rand_seed(r, carrier, arities):
    if carrier == "formal":
        return formal_generator("g", arities)
    if carrier == "product":
        return ProductPoint(
            FAM, tuple(positional(FAM.components[i], r.split(i), n) for i, n in enumerate(arities))
        )
    return rand_glued(r, arities)


def rand_theta(r, extras):
    sets = tuple(tuple(str(t + 2) for t in range(m)) for m in extras)
    return sample_ovec(r, FAM, sets)


def rand_ib_action(rr, pt):
    live = [i for i in range(FAM.k) if pt.arities[i] >= 1]
    if rr.maybe() and live:
        i = live[rr.randint(0, len(live) - 1)]
        j = rr.randint(1, pt.arities[i])
        return ("right", i, j, positional(FAM.components[i], rr.split("x"), rr.randint(0, 2)))
    return ("left", rand_theta(rr.split("th"), (rr.randint(0, 2), rr.randint(0, 2))))


def rand_b_action(rr, pt, carrier):
    """A free action valid at pt, or None when sampling fails."""
    live = [i for i in range(FAM.k) if pt.arities[i] != PLUS and pt.arities[i] >= 1]
    if rr.maybe() and live:
        i = live[rr.randint(0, len(live) - 1)]
        j = rr.randint(1, pt.arities[i])
        return ("right", i, j, positional(FAM.components[i], rr.split("x"), rr.randint(0, 2)))
    m = rr.randint(1, 2)
    presence = tuple(n != PLUS for n in pt.arities)
    for att in range(200):
        pk = sample_pk(rr.split(("pk", att)), tuple(str(t + 1) for t in range(m)), FAM.k)
        if tuple(p != PLUS and "1" in p for p in pk.parts) == presence:
            break
    else:
        return None
    operands = [pt]
    for l in range(1, m):
        pat = tuple(
            rr.split(("ar", l, i)).randint(0, 2) if p != PLUS and str(l + 1) in p else PLUS
            for i, p in enumerate(pk.parts)
        )
        if all(n == PLUS for n in pat):
            return None
        operands.append(b_generator(FAM, rand_seed(rr.split(("op", l)), carrier, pat)))
    return ("left", sample_fiber_point(rr.split("fib"), FAM, pk), tuple(operands))


def free_walk(r, flavor, carrier, steps):
    """A generator, the free points of a seeded walk and the actions taken."""
    arities = (r.randint(1, 2), r.randint(1, 2))
    seed = rand_seed(r.split("seed"), carrier, arities)
    pt = (ib_generator if flavor == "ib" else b_generator)(FAM, seed)
    points, actions = [pt], []
    for step in range(steps):
        rr = r.split(("step", step))
        if flavor == "ib":
            act = rand_ib_action(rr, pt)
            pt = free_graft_ib(pt, act)
        else:
            act = rand_b_action(rr, pt, carrier)
            if act is None:
                continue
            pt = free_graft_b(pt, act)
        points.append(pt)
        actions.append(act)
    return seed, points, actions


def timed_walk(points, actions):
    """Replay free actions through bv_act from the timed generator."""
    bp = bv_tau(points[0])
    out = [bp]
    for act in actions:
        if act[0] == "left" and points[0].tree.variant == "rsTree":
            act = ("left", act[1], (bp,) + tuple(bv_tau(op) for op in act[2][1:]))
        bp = bv_act(bp, act)
        out.append(bp)
    return out


def with_times(p: BVPoint, r) -> BVPoint:
    """The same decorated tree with seeded times in {0, 1/3, 1/2, 1}."""
    choices = (Fraction(0), Fraction(1, 3), HALF, Fraction(1))
    times = {key: choices[r.split(key).randint(0, 3)] for key, _ in p.times}
    return replace(p, times=times)


def ops_for(flavor, carrier):
    if flavor == "b":
        return GluedBOps(FAM)
    return ProductIbOps(FAM) if carrier == "product" else GluedIbOps(FAM)


def direct_value(flavor, seed, actions, ops):
    val = seed
    for act in actions:
        if act[0] == "right":
            val = ops.right(val, act[1], act[2], act[3])
        elif flavor == "ib":
            val = ops.left(act[1], val)
        else:
            val = ops.left(act[1], [val] + [evaluate_b(op, ops) for op in act[2][1:]])
    return val


# ---------------------------------------------------------------------------
# the time-one slice


class TestTimeOneSlice:
    @pytest.mark.parametrize("flavor,carrier", [
        ("ib", "glued"), ("ib", "product"), ("ib", "formal"),
        ("b", "glued"), ("b", "formal"),
    ])
    def test_timed_walks_stay_on_the_free_slice(self, flavor, carrier):
        rng = Stream(101, ("slice", flavor, carrier))
        for trial in range(6):
            _, points, actions = free_walk(rng.split(trial), flavor, carrier, 4)
            for pt, bp in zip(points, timed_walk(points, actions)):
                assert bp == bv_tau(pt)

    def test_tau_of_generators_is_normal(self):
        rng = Stream(102, ("taugen",))
        for trial in range(6):
            r = rng.split(trial)
            _, points, _ = free_walk(r, "ib" if trial % 2 else "b", "glued", 3)
            for pt in points:
                bp = bv_tau(pt)
                assert bv_normalize(bp) == bp


class TestCounit:
    @pytest.mark.parametrize("flavor,carrier", [
        ("ib", "glued"), ("ib", "product"), ("b", "glued"),
    ])
    def test_eta_matches_the_free_counit(self, flavor, carrier):
        rng = Stream(111, ("eta", flavor, carrier))
        ops = ops_for(flavor, carrier)
        evaluate = evaluate_ib if flavor == "ib" else evaluate_b
        for trial in range(8):
            seed, points, actions = free_walk(rng.split(trial), flavor, carrier, 3)
            for n, (pt, bp) in enumerate(zip(points, timed_walk(points, actions))):
                want = direct_value(flavor, seed, actions[:n], ops)
                assert evaluate(pt, ops) == want
                assert bv_eta(bp) == want

    @pytest.mark.parametrize("flavor", ["ib", "b"])
    def test_eta_ignores_the_times(self, flavor):
        rng = Stream(112, ("etatimes", flavor))
        ops = ops_for(flavor, "glued")
        evaluate = evaluate_ib if flavor == "ib" else evaluate_b
        for trial in range(8):
            r = rng.split(trial)
            _, points, _ = free_walk(r, flavor, "glued", 3)
            p = with_times(bv_tau(points[-1]), r.split("times"))
            assert bv_eta(p) == evaluate(points[-1], ops)


class TestNormalize:
    @pytest.mark.parametrize("flavor", ["ib", "b"])
    def test_idempotent_and_order_free(self, flavor):
        rng = Stream(121, ("norm", flavor))
        for trial in range(10):
            r = rng.split(trial)
            _, points, _ = free_walk(r, flavor, "glued", 3)
            p = with_times(bv_tau(points[-1]), r.split("times"))
            q = bv_normalize(p)
            assert bv_normalize(q) == q
            for order in range(4):
                assert bv_normalize(p, rng=Stream(order, ("order", trial))) == q

    def test_time_zero_collapses_to_the_pearl(self):
        rng = Stream(122, ("zero",))
        for trial in range(6):
            r = rng.split(trial)
            _, points, _ = free_walk(r, "ib", "glued", 3)
            p = bv_tau(points[-1])
            p = replace(p, times={key: 0 for key, _ in p.times})
            q = bv_normalize(p)
            assert not q.below and not q.upper and set(dict(q.pearls)) == {()}
            assert bv_eta(q) == evaluate_ib(points[-1], GluedIbOps(FAM))


def upper_chain():
    """An "ib" point whose only upper vertex sits at time one half."""
    r = Stream(131, ("chain",))
    gen = ib_generator(FAM, rand_glued(r.split("v"), (1, 1)))
    x = positional(FAM.components[0], r.split("x"), 1)
    p = bv_act(bv_tau(gen), ("right", 0, 1, x))
    return replace(p, times={(0, (0,)): HALF}), r


class TestMonotone:
    def test_upper_times_grow_away_from_the_pearl(self):
        p, r = upper_chain()
        q = bv_act(p, ("right", 0, 1, positional(FAM.components[0], r.split("y"), 1)))
        assert len(q.upper) == 2
        times = dict(q.times)
        assert sorted(times.values()) == [HALF, 1]
        with pytest.raises(OperadicError):
            replace(q, times={key: 1 - t for key, t in times.items()})

    def test_spine_times_grow_away_from_the_pearl(self):
        r = Stream(132, ("spine",))
        gen = ib_generator(FAM, rand_glued(r.split("v"), (1, 1)))
        p = bv_act(bv_tau(gen), ("left", rand_theta(r.split("a"), (1, 0))))
        p = replace(p, times={(): HALF})
        q = bv_act(p, ("left", rand_theta(r.split("b"), (0, 1))))
        assert set(dict(q.below)) == {(), (0,)}
        assert dict(q.times) == {(): 1, (0,): HALF}
        with pytest.raises(OperadicError):
            replace(q, times={(): HALF, (0,): 1})

    def test_times_out_of_range(self):
        p, _ = upper_chain()
        with pytest.raises(OperadicError):
            replace(p, times={(0, (0,)): 2})

    @pytest.mark.parametrize("value", ["1/0", "x", None, float("inf"), 0.1])
    def test_malformed_times(self, value):
        p, _ = upper_chain()
        with pytest.raises(OperadicError):
            replace(p, times={(0, (0,)): value})


def spine_chain(r):
    """An "ib" generator, a marked product point theta and the timed point
    with theta at the root at time one above a spine vertex at time one
    half."""
    gen = ib_generator(FAM, rand_glued(r.split("v"), (1, 1)))
    theta = rand_theta(r.split("b"), (1, 1))
    p = bv_act(bv_tau(gen), ("left", rand_theta(r.split("a"), (0, 0))))
    return gen, theta, bv_act(replace(p, times={(): HALF}), ("left", theta))


class TestTimedUnits:
    def test_unit_spine_vertex_below_the_root_is_dropped(self):
        gen, theta, p = spine_chain(Stream(133, ("unitspine",)))
        assert dict(p.times) == {(): 1, (0,): HALF}
        p = replace(p, below={**dict(p.below), (0,): ovec_unit(FAM)})
        assert bv_normalize(p) == bv_act(bv_tau(gen), ("left", theta))

    def test_unit_grafts_fix_timed_points(self):
        _, _, p = spine_chain(Stream(134, ("unitgraft",)))
        for order in range(3):
            rng = Stream(order, ("unitorder",))
            assert bv_act(p, ("left", ovec_unit(FAM)), rng=rng) == p
            for i in range(FAM.k):
                for label in p.leaf_labels(i):
                    unit = FAM.components[i].unit("1")
                    assert bv_act(p, ("right", i, int(label), unit), rng=rng) == p


# ---------------------------------------------------------------------------
# malformed module actions


def inter_target():
    """An "inter" corolla whose every edge is marked, so FIB1 fits leaf 1."""
    pk = PKFamily(("1", "2"), (("1", "2"), ("1", "2")))
    marks = {(i, p): True for i in range(FAM.k) for p in ((), (0,), (1,))}
    tree = KFoldTree("pTreeP", (ComponentTree(corolla(2), frozenset({()})),), marks)
    fiber = sample_fiber_point(Stream(138, ("intertarget",)), FAM, pk)
    return BVPoint("inter", FAM, tree, pearls={(): fiber})


def _action_targets():
    r = Stream(135, ("badact",))
    ib = ib_generator(FAM, rand_glued(r.split("ib"), (1, 1)))
    b = b_generator(FAM, rand_glued(r.split("b"), (1, 1)))
    return [(free_graft_ib, ib), (free_graft_b, b), (bv_act, bv_tau(ib)), (bv_act, bv_tau(b)),
            (intermediate_act, inter_target())]


X1 = positional(FAM.components[0], Stream(136, ("x1",)), 1)
FIB1 = sample_fiber_point(Stream(137, ("fib1",)), FAM, PKFamily(("1",), (("1",), ("1",))))


def test_inter_target_takes_a_fiber_at_leaf_one():
    # the malformed "inter" envelopes below differ from this one in one field
    x = intermediate_act(inter_target(), ("right", 1, FIB1))
    assert len(x.below) == 1 and sorted(x.leaf_labels(0)) == ["1", "2"]


@pytest.mark.parametrize("action", [
    (),
    ("up", 0, 1, X1),
    ("right", 0, 1),
    ("right", 0, 1, X1, X1),
    ("left",),
    ("right", 5, 1, X1),
    ("right", -1, 1, X1),
    ("right", "0", 1, X1),
    ("right", 0, "x", X1),
    ("right", 0, 1.5, X1),
    ("left", FIB1, 5),
    ("left", FIB1, None),
    ("up", 1, FIB1),
    ("right", 1),
    ("right", 1, FIB1, FIB1),
    ("right", "x", FIB1),
    ("right", 1.5, FIB1),
], ids=["empty", "unknown-kind", "short-right", "long-right", "short-left", "i=5", "i=-1",
        "i='0'", "j='x'", "j=1.5", "operands=5", "operands=None", "inter-unknown-kind",
        "inter-short-right", "inter-long-right", "inter-j='x'", "inter-j=1.5"])
@pytest.mark.parametrize("act, point", _action_targets(),
                         ids=["free-ib", "free-b", "timed-ib", "timed-b", "timed-inter"])
def test_malformed_actions_raise_operadic_errors(act, point, action):
    with pytest.raises(OperadicError):
        act(point, action)


@pytest.mark.parametrize("value", [None, "x"])
@pytest.mark.parametrize("call", [
    bv_eta,
    bv_normalize,
    lambda p: bv_act(p, ("right", 0, 1, X1)),
    lambda p: intermediate_act(p, ("right", 1, FIB1)),
    lambda p: free_graft_ib(p, ("right", 0, 1, X1)),
    lambda p: free_graft_b(p, ("right", 0, 1, X1)),
], ids=["bv_eta", "bv_normalize", "bv_act", "intermediate_act", "free_graft_ib",
        "free_graft_b"])
def test_non_points_raise_operadic_errors(call, value):
    with pytest.raises(OperadicError):
        call(value)


# ---------------------------------------------------------------------------
# the single-tree fiber flavor


def inter_corolla(r, n):
    ground = tuple(str(t + 1) for t in range(n))
    pk = sample_pk(r.split("pk"), ground, FAM.k)
    marks = {(i, ()): True for i in range(FAM.k)}
    for i, part in enumerate(pk.parts):
        for s in range(n):
            marks[(i, (s,))] = str(s + 1) in part
    tree = KFoldTree("pTreeP", (ComponentTree(corolla(n), frozenset({()})),), marks)
    fiber = sample_fiber_point(r.split("fib"), FAM, pk)
    return BVPoint("inter", FAM, tree, pearls={(): fiber})


def rand_inter_action(rr, x):
    c = x.tree.components[0]
    marks = dict(x.tree.marks)
    if rr.maybe():
        path, label = c.labels[rr.randint(0, c.n_leaves - 1)]
        present = [i for i in range(FAM.k) if marks[(i, path)]]
        m = rr.randint(1, 2)
        ground = tuple(str(t + 1) for t in range(m))
        pk = sample_pk(rr.split("pk"), ground, FAM.k, finite=present) if present else None
        if pk is None:
            return None
        return ("right", int(label), sample_fiber_point(rr.split("fib"), FAM, pk))
    return ("left", rand_theta(rr.split("th"), (rr.randint(0, 1), rr.randint(0, 1))))


def monotone_times(p: BVPoint, r) -> dict:
    """Seeded times in {0, 1/2, 1} that never decrease away from the pearl."""
    c = p.tree.components[0]
    pearl = pearl_of(c)
    choices = (Fraction(0), HALF, Fraction(1))
    times = {}

    def pick(v, low):
        times[v] = r.split(v).choice([t for t in choices if t >= low])

    low = Fraction(0)
    for depth in reversed(range(len(pearl))):
        pick(pearl[:depth], low)
        low = times[pearl[:depth]]
    for v in sorted(vertices(c.shape), key=len):
        if v != pearl and v not in times:
            pick(v, Fraction(0) if v[:-1] == pearl else times[v[:-1]])
    return times


def fold_fibers(p: BVPoint):
    """Iterated fiber_compose_at over the whole tree, inputs named by the
    leaf labels."""
    c = p.tree.components[0]
    decs = dict(p.pearls + p.below)

    def fold(v):
        x = decs[v]
        node = subtree(c.shape, v)
        for s in reversed(range(len(node))):
            if is_vertex(node[s]):
                x = fiber_compose_at(x, s + 1, fold(v + (s,)))
        return x

    return fiber_relabel(fold(()), {str(n + 1): label for n, label in enumerate(p.leaf_labels(0))})


class TestIntermediate:
    @pytest.mark.parametrize("side", ["right", "left"])
    def test_actions_normalize_idempotently(self, side):
        rng = Stream(141, ("inter", side))
        checked = 0
        for trial in range(12):
            r = rng.split(trial)
            x = inter_corolla(r, r.randint(1, 3))
            for step in range(3):
                act = rand_inter_action(r.split(("step", step)), x)
                if act is None or act[0] != side:
                    continue
                x = intermediate_act(x, act)
                assert bv_normalize(x) == x
                assert bv_normalize(x, rng=Stream(step, ("iorder", trial))) == x
                checked += 1
        assert checked >= 6

    def test_mixed_times_normalize_and_fold(self, monkeypatch):
        # times in {0, 1/2, 1} reach the joint contractions into the pearl
        # and of the pearl into its parent
        fired = Counter()
        apply = _TimedState.apply

        def counting(state, rule, arg):
            i, path = arg
            if rule == "contract" and i is None:
                fired["into-pearl"] += path[:-1] in state.pearls
                fired["pearl-up"] += path in state.pearls
            return apply(state, rule, arg)

        monkeypatch.setattr(_TimedState, "apply", counting)
        rng = Stream(143, ("intertimes",))
        for trial in range(40):
            r = rng.split(trial)
            x = inter_corolla(r, r.randint(1, 3))
            for step in range(4):
                act = rand_inter_action(r.split(("step", step)), x)
                if act is not None:
                    x = intermediate_act(x, act)
            p = replace(x, times=monotone_times(x, r.split("times")))
            q = bv_normalize(p)
            assert bv_normalize(q) == q
            for order in range(3):
                assert bv_normalize(p, rng=Stream(order, ("itorder", trial))) == q
            assert bv_eta(p) == bv_eta(q) == fold_fibers(p)
        assert fired["into-pearl"] and fired["pearl-up"]

    def test_actions_reject_mismatched_operands(self):
        r = Stream(142, ("interbad",))
        x = inter_corolla(r, 2)
        with pytest.raises(OperadicError):
            intermediate_act(x, ("left", ib_generator(FAM, formal_generator("g", (1, 1)))))
        with pytest.raises(OperadicError):
            bv_act(x, ("left", rand_theta(r, (1, 1))))


# ---------------------------------------------------------------------------
# repros mended with the shared engine


class TestBaseOperands:
    def test_all_base_operands_collapse_through_bv_act(self):
        rng = Stream(43, ("allbase",))
        done = 0
        for trial in range(20):
            r = rng.split(trial)
            m = r.randint(1, 3)
            ground = tuple(str(t + 1) for t in range(m))
            pk = sample_pk(r.split("pk"), ground, FAM.k)
            pats = [
                tuple(0 if p != PLUS and str(l + 1) in p else PLUS for p in pk.parts)
                for l in range(m)
            ]
            if any(all(n == PLUS for n in pat) for pat in pats):
                continue
            fib = sample_fiber_point(r.split("fib"), FAM, pk)
            operands = [b_generator(FAM, rand_glued(r.split(("op", l)), pat)) for l, pat in enumerate(pats)]
            out = free_graft_b(operands[0], ("left", fib, operands))
            timed_ops = tuple(bv_tau(op) for op in operands)
            assert bv_act(timed_ops[0], ("left", fib, timed_ops)) == bv_tau(out)
            done += 1
        assert done >= 8

    def test_formal_base_operands_keep_the_formal_encoding(self):
        pk = PKFamily(("1",), (("1",), PLUS))
        fib = sample_fiber_point(Stream(44, ("fbase",)), FAM, pk)
        op = b_generator(FAM, base_generator((0, PLUS)))
        out = bv_act(bv_tau(op), ("left", fib, (bv_tau(op),)))
        assert out == bv_tau(free_graft_b(op, ("left", fib, (op,))))
        assert dict(out.pearls)[()].base


class TestCarrierWithoutOps:
    def test_augmented_section_pearls(self):
        r = Stream(152, ("augb",))
        aug = AugmentedPoint(FAM, (positional(FAM.base, r.split("a"), 2), PLUS))
        pt = b_generator(FAM, aug)
        assert pt.arities == (2, PLUS)
        # the corolla on leaf 1 sorts after leaf 2, which permutes the pearl
        grafted = free_graft_b(pt, ("right", 0, 1, positional(FAM.components[0], r.split("x"), 2)))
        assert grafted.arities == (3, PLUS)
        assert dict(grafted.pearls)[()] == act_component(aug, 0, (2, 1))
        other = b_generator(FAM, AugmentedPoint(FAM, (positional(FAM.base, r.split("o"), 1), PLUS)))
        fib = sample_fiber_point(r.split("fib"), FAM, PKFamily(("1", "2"), (("1", "2"), PLUS)))
        out = free_graft_b(grafted, ("left", fib, (grafted, other)))
        timed = bv_act(bv_tau(grafted), ("left", fib, (bv_tau(grafted), bv_tau(other))))
        assert timed == bv_tau(out)
        half = replace(timed, times={key: HALF for key, _ in timed.times})
        assert bv_normalize(half) == half
        for order in range(3):
            assert bv_normalize(half, rng=Stream(order, ("augorder",))) == half
        # a base-point operand drops out of the fiber
        base = b_generator(FAM, base_like(aug, FAM, (0, PLUS)))
        assert dict(base.pearls)[()] == AugmentedPoint(FAM, (FAM.base.point0(), PLUS))
        assert is_base_value(dict(base.pearls)[()])
        assert free_graft_b(pt, ("left", fib, (pt, base))) == free_graft_b(
            pt, ("left", fiber_drop(fib, 2), (pt,))
        )

    def test_augmented_walks_normalize(self):
        rng = Stream(151, ("aug",))
        for trial in range(4):
            r = rng.split(trial)
            seed = AugmentedPoint(FAM, tuple(
                positional(FAM.base, r.split(("seed", i)), r.randint(1, 2)) for i in range(FAM.k)
            ))
            pt = ib_generator(FAM, seed)
            points, actions = [pt], []
            for step in range(3):
                act = rand_ib_action(r.split(("step", step)), pt)
                pt = free_graft_ib(pt, act)
                points.append(pt)
                actions.append(act)
            for pt, bp in zip(points, timed_walk(points, actions)):
                assert bp == bv_tau(pt)
                assert bv_normalize(bp) == bp


def w_point(model, shape, r, times):
    """A plain tree decorated by seeded positional elements."""
    upper = {
        (0, v): positional(model, r.split(v), len(subtree(shape, v))) for v in vertices(shape)
    }
    tree = KFoldTree("plain", (ComponentTree(shape),))
    return BVPoint("w", model, tree, upper=upper, times=times)


def fold_w(model, shape, upper, path=()):
    """Iterated compose_at in planar order; leaves are positional."""
    x = upper[(0, path)]
    for s in reversed(range(len(subtree(shape, path)))):
        if is_vertex(subtree(shape, path + (s,))):
            x = compose_at(model, x, s + 1, fold_w(model, shape, upper, path + (s,)))
    return x


W_MODELS = ("sym", "terminal", "rect:2", "cube:2", "rect-inf:2")
W_SHAPES = (
    ((LEAF, LEAF), LEAF),
    (LEAF, (LEAF, LEAF)),
    ((LEAF, LEAF), (LEAF, (LEAF, LEAF, LEAF))),
    (((LEAF, LEAF), LEAF), LEAF, (LEAF,)),
)


class TestPlainTrees:
    def test_models_cover_every_kind(self):
        assert sorted(operad_model(name).kind for name in W_MODELS) == sorted(MODEL_KINDS)

    @pytest.mark.parametrize("name", W_MODELS)
    def test_two_vertex_tree_normalizes(self, name):
        model = operad_model(name)
        r = Stream(161, ("w2", name))
        shape = ((LEAF, LEAF), LEAF)
        p = w_point(model, shape, r, {(0,): HALF})
        q = bv_normalize(p)
        assert len(q.upper) == 2
        assert bv_normalize(q) == q
        for order in range(3):
            assert bv_normalize(p, rng=Stream(order, ("worder", name))) == q
        want = compose_at(model, dict(p.upper)[(0, ())], 1, dict(p.upper)[(0, (0,))])
        zero = bv_normalize(replace(p, times={(0,): 0}))
        assert zero.upper == (((0, ()), want),)
        assert bv_eta(p) == bv_eta(q) == want

    @pytest.mark.parametrize("name", W_MODELS)
    def test_eta_is_iterated_composition(self, name):
        model = operad_model(name)
        rng = Stream(162, ("weta", name))
        for n, shape in enumerate(W_SHAPES):
            r = rng.split(n)
            inner = [v for v in vertices(shape) if v]
            # times grow away from the root, and depth-one vertices may sit at zero
            times = {v: Fraction(len(v) - 1 + r.split(("t", v)).randint(0, 1), 4) for v in inner}
            p = w_point(model, shape, r, times)
            want = fold_w(model, shape, dict(p.upper))
            q = bv_normalize(p)
            assert bv_normalize(q) == q
            assert bv_normalize(p, rng=Stream(n, ("wo", name))) == q
            assert bv_eta(p) == bv_eta(q) == want

    @pytest.mark.parametrize("name", W_MODELS)
    def test_eta_of_a_bare_leaf_is_the_unit(self, name):
        # the composite of no vertices is the unit on the leaf's label
        model = operad_model(name)
        for label in ("1", "7"):
            p = BVPoint("w", model, KFoldTree("plain", (ComponentTree(LEAF, labels=(((), label),)),)))
            assert bv_normalize(p) == p
            assert bv_eta(p) == model.unit(label)

    @pytest.mark.parametrize("name", W_MODELS)
    def test_times_are_unconstrained(self, name):
        # edge lengths of the W-construction are free, so a child may sit
        # below its parent's time
        model = operad_model(name)
        rng = Stream(163, ("wfree", name))
        decreasing = 0
        for n, shape in enumerate(W_SHAPES):
            for trial in range(6):
                r = rng.split((n, trial))
                times = {v: Fraction(r.split(("t", v)).randint(0, 4), 4) for v in vertices(shape) if v}
                decreasing += any(len(v) > 1 and times[v] < times[v[:-1]] for v in times)
                p = w_point(model, shape, r, times)
                q = bv_normalize(p)
                assert bv_normalize(q) == q
                for order in range(3):
                    assert bv_normalize(p, rng=Stream(order, ("wfo", name, n, trial))) == q
                assert bv_eta(p) == bv_eta(q) == fold_w(model, shape, dict(p.upper))
        assert decreasing


class TestLeafLabels:
    @staticmethod
    def corolla_point(labels):
        model = operad_model("sym")
        tree = KFoldTree("plain", (ComponentTree(corolla(2), labels=tuple(zip([(0,), (1,)], labels))),))
        return BVPoint("w", model, tree, upper={(0, ()): positional(model, Stream(172, ("lbl",)), 2)})

    def test_canonical_decimals_are_accepted(self):
        assert self.corolla_point(("0", "10")).leaf_labels(0) == ("0", "10")

    @pytest.mark.parametrize("label", ["07", "+7", "1_0", " 5", "٣"])
    def test_other_digit_strings_are_rejected(self, label):
        # int() reads each of these, so two leaves could name one number
        with pytest.raises(OperadicError):
            self.corolla_point((label, "9"))


# ---------------------------------------------------------------------------
# one malformed field per flavor


def flavor_starts():
    """A valid point of each flavor with a time and an operad decoration or
    a fiber ground to spoil."""
    r = Stream(175, ("reject",))
    x2 = positional(FAM.components[0], r.split("x2"), 2)
    ib = free_graft_ib(ib_generator(FAM, rand_glued(r.split("ib"), (2, 1))), ("right", 0, 1, x2))
    b = free_graft_b(b_generator(FAM, rand_glued(r.split("b"), (2, 1))), ("right", 0, 1, x2))
    inter = intermediate_act(inter_corolla(r.split("inter"), 2),
                             ("left", rand_theta(r.split("th"), (1, 1))))
    w = w_point(operad_model("rect:2"), ((LEAF, LEAF), LEAF), r.split("w"), {(0,): HALF})
    return {"ib": bv_tau(ib), "b": bv_tau(b), "inter": inter, "w": w}


def _first_field(p):
    return next(name for name in ("upper", "below", "pearls") if getattr(p, name))


def _drop_key(p):
    name = _first_field(p)
    return replace(p, **{name: getattr(p, name)[1:]})


def _add_key(p):
    name = _first_field(p)
    key, value = getattr(p, name)[0]
    new = (key[0], key[1] + (9,)) if name == "upper" else key + (9,)
    return replace(p, **{name: getattr(p, name) + ((new, value),)})


def _retype(p):
    if p.flavor == "w":
        return replace(p, family=FAM)
    wrong = ovec_unit(FAM) if p.flavor == "inter" else positional(FAM.components[0], Stream(0), 2)
    key, _ = p.pearls[0]
    return replace(p, pearls=((key, wrong),) + p.pearls[1:])


def _unposition(p):
    if p.upper:
        (i, path), x = p.upper[0]
        model = p.family if p.flavor == "w" else p.family.components[i]
        return replace(p, upper=(((i, path), model.relabel(x, {"1": "9"})),) + p.upper[1:])
    key, fiber = p.pearls[0]
    return replace(p, pearls=((key, fiber_relabel(fiber, {"1": "9"})),) + p.pearls[1:])


def _add_time(p):
    untimed = p.pearls[0][0] if p.pearls else ()
    return replace(p, times=p.times + ((untimed, Fraction(1)),))


def _mix_keys(p, name):
    """A key of another type beside the field's keys, which sorting would
    compare with them."""
    return replace(p, **{name: getattr(p, name) + (("x", Fraction(1)),)})


SPOILERS = {
    "drop-decoration": _drop_key,
    "add-decoration": _add_key,
    "retype-carrier": _retype,
    "non-positional": _unposition,
    "drop-time": lambda p: replace(p, times=p.times[1:]),
    "add-time": _add_time,
    "tree-not-a-family": lambda p: replace(p, tree=p.tree.components[0]),
    "mixed-decoration-keys": lambda p: _mix_keys(p, _first_field(p)),
    "mixed-time-keys": lambda p: _mix_keys(p, "times"),
    "tuple-flavor": lambda p: replace(p, flavor=()),
}


def _corolla_w(name, x):
    """The "w" point of a binary corolla over the named model, decorated by x."""
    tree = KFoldTree("plain", (ComponentTree(corolla(2)),))
    return BVPoint("w", operad_model(name), tree, upper={(0, ()): x}, times={})


# operad decorations outside their model's carrier
WRONG_CARRIERS = {
    "rect-as-string": ("rect:2", "xy"),
    "sym-as-int": ("sym", 5),
    "terminal-as-int": ("terminal", 3),
    "sym-with-int-label": ("sym", ("1", 2)),
}
SPOILERS.update({name: lambda p, case=case: _corolla_w(*case) for name, case in WRONG_CARRIERS.items()})


@pytest.mark.parametrize("flavor,spoil", [
    (flavor, spoil) for spoil in SPOILERS for flavor in ("ib", "b", "inter", "w")
    if flavor == "w" or spoil not in WRONG_CARRIERS
])
def test_each_malformed_field_is_rejected(flavor, spoil):
    p = flavor_starts()[flavor]
    assert p.times and replace(p) == p
    with pytest.raises(OperadicError):
        SPOILERS[spoil](p)


def test_corolla_w_takes_each_models_carrier():
    for name, x in (("rect:2", cube_split(2, 2)), ("sym", ("2", "1")), ("terminal", frozenset("12"))):
        assert _corolla_w(name, x).upper == (((0, ()), x),)


class TestDecorationsAreElements:
    def test_w_point_rejects_a_config_of_another_dimension(self):
        with pytest.raises(OperadicError, match="no element"):
            _corolla_w("rect:2", cube_split(2, 3))

    def test_w_point_rejects_overlapping_rectangles_under_disjoint(self):
        whole = Rect.identity(2)
        x = RectConfig(2, {"1": whole, "2": whole}, "disjoint")
        assert _corolla_w("rect-inf:2", x).upper == (((0, ()), x),)
        with pytest.raises(OperadicError, match="no element"):
            _corolla_w("rect:2", x)

    def test_right_graft_rejects_a_non_element(self):
        whole = Rect.identity(1)
        x = RectConfig(1, {"1": whole, "2": whole}, "disjoint")
        pt = ib_generator(FAM, rand_glued(Stream(176, ("nonelement",)), (1, 1)))
        for graft in (free_graft_ib, lambda p, a: bv_act(bv_tau(p), a)):
            with pytest.raises(OperadicError, match="no element"):
                graft(pt, ("right", 0, 1, x))


def test_inter_points_take_no_operad_decorations():
    # every vertex of an "inter" point carries a fiber point; a stray operad
    # decoration has no time and would reach the engine
    p = flavor_starts()["inter"]
    with pytest.raises(OperadicError):
        replace(p, upper={(0, (0,)): positional(FAM.components[0], Stream(176), 2)})


UNIT_SHAPES = (
    (((LEAF, LEAF),), LEAF),
    ((((LEAF, LEAF), LEAF),),),
)


class TestPlainUnits:
    @pytest.mark.parametrize("name", ("terminal", "sym", "rect:2"))
    def test_unit_between_inner_edges(self, name):
        # dropping the unit at (0,) merges two inner edges into one that
        # keeps the longer time
        model = operad_model(name)
        rng = Stream(165, ("wunit", name))
        for n, shape in enumerate(UNIT_SHAPES):
            for trial in range(20):
                r = rng.split((n, trial))
                times = {v: Fraction(r.split(("t", v)).randint(0, 2), 2) for v in vertices(shape) if v}
                p = w_point(model, shape, r, times)
                upper = {
                    key: model.unit("1") if len(subtree(shape, key[1])) == 1 else x
                    for key, x in p.upper
                }
                p = replace(p, upper=upper)
                q = bv_normalize(p)
                assert bv_normalize(q) == q
                for order in range(3):
                    assert bv_normalize(p, rng=Stream(order, ("wu", name, n, trial))) == q
                assert bv_eta(p) == bv_eta(q) == fold_w(model, shape, upper)
                if n == 0:
                    longer = max(times[(0,)], times[(0, 0)])
                    assert list(dict(q.times).values()) == ([longer] if longer else [])


class TestDeeperUpperTrees:
    def test_child_at_time_one_under_a_half_time_vertex(self):
        r = Stream(171, ("deep",))
        seed = rand_glued(r.split("v"), (1, 1))
        gen = ib_generator(FAM, seed)
        x = positional(FAM.components[0], r.split("x"), 2)
        p = bv_act(bv_tau(gen), ("right", 0, 1, x))
        p = replace(p, times={(0, (0,)): HALF})
        for j in (1, 2):
            y = positional(FAM.components[0], r.split(("y", j)), 2)
            q = bv_act(p, ("right", 0, j, y))
            assert len(q.upper) == 2
            assert bv_normalize(q) == q
            free = free_graft_ib(free_graft_ib(gen, ("right", 0, 1, x)), ("right", 0, j, y))
            assert bv_eta(q) == evaluate_ib(free, GluedIbOps(FAM))

    def test_timed_walks_from_half_times(self):
        rng = Stream(172, ("halfwalk",))
        ops = GluedIbOps(FAM)
        for trial in range(8):
            r = rng.split(trial)
            seed, points, actions = free_walk(r, "ib", "glued", 2)
            bp = with_times(bv_tau(points[-1]), r.split("times"))
            pt = points[-1]
            for step in range(3):
                act = rand_ib_action(r.split(("more", step)), pt)
                pt = free_graft_ib(pt, act)
                bp = bv_act(bp, act, rng=Stream(step, ("ho", trial)))
                assert bv_normalize(bp) == bp
                assert bv_eta(bp) == evaluate_ib(pt, ops)


class TestFormalEta:
    @pytest.mark.parametrize("flavor", ["ib", "b"])
    def test_eta_of_formal_walks_is_the_free_point(self, flavor):
        rng = Stream(181, ("formaleta", flavor))
        checked = 0
        for trial in range(12):
            _, points, actions = free_walk(rng.split(trial), flavor, "formal", 4)
            for n, (pt, bp) in enumerate(zip(points, timed_walk(points, actions))):
                want = pt
                if n == 0:
                    want = pt.pearl if flavor == "ib" else pt.pearls[0][1]
                assert bv_eta(bp) == want
                checked += 1
        assert checked >= 30

    def test_reported_repro(self):
        x = positional(FAM.components[0], Stream(182, ("x",)), 1)
        pt = ib_generator(FAM, formal_generator("g", (2, 2)))
        free = free_graft_ib(pt, ("right", 0, 1, x))
        assert bv_eta(bv_act(bv_tau(pt), ("right", 0, 1, x))) == free


# ---------------------------------------------------------------------------
# the time-scaling homotopy: shrinking every edge by a factor s changes
# neither the counit nor the normal form


SCALES = (Fraction(1, 3), HALF, Fraction(3, 4))


def scaled(p: BVPoint, s) -> BVPoint:
    return replace(p, times={key: t * s for key, t in p.times})


def check_scaling(p: BVPoint) -> int:
    q = bv_normalize(p)
    for s in SCALES:
        assert bv_eta(scaled(p, s)) == bv_eta(p)
        assert bv_normalize(scaled(q, s)) == bv_normalize(scaled(p, s))
    return len(SCALES)


class TestTimeScaling:
    # the plain product carries no section action, so "b" has no product walks
    @pytest.mark.parametrize("flavor,carrier", [("ib", "glued"), ("ib", "product"), ("b", "glued")])
    def test_free_walks(self, flavor, carrier):
        rng = Stream(191, ("scale", flavor, carrier))
        checked = 0
        for trial in range(6):
            r = rng.split(trial)
            _, points, actions = free_walk(r, flavor, carrier, 4)
            for n, bp in enumerate(timed_walk(points, actions)):
                checked += check_scaling(with_times(bp, r.split(("times", n))))
        assert checked >= 60

    def test_intermediate_points(self):
        rng = Stream(192, ("scaleinter",))
        for trial in range(15):
            r = rng.split(trial)
            x = inter_corolla(r, r.randint(1, 3))
            for step in range(4):
                act = rand_inter_action(r.split(("step", step)), x)
                if act is not None:
                    x = intermediate_act(x, act)
            check_scaling(replace(x, times=monotone_times(x, r.split("times"))))

    @pytest.mark.parametrize("name", W_MODELS)
    def test_plain_trees(self, name):
        model = operad_model(name)
        rng = Stream(193, ("scalew", name))
        for n, shape in enumerate(W_SHAPES + UNIT_SHAPES):
            for trial in range(3):
                r = rng.split((n, trial))
                times = {v: Fraction(r.split(("t", v)).randint(0, 4), 4) for v in vertices(shape) if v}
                check_scaling(w_point(model, shape, r, times))

    @pytest.mark.parametrize("flavor", ["ib", "b"])
    def test_formal_carriers(self, flavor):
        rng = Stream(194, ("scaleformal", flavor))
        for trial in range(10):
            r = rng.split(trial)
            _, points, actions = free_walk(r, flavor, "formal", 4)
            for n, bp in enumerate(timed_walk(points, actions)):
                check_scaling(with_times(bp, r.split(("times", n))))


# ---------------------------------------------------------------------------
# every rewrite order: a depth-first walk applies each available rewrite at
# each reachable state, so confluence is checked, not sampled


RULES = {"contract", "drop-unit", "absorb-star", "drop-base-pearl", "pearlize",
         "contract-zero", "drop-unit-w"}


def clone(st):
    out = _TimedState(st.flavor, st.family, st.shapes, st.labels, st.marks, st.pearls,
                      st.dec, st.times)
    out.base_template, out.ops = st.base_template, st.ops
    return out


def state_key(st):
    # decorations go through stable_key: the repr of a frozenset follows its
    # hash order, and equal states must meet under every PYTHONHASHSEED; a
    # joint key's None does not order against a component, so keys sort by
    # their repr
    def items(keyed, text):
        return sorted((repr(key), text(x)) for key, x in keyed.items())

    return repr((st.shapes, sorted(st.pearls), [sorted(l.items()) for l in st.labels],
                 sorted(st.marks.items()), items(st.dec, stable_key), items(st.times, str)))


def explore(start, trace):
    """The distinct normal forms that the rewrite orders from start reach,
    and the number of states met; trace records each rewrite applied as
    (rule, arg)."""
    seen, forms, todo = set(), [], [start]
    while todo:
        st = todo.pop()
        key = state_key(st)
        if key in seen:
            continue
        seen.add(key)
        moves = st.available()
        for rule, arg in moves:
            nxt = clone(st)
            nxt.apply(rule, arg)
            trace.append((rule, arg))
            todo.append(nxt)
        if not moves:
            st.sort()
            form = _point_of(st)
            if form not in forms:
                forms.append(form)
    return forms, len(seen)


def walk_starts():
    """Points of "ib" glued and product and "b" glued walks with seeded times."""
    rng = Stream(201, ("orders",))
    for flavor, carrier in (("ib", "glued"), ("ib", "product"), ("b", "glued")):
        for trial in range(10):
            r = rng.split((flavor, carrier, trial))
            _, points, _ = free_walk(r, flavor, carrier, 3)
            for n, pt in enumerate(points):
                yield with_times(bv_tau(pt), r.split(("times", n)))


def formal_starts():
    """Points of "ib" and "b" formal-generator walks with seeded times: a
    time-zero absorb makes a pearl carry a free point."""
    rng = Stream(203, ("orderformal",))
    for flavor in ("ib", "b"):
        for trial in range(12):
            r = rng.split((flavor, trial))
            _, points, _ = free_walk(r, flavor, "formal", 4)
            for n, pt in enumerate(points):
                yield with_times(bv_tau(pt), r.split(("times", n)))


def inter_starts():
    """The mixed-time "inter" points of test_mixed_times_normalize_and_fold."""
    rng = Stream(143, ("intertimes",))
    for trial in range(40):
        r = rng.split(trial)
        x = inter_corolla(r, r.randint(1, 3))
        for step in range(4):
            act = rand_inter_action(r.split(("step", step)), x)
            if act is not None:
                x = intermediate_act(x, act)
        yield replace(x, times=monotone_times(x, r.split("times")))


def w_starts():
    """Plain trees with units on their arity-one vertices."""
    for name in W_MODELS:
        model = operad_model(name)
        rng = Stream(202, ("orderw", name))
        for n, shape in enumerate(W_SHAPES + UNIT_SHAPES):
            for trial in range(2):
                r = rng.split((n, trial))
                times = {v: Fraction(r.split(("t", v)).randint(0, 2), 2)
                         for v in vertices(shape) if v}
                p = w_point(model, shape, r, times)
                yield replace(p, upper={
                    key: model.unit("1") if len(subtree(shape, key[1])) == 1 else x
                    for key, x in p.upper
                })


def base_operand_states():
    """The states that bv_act builds from all-base operands, before any
    rewrite, as in TestBaseOperands."""
    rng = Stream(43, ("allbase",))
    for trial in range(20):
        r = rng.split(trial)
        m = r.randint(1, 3)
        ground = tuple(str(t + 1) for t in range(m))
        pk = sample_pk(r.split("pk"), ground, FAM.k)
        pats = [
            tuple(0 if p != PLUS and str(l + 1) in p else PLUS for p in pk.parts)
            for l in range(m)
        ]
        if any(all(n == PLUS for n in pat) for pat in pats):
            continue
        fib = sample_fiber_point(r.split("fib"), FAM, pk)
        ops = tuple(bv_tau(b_generator(FAM, rand_glued(r.split(("op", l)), pat)))
                    for l, pat in enumerate(pats))
        yield _act(_state_of(ops[0]), ("left", fib, ops), _state_of)
    fib = sample_fiber_point(Stream(44, ("fbase",)), FAM, PKFamily(("1",), (("1",), PLUS)))
    op = bv_tau(b_generator(FAM, base_generator((0, PLUS))))
    yield _act(_state_of(op), ("left", fib, (op,)), _state_of)


def unit_graft_states():
    """The states that the unit grafts of TestTimedUnits build, before any
    rewrite."""
    p = spine_chain(Stream(134, ("unitgraft",)))[2]
    yield _act(_state_of(p), ("left", ovec_unit(FAM)), _state_of)
    for i in range(FAM.k):
        for label in p.leaf_labels(i):
            unit = FAM.components[i].unit("1")
            yield _act(_state_of(p), ("right", i, int(label), unit), _state_of)


def every_order_starts():
    """The starts of TestEveryRewriteOrder, as states."""
    unit_spine = spine_chain(Stream(133, ("unitspine",)))[2]
    unit_spine = replace(unit_spine, below={**dict(unit_spine.below), (0,): ovec_unit(FAM)})
    points = [*walk_starts(), *inter_starts(), *w_starts(), unit_spine]
    return [*map(_state_of, points), *base_operand_states(), *unit_graft_states()]


class TestEveryRewriteOrder:
    def test_each_start_reaches_one_normal_form(self):
        trace = []
        for st in every_order_starts():
            forms, _ = explore(st, trace)
            assert forms == [_point_of(clone(st).run())]
        assert {rule for rule, _ in trace} == RULES
        # the rewrites applied, in order, pinned so that a refactor of the
        # engine that changes any of them shows here
        digest = hashlib.sha256(repr(trace).encode()).hexdigest()[:16]
        assert (len(trace), digest) == (374, "ad106f26ad0a34f6")

    def test_each_model_builds_its_units_once(self, monkeypatch):
        # the drop-unit tests compare with the units a model keeps, so no run
        # builds one twice, nested runs on formal carriers included
        starts = [*every_order_starts(), *map(_state_of, formal_starts())]
        calls, unit = [], OperadModel.unit

        def counted(model, label):
            calls.append((model, label))  # holds the model, so no other takes its id
            return unit(model, label)

        monkeypatch.setattr(OperadModel, "unit", counted)
        for st in starts:
            st.run()
        assert len({(id(model), label) for model, label in calls}) == len(calls)
        assert {st.flavor for st in starts} == {"ib", "b", "inter", "w"}

    def test_formal_carriers_reach_one_normal_form(self):
        for st in map(_state_of, formal_starts()):
            forms, _ = explore(st, [])
            assert forms == [_point_of(clone(st).run())]


def dot_labels(dot) -> dict:
    """The label of each vertex node of an emit_dot rendering, by node id."""
    return dict(re.findall(r'"(c\d+_\w+)" \[shape=(?:double)?circle,label="([^"]*)"\]', dot))


class TestDotOfEngineTimes:
    def check_labels(self, p):
        """Every vertex the engine times shows its time, in each component
        for a joint one; no other vertex shows one."""
        st = _state_of(p)
        labels = dot_labels(emit_dot(KFoldTree(p.tree.variant, st.components(), p.tree.marks),
                                     times=st.times))
        want = dict.fromkeys(labels, "")
        for (i, path), t in st.times.items():
            for j in range(st.k) if i is None else (i,):
                want["c%d_%s" % (j, "_".join(map(str, path)) or "r")] = "t=%s" % t
        assert labels == want
        return st.times

    def test_ib_point(self):
        p = next(p for p in walk_starts()
                 if p.flavor == "ib" and p.below and p.upper and len(p.tree.components) > 1)
        times = self.check_labels(p)
        assert {i is None for i, _ in times} == {True, False}

    def test_w_point(self):
        shape = W_SHAPES[2]
        r = Stream(205, ("dotw",))
        times = {v: Fraction(r.split(("t", v)).randint(0, 2), 2) for v in vertices(shape) if v}
        got = self.check_labels(w_point(operad_model("sym"), shape, r, times))
        assert got == {(0, v): t for v, t in times.items()}


CHECKED = (FreeIbPoint, FreeBPoint, BVPoint, OVecPoint, FiberPoint)


def assert_rechecked(value, seen: Counter):
    """The engine builds its points without their constructors' checks;
    rebuilt through those checks, the value and every point decorating its
    pearls or joint vertices come out equal.  seen counts them by class."""
    if not isinstance(value, CHECKED):
        return
    assert replace(value) == value
    seen[type(value).__name__] += 1
    if isinstance(value, FreeIbPoint):
        decorations = [value.pearl, value.below]
    elif isinstance(value, FreeBPoint):
        decorations = [value.below, *(x for _, x in value.pearls)]
    elif isinstance(value, BVPoint):
        decorations = [x for _, x in value.pearls + value.below]
    else:
        decorations = []
    for x in decorations:
        assert_rechecked(x, seen)


class TestEngineResultsPassTheChecks:
    @pytest.mark.parametrize("flavor,carrier", [
        ("ib", "glued"), ("ib", "product"), ("ib", "formal"),
        ("b", "glued"), ("b", "formal"),
    ])
    def test_walks(self, flavor, carrier):
        """free_graft_*, bv_tau, bv_act and bv_normalize at mixed times;
        their spine and fiber decorations come from ovec_compose_at,
        ovec_splice and fiber_compose_at."""
        rng = Stream(204, ("rechecked", flavor, carrier))
        seen = Counter()
        for trial in range(6):
            r = rng.split(trial)
            _, points, actions = free_walk(r, flavor, carrier, 5)
            for n, (pt, bp) in enumerate(zip(points, timed_walk(points, actions))):
                assert_rechecked(pt, seen)
                assert_rechecked(bp, seen)
                assert_rechecked(bv_tau(pt), seen)
                assert_rechecked(bv_normalize(with_times(bp, r.split(("times", n)))), seen)
        point = "FreeIbPoint" if flavor == "ib" else "FreeBPoint"
        joint = "OVecPoint" if flavor == "ib" else "FiberPoint"
        assert seen[point] >= 30 and seen["BVPoint"] >= 90 and seen[joint] >= 50

    def test_normal_forms_of_every_flavor(self):
        seen = Counter()
        for p in (*inter_starts(), *w_starts(), *formal_starts()):
            assert_rechecked(bv_normalize(p), seen)
        assert seen["BVPoint"] >= 200 and seen["FiberPoint"] >= 100


# the walk helpers draw from the module's FAM; terminal elements are
# frozensets of labels, so the repr of a free point over them follows the
# hash seed, and only stable_key orders and prints it the same under all
HASH_SEED_SCRIPT = """
import test_bv
from operadic.algebra import collapse_family, operad_model
from operadic.bv import _state_of, bv_normalize
test_bv.FAM = collapse_family((operad_model("terminal"),) * 2)
for p in test_bv.formal_starts():
    print(test_bv.state_key(_state_of(bv_normalize(p))))
"""


def test_normal_forms_ignore_the_hash_seed():
    here = Path(__file__).resolve().parent
    path = os.pathsep.join([str(here.parent / "src"), str(here)])
    outs = [
        subprocess.run([sys.executable, "-c", HASH_SEED_SCRIPT], capture_output=True, text=True,
                       check=True, env={**os.environ, "PYTHONHASHSEED": seed, "PYTHONPATH": path}).stdout
        for seed in ("0", "12345")
    ]
    assert outs[0] and outs[0] == outs[1]
