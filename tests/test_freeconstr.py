"""Free construction: unit and arity bookkeeping, counit oracles against the
concrete carriers, rewrite confluence, and normal-form rigidity."""

import pytest

from operadic import freeconstr
from operadic.algebra import (
    PLUS,
    FiberPoint,
    OVecPoint,
    PKFamily,
    ProductPoint,
    act_numeric,
    collapse_family,
    cube_family,
    glued_eta,
    operad_model,
    ovec_unit,
    sample_fiber_point,
    sample_ovec,
    sample_pk,
)
from operadic.errors import OperadicError
from operadic.exactgeom import MARK
from operadic.freeconstr import (
    FormalGenerator,
    FreeBPoint,
    FreeIbPoint,
    GluedBOps,
    GluedIbOps,
    ProductIbOps,
    _TimedState,
    act_component,
    b_generator,
    b_point,
    base_generator,
    base_like,
    base_point,
    evaluate_b,
    evaluate_ib,
    formal_generator,
    free_graft_b,
    free_graft_ib,
    has_univalent_vertex,
    ib_generator,
    ib_point,
    is_base_value,
    stable_key,
)
from operadic.rng import Stream
from operadic.trees import LEAF, ComponentTree, KFoldTree, corolla

FAM = cube_family((1, 2), 3)
FAM1 = cube_family((1,), 2)


def positional(model, rng, m):
    return model.sample(rng, tuple(str(t + 1) for t in range(m)))


def rand_prod(r, arities):
    return ProductPoint(
        FAM, tuple(positional(FAM.components[i], r.split(i), n) for i, n in enumerate(arities))
    )


def rand_glued(r, arities, family=FAM):
    xs = tuple(
        PLUS if n == PLUS else positional(family.components[i], r.split(i), n)
        for i, n in enumerate(arities)
    )
    return glued_eta(family, xs)


def rand_theta(r, extras):
    sets = tuple(tuple(str(t + 2) for t in range(m)) for m in extras)
    return sample_ovec(r, FAM, sets)


def presence(pt):
    return tuple(n != PLUS for n in pt.arities)


def matching_pk(r, m, want):
    """A ground of size m whose first element's presence pattern equals want."""
    ground = tuple(str(t + 1) for t in range(m))
    for att in range(200):
        cand = sample_pk(r.split(att), ground, FAM.k)
        if tuple(p != PLUS and "1" in p for p in cand.parts) == want:
            return cand
    return None


def rand_ib_walk(r, steps):
    """A seed decoration and an action list for the one-direction side."""
    seed = rand_glued(r.split("seed"), (r.randint(1, 2), r.randint(1, 2)))
    pt = ib_generator(FAM, seed)
    actions = []
    for step in range(steps):
        rr = r.split(("step", step))
        live = [i for i in range(FAM.k) if pt.arities[i] >= 1]
        if rr.maybe() and live:
            i = live[rr.randint(0, len(live) - 1)]
            j = rr.randint(1, pt.arities[i])
            x = positional(FAM.components[i], rr.split("x"), rr.randint(0, 2))
            actions.append(("right", i, j, x))
        else:
            actions.append(("left", rand_theta(rr.split("th"), (rr.randint(0, 2), rr.randint(0, 2)))))
        pt = free_graft_ib(pt, actions[-1])
    return seed, actions, pt


def rand_b_step(rr, pt):
    """One action valid at pt, or None when sampling fails."""
    live = [i for i in range(FAM.k) if pt.arities[i] != PLUS and pt.arities[i] >= 1]
    if rr.maybe() and live:
        i = live[rr.randint(0, len(live) - 1)]
        j = rr.randint(1, pt.arities[i])
        x = positional(FAM.components[i], rr.split("x"), rr.randint(0, 2))
        return ("right", i, j, x)
    m = rr.randint(1, 2)
    pk = matching_pk(rr.split("pk"), m, presence(pt))
    if pk is None:
        return None
    fib = sample_fiber_point(rr.split("fib"), FAM, pk)
    operands = [pt]
    for l in range(1, m):
        pat = tuple(
            (rr.split(("ar", l, i)).randint(0, 2) if p != PLUS and str(l + 1) in p else PLUS)
            for i, p in enumerate(pk.parts)
        )
        if all(n == PLUS for n in pat):
            return None
        operands.append(b_generator(FAM, rand_glued(rr.split(("op", l)), pat)))
    return ("left", fib, tuple(operands))


class TestGenerators:
    def test_formal_generator_arities(self):
        g = formal_generator("g", (2, 1))
        assert g.name == "g"
        assert g.arity_vector == (2, 1)
        assert formal_generator("g", (2, PLUS)).arity_vector == (2, PLUS)

    def test_base_generator_pattern(self):
        b = base_generator((0, PLUS))
        assert b.base and b.arity_vector == (0, PLUS)
        assert is_base_value(b)
        with pytest.raises(OperadicError):
            base_generator((2, PLUS))

    def test_ib_generator_shape(self):
        rng = Stream(1, ("gen",))
        v = rand_glued(rng, (2, 3))
        pt = ib_generator(FAM, v)
        assert pt.arities == (2, 3)
        assert pt.pearl == v and pt.below is None and pt.upper == ()

    def test_generators_take_the_pearls_the_constructors_take(self):
        # a fiber point or a free point on the pearl
        fiber = sample_fiber_point(Stream(5, ("gen",)), FAM, PKFamily(("1", "2"), (("1", "2"),) * 2))
        comps = (ComponentTree(corolla(2), frozenset({()})),) * 2
        assert ib_generator(FAM, fiber) == FreeIbPoint(FAM, KFoldTree("rpTree", comps), fiber, None, ())
        pt = b_generator(FAM, rand_glued(Stream(5, ("free",)), (PLUS, 2)))
        assert b_generator(FAM, pt).arities == (PLUS, 2)

    def test_b_generator_absent_component(self):
        rng = Stream(2, ("gen",))
        pt = b_generator(FAM, rand_glued(rng, (PLUS, 2)))
        assert pt.arities == (PLUS, 2)
        assert pt.below is None

    def test_base_point_is_base(self):
        pt = base_point(FAM, (0, PLUS))
        assert pt.arities == (0, PLUS)
        assert is_base_value(dict(pt.pearls)[()])

    def test_stable_key_distinguishes(self):
        rng = Stream(4, ("key",))
        a = rand_glued(rng.split(0), (2, 1))
        b = rand_glued(rng.split(1), (2, 1))
        assert a != b
        assert stable_key(a) != stable_key(b)
        assert stable_key(a) == stable_key(a)


class TestUnitActions:
    def test_right_unit_graft_is_identity(self):
        rng = Stream(11, ("runit",))
        for trial in range(6):
            r = rng.split(trial)
            _, _, pt = rand_ib_walk(r, r.randint(0, 2))
            for i in range(FAM.k):
                for j in range(1, pt.arities[i] + 1):
                    unit = FAM.components[i].unit("1")
                    assert free_graft_ib(pt, ("right", i, j, unit)) == pt

    def test_left_unit_graft_is_identity_ib(self):
        rng = Stream(12, ("lunit",))
        for trial in range(6):
            r = rng.split(trial)
            _, _, pt = rand_ib_walk(r, r.randint(0, 2))
            assert free_graft_ib(pt, ("left", ovec_unit(FAM))) == pt

    def test_unit_grafts_are_identity_b(self):
        rng = Stream(13, ("bunit",))
        for trial in range(6):
            r = rng.split(trial)
            pt = b_generator(FAM, rand_glued(r.split("s"), (r.randint(1, 2), r.randint(1, 2))))
            act = rand_b_step(r.split("w"), pt)
            if act is not None:
                pt = free_graft_b(pt, act)
            for i in range(FAM.k):
                if pt.arities[i] == PLUS:
                    continue
                for j in range(1, pt.arities[i] + 1):
                    unit = FAM.components[i].unit("1")
                    assert free_graft_b(pt, ("right", i, j, unit)) == pt
            parts = tuple(("1",) if n != PLUS else PLUS for n in pt.arities)
            points = tuple(
                FAM.components[i].unit("1") if parts[i] != PLUS else PLUS for i in range(FAM.k)
            )
            fib = FiberPoint(FAM, PKFamily(("1",), parts), points)
            assert free_graft_b(pt, ("left", fib, (pt,))) == pt


class TestArities:
    def test_right_graft_arity_shift(self):
        rng = Stream(21, ("rar",))
        for trial in range(8):
            r = rng.split(trial)
            _, _, pt = rand_ib_walk(r, r.randint(0, 2))
            live = [i for i in range(2) if pt.arities[i] >= 1]
            if not live:
                continue
            i = live[r.randint(0, len(live) - 1)]
            j = r.randint(1, pt.arities[i])
            m = r.randint(0, 3)
            out = free_graft_ib(pt, ("right", i, j, positional(FAM.components[i], r.split("x"), m)))
            want = list(pt.arities)
            want[i] += m - 1
            assert out.arities == tuple(want)

    def test_left_graft_arity_shift_ib(self):
        rng = Stream(22, ("lar",))
        for trial in range(8):
            r = rng.split(trial)
            _, _, pt = rand_ib_walk(r, r.randint(0, 2))
            extras = (r.randint(0, 2), r.randint(0, 2))
            out = free_graft_ib(pt, ("left", rand_theta(r.split("th"), extras)))
            assert out.arities == tuple(pt.arities[i] + extras[i] for i in range(2))

    def test_left_graft_arity_sums_b(self):
        rng = Stream(23, ("bar",))
        done = 0
        for trial in range(20):
            r = rng.split(trial)
            pt = b_generator(FAM, rand_glued(r.split("s"), (r.randint(1, 2), r.randint(1, 2))))
            act = rand_b_step(r.split("w"), pt)
            if act is None or act[0] != "left":
                continue
            _, fib, operands = act
            out = free_graft_b(pt, act)
            for i, part in enumerate(fib.pk.parts):
                if part == PLUS:
                    assert out.arities[i] == PLUS
                else:
                    total = sum(operands[int(a) - 1].arities[i] for a in part)
                    assert out.arities[i] == total
            done += 1
        assert done >= 5


class TestCounit:
    def test_ib_walks_evaluate_to_direct_operations(self):
        rng = Stream(7, ("counit",))
        for trial in range(12):
            r = rng.split(trial)
            for ops, mk in ((ProductIbOps(FAM), rand_prod), (GluedIbOps(FAM), rand_glued)):
                arities = (r.randint(1, 3), r.randint(1, 3))
                seed = mk(r.split("seed"), arities)
                pt = ib_generator(FAM, seed)
                val = seed
                for step in range(r.randint(1, 4)):
                    rr = r.split(("step", step))
                    live = [i for i in range(FAM.k) if pt.arities[i] >= 1]
                    if rr.maybe() and live:
                        i = live[rr.randint(0, len(live) - 1)]
                        j = rr.randint(1, pt.arities[i])
                        x = positional(FAM.components[i], rr.split("x"), rr.randint(0, 2))
                        pt = free_graft_ib(pt, ("right", i, j, x))
                        val = ops.right(val, i, j, x)
                    else:
                        th = rand_theta(rr.split("th"), (rr.randint(0, 2), rr.randint(0, 2)))
                        pt = free_graft_ib(pt, ("left", th))
                        val = ops.left(th, val)
                    assert evaluate_ib(pt, ops) == val

    def test_b_walks_evaluate_to_direct_operations(self):
        rng = Stream(23, ("bwalk",))
        ops = GluedBOps(FAM)
        checked = 0
        for trial in range(25):
            r = rng.split(trial)
            seed = rand_glued(r.split("seed"), (r.randint(1, 2), r.randint(1, 2)))
            pt = b_generator(FAM, seed)
            val = seed
            for step in range(r.randint(1, 3)):
                act = rand_b_step(r.split(("step", step)), pt)
                if act is None:
                    continue
                if act[0] == "right":
                    _, i, j, x = act
                    val = ops.right(val, i, j, x)
                else:
                    _, fib, operands = act
                    val = ops.left(fib, [val] + [evaluate_b(op, ops) for op in operands[1:]])
                pt = free_graft_b(pt, act)
                assert evaluate_b(pt, ops) == val
                checked += 1
        assert checked >= 30

    def test_marked_left_actions_reject_non_positional_operands(self):
        # a non-numeric input label of the marked operand escaped from the
        # input shift as a ValueError
        fam = collapse_family((operad_model("terminal"),))
        theta = OVecPoint(fam, (frozenset({MARK, "a"}),))
        with pytest.raises(OperadicError):
            ProductIbOps(fam).left(theta, ProductPoint(fam, (frozenset({"1", "2"}),)))
        rng = Stream(9, ("leftlabels",))
        val = rand_glued(rng.split("v"), (2, 1))
        for sets in ((("a",), ()), (("3",), ())):
            with pytest.raises(OperadicError):
                GluedIbOps(FAM).left(sample_ovec(rng.split(sets), FAM, sets), val)
            with pytest.raises(OperadicError):
                ProductIbOps(FAM).left(sample_ovec(rng.split(sets), FAM, sets),
                                       rand_prod(rng.split("p"), (2, 1)))

    def test_evaluate_generator_is_its_decoration(self):
        rng = Stream(8, ("gen",))
        v = rand_glued(rng, (2, 1))
        assert evaluate_ib(ib_generator(FAM, v), GluedIbOps(FAM)) == v
        w = rand_glued(rng.split("b"), (PLUS, 2))
        assert evaluate_b(b_generator(FAM, w), GluedBOps(FAM)) == w


class TestAxiomInstances:
    def test_disjoint_right_grafts_commute(self):
        rng = Stream(31, ("comm",))
        for trial in range(10):
            r = rng.split(trial)
            _, _, pt = rand_ib_walk(r, r.randint(0, 2))
            i = r.randint(0, 1)
            if pt.arities[i] < 2:
                continue
            a = r.randint(1, pt.arities[i] - 1)
            b = r.randint(a + 1, pt.arities[i])
            u = positional(FAM.components[i], r.split("u"), r.randint(0, 2))
            w = positional(FAM.components[i], r.split("w"), r.randint(0, 2))
            mu = FAM.components[i].arity(u)
            lhs = free_graft_ib(free_graft_ib(pt, ("right", i, a, u)), ("right", i, b + mu - 1, w))
            rhs = free_graft_ib(free_graft_ib(pt, ("right", i, b, w)), ("right", i, a, u))
            assert lhs == rhs

    def test_cross_component_right_grafts_commute(self):
        rng = Stream(32, ("cross",))
        for trial in range(8):
            r = rng.split(trial)
            _, _, pt = rand_ib_walk(r, r.randint(0, 2))
            if pt.arities[0] < 1 or pt.arities[1] < 1:
                continue
            j0 = r.randint(1, pt.arities[0])
            j1 = r.randint(1, pt.arities[1])
            u = positional(FAM.components[0], r.split("u"), r.randint(0, 2))
            w = positional(FAM.components[1], r.split("w"), r.randint(0, 2))
            lhs = free_graft_ib(free_graft_ib(pt, ("right", 0, j0, u)), ("right", 1, j1, w))
            rhs = free_graft_ib(free_graft_ib(pt, ("right", 1, j1, w)), ("right", 0, j0, u))
            assert lhs == rhs

    def test_left_then_right_on_old_slot_commutes(self):
        rng = Stream(33, ("lr",))
        for trial in range(8):
            r = rng.split(trial)
            _, _, pt = rand_ib_walk(r, r.randint(0, 2))
            live = [i for i in range(2) if pt.arities[i] >= 1]
            if not live:
                continue
            th = rand_theta(r.split("th"), (r.randint(0, 2), r.randint(0, 2)))
            i = live[r.randint(0, len(live) - 1)]
            j = r.randint(1, pt.arities[i])
            x = positional(FAM.components[i], r.split("x"), r.randint(0, 2))
            lhs = free_graft_ib(free_graft_ib(pt, ("left", th)), ("right", i, j, x))
            rhs = free_graft_ib(free_graft_ib(pt, ("right", i, j, x)), ("left", th))
            assert lhs == rhs


class TestConfluence:
    def test_ib_rewrite_order_immaterial(self):
        rng = Stream(31, ("confl",))
        for trial in range(10):
            r = rng.split(trial)
            seed, actions, pt = rand_ib_walk(r, 4)
            for order_seed in range(4):
                q = ib_generator(FAM, seed)
                for a in actions:
                    q = free_graft_ib(q, a, rng=Stream(order_seed, ("order", trial)))
                assert q == pt

    def test_b_rewrite_order_immaterial(self):
        rng = Stream(37, ("bconfl",))
        replayed = 0
        for trial in range(10):
            r = rng.split(trial)
            seed = rand_glued(r.split("seed"), (r.randint(1, 2), r.randint(1, 2)))
            pt = b_generator(FAM, seed)
            actions = []
            for step in range(3):
                act = rand_b_step(r.split(("step", step)), pt)
                if act is None:
                    continue
                actions.append(act)
                pt = free_graft_b(pt, act)
            for order_seed in range(4):
                q = b_generator(FAM, seed)
                for a in actions:
                    if a[0] == "left":
                        a = ("left", a[1], (q,) + a[2][1:])
                    q = free_graft_b(q, a, rng=Stream(order_seed, ("border", trial)))
                assert q == pt
                replayed += 1
        assert replayed == 40

    def test_formal_ib_rewrite_order_immaterial(self):
        rng = Stream(41, ("fconfl",))
        for trial in range(6):
            r = rng.split(trial)
            seed = formal_generator("g", (r.randint(1, 2), r.randint(1, 2)))
            pt = ib_generator(FAM, seed)
            actions = []
            for step in range(4):
                rr = r.split(("step", step))
                live = [i for i in range(FAM.k) if pt.arities[i] >= 1]
                if rr.maybe() and live:
                    i = live[rr.randint(0, len(live) - 1)]
                    j = rr.randint(1, pt.arities[i])
                    actions.append(
                        ("right", i, j, positional(FAM.components[i], rr.split("x"), rr.randint(0, 2)))
                    )
                else:
                    actions.append(
                        ("left", rand_theta(rr.split("th"), (rr.randint(0, 2), rr.randint(0, 2))))
                    )
                pt = free_graft_ib(pt, actions[-1])
            for order_seed in range(3):
                q = ib_generator(FAM, seed)
                for a in actions:
                    q = free_graft_ib(q, a, rng=Stream(order_seed, ("forder", trial)))
                assert q == pt


class TestBaseContraction:
    def test_all_base_operands_collapse_to_base_point(self):
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
            want_pat = tuple(PLUS if p == PLUS else 0 for p in pk.parts)
            template = dict(operands[0].pearls)[()]
            assert out == b_generator(FAM, base_like(template, FAM, want_pat))
            assert evaluate_b(out, GluedBOps(FAM)) == GluedBOps(FAM).left(
                fib, [evaluate_b(op, GluedBOps(FAM)) for op in operands]
            )
            done += 1
        assert done >= 8

    def test_base_operand_contracts_into_fiber(self):
        rng = Stream(44, ("onebase",))
        done = 0
        for trial in range(20):
            r = rng.split(trial)
            pt = b_generator(FAM, rand_glued(r.split("s"), (r.randint(1, 2), r.randint(1, 2))))
            pk = matching_pk(r.split("pk"), 2, presence(pt))
            if pk is None:
                continue
            pat = tuple(
                0 if p != PLUS and "2" in p else PLUS for p in pk.parts
            )
            if all(n == PLUS for n in pat):
                continue
            fib = sample_fiber_point(r.split("fib"), FAM, pk)
            out = free_graft_b(pt, ("left", fib, (pt, b_generator(FAM, rand_glued(r.split("op"), pat)))))
            assert len(out.pearls) == len(pt.pearls)
            assert out.arities == pt.arities
            done += 1
        assert done >= 5

    def test_stacked_absent_component_walks(self):
        rng = Stream(45, ("plusstack",))
        ops = GluedBOps(FAM)
        seed = rand_glued(rng.split("s"), (PLUS, 2))
        pt = b_generator(FAM, seed)
        pk = PKFamily(("1",), (PLUS, ("1",)))
        fib = sample_fiber_point(rng.split("f1"), FAM, pk)
        pt2 = free_graft_b(pt, ("left", fib, (pt,)))
        assert pt2.arities == (PLUS, 2)
        fib2 = sample_fiber_point(rng.split("f2"), FAM, pk)
        pt3 = free_graft_b(pt2, ("left", fib2, (pt2,)))
        assert evaluate_b(pt3, ops) == ops.left(fib2, [ops.left(fib, [seed])])


class TestNormalForm:
    def test_nested_right_grafts_merge_to_one_corolla(self):
        rng = Stream(51, ("merge",))
        v = rand_glued(rng.split("v"), (2, 1))
        pt = ib_generator(FAM, v)
        x = positional(FAM.components[0], rng.split("x"), 2)
        y = positional(FAM.components[0], rng.split("y"), 2)
        out = free_graft_ib(free_graft_ib(pt, ("right", 0, 1, x)), ("right", 0, 2, y))
        assert len(out.upper) == 1
        assert out.arities == (4, 1)

    def test_stacked_left_grafts_merge_spine(self):
        rng = Stream(52, ("spine",))
        v = rand_glued(rng.split("v"), (1, 1))
        pt = ib_generator(FAM, v)
        out = pt
        for t in range(2):
            out = free_graft_ib(out, ("left", rand_theta(rng.split(t), (1, 1))))
        assert out.below is not None
        assert out.tree.components[0].pearls == frozenset({(0,)})
        assert out.arities == (3, 3)

    def test_sorting_transports_the_decoration(self):
        rng = Stream(53, ("sort",))
        x = positional(FAM1.components[0], rng, 2)
        ge = glued_eta(FAM1, (x,))
        g = ib_generator(FAM1, ge)
        swapped = KFoldTree(
            "rpTree",
            (ComponentTree(corolla(2), frozenset({()}), (((0,), "2"), ((1,), "1"))),),
        )
        acted = act_component(ge, 0, (2, 1))
        assert ib_point(FAM1, swapped, acted) == g
        if acted != ge:
            assert ib_point(FAM1, swapped, ge) != g

    def test_glued_component_action_skips_an_absent_component(self):
        # oracle: the action on the component's own element before the glue;
        # an absent component has no inputs to act on
        x = positional(FAM.components[1], Stream(56, ("absent",)), 2)
        ge = glued_eta(FAM, (PLUS, x))
        assert act_component(ge, 0, ()) == ge
        acted = glued_eta(FAM, (PLUS, act_numeric(FAM.components[1], x, (2, 1))))
        assert act_component(ge, 1, (2, 1)) == acted != ge

    def test_builders_renormalize_unit_vertices(self):
        rng = Stream(54, ("renorm",))
        v = rand_glued(rng.split("v"), (1, 2))
        tree = KFoldTree(
            "rpTree",
            (
                ComponentTree((corolla(1),), frozenset({()})),
                ComponentTree(corolla(2), frozenset({()})),
            ),
        )
        unit = FAM.components[0].unit("1")
        assert ib_point(FAM, tree, v, upper={(0, (0,)): unit}) == ib_generator(FAM, v)

    def test_constructor_rejects_non_normal_ib(self):
        rng = Stream(55, ("rej",))
        v = rand_glued(rng.split("v"), (1, 2))
        tree = KFoldTree(
            "rpTree",
            (
                ComponentTree((corolla(1),), frozenset({()})),
                ComponentTree(corolla(2), frozenset({()})),
            ),
        )
        unit = FAM.components[0].unit("1")
        with pytest.raises(OperadicError):
            FreeIbPoint(FAM, tree, v, None, (((0, (0,)), unit),))

    def test_constructor_rejects_non_normal_b(self):
        rng = Stream(59, ("rejb",))
        v = rand_glued(rng.split("v"), (1, 2))
        tree = KFoldTree(
            "rsTree",
            (
                ComponentTree((corolla(1),), frozenset({()})),
                ComponentTree(corolla(2), frozenset({()})),
            ),
            (((0, ()), True), ((1, ()), True)),
        )
        unit = FAM.components[0].unit("1")
        upper = (((0, (0,)), unit),)
        assert b_point(FAM, tree, (((), v),), upper=upper) == b_generator(FAM, v)
        with pytest.raises(OperadicError, match="normal form"):
            FreeBPoint(FAM, tree, (((), v),), None, upper)

    def test_builders_run_the_engine_once(self, monkeypatch):
        # conftest rebuilds every builder result through the constructors,
        # which runs the engine again; the builders alone run it once
        monkeypatch.setattr(freeconstr, "_build", freeconstr._build.__wrapped__)
        runs = []
        run = _TimedState.run
        monkeypatch.setattr(_TimedState, "run", lambda st, rng=None: runs.append(st.flavor) or run(st, rng))
        v = rand_glued(Stream(62, ("once",)), (1, 2))
        unit = FAM.components[0].unit("1")
        comps = (ComponentTree((corolla(1),), frozenset({()})), ComponentTree(corolla(2), frozenset({()})))
        assert ib_point(FAM, KFoldTree("rpTree", comps), v, upper={(0, (0,)): unit}).upper == ()
        assert runs == ["ib"]
        marks = (((0, ()), True), ((1, ()), True))
        assert b_point(FAM, KFoldTree("rsTree", comps, marks), {(): v}, upper={(0, (0,)): unit}).upper == ()
        assert runs == ["ib", "b"]

    def test_constructor_rejects_unsorted_labels(self):
        rng = Stream(56, ("rej2",))
        x = positional(FAM1.components[0], rng, 2)
        ge = glued_eta(FAM1, (x,))
        swapped = KFoldTree(
            "rpTree",
            (ComponentTree(corolla(2), frozenset({()}), (((0,), "2"), ((1,), "1"))),),
        )
        with pytest.raises(OperadicError):
            FreeIbPoint(FAM1, swapped, ge, None, ())

    def test_constructor_rejects_wrong_variant(self):
        rng = Stream(57, ("rej3",))
        v = rand_glued(rng.split("v"), (1, 1))
        tree = KFoldTree(
            "rsTree",
            (
                ComponentTree(corolla(1), frozenset({()})),
                ComponentTree(corolla(1), frozenset({()})),
            ),
            (((0, ()), True), ((1, ()), True)),
        )
        with pytest.raises(OperadicError):
            FreeIbPoint(FAM, tree, v, None, ())

    def test_spine_decoration_presence_is_forced(self):
        rng = Stream(58, ("force",))
        v = rand_glued(rng.split("v"), (1, 1))
        pt = ib_generator(FAM, v)
        with pytest.raises(OperadicError):
            FreeIbPoint(FAM, pt.tree, v, ovec_unit(FAM), ())

    def test_builders_and_constructors_reject_malformed_input(self):
        # each used to escape as an IndexError, a ValueError, an
        # AttributeError or a TypeError from sorting keys of mixed types
        rng = Stream(60, ("malformed",))
        v = rand_glued(rng.split("v"), (1, 2))
        x = positional(FAM.components[0], rng.split("x"), 2)
        ib, b = ib_generator(FAM, v), b_generator(FAM, v)
        mixed = {"x": x, (0, (0,)): x}
        for build in (
            lambda: ib_point(FAM, ib.tree, v, upper={(5, (0,)): x}),
            lambda: b_point(FAM, b.tree, b.pearls, upper={(5, (0,)): x}),
            lambda: ib_point(FAM, ib.tree, v, upper={"x": x}),
            lambda: b_point(FAM, b.tree, b.pearls, upper={"x": x}),
            lambda: ib_point(FAM, ib.tree.components[0], v),
            lambda: b_point(FAM, b.tree.components[0], b.pearls),
            lambda: FreeIbPoint(FAM, ib.tree.components[0], v, None, ()),
            lambda: FreeBPoint(FAM, b.tree.components[0], b.pearls, None, ()),
            lambda: FreeIbPoint(FAM, ib.tree, v, None, mixed),
            lambda: FreeBPoint(FAM, b.tree, b.pearls, None, mixed),
            lambda: FreeBPoint(FAM, b.tree, {"x": v, (): v}, None, ()),
            lambda: ib_generator(FAM, formal_generator("g", (PLUS, 2))),
        ):
            with pytest.raises(OperadicError):
                build()


class TestRestriction:
    def test_positive_arity_walks_stay_univalent_free(self):
        rng = Stream(61, ("lam",))
        for trial in range(8):
            r = rng.split(trial)
            seed = rand_glued(r.split("seed"), (r.randint(1, 2), r.randint(1, 2)))
            pt = ib_generator(FAM, seed)
            assert not has_univalent_vertex(pt)
            for step in range(3):
                rr = r.split(("step", step))
                if rr.maybe():
                    i = rr.randint(0, 1)
                    j = rr.randint(1, pt.arities[i])
                    x = positional(FAM.components[i], rr.split("x"), rr.randint(1, 2))
                    pt = free_graft_ib(pt, ("right", i, j, x))
                else:
                    pt = free_graft_ib(
                        pt, ("left", rand_theta(rr.split("th"), (rr.randint(1, 2), rr.randint(1, 2))))
                    )
                assert not has_univalent_vertex(pt)

    def test_nullary_graft_under_a_pearl_is_univalent(self):
        rng = Stream(62, ("nullary",))
        pt = ib_generator(FAM, rand_glued(rng.split("v"), (1, 1)))
        x0 = positional(FAM.components[0], rng.split("x"), 0)
        out = free_graft_ib(pt, ("right", 0, 1, x0))
        assert has_univalent_vertex(out)

    def test_nullary_pearls_are_not_univalent(self):
        pt = base_point(FAM, (0, 0))
        assert not has_univalent_vertex(pt)


class TestFormalFreeness:
    def test_distinct_generators_never_collide(self):
        rng = Stream(71, ("free",))
        for trial in range(6):
            r = rng.split(trial)
            ar = (r.randint(1, 2), r.randint(1, 2))
            pg = ib_generator(FAM, formal_generator("g", ar))
            ph = ib_generator(FAM, formal_generator("h", ar))
            for step in range(3):
                rr = r.split(("step", step))
                live = [i for i in range(FAM.k) if pg.arities[i] >= 1]
                if rr.maybe() and live:
                    i = live[rr.randint(0, len(live) - 1)]
                    j = rr.randint(1, pg.arities[i])
                    x = positional(FAM.components[i], rr.split("x"), rr.randint(0, 2))
                    pg = free_graft_ib(pg, ("right", i, j, x))
                    ph = free_graft_ib(ph, ("right", i, j, x))
                else:
                    th = rand_theta(rr.split("th"), (rr.randint(0, 2), rr.randint(0, 2)))
                    pg = free_graft_ib(pg, ("left", th))
                    ph = free_graft_ib(ph, ("left", th))
                assert pg != ph
                assert pg.pearl.name == "g" and ph.pearl.name == "h"

    def test_formal_b_walks_keep_the_name(self):
        rng = Stream(72, ("bfree",))
        done = 0
        for trial in range(10):
            r = rng.split(trial)
            pt = b_generator(FAM, formal_generator("g", (r.randint(1, 2), PLUS)))
            act = rand_b_step(r.split("w"), pt)
            if act is None:
                continue
            if act[0] == "left":
                ops = []
                for op in act[2][1:]:
                    ops.append(b_generator(FAM, formal_generator("h", op.arities)))
                act = ("left", act[1], (pt,) + tuple(ops))
            out = free_graft_b(pt, act)
            names = {v.name for _, v in out.pearls}
            assert "g" in names
            done += 1
        assert done >= 5

    def test_component_actions_compose(self):
        g = formal_generator("g", (3, 1))
        p = (2, 3, 1)
        q = (3, 1, 2)
        r = tuple(p[q[j] - 1] for j in range(3))
        assert act_component(act_component(g, 0, p), 0, q) == act_component(g, 0, r)
        assert act_component(g, 0, (1, 2, 3)) == g
