"""Sequence-level algebra: brute-force oracles, then axioms on sampled data."""

import itertools
from dataclasses import replace
from fractions import Fraction

import pytest

from operadic.algebra import (
    MODEL_KINDS,
    PLUS,
    AugmentedPoint,
    FiberPoint,
    GammaComponent,
    GammaMorphism,
    GluedElement,
    GluedEvaluator,
    OVecPoint,
    OperadModel,
    PKFamily,
    ProductPoint,
    RelativeFamily,
    act_numeric,
    aug_circ,
    aug_mu_s,
    collapse_family,
    compose_at,
    compose_away,
    convert_onefold,
    cube_family,
    fiber_compose_at,
    fiber_drop,
    fiber_mu_a,
    fiber_relabel,
    gamma_compose,
    gamma_glue,
    gamma_identity,
    gamma_object_glue,
    gamma_to_semb,
    glued_circ,
    glued_eta,
    glued_mu_direct,
    glued_mu_s,
    identity_family,
    induced_infinitesimal,
    inverse_perm,
    is_unit_ovec,
    operad_model,
    ovec_compose_at,
    ovec_mu,
    ovec_splice,
    ovec_unit,
    pk_enumerate,
    pk_union,
    pk_valid,
    prod_circ,
    prod_mu,
    qualify,
    sample_fiber_point,
    sample_gamma,
    sample_ovec,
    sample_pk,
)
from operadic.errors import OperadicError
from operadic.exactgeom import (
    MARK,
    Rect,
    RectConfig,
    cube_split,
    rect_compose,
    semb_compose,
    unit_config,
    validate_embedding,
)
from operadic.rng import Stream
from operadic.sampling import sample_perm

# ---------------------------------------------------------------------------
# oracles


def oracle_pk_member(ground, parts, k):
    """Independent membership predicate: every ground element lies in all
    parts or in exactly one, and each part is a subset or the sentinel."""
    if len(parts) != k:
        return False
    for part in parts:
        if part == PLUS:
            continue
        if len(set(part)) != len(part) or not set(part) <= set(ground):
            return False
    for a in ground:
        count = sum(1 for p in parts if p != PLUS and a in p)
        if count != k and count != 1:
            return False
    return True


def oracle_pk_space(ground, k):
    """Generate-and-filter over the full (subsets + sentinel)^k space."""
    subsets = [PLUS]
    for r in range(len(ground) + 1):
        subsets.extend(itertools.combinations(ground, r))
    out = set()
    for combo in itertools.product(subsets, repeat=k):
        if oracle_pk_member(ground, combo, k):
            out.add(tuple(p if p == PLUS else frozenset(p) for p in combo))
    return out


def numeric_labels(n):
    return tuple(str(j) for j in range(1, n + 1))


def perm_compose(sigma, tau):
    """(sigma then tau) in action order: act(act(x, sigma), tau)."""
    return tuple(sigma[tau[j] - 1] for j in range(len(sigma)))


# ---------------------------------------------------------------------------
# operad models


class TestModels:
    def test_registry(self):
        assert operad_model("cube:2").dim == 2
        assert operad_model("rect:3").kind == "rect"
        assert operad_model("rect-inf:2").regime == "overlapping"
        assert operad_model("sym").dim == 0
        assert operad_model("terminal").kind == "terminal"
        for bad in ("cube", "cube:0", "disc:2", "rect:x", "", ()):
            with pytest.raises(OperadicError):
                operad_model(bad)

    def test_model_kinds_cover_registry(self):
        assert set(MODEL_KINDS) == {"rect", "cube", "rect-inf", "sym", "terminal"}

    @pytest.mark.parametrize("name", ["cube:1", "rect:2", "rect-inf:2", "sym", "terminal"])
    def test_unit_laws(self, name):
        model = operad_model(name)
        for trial in range(10):
            rng = Stream(trial, ("unit", name))
            labels = tuple("abcde"[: rng.randint(1, 4)])
            x = model.sample(rng.split("x"), labels)
            assert model.validate(x)
            assert model.labels(x) == labels
            a = rng.choice(labels)
            assert model.compose(x, a, model.unit(a)) == x
            fresh = model.relabel(x, {a: "z"})
            assert model.compose(model.unit(a), a, fresh) == fresh

    @pytest.mark.parametrize("name", ["cube:1", "rect:2", "sym", "terminal"])
    def test_compose_associativity(self, name):
        model = operad_model(name)
        for trial in range(10):
            rng = Stream(trial, ("assoc", name))
            x = model.sample(rng.split("x"), ("a", "b"))
            y = model.sample(rng.split("y"), ("c", "d"))
            z = model.sample(rng.split("z"), ("e",))
            seq1 = model.compose(model.compose(x, "a", y), "c", z)
            seq2 = model.compose(x, "a", model.compose(y, "c", z))
            assert seq1 == seq2
            par1 = model.compose(model.compose(x, "a", y), "b", z)
            par2 = model.compose(model.compose(x, "b", z), "a", y)
            assert par1 == par2

    def test_compose_collision(self):
        model = operad_model("sym")
        with pytest.raises(OperadicError):
            model.compose(("a", "b"), "a", ("b",))
        with pytest.raises(OperadicError):
            model.compose(("a", "b"), "c", ("d",))

    def test_sym_splice(self):
        model = operad_model("sym")
        assert model.compose(("b", "a"), "a", ("x", "y")) == ("b", "x", "y")
        assert model.labels(("b", "a")) == ("a", "b")

    def test_cube_validate_rejects_rectangles(self):
        model = operad_model("cube:2")
        skew = RectConfig(2, {"a": Rect((Fraction(1, 2), Fraction(1, 3)), (Fraction(0), Fraction(0)))}, "disjoint")
        assert not model.validate(skew)
        assert operad_model("rect:2").validate(skew)

    def test_compose_at_matches_numeric_slot(self):
        model = operad_model("rect:2")
        for trial in range(15):
            rng = Stream(trial, ("pos",))
            n = rng.split("n").randint(1, 4)
            m = rng.split("m").randint(1, 3)
            i = rng.split("i").randint(1, n)
            x = model.sample(rng.split("x"), numeric_labels(n))
            y = model.sample(rng.split("y"), numeric_labels(m))
            assert compose_at(model, x, i, y) == rect_compose(x, i, y)

    def test_act_numeric_is_an_action(self):
        for name in ("sym", "cube:2"):
            model = operad_model(name)
            for trial in range(15):
                rng = Stream(trial, ("act", name))
                n = rng.split("n").randint(1, 5)
                x = model.sample(rng.split("x"), numeric_labels(n))
                sigma = sample_perm(rng.split("s"), n)
                tau = sample_perm(rng.split("t"), n)
                lhs = act_numeric(model, act_numeric(model, x, sigma), tau)
                rhs = act_numeric(model, x, perm_compose(sigma, tau))
                assert lhs == rhs
                assert act_numeric(model, act_numeric(model, x, sigma), inverse_perm(sigma)) == x

    def test_compose_away(self):
        model = operad_model("sym")
        assert compose_away(model, ("c", "a", "b"), {"a", "b"}) == ("a", "b")
        assert compose_away(model, ("c", "a", "b"), set()) == ()


# ---------------------------------------------------------------------------
# partition families


class TestPK:
    def test_pinned_counts(self):
        assert len(pk_enumerate((), 1)) == 2
        assert len(pk_enumerate(("1",), 1)) == 1
        assert len(pk_enumerate(("1",), 2)) == 5

    def test_all_plus_member(self):
        fams = pk_enumerate((), 2)
        assert any(f.is_all_plus for f in fams)
        assert not any(f.is_all_plus for f in pk_enumerate(("1",), 2))

    @pytest.mark.parametrize("size,k", [(s, k) for s in range(5) for k in range(1, 4)])
    def test_enumerate_matches_oracle(self, size, k):
        ground = tuple(str(j + 1) for j in range(size))
        got = {
            tuple(p if p == PLUS else frozenset(p) for p in fam.parts)
            for fam in pk_enumerate(ground, k)
        }
        assert got == oracle_pk_space(ground, k)
        assert len(got) == len(pk_enumerate(ground, k))

    def test_valid_predicate_matches_oracle(self):
        ground = ("1", "2")
        subsets = [PLUS, (), ("1",), ("2",), ("1", "2")]
        for combo in itertools.product(subsets, repeat=2):
            assert pk_valid(ground, combo) == oracle_pk_member(ground, combo, 2)

    def test_rejects_foreign_and_duplicate_labels(self):
        assert not pk_valid(("1",), (("1", "2"),))
        with pytest.raises(OperadicError):
            PKFamily(("1", "1"), (("1",),))
        with pytest.raises(OperadicError):
            PKFamily(("1",), (("1", "1"),))

    def test_shared(self):
        fam = PKFamily(("a", "b", "c"), (("a", "b"), ("a", "c")))
        assert fam.shared() == ("a",)
        assert fam.arity_vector == (2, 2)
        fam2 = PKFamily(("a",), (("a",), PLUS))
        assert fam2.shared() == ()
        assert fam2.arity_vector == (1, PLUS)

    def test_union_sequential_associative(self):
        s1 = PKFamily(("a", "b"), (("a", "b"), ("a",)))
        s2 = PKFamily(("c", "d"), (("c", "d"), ("c",)))
        s3 = PKFamily(("e",), (("e",), ("e",)))
        lhs = pk_union(pk_union(s1, "a", s2), "c", s3)
        rhs = pk_union(s1, "a", pk_union(s2, "c", s3))
        assert lhs == rhs

    def test_union_sentinel_pattern_enforced(self):
        s1 = PKFamily(("a",), (("a",), PLUS))
        with pytest.raises(OperadicError):
            pk_union(s1, "a", PKFamily(("b",), (("b",), ("b",))))
        with pytest.raises(OperadicError):
            pk_union(s1, "a", PKFamily((), (PLUS, PLUS)))
        ok = pk_union(s1, "a", PKFamily(("b",), (("b",), PLUS)))
        assert ok.parts == (("b",), PLUS)

    def test_union_collision(self):
        s1 = PKFamily(("a", "b"), (("a", "b"),))
        with pytest.raises(OperadicError):
            pk_union(s1, "a", PKFamily(("b",), (("b",),)))

    def test_sample_valid(self):
        for trial in range(25):
            rng = Stream(trial, ("pk",))
            k = rng.split("k").randint(1, 3)
            size = rng.split("n").randint(0, 4)
            ground = tuple(str(j + 1) for j in range(size))
            finite = tuple(i for i in range(k) if rng.split("f%d" % i).maybe()) or None
            if finite is not None and not finite and size > 0:
                finite = (0,)
            fam = sample_pk(rng.split("s"), ground, k, finite)
            assert oracle_pk_member(fam.ground, fam.parts, k)


# ---------------------------------------------------------------------------
# fiber points


FAM = cube_family((1, 2), 3)
# a family whose fiber condition compares label sets, over a linear order
COLLAPSE = collapse_family((operad_model("sym"), operad_model("terminal")))


def fiber_sample(seed, pk, family=FAM):
    return sample_fiber_point(Stream(seed, ("fp",)), family, pk)


class TestFiberPoints:
    def test_sampler_satisfies_condition(self):
        for trial in range(20):
            rng = Stream(trial, ("fs",))
            ground = tuple("abcd"[: rng.split("n").randint(0, 4)])
            finite = None if rng.split("all").maybe() else (rng.split("which").randint(0, 1),)
            if ground == () and finite is None:
                finite = ()
            pk = sample_pk(rng.split("pk"), ground, 2, finite)
            p = sample_fiber_point(rng.split("pt"), FAM, pk)
            assert p.pk == pk

    def test_condition_violation_detected(self):
        pk = PKFamily(("a",), (("a",), ("a",)))
        p = fiber_sample(1, pk)
        small = unit_config("a", 1, "disjoint").relabel({"a": "a"})
        shrunk = RectConfig(1, {"a": Rect((Fraction(1, 3),), (Fraction(0),))}, "disjoint")
        with pytest.raises(OperadicError):
            FiberPoint(FAM, pk, (shrunk, p.points[1]))
        del small

    def test_labels_must_match_parts(self):
        pk = PKFamily(("a",), (("a",), PLUS))
        with pytest.raises(OperadicError):
            FiberPoint(FAM, pk, (unit_config("b", 1, "disjoint"), PLUS))
        with pytest.raises(OperadicError):
            FiberPoint(FAM, pk, (unit_config("a", 1, "disjoint"), unit_config("a", 2, "disjoint")))

    def test_mu_unit_laws(self):
        pk = PKFamily(("a", "b"), (("a", "b"), ("a",)))
        p = fiber_sample(2, pk)
        right_unit = FiberPoint(
            FAM,
            PKFamily(("u",), (("u",), ("u",))),
            (unit_config("u", 1, "disjoint"), unit_config("u", 2, "disjoint")),
        )
        assert fiber_mu_a(p, "a", right_unit) == fiber_relabel(p, {"a": "u"})
        left = FiberPoint(
            FAM,
            PKFamily(("a",), (("a",), ("a",))),
            (unit_config("a", 1, "disjoint"), unit_config("a", 2, "disjoint")),
        )
        q = fiber_sample(3, PKFamily(("x", "y"), (("x", "y"), ("x",))))
        assert fiber_mu_a(left, "a", q) == q

    def test_mu_sequential_associative(self):
        for trial in range(12):
            rng = Stream(trial, ("seq",))
            pk1 = sample_pk(rng.split("p1"), ("a", "b"), 2)
            p = sample_fiber_point(rng.split("f1"), FAM, pk1)
            finite_a = tuple(i for i, part in enumerate(pk1.parts) if part != PLUS and "a" in part)
            if not finite_a:
                continue
            pk2 = sample_pk(rng.split("p2"), ("c", "d"), 2, finite_a)
            q = sample_fiber_point(rng.split("f2"), FAM, pk2)
            finite_c = tuple(i for i, part in enumerate(pk2.parts) if part != PLUS and "c" in part)
            if not finite_c:
                continue
            pk3 = sample_pk(rng.split("p3"), ("e",), 2, finite_c)
            r = sample_fiber_point(rng.split("f3"), FAM, pk3)
            lhs = fiber_mu_a(fiber_mu_a(p, "a", q), "c", r)
            rhs = fiber_mu_a(p, "a", fiber_mu_a(q, "c", r))
            assert lhs == rhs

    def test_mu_parallel_commutative(self):
        for trial in range(12):
            rng = Stream(trial, ("par",))
            pk1 = sample_pk(rng.split("p1"), ("a", "b"), 2)
            p = sample_fiber_point(rng.split("f1"), FAM, pk1)
            fin_a = tuple(i for i, part in enumerate(pk1.parts) if part != PLUS and "a" in part)
            fin_b = tuple(i for i, part in enumerate(pk1.parts) if part != PLUS and "b" in part)
            if not fin_a or not fin_b:
                continue
            q = sample_fiber_point(rng.split("f2"), FAM, sample_pk(rng.split("p2"), ("c",), 2, fin_a))
            r = sample_fiber_point(rng.split("f3"), FAM, sample_pk(rng.split("p3"), ("d",), 2, fin_b))
            lhs = fiber_mu_a(fiber_mu_a(p, "a", q), "b", r)
            rhs = fiber_mu_a(fiber_mu_a(p, "b", r), "a", q)
            assert lhs == rhs

    def test_mu_sentinel_pattern_enforced(self):
        p = fiber_sample(4, PKFamily(("a",), (("a",), PLUS)))
        bad = fiber_sample(5, PKFamily(("b",), (("b",), ("b",))))
        with pytest.raises(OperadicError):
            fiber_mu_a(p, "a", bad)

    def test_relabel_commutes_with_mu(self):
        p = fiber_sample(6, PKFamily(("a", "b"), (("a", "b"), ("a",))))
        q = fiber_sample(7, PKFamily(("c",), (("c",), ("c",))))
        mapping = {"b": "z", "c": "w"}
        lhs = fiber_relabel(fiber_mu_a(p, "a", q), mapping)
        rhs = fiber_mu_a(fiber_relabel(p, mapping), "a", fiber_relabel(q, mapping))
        assert lhs == rhs

    def test_drop_composes_the_empty_point_componentwise(self):
        for trial in range(12):
            rng = Stream(trial, ("drop",))
            n = rng.split("n").randint(1, 3)
            pk = sample_pk(rng.split("pk"), tuple(str(t + 1) for t in range(n)), 2)
            p = sample_fiber_point(rng.split("pt"), FAM, pk)
            pos = rng.split("pos").randint(1, n)
            back = {str(t): str(t - 1) for t in range(pos + 1, n + 1)}
            want = tuple(
                PLUS if part == PLUS else m.relabel(
                    m.compose(x, str(pos), m.point0()) if str(pos) in part else x, back)
                for m, part, x in zip(FAM.components, pk.parts, p.points)
            )
            assert fiber_drop(p, pos).points == want

    @pytest.mark.parametrize("call", [
        lambda p: fiber_drop(p, 5),
        lambda p: fiber_drop(p, 0),
        lambda p: fiber_drop(p, "1"),
        lambda p: fiber_compose_at(p, "1", p),
    ], ids=["drop-5", "drop-0", "drop-str", "compose-at-str"])
    def test_positions_outside_the_ground_are_rejected(self, call):
        p = fiber_sample(8, PKFamily(("1", "2"), (("1", "2"), ("1",))))
        with pytest.raises(OperadicError):
            call(p)

    @pytest.mark.parametrize("family", [FAM, COLLAPSE], ids=["cube-pad", "collapse"])
    def test_composites_pass_the_constructor(self, family):
        # fiber_mu_a and fiber_relabel build their results without
        # FiberPoint's check; rebuilt through it, they come out equal
        made = 0
        for trial in range(20):
            rng = Stream(trial, ("fcheck",))
            n = rng.split("n").randint(1, 3)
            pk = sample_pk(rng.split("pk"), tuple(str(t + 1) for t in range(n)), family.k)
            p = sample_fiber_point(rng.split("p"), family, pk)
            pos = rng.split("pos").randint(1, n)
            at = tuple(i for i, part in enumerate(pk.parts) if part != PLUS and str(pos) in part)
            m = rng.split("m").randint(0, 2)
            qpk = sample_pk(rng.split("qpk"), tuple(str(t + 1) for t in range(m)), family.k, at)
            q = sample_fiber_point(rng.split("q"), family, qpk)
            reverse = {str(t + 1): str(n - t) for t in range(n)}
            for r in (fiber_compose_at(p, pos, q), fiber_drop(p, pos), fiber_relabel(p, reverse)):
                assert replace(r) == r
                made += 1
        assert made == 60

    def test_collapse_family_points(self):
        fam = collapse_family((operad_model("sym"), operad_model("cube:1")))
        pk = PKFamily(("a", "b"), (("a",), ("b",)))
        p = sample_fiber_point(Stream(1, ("c",)), fam, pk)
        assert p.points[0] == ("a",)
        assert fam.components[1].labels(p.points[1]) == ("b",)

    @pytest.mark.parametrize("name", ["sym", "terminal", "rect:2", "cube:1", "rect-inf:1"])
    def test_identity_family_maps_by_the_identity(self, name):
        model = operad_model(name)
        fam = identity_family(model)
        for n in range(4):
            x = model.sample(Stream(n, ("idf", name)), numeric_labels(n))
            assert fam.f(0, x) is x
            # over the one-point operad the identity is the collapse
            if name == "terminal":
                assert fam.f(0, x) == collapse_family((model,)).f(0, x)


# ---------------------------------------------------------------------------
# marked product points


class TestOVec:
    def test_sampler_and_sets(self):
        theta = sample_ovec(Stream(1, ("ov",)), FAM, (("a",), ("b", "c")))
        assert theta.sets == (("a",), ("b", "c"))
        assert theta.arity_vector == (2, 3)

    def test_condition_violation_detected(self):
        theta = sample_ovec(Stream(2, ("ov",)), FAM, (("a",), ()))
        shrunk = RectConfig(1, {MARK: Rect((Fraction(1, 5),), (Fraction(0),))}, "disjoint")
        with pytest.raises(OperadicError):
            OVecPoint(FAM, (shrunk, theta.points[1]))
        with pytest.raises(OperadicError):
            OVecPoint(FAM, (unit_config("a", 1, "disjoint"), theta.points[1]))

    def test_mu_unit_and_associativity(self):
        e = ovec_unit(FAM)
        for trial in range(10):
            rng = Stream(trial, ("ovmu",))
            p = sample_ovec(rng.split("p"), FAM, (("a",), ("b",)))
            q = sample_ovec(rng.split("q"), FAM, (("c",), ()))
            r = sample_ovec(rng.split("r"), FAM, ((), ("d",)))
            assert ovec_mu(e, p) == p
            assert ovec_mu(p, e) == p
            assert ovec_mu(ovec_mu(p, q), r) == ovec_mu(p, ovec_mu(q, r))

    @pytest.mark.parametrize("family", [FAM, COLLAPSE], ids=["cube-pad", "collapse"])
    def test_composites_pass_the_constructor(self, family):
        # ovec_compose_at and ovec_splice build their results without
        # OVecPoint's check; rebuilt through it, they come out equal
        made = 0
        for trial in range(20):
            rng = Stream(trial, ("ovcheck",))
            extras = [rng.split(("e", i)).randint(0, 2) for i in range(family.k)]
            theta = sample_ovec(rng.split("th"), family,
                                tuple(tuple(str(t + 2) for t in range(e)) for e in extras))
            child = sample_ovec(rng.split("ch"), family, (("2",), ()))
            results = [ovec_splice(theta, child)]
            for i, e in enumerate(extras):
                if e:
                    r = rng.split(("x", i))
                    x = family.components[i].sample(r, tuple(str(t + 1) for t in range(r.randint(0, 2))))
                    results.append(ovec_compose_at(theta, i, r.randint(2, e + 1), x))
            for res in results:
                assert replace(res) == res
            made += len(results)
        assert made >= 40

    def test_splice_rejects_another_family(self):
        theta = sample_ovec(Stream(3, ("ov",)), FAM, (("2",), ()))
        other = sample_ovec(Stream(4, ("ov",)), COLLAPSE, ((), ()))
        with pytest.raises(OperadicError):
            ovec_splice(theta, other)

    def test_unit_test_is_equality_with_the_unit(self):
        e = ovec_unit(FAM)
        assert is_unit_ovec(e) and is_unit_ovec(ovec_unit(COLLAPSE))
        verdicts = []
        for trial in range(10):
            theta = sample_ovec(Stream(trial, ("ovunit",)), FAM, ((), ()))
            verdicts.append(is_unit_ovec(theta))
            assert verdicts[-1] == (theta == e)
        assert not all(verdicts)


# ---------------------------------------------------------------------------
# componentwise and augmented product points


class TestProductPoints:
    def test_prod_action_axioms(self):
        model1, model2 = FAM.components
        for trial in range(10):
            rng = Stream(trial, ("pp",))
            p = ProductPoint(FAM, (
                model1.sample(rng.split("x1"), ("u", "v")),
                model2.sample(rng.split("x2"), ("w",)),
            ))
            theta = sample_ovec(rng.split("t"), FAM, (("a",), ("b",)))
            theta2 = sample_ovec(rng.split("t2"), FAM, (("c",), ()))
            lhs = prod_mu(ovec_mu(theta2, theta), p)
            rhs = prod_mu(theta2, prod_mu(theta, p))
            assert lhs == rhs
            y = model1.sample(rng.split("y"), ("m", "n"))
            left_then_right = prod_circ(prod_mu(theta, p), 0, "u", y)
            right_then_left = prod_mu(theta, prod_circ(p, 0, "u", y))
            assert left_then_right == right_then_left

    def test_aug_unit_fiber_acts_trivially(self):
        base = FAM.base
        unit_fiber = FiberPoint(
            FAM,
            PKFamily(("a",), (("a",), ("a",))),
            (unit_config("a", 1, "disjoint"), unit_config("a", 2, "disjoint")),
        )
        for trial in range(5):
            rng = Stream(trial, ("aug",))
            p = AugmentedPoint(FAM, (
                base.sample(rng.split("b1"), ("x", "y")),
                base.sample(rng.split("b2"), ("z",)),
            ))
            assert aug_mu_s(unit_fiber, {"a": p}) == p

    def test_aug_mu_shapes_and_pattern(self):
        base = FAM.base
        fiber = fiber_sample(8, PKFamily(("a", "b"), (("a", "b"), ("a",))))
        pa = AugmentedPoint(FAM, (base.sample(Stream(1, ("a1",)), ("x",)), base.sample(Stream(1, ("a2",)), ("y",))))
        pb = AugmentedPoint(FAM, (base.sample(Stream(2, ("b1",)), ("z",)), PLUS))
        out = aug_mu_s(fiber, {"a": pa, "b": pb})
        assert out.sets == (("x", "z"), ("y",))
        with pytest.raises(OperadicError):
            aug_mu_s(fiber, {"a": pa, "b": pa})

    def test_aug_circ_uses_family_map(self):
        base = FAM.base
        p = AugmentedPoint(FAM, (base.sample(Stream(3, ("c",)), ("x",)), PLUS))
        y = FAM.components[0].sample(Stream(4, ("y",)), ("r", "s"))
        out = aug_circ(p, 0, "x", y)
        assert out.sets == (("r", "s"), PLUS)
        with pytest.raises(OperadicError):
            aug_circ(p, 1, "x", y)


# ---------------------------------------------------------------------------
# glued rectangle elements


EV = GluedEvaluator(FAM)


class TestGlued:
    def test_unit_image_is_slab_stack(self):
        m = EV.unit_image(("p", "q"))
        slabs = cube_split(2, 3)
        for i, lbl in enumerate(("1:p", "2:q")):
            assert m.config.rect(lbl) == slabs.rect(str(i + 1))

    def test_unit_image_with_sentinel(self):
        m = EV.unit_image((PLUS, "q"))
        assert m.sets == (PLUS, ("q",))
        assert m.config.labels == ("2:q",)
        assert m.config.rect("2:q") == Rect((Fraction(1),) * 3, (Fraction(0),) * 3)

    def test_circ_composes_in_own_column(self):
        m = EV.unit_image(("p", "q"))
        y = FAM.components[1].sample(Stream(5, ("y",)), ("r", "s"))
        out = glued_circ(m, 1, "q", y)
        assert out.sets == (("p",), ("r", "s"))
        assert set(out.config.labels) == {"1:p", "2:r", "2:s"}
        with pytest.raises(OperadicError):
            glued_circ(m, 0, "q", y)

    def test_circ_associativity_mixed(self):
        rng = Stream(9, ("mix",))
        m = EV.unit_image(("p", "q"))
        y1 = FAM.components[0].sample(rng.split("y1"), ("a", "b"))
        y2 = FAM.components[1].sample(rng.split("y2"), ("c",))
        lhs = glued_circ(glued_circ(m, 0, "p", y1), 1, "q", y2)
        rhs = glued_circ(glued_circ(m, 1, "q", y2), 0, "p", y1)
        assert lhs == rhs
        z = FAM.components[0].sample(rng.split("z"), ("d",))
        seq1 = glued_circ(glued_circ(m, 0, "p", y1), 0, "a", z)
        seq2 = glued_circ(m, 0, "p", FAM.components[0].compose(y1, "a", z))
        assert seq1 == seq2

    def test_mu_s_unit_row(self):
        fiber = FiberPoint(
            FAM,
            PKFamily(("a",), (("a",), ("a",))),
            (unit_config("a", 1, "disjoint"), unit_config("a", 2, "disjoint")),
        )
        m = EV.unit_image(("p", "q"))
        assert glued_mu_s(fiber, {"a": m}) == m

    def test_mu_s_respects_sentinel_pattern(self):
        fiber = fiber_sample(10, PKFamily(("a",), (("a",), PLUS)))
        good = EV.unit_image(("p", PLUS))
        bad = EV.unit_image(("p", "q"))
        out = glued_mu_s(fiber, {"a": good})
        assert out.sets == (("p",), PLUS)
        with pytest.raises(OperadicError):
            glued_mu_s(fiber, {"a": bad})

    def test_direct_action_requires_full_presence(self):
        theta = sample_ovec(Stream(11, ("th",)), FAM, (("a",), ("b",)))
        partial = EV.unit_image(("p", PLUS))
        with pytest.raises(OperadicError):
            glued_mu_direct(theta, partial)

    def test_induced_action_matches_direct(self):
        for trial in range(15):
            rng = Stream(trial, ("ind",))
            sets = (
                tuple("ab"[: rng.split("n1").randint(0, 2)]),
                tuple("cd"[: rng.split("n2").randint(0, 2)]),
            )
            theta = sample_ovec(rng.split("t"), FAM, sets)
            slots = tuple("pq"[i] for i in range(2))
            m = EV.unit_image(slots)
            y = FAM.components[0].sample(rng.split("y"), ("w",))
            m = glued_circ(m, 0, "p", y)
            assert induced_infinitesimal(EV, theta, m) == glued_mu_direct(theta, m)

    def test_induced_action_unit_theta(self):
        m = EV.unit_image(("p", "q"))
        assert induced_infinitesimal(EV, ovec_unit(FAM), m) == m

    def test_labels_validated(self):
        m = EV.unit_image(("p", "q"))
        with pytest.raises(OperadicError):
            GluedElement(FAM, (("p",), ("q", "r")), m.config)
        with pytest.raises(OperadicError):
            GluedElement(FAM, (PLUS, PLUS), RectConfig(3, {}, "disjoint"))


# ---------------------------------------------------------------------------
# the decorated pointed-map category


GFAM = cube_family((1,), 2)


def gsample(seed, family, sources, targets):
    return sample_gamma(Stream(seed, ("g",)), family, sources, targets)


class TestGamma:
    def test_sampler_validates(self):
        g = gsample(1, GFAM, (("a", "b"),), (("u", "v"),))
        assert g.sources == (("*", "a", "b"),)
        assert g.targets == (("*", "u", "v"),)

    def test_identity_units(self):
        for trial in range(8):
            g = gsample(trial, GFAM, (("a", "b"),), (("u",),))
            ids = gamma_identity(GFAM, (("a", "b"),))
            idt = gamma_identity(GFAM, (("u",),))
            assert gamma_compose(ids, g) == g
            assert gamma_compose(g, idt) == g

    def test_associativity(self):
        for trial in range(10):
            g = gsample(3 * trial, GFAM, (("a", "b"),), (("u",),))
            h = gsample(3 * trial + 1, GFAM, (("u",),), (("v", "w"),))
            e = gsample(3 * trial + 2, GFAM, (("v", "w"),), (("z",),))
            assert gamma_compose(gamma_compose(g, h), e) == gamma_compose(g, gamma_compose(h, e))

    def test_associativity_two_components(self):
        fam = cube_family((1, 2), 3)
        for trial in range(6):
            g = gsample(7 * trial, fam, (("a",), ("b", "c")), (("u",), ("v",)))
            h = gsample(7 * trial + 1, fam, (("u",), ("v",)), ((), ("w",)))
            e = gsample(7 * trial + 2, fam, ((), ("w",)), (("z",), ("z",)))
            assert gamma_compose(gamma_compose(g, h), e) == gamma_compose(g, gamma_compose(h, e))

    def test_embedding_translation_is_functorial(self):
        for trial in range(10):
            g = gsample(5 * trial, GFAM, (("a", "b"),), (("u",),))
            h = gsample(5 * trial + 1, GFAM, (("u",),), (("v", "w"),))
            e1, e2 = gamma_to_semb(g), gamma_to_semb(h)
            assert validate_embedding(e1).ok and validate_embedding(e2).ok
            assert gamma_to_semb(gamma_compose(g, h)) == semb_compose(e1, e2)

    def test_embedding_translation_identity(self):
        from operadic.exactgeom import identity_embedding

        ide = gamma_identity(GFAM, (("a", "b"),))
        assert gamma_to_semb(ide) == identity_embedding(1, ("*", "a", "b"))

    def test_fiber_condition_enforced(self):
        g = gsample(13, GFAM, (("a",),), (("u",),))
        arrow = g.arrows[0]
        decor = dict(arrow.decor)
        decor[MARK] = RectConfig(1, {MARK: Rect((Fraction(1, 7),), (Fraction(0),))}, "disjoint")
        fam2 = cube_family((1, 1), 2)
        a1 = GammaComponent(GFAM.components[0], ("a", MARK), ("u", MARK), dict(arrow.alpha), decor)
        good = dict(arrow.decor)
        with pytest.raises(OperadicError):
            GammaMorphism(fam2, (a1, GammaComponent(
                GFAM.components[0], ("a", MARK), ("u", MARK), dict(arrow.alpha), good)))

    def test_component_validation(self):
        model = operad_model("cube:1")
        with pytest.raises(OperadicError):
            GammaComponent(model, ("a", MARK), (MARK,), {"a": MARK, MARK: "a"},
                           {MARK: unit_config(MARK, 1, "disjoint")})
        with pytest.raises(OperadicError):
            GammaComponent(model, ("a", MARK), (MARK,), {"a": MARK, MARK: MARK},
                           {MARK: unit_config(MARK, 1, "disjoint")})

    def test_collapse_family_reduces_to_pointed_maps(self):
        fam = collapse_family((operad_model("terminal"),))
        model = fam.components[0]

        def arrow(src, tgt, amap):
            fibers = {}
            for a, b in amap.items():
                fibers.setdefault(b, set()).add(a)
            decor = {b: frozenset(fibers.get(b, set())) for b in tgt}
            return GammaMorphism(fam, (GammaComponent(model, src, tgt, amap, decor),))

        g = arrow(("a", "b", MARK), ("u", MARK), {"a": "u", "b": MARK, MARK: MARK})
        h = arrow(("u", MARK), ("v", MARK), {"u": MARK, MARK: MARK})
        gh = gamma_compose(g, h)
        want = {a: dict(h.arrows[0].alpha)[dict(g.arrows[0].alpha)[a]] for a in ("a", "b", MARK)}
        assert dict(gh.arrows[0].alpha) == want


class TestGlueFunctor:
    def test_object_size(self):
        fam = cube_family((1, 2), 3)
        obj = gamma_object_glue(fam, ((MARK, "a"), (MARK, "b")))
        assert len(obj) == 3
        assert obj == (MARK, qualify(0, "a"), qualify(1, "b"))

    def test_identity(self):
        fam = cube_family((1, 2), 3)
        ide = gamma_identity(fam, (("a",), ("b", "c")))
        glued = gamma_glue(ide)
        obj = gamma_object_glue(fam, ide.sources)
        want = gamma_identity(identity_family(fam.base), (obj,))
        assert glued.arrows[0].alpha == want.arrows[0].alpha
        assert glued.sources == want.sources

    def test_functorial(self):
        fam = cube_family((1, 2), 3)
        for trial in range(8):
            g = gsample(11 * trial, fam, (("a", "b"), ("c",)), (("u",), ("v",)))
            h = gsample(11 * trial + 1, fam, (("u",), ("v",)), (("w",), ()))
            assert gamma_glue(gamma_compose(g, h)) == gamma_compose(gamma_glue(g), gamma_glue(h))

    def test_marked_decoration_is_fused_stack(self):
        fam = cube_family((1, 2), 3)
        ide = gamma_identity(fam, ((), ()))
        glued = gamma_glue(ide)
        star = glued.arrows[0].decoration(MARK)
        assert star.labels == (MARK,)
        assert star.rect(MARK) == Rect((Fraction(1),) * 3, (Fraction(0),) * 3)


# ---------------------------------------------------------------------------
# single-slot versus indexed-slot actions


class TestConvert:
    @pytest.mark.parametrize("name", ["sym", "cube:2", "rect:1"])
    def test_matches_native_composition(self, name):
        model = operad_model(name)
        for trial in range(25):
            rng = Stream(trial, ("conv", name))
            n = rng.split("n").randint(1, 4)
            lo = 0 if name == "sym" else 1
            m = rng.split("m").randint(lo, 3)
            i = rng.split("i").randint(1, n)
            x = model.sample(rng.split("x"), numeric_labels(n))
            y = model.sample(rng.split("y"), numeric_labels(m))
            assert convert_onefold(model, "from-single", x, y, i) == compose_at(model, x, i, y)
            assert convert_onefold(model, "from-indexed", x, y, i) == compose_at(model, x, 1, y)

    def test_slot_one_is_identity_conversion(self):
        model = operad_model("sym")
        x, y = ("2", "1", "3"), ("1", "2")
        assert convert_onefold(model, "from-single", x, y, 1) == compose_at(model, x, 1, y)
        assert convert_onefold(model, "from-indexed", x, y, 1) == compose_at(model, x, 1, y)

    def test_bad_inputs(self):
        model = operad_model("sym")
        with pytest.raises(OperadicError):
            convert_onefold(model, "from-single", ("1", "2"), ("1",), 3)
        with pytest.raises(OperadicError):
            convert_onefold(model, "sideways", ("1",), ("1",), 1)
        with pytest.raises(OperadicError):
            convert_onefold(model, "from-single", ("a",), ("1",), 1)
