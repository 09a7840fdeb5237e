"""Geometry core: independent oracles first, then pinned examples and axioms."""

import json
from fractions import Fraction
from itertools import combinations

import pytest
import sympy as sp
from hypothesis import Phase, given, settings
from hypothesis import strategies as st

from operadic.algebra import act_numeric, operad_model
from operadic.errors import OperadicError
from operadic.exactgeom import (
    MARK,
    Cube,
    MarkedFiberConfig,
    Rect,
    RectConfig,
    ValidationResult,
    _intervals,
    _overlap_graph,
    bounding_rect,
    common_box,
    cube_split,
    epsilon_glue,
    fm_coords,
    glue_shared,
    identity_embedding,
    include_rect,
    label_key,
    pad_rect,
    rat,
    rect_compose,
    rects_overlap,
    regime_kind,
    regime_parse,
    regime_str,
    semb_compose,
    unit_config,
    validate_config,
    validate_embedding,
    StandardEmbedding,
)
from operadic.rng import Stream
from operadic.sampling import (
    sample_cube_config,
    sample_disjoint_config,
    sample_marked_fiber,
    sample_moverlap_config,
    sample_overlapping_config,
    sample_rect,
)
from samplers import sample_perm

# ---------------------------------------------------------------------------
# builders and samplers of test data


def config_from_seq(dim: int, rect_list, regime="overlapping") -> RectConfig:
    """Labels "1", "2", ... in the given order."""
    return RectConfig(dim, {str(i + 1): r for i, r in enumerate(rect_list)}, regime)


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


# ---------------------------------------------------------------------------
# oracles (independent implementations used to check the engine)


def oracle_compose_rect(outer: Rect, inner: Rect) -> Rect:
    """Symbolic affine substitution, axis by axis."""
    t = sp.Symbol("t")
    scales, offsets = [], []
    for a, b, a2, b2 in zip(outer.scales, outer.offsets, inner.scales, inner.offsets):
        expr = sp.expand(sp.Rational(a.numerator, a.denominator) * (sp.Rational(a2.numerator, a2.denominator) * t + sp.Rational(b2.numerator, b2.denominator)) + sp.Rational(b.numerator, b.denominator))
        coeff1 = sp.Rational(expr.coeff(t, 1))
        coeff0 = sp.Rational(expr.coeff(t, 0))
        scales.append(Fraction(int(coeff1.p), int(coeff1.q)))
        offsets.append(Fraction(int(coeff0.p), int(coeff0.q)))
    return Rect(tuple(scales), tuple(offsets))


def oracle_overlap(r1: Rect, r2: Rect) -> bool:
    """Open-box intersection via sympy set algebra."""
    for j in range(r1.dim):
        lo1, hi1 = r1.axis_interval(j)
        lo2, hi2 = r2.axis_interval(j)
        i1 = sp.Interval.open(sp.Rational(lo1.numerator, lo1.denominator), sp.Rational(hi1.numerator, hi1.denominator))
        i2 = sp.Interval.open(sp.Rational(lo2.numerator, lo2.denominator), sp.Rational(hi2.numerator, hi2.denominator))
        if i1.intersect(i2) is sp.EmptySet or i1.intersect(i2) == sp.EmptySet:
            return False
    return True


def oracle_meet(rects) -> bool:
    """Do the open boxes share a point?  Axis by axis, the largest low end
    must lie below the smallest high end."""
    return all(
        max(r.offsets[j] for r in rects) < min(r.offsets[j] + r.scales[j] for r in rects)
        for j in range(len(rects[0].offsets))
    )


def oracle_validate(config: RectConfig, regime) -> ValidationResult:
    """The brute-force subset scan: every subset a regime forbids, in
    `combinations` order over `config.rects` (over the blocks for u-overlap);
    the first one with a common open point is the witness."""
    for lbl, r in config.rects:
        if not all(b >= 0 and a + b <= 1 for a, b in zip(r.scales, r.offsets)):
            return ValidationResult(False, "containment", (lbl,))
    kind = regime if isinstance(regime, str) else regime[0]
    items = config.rects
    if kind == "overlapping":
        return ValidationResult(True)
    if kind in ("disjoint", "m-overlap"):
        size = 2 if kind == "disjoint" else regime[1]
        for subset in combinations(items, size):
            if oracle_meet([r for _, r in subset]):
                reason = "disjointness" if kind == "disjoint" else "m-overlap"
                return ValidationResult(False, reason, tuple(lbl for lbl, _ in subset))
        return ValidationResult(True)
    _, blocks, u = regime
    if sorted((lbl for block in blocks for lbl in block), key=label_key) != list(config.labels):
        return ValidationResult(False, "u-overlap-blocks", config.labels)
    rects = dict(items)
    for p in range(len(blocks)):
        for q in range(p, len(blocks)):
            bound = u.get((p, q), "inf")
            if bound == "inf":
                continue
            for a in blocks[p]:
                for chosen in combinations([b for b in blocks[q] if b != a], bound):
                    if oracle_meet([rects[a]] + [rects[b] for b in chosen]):
                        return ValidationResult(False, "u-overlap", (a,) + chosen)
    return ValidationResult(True)


def grid_config(rng: Stream, dim: int, labels) -> RectConfig:
    """Boxes with corners on the eighth grid of the unit cube, so that they
    touch, nest and repeat; now and then one sticks out of the cube."""
    rects = {}
    for lbl in labels:
        r = rng.split(lbl)
        if rects and r.randint(0, 3) == 0:
            rects[lbl] = r.choice(list(rects.values()))
            continue
        scales, offsets = [], []
        for _ in range(dim):
            lo = r.randint(0, 7)
            hi = r.randint(lo + 1, 9 if r.randint(0, 40) == 0 else 8)
            scales.append(Fraction(hi - lo, 8))
            offsets.append(Fraction(lo, 8))
        rects[lbl] = Rect(tuple(scales), tuple(offsets))
    return RectConfig(dim, rects)


def grid_u_regime(rng: Stream, labels):
    """1-3 blocks over the shuffled labels (rarely missing one), with
    bounds in {0, 1, 2, "inf"} and some pairs left to the default."""
    order = rng.shuffle(labels)
    if order and rng.randint(0, 9) == 0:
        order = order[1:]
    n_blocks = rng.randint(1, 3)
    cuts = sorted(rng.randint(0, len(order)) for _ in range(n_blocks - 1))
    blocks = tuple(tuple(order[s:e]) for s, e in zip([0] + cuts, cuts + [len(order)]))
    u = {(p, q): rng.choice((0, 1, 2, 2, "inf"))
         for p in range(n_blocks) for q in range(p, n_blocks) if rng.randint(0, 4)}
    return ("u-overlap", blocks, u)


def perm_block_compose(sigma: tuple, i: int, m: int) -> tuple:
    """Insert an identity block of size m at input i of the permutation."""
    n = len(sigma)
    out = []
    for j in range(1, n + m):
        if j < i:
            s = sigma[j - 1]
        elif j < i + m:
            out.append(sigma[i - 1] + (j - i))
            continue
        else:
            s = sigma[j - m]
        out.append(s if s < sigma[i - 1] else s + m - 1)
    return tuple(out)


# ---------------------------------------------------------------------------
# pinned examples


def seq1(*pairs) -> RectConfig:
    return config_from_seq(1, [Rect((rat(a),), (rat(b),)) for a, b in pairs])


class TestPinnedExamples:
    def test_interval_self_composition(self):
        x = seq1(("1/2", 0), ("1/2", "1/2"))
        out = rect_compose(x, 1, x)
        assert out == seq1(("1/4", 0), ("1/4", "1/4"), ("1/2", "1/2"))

    def test_cube_split_2_2(self):
        out = cube_split(2, 2)
        assert out.rect("1") == Rect((1, Fraction(1, 2)), (0, 0))
        assert out.rect("2") == Rect((1, Fraction(1, 2)), (0, Fraction(1, 2)))

    def test_include_rect_cube_mode(self):
        cfg = seq1(("1/2", 0))
        out = include_rect(cfg, 2, "cube")
        assert out.rect("1") == Rect((Fraction(1, 2), Fraction(1, 2)), (0, Fraction(1, 4)))

    def test_include_rect_cube_mode_rejects_non_cube(self):
        cfg = RectConfig(2, {"1": Rect((Fraction(1, 2), Fraction(1, 3)), (0, 0))})
        with pytest.raises(OperadicError):
            include_rect(cfg, 3, "cube")

    def test_fm_ratio_example(self):
        coords = fm_coords([(0,), (1,), (3,)])
        assert coords.ratio_square(1, 2, 3) == Fraction(1, 9)
        assert coords.direction(1, 2) == (Fraction(1),)
        assert coords.direction(2, 1) == (Fraction(-1),)


# ---------------------------------------------------------------------------
# composition against the symbolic oracle


class TestComposeOracle:
    def test_rect_composition_matches_sympy(self):
        rng = Stream(11, ("compose-oracle",))
        for trial in range(40):
            t = rng.split(trial)
            dim = t.randint(1, 3)
            outer, inner = sample_rect(t.split("o"), dim), sample_rect(t.split("i"), dim)
            assert outer.compose(inner) == oracle_compose_rect(outer, inner)

    def test_config_composition_composes_socket(self):
        rng = Stream(12, ("socket",))
        for trial in range(20):
            t = rng.split(trial)
            dim = t.randint(1, 2)
            outer = sample_overlapping_config(t.split("o"), dim, ["1", "2", "3"])
            inner = sample_overlapping_config(t.split("i"), dim, ["4", "5"])
            out = rect_compose(outer, "2", inner)
            assert sorted(out.labels) == ["1", "3", "4", "5"]
            for lbl in ("4", "5"):
                assert out.rect(lbl) == oracle_compose_rect(outer.rect("2"), inner.rect(lbl))
            assert out.rect("1") == outer.rect("1")

    def test_label_collision_raises(self):
        cfg = RectConfig(1, {"1": Rect((Fraction(1, 2),), (0,)), "2": Rect((Fraction(1, 4),), (Fraction(1, 2),))})
        with pytest.raises(OperadicError):
            rect_compose(cfg, "1", cfg)

    def test_missing_slot_and_dim_mismatch(self):
        x = unit_config("1", 1)
        with pytest.raises(OperadicError):
            rect_compose(x, "9", x)
        with pytest.raises(OperadicError):
            rect_compose(x, "1", unit_config("2", 2))


# ---------------------------------------------------------------------------
# operad axioms


class TestOperadAxioms:
    def test_nested_associativity_set_indexed(self):
        rng = Stream(13, ("assoc-nested",))
        for trial in range(30):
            t = rng.split(trial)
            dim = t.randint(1, 3)
            x = sample_overlapping_config(t.split("x"), dim, ["a", "b"])
            y = sample_overlapping_config(t.split("y"), dim, ["c", "d"])
            z = sample_overlapping_config(t.split("z"), dim, ["e"])
            lhs = rect_compose(rect_compose(x, "a", y), "c", z)
            rhs = rect_compose(x, "a", rect_compose(y, "c", z))
            assert lhs == rhs

    def test_disjoint_slots_commute(self):
        rng = Stream(14, ("assoc-disjoint",))
        for trial in range(30):
            t = rng.split(trial)
            dim = t.randint(1, 3)
            x = sample_overlapping_config(t.split("x"), dim, ["a", "b", "c"])
            y = sample_overlapping_config(t.split("y"), dim, ["d"])
            z = sample_overlapping_config(t.split("z"), dim, ["e", "f"])
            lhs = rect_compose(rect_compose(x, "a", y), "c", z)
            rhs = rect_compose(rect_compose(x, "c", z), "a", y)
            assert lhs == rhs

    def test_units(self):
        rng = Stream(15, ("units",))
        for trial in range(20):
            t = rng.split(trial)
            dim = t.randint(1, 3)
            x = sample_overlapping_config(t.split("x"), dim, ["a", "b"])
            assert rect_compose(x, "a", unit_config("a", dim)) == x
            assert rect_compose(unit_config("u", dim), "u", x) == x

    def test_skeletal_equivariance(self):
        rng = Stream(16, ("equivariance",))
        for trial in range(30):
            t = rng.split(trial)
            dim = t.randint(1, 2)
            n, m = t.randint(1, 4), t.randint(0, 3)
            x = sample_overlapping_config(t.split("x"), dim, [str(j) for j in range(1, n + 1)])
            y = sample_overlapping_config(t.split("y"), dim, [str(j) for j in range(1, m + 1)])
            sigma = sample_perm(t.split("s"), n)
            i = t.randint(1, n)
            model = operad_model("rect-inf:%d" % dim)
            lhs = rect_compose(act_numeric(model, x, sigma), i, y)
            rhs = act_numeric(model, rect_compose(x, sigma[i - 1], y), perm_block_compose(sigma, i, m))
            assert lhs == rhs

    def test_arity_zero_removes_slot(self):
        x = seq1(("1/2", 0), ("1/2", "1/2"))
        out = rect_compose(x, 1, RectConfig(1, {}))
        assert out == seq1(("1/2", "1/2"))


# ---------------------------------------------------------------------------
# regimes


class TestRegimes:
    def test_disjoint_validator_matches_sympy(self):
        rng = Stream(17, ("disjoint-oracle",))
        for trial in range(25):
            t = rng.split(trial)
            dim = t.randint(1, 2)
            cfg = sample_overlapping_config(t.split("cfg"), dim, ["1", "2", "3"])
            expect = all(
                not oracle_overlap(cfg.rect(a), cfg.rect(b))
                for idx, a in enumerate(cfg.labels)
                for b in cfg.labels[idx + 1 :]
            )
            assert bool(validate_config(cfg, "disjoint")) == expect

    def test_sampled_regimes_validate(self):
        rng = Stream(18, ("regimes",))
        for trial in range(20):
            t = rng.split(trial)
            dim = t.randint(1, 3)
            dis = sample_disjoint_config(t.split("d"), dim, ["1", "2", "3", "4"])
            assert validate_config(dis, "disjoint")
            mo = sample_moverlap_config(t.split("m"), dim, ["1", "2", "3", "4", "5"], 3)
            assert validate_config(mo, ("m-overlap", 3))

    def test_validate_config_matches_subset_scan(self):
        # the whole ValidationResult, witness order included, on touching,
        # nested and repeated grid boxes inserted in shuffled label order
        rng = Stream(23, ("subset-scan",))
        pool = [str(t) for t in range(1, 13)] + ["a", "b"]
        outcomes = set()
        for trial in range(300):
            t = rng.split(trial)
            labels = t.shuffle(pool)[: t.randint(0, 9)]
            cfg = grid_config(t.split("cfg"), t.randint(1, 3), labels)
            regimes = ["disjoint"] + [("m-overlap", m) for m in (1, 2, 3, 4, len(labels) + 1)]
            regimes += [grid_u_regime(t.split(("u", k)), labels) for k in range(2)]
            for regime in regimes:
                got = validate_config(cfg, regime)
                assert got == oracle_validate(cfg, regime), (cfg, regime)
                outcomes.add((regime_kind(regime), got.reason))
        for kind, reason in (("disjoint", "disjointness"), ("m-overlap", "m-overlap"),
                             ("u-overlap", "u-overlap"), ("u-overlap", "u-overlap-blocks")):
            assert {(kind, ""), (kind, reason), (kind, "containment")} <= outcomes

    def test_overlap_graph_and_cliques_match_the_box_primitives(self):
        # rects_overlap and common_box as the oracle: the sweep's adjacency is
        # pairwise overlap, and m-overlap fails exactly when some m-subset
        # has a common box
        rng = Stream(25, ("box-primitives",))
        checked = set()
        for trial in range(120):
            t = rng.split(trial)
            cfg = grid_config(t.split("cfg"), t.randint(1, 3), [str(j + 1) for j in range(t.randint(0, 8))])
            rects = [r for _, r in cfg.rects]
            assert _overlap_graph([_intervals(r) for r in rects]) == [
                {j for j, s in enumerate(rects) if j != i and rects_overlap(r, s)}
                for i, r in enumerate(rects)
            ]
            if not all(r.in_unit() for r in rects):
                continue
            for m in range(1, len(rects) + 2):
                boxed = any(common_box(subset) for subset in combinations(rects, m))
                assert bool(validate_config(cfg, ("m-overlap", m))) != boxed
                checked.add(boxed)
        assert checked == {True, False}

    def test_moverlap_at_scale(self):
        # a subset scan took over 14 s on one valid (28, 6) configuration
        m = 6
        for n in (28, 40):
            labels = [str(t + 1) for t in range(n)]
            cfg = sample_moverlap_config(Stream(24, ("scale", n)), 2, labels, m)
            assert validate_config(cfg)
            # shrunken copies of one rectangle on the last m - 1 labels
            rects = dict(cfg.rects)
            base = rects[labels[n // 3]]
            for j in range(1, m):
                f = Fraction(8 - j, 8)
                rects[labels[-j]] = Rect(tuple(a * f for a in base.scales),
                                         tuple(b + a * (1 - f) / 2 for a, b in zip(base.scales, base.offsets)))
            res = validate_config(RectConfig(2, rects, cfg.regime))
            assert not res and res.reason == "m-overlap" and len(set(res.witness)) == m
            chosen = [rects[lbl] for lbl in res.witness]
            point = [(max(r.offsets[j] for r in chosen) + min(r.offsets[j] + r.scales[j] for r in chosen)) / 2
                     for j in range(2)]
            assert all(r.offsets[j] < point[j] < r.offsets[j] + r.scales[j] for r in chosen for j in range(2))

    def test_moverlap_witness(self):
        base = Rect((Fraction(1, 2),), (Fraction(1, 4),))
        cfg = RectConfig(1, {"1": base, "2": base, "3": base})
        res = validate_config(cfg, ("m-overlap", 3))
        assert not res and res.reason == "m-overlap" and set(res.witness) == {"1", "2", "3"}
        assert validate_config(cfg, ("m-overlap", 4))  # no 4-subset exists

    def test_containment_witness(self):
        cfg = RectConfig(1, {"1": Rect((Fraction(2),), (0,))})
        res = validate_config(cfg, "overlapping")
        assert not res and res.reason == "containment" and res.witness == ("1",)

    def test_disjoint_closed_under_composition(self):
        rng = Stream(19, ("closure",))
        for trial in range(15):
            t = rng.split(trial)
            dim = t.randint(1, 2)
            x = sample_disjoint_config(t.split("x"), dim, ["1", "2", "3"])
            y = sample_disjoint_config(t.split("y"), dim, ["4", "5"])
            assert validate_config(rect_compose(x, "2", y), "disjoint")

    def test_moverlap_closed_under_disjoint_insertions(self):
        rng = Stream(20, ("m-closure",))
        for trial in range(15):
            t = rng.split(trial)
            dim = t.randint(1, 2)
            m = 3
            mo = sample_moverlap_config(t.split("m"), dim, ["1", "2", "3", "4"], m)
            dis = sample_disjoint_config(t.split("d"), dim, ["5", "6"])
            assert validate_config(rect_compose(mo, "2", dis), ("m-overlap", m))
            outer = sample_disjoint_config(t.split("o"), dim, ["7", "8"])
            assert validate_config(rect_compose(outer, "7", mo), ("m-overlap", m))

    def test_moverlap_sample_without_labels(self):
        # no labels make no groups: the empty configuration, which the
        # subset scan accepts as it forbids no subset
        for dim in (1, 2):
            cfg = sample_moverlap_config(Stream(29, ("m-empty", dim)), dim, [], 3)
            assert cfg == RectConfig(dim, {}, ("m-overlap", 3)) and cfg.labels == ()
            assert validate_config(cfg) == oracle_validate(cfg, ("m-overlap", 3)) == ValidationResult(True)

    def test_u_overlap_blocks(self):
        # two blocks; the pair bound u[1,2] = 1 forbids any overlap across blocks
        r1 = Rect((Fraction(1, 2),), (0,))
        r2 = Rect((Fraction(1, 2),), (Fraction(1, 4),))
        cfg = RectConfig(1, {"a": r1, "b": r2})
        regime = ("u-overlap", (("a",), ("b",)), {(0, 0): "inf", (0, 1): 1, (1, 1): "inf"})
        res = validate_config(cfg, regime)
        assert not res and res.reason == "u-overlap" and res.witness == ("a", "b")
        apart = RectConfig(1, {"a": r1, "b": Rect((Fraction(1, 4),), (Fraction(3, 4),))})
        assert validate_config(apart, regime)

    def test_u_overlap_same_block_excludes_self(self):
        # u[1,1] = 1: pairwise disjoint within the block, self not counted
        r1 = Rect((Fraction(1, 4),), (0,))
        r2 = Rect((Fraction(1, 4),), (Fraction(1, 2),))
        cfg = RectConfig(1, {"a": r1, "b": r2})
        regime = ("u-overlap", (("a", "b"),), {(0, 0): 1})
        assert validate_config(cfg, regime)

    def test_regime_string_round_trip(self):
        for regime in (
            "overlapping",
            "disjoint",
            ("m-overlap", 3),
            ("u-overlap", (("a", "b"), ("c",)), {(0, 0): 2, (0, 1): "inf", (1, 1): 1}),
        ):
            assert regime_parse(regime_str(regime)) == regime

    @settings(max_examples=60, deadline=None, derandomize=True, database=None,
              phases=(Phase.explicit, Phase.generate))
    @given(st.data())
    def test_u_overlap_round_trip_with_many_blocks(self, data):
        # ten or more blocks need the "p:q" separator to survive a round trip
        sizes = data.draw(st.lists(st.integers(1, 2), min_size=1, max_size=12))
        blocks = tuple(tuple("%d.%d" % (p, j) for j in range(n)) for p, n in enumerate(sizes))
        bounds = st.one_of(st.integers(0, 12), st.just("inf"))
        u = {(p, q): data.draw(bounds) for p in range(len(blocks)) for q in range(p, len(blocks))}
        regime = ("u-overlap", blocks, u)
        assert regime_parse(regime_str(regime)) == regime
        cfg = RectConfig(1, {}, regime)
        assert RectConfig.from_json(json.dumps(cfg.to_json())) == cfg

    def test_legacy_u_overlap_bounds_are_read(self):
        legacy = regime_parse("u-overlap(a|b;11=1,12=inf,22=2)")
        assert legacy == ("u-overlap", (("a",), ("b",)), {(0, 0): 1, (0, 1): "inf", (1, 1): 2})
        assert regime_str(legacy) == "u-overlap(a|b;1:1=1,1:2=inf,2:2=2)"


# ---------------------------------------------------------------------------
# paddings


class TestPadding:
    def test_include_rect_is_an_operad_map(self):
        rng = Stream(21, ("padding",))
        for trial in range(20):
            t = rng.split(trial)
            dim = t.randint(1, 2)
            dim2 = dim + t.randint(1, 2)
            x = sample_overlapping_config(t.split("x"), dim, ["a", "b"])
            y = sample_overlapping_config(t.split("y"), dim, ["c"])
            lhs = include_rect(rect_compose(x, "a", y), dim2, "rect")
            rhs = rect_compose(include_rect(x, dim2, "rect"), "a", include_rect(y, dim2, "rect"))
            assert lhs == rhs
            xc = sample_cube_config(t.split("xc"), dim, ["a", "b"])
            yc = sample_cube_config(t.split("yc"), dim, ["c"])
            lhs = include_rect(rect_compose(xc, "a", yc), dim2, "cube")
            rhs = rect_compose(include_rect(xc, dim2, "cube"), "a", include_rect(yc, dim2, "cube"))
            assert lhs == rhs

    def test_pad_rect_values(self):
        r = Cube(Fraction(1, 3), (Fraction(1, 3),))
        assert pad_rect(r, 2, "rect") == Rect((Fraction(1, 3), 1), (Fraction(1, 3), 0))
        assert pad_rect(r, 2, "cube") == Rect((Fraction(1, 3), Fraction(1, 3)), (Fraction(1, 3), Fraction(1, 3)))


# ---------------------------------------------------------------------------
# glueing


class TestEpsilonGlue:
    def _sample(self, t, with_absent=False):
        dims = (1, 2)
        n = 3
        sizes = (t.randint(0, 2), t.randint(0, 2))
        labels = (
            ["a%d" % j for j in range(sizes[0])],
            ["b%d" % j for j in range(sizes[1])],
        )
        present = None
        if with_absent and t.maybe():
            present = (t.randint(0, 1),)
        return sample_marked_fiber(t, dims, n, labels, present=present)

    def test_glue_postconditions(self):
        rng = Stream(22, ("glue",))
        for trial in range(30):
            t = rng.split(trial)
            f = self._sample(t)
            out = epsilon_glue(f)
            assert validate_config(out, "disjoint")
            expected_arity = 1 + sum(c.arity - 1 for c in f.configs if c is not None)
            assert out.arity == expected_arity
            assert out.has(MARK)

    def test_glue_partial_variant(self):
        rng = Stream(23, ("glue-partial",))
        for trial in range(20):
            t = rng.split(trial)
            f = self._sample(t, with_absent=True)
            out = epsilon_glue(f)
            assert validate_config(out, "disjoint")
            assert out.arity == 1 + sum(c.arity - 1 for c in f.configs if c is not None)

    def test_glue_equivariance(self):
        rng = Stream(24, ("glue-sigma",))
        for trial in range(20):
            t = rng.split(trial)
            f = self._sample(t)
            out = epsilon_glue(f)
            renamed = MarkedFiberConfig(
                f.dims,
                f.ambient,
                tuple(c.relabel({lbl: lbl + "x" for lbl in c.labels if lbl != MARK}) if c else None for c in f.configs),
            )
            expect = out.relabel({lbl: lbl + "x" for lbl in out.labels if lbl != MARK})
            assert epsilon_glue(renamed) == expect

    def test_glue_all_units_is_identity(self):
        f = MarkedFiberConfig((1, 2), 3, (unit_config(MARK, 1), unit_config(MARK, 2)))
        out = epsilon_glue(f)
        assert out == RectConfig(3, {MARK: Rect.identity(3)}, "disjoint")

    def test_glue_marked_union_is_exact(self):
        rng = Stream(25, ("glue-union",))
        for trial in range(20):
            t = rng.split(trial)
            f = self._sample(t)
            out = epsilon_glue(f)
            # the fused rectangle equals the union of the placed marked ones:
            # sample rational probe points inside the fused box and verify one
            # of the placed marked rectangles contains each probe
            placed = []
            slab_count = len(f.present)
            for pos, i in enumerate(f.present):
                cfg = f.configs[i]
                from operadic.exactgeom import embed_component

                placed_cfg = embed_component(cfg, f.dims[-1], f.ambient)
                slab = cube_split(slab_count, f.ambient).rect(str(pos + 1))
                placed.append(slab.compose(placed_cfg.rect(MARK)))
            fused = out.rect(MARK)
            probe_rng = t.split("probe")
            for _ in range(10):
                probe = tuple(
                    lo + (hi - lo) * Fraction(probe_rng.randint(1, 15), 16)
                    for lo, hi in (fused.axis_interval(j) for j in range(f.ambient))
                )
                hit = any(
                    all(lo < c < hi for c, (lo, hi) in zip(probe, (r.axis_interval(j) for j in range(f.ambient))))
                    for r in placed
                )
                boundary = any(
                    any(c == lo or c == hi for c, (lo, hi) in zip(probe, (r.axis_interval(j) for j in range(f.ambient))))
                    for r in placed
                )
                assert hit or boundary

    def test_fiber_condition_enforced(self):
        c1 = unit_config(MARK, 1)
        bad = RectConfig(2, {MARK: Cube(Fraction(1, 2), (0, 0))})
        with pytest.raises(OperadicError):
            MarkedFiberConfig((1, 2), 3, (c1, bad))

    def test_ambient_dimension_enforced(self):
        with pytest.raises(OperadicError):
            MarkedFiberConfig((1, 3), 3, (unit_config(MARK, 1), unit_config(MARK, 3)))

    def test_glue_shared_labels(self):
        rng = Stream(26, ("glue-shared",))
        for trial in range(15):
            t = rng.split(trial)
            # one shared label "s" across both components plus private labels
            f = sample_marked_fiber(t, (1, 2), 3, (["p"], ["q"]))
            shared = tuple(
                c.relabel({MARK: "s"}) if c is not None else None for c in f.configs
            )
            out = glue_shared((1, 2), 3, shared)
            assert validate_config(out, "disjoint")
            assert sorted(out.labels) == ["p", "q", "s"]

    def test_glue_shared_rejects_misaligned(self):
        a = RectConfig(1, {"s": Cube(Fraction(1, 2), (0,))})
        b = RectConfig(2, {"s": Cube(Fraction(1, 2), (Fraction(1, 2), Fraction(1, 4)))})
        with pytest.raises(OperadicError):
            glue_shared((1, 2), 3, (a, b))


# ---------------------------------------------------------------------------
# configuration-space coordinates


class TestFM:
    def test_antisymmetry_and_reciprocal(self):
        rng = Stream(27, ("fm",))
        for trial in range(15):
            t = rng.split(trial)
            n, dim = t.randint(2, 4), t.randint(1, 3)
            pts = sample_points(t, n, dim)
            coords = fm_coords(pts)
            for (i, j), vec in coords.directions:
                assert coords.direction(j, i) == tuple(-c for c in vec)
            for (i, j, k), val in coords.ratio_squares:
                other = coords.ratio_square(i, k, j)
                assert val > 0
                assert val * other == 1

    def test_rejects_coincident_points(self):
        with pytest.raises(OperadicError):
            fm_coords([(0, 0), (0, 0)])

    def test_json_shape(self):
        data = fm_coords([(0,), (1,)]).to_json()
        assert data["directions"]["1,2"] == ["1"]
        assert data["ratioSquares"] == {}


# ---------------------------------------------------------------------------
# standard embeddings


class TestEmbeddings:
    def _embedding_from_configs(self, dim, inner_cfg: RectConfig) -> StandardEmbedding:
        """One target cube "t"; inner configuration placed inside it."""
        src = tuple(inner_cfg.labels) + (MARK,)
        tgt = ("t", MARK)
        alpha = {lbl: "t" for lbl in inner_cfg.labels}
        alpha[MARK] = MARK
        maps = {lbl: (inner_cfg.rect(lbl).scales[0], inner_cfg.rect(lbl).offsets) for lbl in inner_cfg.labels}
        maps[MARK] = (Fraction(1), tuple(Fraction(0) for _ in range(dim)))
        return StandardEmbedding(dim, src, tgt, alpha, maps)

    def test_identity_and_associativity(self):
        rng = Stream(28, ("semb",))
        for trial in range(10):
            t = rng.split(trial)
            dim = t.randint(1, 2)
            cfg = sample_cube_config(t.split("c"), dim, ["1", "2"])
            f = self._embedding_from_configs(dim, cfg)
            ident_src = identity_embedding(dim, f.source)
            ident_tgt = identity_embedding(dim, f.target)
            assert semb_compose(ident_src, f) == f
            assert semb_compose(f, ident_tgt) == f

    def test_identity_gains_the_mark(self):
        # built by hand: every label, the mark included, to itself, unscaled
        for dim in (1, 2, 3):
            labels = ("1", "2", MARK)
            by_hand = StandardEmbedding(dim, labels, labels, {a: a for a in labels},
                                        {a: (1, (0,) * dim) for a in labels})
            e = identity_embedding(dim, ("1", "2"))
            assert e == identity_embedding(dim, labels) == by_hand
            assert validate_embedding(e)
            assert semb_compose(e, e) == e

    def test_hole_containment_enforced(self):
        dim = 1
        bad = StandardEmbedding(
            dim,
            (MARK,),
            (MARK,),
            {MARK: MARK},
            {MARK: (Fraction(1, 2), (Fraction(0),))},
        )
        res = validate_embedding(bad)
        assert not res and res.reason == "containment"

    def test_cube_into_hole_ring(self):
        dim = 1
        emb = StandardEmbedding(
            dim,
            ("a", MARK),
            (MARK,),
            {"a": MARK, MARK: MARK},
            {"a": (Fraction(1, 2), (Fraction(5, 4),)), MARK: (Fraction(4), (Fraction(-1),))},
        )
        assert validate_embedding(emb)
        outside_hole = StandardEmbedding(
            dim,
            ("a", MARK),
            (MARK,),
            {"a": MARK, MARK: MARK},
            {"a": (Fraction(1, 2), (Fraction(7, 2),)), MARK: (Fraction(4), (Fraction(-1),))},
        )
        assert not validate_embedding(outside_hole)

    @pytest.mark.parametrize("case", ["into-hole-meets-cube", "escapes-cube", "overlap"])
    def test_failures_name_reason_and_witness(self, case):
        # dimension one, each failure shown by sympy intervals: the open image
        # of "a" meets the closed unit cube though it maps into the hole, or
        # leaves the unit cube though it maps to a cube, or meets the image
        # of "b" in the same cube
        half, hole = Fraction(1, 2), (Fraction(4), (Fraction(-1),))
        image = {"into-hole-meets-cube": (MARK, (half, (Fraction(3, 4),))),
                 "escapes-cube": ("1", (half, (Fraction(3, 4),))),
                 "overlap": ("1", (half, (Fraction(1, 4),)))}[case]
        alpha, maps = {"a": image[0], MARK: MARK}, {"a": image[1], MARK: hole}
        if case == "overlap":
            alpha["b"], maps["b"] = "1", (half, (0,))
        e = StandardEmbedding(1, tuple(alpha), ("1", MARK), alpha, maps)
        opened = {a: sp.Interval.open(v[0], v[0] + s) for a, (s, v) in maps.items() if a != MARK}
        unit = sp.Interval(0, 1)
        res = validate_embedding(e)
        assert not res
        if case == "overlap":
            assert opened["a"].intersect(unit) == opened["a"]
            assert opened["a"].intersect(opened["b"]) != sp.EmptySet
            assert (res.reason, res.witness) == ("disjointness", ("a", "b"))
        else:
            hit = opened["a"].intersect(unit)
            assert (hit != sp.EmptySet) if image[0] == MARK else (hit != opened["a"])
            assert (res.reason, res.witness) == ("containment", ("a",))


# ---------------------------------------------------------------------------
# serialization


class TestJson:
    def test_config_round_trip(self):
        rng = Stream(29, ("json",))
        for trial in range(10):
            t = rng.split(trial)
            cfg = sample_disjoint_config(t, t.randint(1, 3), ["1", "2", MARK])
            assert RectConfig.from_json(cfg.to_json()) == cfg

    def test_config_json_fields(self):
        cfg = seq1(("1/2", 0), ("1/2", "1/2"))
        data = cfg.to_json()
        assert data["dim"] == 1
        assert data["rects"]["1"] == {"a": ["1/2"], "b": ["0"]}


# ---------------------------------------------------------------------------
# malformed input is rejected with OperadicError only


def _spec(a, b="0"):
    return {"a": [a], "b": [b]}


MALFORMED = [
    ("rat", "1/0"),
    ("rat", "7/00"),
    pytest.param("rat", "1" * 5000, id="rat-too-many-digits"),
    ("regime", "u-overlap(;)"),
    ("regime", "u-overlap(a;1=2)"),
    ("regime", "u-overlap(a;11=x)"),
    ("regime", "u-overlap(a;12=1)"),
    ("regime", "u-overlap(a|b;21=1)"),
    ("regime", "m-overlap(0)"),
    ("regime", 3),
    ("json", "{}"),
    ("json", "{"),
    pytest.param("json", "[" * 100000, id="json-nested-too-deep"),
    ("json", "[]"),
    ("json", {"dim": 1, "rects": []}),
    ("json", {"dim": "x", "rects": {}}),
    ("json", {"dim": "1/2", "rects": {}}),
    ("json", {"rects": {}}),
    ("json", {"dim": 1, "rects": {"a": _spec("1/0")}}),
    ("json", {"dim": 1, "rects": {"a": [["1"], ["0"]]}}),
    ("json", {"dim": 1, "rects": {"a": {"a": "1", "b": "0"}}}),
    ("json", {"dim": 1, "rects": {"a": _spec("1")}, "regime": None}),
]
PARSERS = {"rat": rat, "regime": regime_parse, "json": RectConfig.from_json}


# seeded and without shrinking: a failure reports the generated input, and a
# failing run cannot spend minutes shrinking regex-built strings
FUZZ = settings(max_examples=100, deadline=None, derandomize=True, database=None,
                phases=(Phase.explicit, Phase.generate))


def _only_operadic_errors(parse, value):
    try:
        parse(value)
    except OperadicError:
        pass


_HALF_SQUARE = Rect((Fraction(1, 2), Fraction(1, 2)), (0, 0))
_ONE_RECT = RectConfig(2, {"a": _HALF_SQUARE})
MALFORMED_CALLS = [
    pytest.param(lambda: RectConfig(2, {1: _HALF_SQUARE}), id="label-not-a-string"),
    pytest.param(lambda: RectConfig(2, [("a",)]), id="item-not-a-pair"),
    pytest.param(lambda: RectConfig(2, None), id="rects-none"),
    pytest.param(lambda: RectConfig(2, 5), id="rects-not-iterable"),
    pytest.param(lambda: RectConfig("2", {}), id="dim-not-an-int"),
    pytest.param(lambda: RectConfig(2, {"a": _HALF_SQUARE}, "bogus"), id="unknown-regime"),
    pytest.param(lambda: RectConfig(2, {"a": _HALF_SQUARE}, ("m-overlap",)), id="m-overlap-without-m"),
    pytest.param(lambda: RectConfig(2, {"a": _HALF_SQUARE}, ("u-overlap", (("a",),))),
                 id="u-overlap-without-bounds"),
    pytest.param(lambda: RectConfig(2, {"a,b": _HALF_SQUARE}, ("u-overlap", (("a,b",),), {})),
                 id="u-overlap-label-lost-in-text-form"),
    pytest.param(lambda: validate_config(_ONE_RECT, ("m-overlap", "2")), id="m-overlap-string-m"),
    pytest.param(lambda: validate_config(_ONE_RECT, ("u-overlap", (("a",),), {(0, 0): "x"})),
                 id="u-overlap-string-bound"),
    pytest.param(lambda: validate_config(_ONE_RECT, ("u-overlap", (("a",),), {(0, 0): -1})),
                 id="u-overlap-negative-bound"),
    pytest.param(lambda: act_numeric(operad_model("rect-inf:2"),
                                     RectConfig(2, {"1": _HALF_SQUARE, "3": _HALF_SQUARE}), (2, 1)),
                 id="act-numeric-labels-not-positional"),
    pytest.param(lambda: rect_compose(RectConfig(2, {"1": _HALF_SQUARE, "5": _HALF_SQUARE}), 1,
                                      unit_config("1", 2)),
                 id="rect-compose-labels-not-positional"),
]


class TestMalformedInput:
    @pytest.mark.parametrize("kind,value", MALFORMED)
    def test_rejected_with_operadic_error(self, kind, value):
        with pytest.raises(OperadicError):
            PARSERS[kind](value)

    @pytest.mark.parametrize("call", MALFORMED_CALLS)
    def test_malformed_configs_and_regimes_raise_operadic_error(self, call):
        with pytest.raises(OperadicError):
            call()

    def test_unusual_but_valid_input_is_accepted(self):
        # a label of more digits than int() converts, and a u-overlap regime
        # leaving a block pair unbounded
        long_label = "1" * 5000
        cfg = RectConfig.from_json({
            "dim": 1,
            "regime": "u-overlap(2|%s;11=1)" % long_label,
            "rects": {long_label: _spec("1/2"), "2": _spec("1/2", "1/2")},
        })
        assert cfg.labels == ("2", long_label)
        assert regime_str(cfg.regime) == "u-overlap(2|%s;1:1=1,1:2=inf,2:2=inf)" % long_label
        assert validate_config(cfg)

    def test_label_key_sorts_only_ascii_decimals_as_numbers(self):
        labels = ("*", "2", "10", "007", "\u0663", "a", "")
        assert sorted(reversed(labels), key=label_key) == ["*", "2", "007", "10", "", "a", "\u0663"]

    @FUZZ
    @given(st.one_of(
        st.text(max_size=12),
        st.from_regex(r"-?[0-9]{1,4}(/[0-9]{1,3})?", fullmatch=True),
        st.integers(),
        st.none(),
        st.floats(allow_nan=False),
    ))
    def test_rat_fuzz(self, value):
        _only_operadic_errors(rat, value)

    @FUZZ
    @given(st.one_of(
        st.text(max_size=16),
        st.from_regex(r"m-overlap\([0-9]{0,3}\)", fullmatch=True),
        st.from_regex(r"u-overlap\([ab,|]{0,5};[0-9a-z=,:]{0,9}\)", fullmatch=True),
        st.integers(),
    ))
    def test_regime_parse_fuzz(self, text):
        _only_operadic_errors(regime_parse, text)

    @FUZZ
    @given(st.data())
    def test_from_json_fuzz(self, data):
        scalars = st.one_of(
            st.none(), st.booleans(), st.integers(-3, 3), st.text(max_size=4),
            st.sampled_from(["0", "1", "1/2", "3/4", "-1/4", "1/0", "x", "2"]),
        )
        anything = st.recursive(
            scalars,
            lambda inner: st.lists(inner, max_size=3) | st.dictionaries(st.text(max_size=2), inner, max_size=3),
            max_leaves=8,
        )
        numbers = st.lists(st.sampled_from(["0", "1", "1/2", "1/4", "-1", "1/0", "x"]) | scalars, max_size=3)
        spec = st.fixed_dictionaries({"a": numbers, "b": numbers}) | anything
        regime = st.one_of(
            st.sampled_from(["overlapping", "disjoint", "m-overlap(2)", "m-overlap(0)",
                             "u-overlap(a|b;11=1,12=inf,22=2)", "u-overlap(a;11=x)", "u-overlap(;)"]),
            anything,
        )
        config = st.fixed_dictionaries(
            {"dim": st.integers(-1, 3) | anything,
             "rects": st.dictionaries(st.sampled_from(["a", "b", "1", "2", "*", ""]), spec, max_size=3) | anything},
            optional={"regime": regime},
        )
        value = data.draw(st.one_of(config, anything))
        _only_operadic_errors(RectConfig.from_json, value)
        _only_operadic_errors(RectConfig.from_json, json.dumps(value))
        _only_operadic_errors(RectConfig.from_json, data.draw(st.text(max_size=20)))
