"""The three workloads: seeded inputs, one timed round, output checks.

Each workload has
  setup(mods, seed)                 -> inputs, built before any timing
  run_round(mods, inputs, tracer)   -> (op times in s, outputs, failed)
  check(mods, inputs, outputs)      -> list of mismatch messages
and every round runs the same operations on the same inputs, so outputs of
later rounds must equal those of the first.  `mods` holds the `operadic`
modules; functions are looked up on them at call time so that the traced
run's wrappers are the ones called.
"""

from __future__ import annotations

import time
from fractions import Fraction

import oracles

# ---------------------------------------------------------------------------
# tree_enum

# (variant, arities, vmax, k); k only for pTreeP
TREE_REQUESTS = (
    ("pTreeP", (2,), 3, 2),
    ("pTreeP", (1,), 3, 3),
    ("sTree", (2,), 4, None),
    ("pTree", (2,), 4, None),
    ("rsTree", (1, 1), 4, None),
    ("sTree", (1, 1), 4, None),
)
PSI_K = 4


def _run_ops(ops, tracer):
    """Time each zero-argument op; a raised error counts it as failed."""
    times, outputs, failed = [], [], 0
    clock = time.perf_counter
    for n, op in enumerate(ops):
        if tracer is not None:
            tracer.op_id = n
        t0 = clock()
        try:
            out = op()
        except Exception as exc:  # a failing operation is counted, not fatal
            out = exc
            failed += 1
        times.append(clock() - t0)
        outputs.append(out)
    return times, outputs, failed


class TreeEnum:
    """A fixed list of enumeration requests, in a fixed order.  The seed is
    not used: the requests are the whole input, and their order decides
    which of them fills the planar shape cache."""

    def setup(self, mods, seed):
        return list(TREE_REQUESTS) + [("psi", PSI_K)]

    def run_round(self, mods, jobs, tracer=None):
        T = mods.trees

        def job_op(job):
            if job[0] == "psi":
                return lambda: T.psi_category(job[1])
            variant, arities, vmax, k = job
            kwargs = {} if k is None else {"k": k}
            return lambda: T.enumerate_trees(variant, arities, vmax, **kwargs)

        return _run_ops([job_op(j) for j in jobs], tracer)

    def check(self, mods, jobs, outputs):
        T = mods.trees
        counts = oracles.load_counts()
        errors = []
        for job, out in zip(jobs, outputs):
            if isinstance(out, Exception):  # counted as failed
                continue
            if job[0] == "psi":
                errors += _check_psi(job[1], out)
                continue
            key = oracles.request_key(job)
            if len(out.trees) != counts[key]:
                errors.append("%s: %d trees, oracle %d" % (key, len(out.trees), counts[key]))
            codes = []
            for t in out.trees:
                ok, clause = T.validate_labeling(t)
                if not ok:
                    errors.append("%s: invalid tree (%s)" % (key, clause))
                if T.canonicalize(t) != t:
                    errors.append("%s: tree is not canonical" % key)
                codes.append((t.total_vertices, T.encode(t)))
            if len(set(codes)) != len(codes):
                errors.append("%s: duplicate encodings" % key)
            if codes != sorted(codes):
                errors.append("%s: not sorted by (total_vertices, encode)" % key)
        return errors


def _check_psi(k, out):
    """Objects and arrows, read into the oracle's nested tuples, must equal
    the oracle's sets."""
    objects, arrows = oracles.psi_oracle(k)
    keys = [oracles.psi_key(obj.tree) for obj in out["objects"]]
    errors = []
    if len(set(keys)) != len(keys):
        errors.append("psi_category(%d): isomorphic objects listed twice" % k)
    if set(keys) != objects:
        errors.append("psi_category(%d): %d objects, oracle %d (%d in common)"
                      % (k, len(keys), len(objects), len(set(keys) & objects)))
    got = {(keys[s], keys[t]) for s, t in out["morphisms"]}
    if len(got) != len(out["morphisms"]) or got != arrows:
        errors.append("psi_category(%d): %d arrows, oracle %d (%d in common)"
                      % (k, len(out["morphisms"]), len(arrows), len(got & arrows)))
    return errors


# ---------------------------------------------------------------------------
# overlap_check

# (n, m, count) per round
# The counts put the median operation inside the 68 configurations at
# n = 16 and the 90th percentile inside the 20 at n = 20 or 128 rectangles.
M_VALID = ((16, 4, 28), (20, 4, 6), (24, 5, 1))
M_PLANTED = ((16, 4, 40), (20, 4, 8))
N_DISJOINT = 6            # configurations of 16 x 8 = 128 rectangles in 3-d
N_UOVERLAP = 21           # 18 rectangles in 3 blocks, m = 3
OVERLAP_DIM = 2


def _labels(n):
    return [str(t + 1) for t in range(n)]


def _plant(mods, cfg, n, m):
    """Shrink copies of the rectangle at position n // 3 onto m - 1 later
    labels, so those m rectangles share its centre."""
    rects = dict(cfg.rects)
    labels = _labels(n)
    q = n // 3
    base = rects[labels[q]]
    step = (n - 1 - q) // (m - 1)
    for j in range(1, m):
        f = Fraction(8 - j, 8)
        rects[labels[q + j * step]] = mods.exactgeom.Rect(
            tuple(a * f for a in base.scales),
            tuple(b + a * (1 - f) / 2 for a, b in zip(base.scales, base.offsets)),
        )
    return mods.exactgeom.RectConfig(cfg.dim, rects, cfg.regime)


class OverlapCheck:
    """Valid m-overlap scans, planted violations, composed disjoint
    configurations and u-overlap blocks, each decided by validate_config."""

    def setup(self, mods, seed):
        S = mods.sampling
        rng = mods.rng.Stream(seed, ("overlap_check",))
        cases = []
        for n, m, count in M_VALID:
            for c in range(count):
                cfg = S.sample_moverlap_config(rng.split(("valid", n, m, c)), OVERLAP_DIM, _labels(n), m)
                cases.append(("m-valid", cfg, ("m-overlap", m)))
        for n, m, count in M_PLANTED:
            for c in range(count):
                cfg = S.sample_moverlap_config(rng.split(("planted", n, m, c)), OVERLAP_DIM, _labels(n), m)
                cases.append(("m-planted", _plant(mods, cfg, n, m), ("m-overlap", m)))
        for c in range(N_DISJOINT):
            r = rng.split(("disjoint", c))
            outer = S.sample_disjoint_config(r.split("outer"), 3, _labels(16))
            inners = [S.sample_disjoint_config(r.split(("inner", j)), 3,
                                               [str(100 * (j + 1) + t) for t in range(8)])
                      for j in range(16)]
            cases.append(("disjoint", (outer, inners), "disjoint"))
        for c in range(N_UOVERLAP):
            r = rng.split(("u", c))
            cfg = S.sample_moverlap_config(r.split("cfg"), OVERLAP_DIM, _labels(18), 3)
            order = r.shuffle(_labels(18))
            blocks = tuple(tuple(sorted(order[6 * b:6 * b + 6], key=int)) for b in range(3))
            bounds = {(p, q): 2 for p in range(3) for q in range(p, 3)}
            bounds[(0, 2)] = "inf"
            cases.append(("u-valid", cfg, ("u-overlap", blocks, bounds)))
        return rng.shuffle(cases)

    def run_round(self, mods, cases, tracer=None):
        G = mods.exactgeom

        def composed(outer, inners):
            cfg = outer
            for j, inner in enumerate(inners):
                cfg = G.rect_compose(cfg, str(j + 1), inner)
            return cfg, G.validate_config(cfg)

        def case_op(case):
            kind, payload, regime = case
            if kind == "disjoint":
                return lambda: composed(*payload)
            return lambda: G.validate_config(payload, regime)

        return _run_ops([case_op(c) for c in cases], tracer)

    def check(self, mods, cases, outputs):
        errors = []
        for n, ((kind, payload, regime), out) in enumerate(zip(cases, outputs)):
            if isinstance(out, Exception):  # counted as failed
                continue
            if kind == "disjoint":
                errors += _check_composed(payload, out, n)
                continue
            labeled = sorted(payload.rects, key=lambda kv: int(kv[0]))
            if kind == "u-valid":
                want = oracles.u_violation(labeled, regime[1], regime[2])
            else:
                want = oracles.first_m_violation(labeled, regime[1])
            if want is None:
                if not out.ok:
                    errors.append("case %d (%s): rejected a valid configuration: %s %r"
                                  % (n, kind, out.reason, out.witness))
                if kind == "m-planted":
                    errors.append("case %d: planted violation missing" % n)
                continue
            if out.ok or out.reason != regime[0] or tuple(out.witness) != want:
                errors.append("case %d (%s): got %r %r %r, oracle witness %r"
                              % (n, kind, out.ok, out.reason, out.witness, want))
            rects = dict(payload.rects)
            if oracles.common_open_point([rects[lbl] for lbl in want]) is None:
                errors.append("case %d: witness has no common open point" % n)
        return errors


def _check_composed(payload, out, n):
    """Composition by affine substitution, redone here; disjoint inputs must
    compose to an accepted disjoint configuration."""
    outer, inners = payload
    cfg, verdict = out
    want = {}
    sockets = dict(outer.rects)
    for j, inner in enumerate(inners):
        socket = sockets.pop(str(j + 1))
        for lbl, r in inner.rects:
            want[lbl] = (tuple(a * a2 for a, a2 in zip(socket.scales, r.scales)),
                         tuple(a * b2 + b for a, b, b2 in zip(socket.scales, socket.offsets, r.offsets)))
    for lbl, r in sockets.items():
        want[lbl] = (r.scales, r.offsets)
    got = {lbl: (r.scales, r.offsets) for lbl, r in cfg.rects}
    errors = []
    if got != want:
        errors.append("case %d: composed rectangles differ from affine substitution" % n)
    if oracles.first_clique(oracles.overlap_graph([r for _, r in cfg.rects]), 2) is not None:
        errors.append("case %d: composed configuration overlaps" % n)
    if not verdict.ok:
        errors.append("case %d: composed disjoint configuration rejected: %s %r"
                      % (n, verdict.reason, verdict.witness))
    return errors


# ---------------------------------------------------------------------------
# module_walks

# (flavor, carrier, steps, walks) per round
WALKS = (
    ("ib", "glued", 4, 4), ("ib", "glued", 16, 2),
    ("ib", "product", 4, 2), ("ib", "product", 16, 2),
    ("ib", "formal", 4, 2), ("ib", "formal", 16, 2),
    ("b", "glued", 4, 4), ("b", "glued", 16, 2),
)
PLUS = "+"


class _Walk:
    def __init__(self, flavor, carrier, value, free0, timed0):
        self.flavor, self.carrier, self.value = flavor, carrier, value
        self.free0, self.timed0 = free0, timed0
        self.actions = []  # (free action, timed extra operands, their carrier values)


class ModuleWalks:
    """Seeded graft walks applied to a free point and to its timed image."""

    def setup(self, mods, seed):
        A, F, B = mods.algebra, mods.freeconstr, mods.bv
        fam = A.cube_family((1, 2), 3)
        rng = mods.rng.Stream(seed, ("module_walks",))
        walks = []
        for flavor, carrier, steps, count in WALKS:
            for c in range(count):
                r = rng.split((flavor, carrier, steps, c))
                shape = mods.rng.Stream(0, ("module_walks", flavor, carrier, steps, c))
                arities = [shape.randint(1, 2), shape.randint(1, 2)]
                if carrier == "formal":
                    value = F.formal_generator("g", tuple(arities))
                elif carrier == "product":
                    value = A.ProductPoint(fam, tuple(_positional(fam, i, r.split(("seed", i)), n)
                                                      for i, n in enumerate(arities)))
                else:
                    value = _glued(A, fam, r.split("seed"), arities)
                make = F.ib_generator if flavor == "ib" else F.b_generator
                free0 = make(fam, value)
                walk = _Walk(flavor, carrier, value, free0, B.bv_tau(free0))
                for s in range(steps):
                    walk.actions.append(_next_action(mods, fam, shape.split(("step", s)),
                                                     r.split(("step", s)), flavor, arities))
                walks.append(walk)
        return walks

    def run_round(self, mods, walks, tracer=None):
        F, B = mods.freeconstr, mods.bv
        times, outputs, failed = [], [], 0
        clock = time.perf_counter
        op = 0
        for walk in walks:
            graft = F.free_graft_ib if walk.flavor == "ib" else F.free_graft_b
            pt, bp = walk.free0, walk.timed0
            trail = []
            for act, timed_act, _ in walk.actions:
                if tracer is not None:
                    tracer.op_id = op
                op += 1
                t0 = clock()
                try:
                    if act[0] == "left" and walk.flavor == "b":
                        pt = graft(pt, ("left", act[1], (pt,) + act[2]))
                        bp = B.bv_act(bp, ("left", act[1], (bp,) + timed_act))
                    else:
                        pt = graft(pt, act)
                        bp = B.bv_act(bp, act)
                except Exception as exc:  # the rest of this walk is not attempted
                    times.append(clock() - t0)
                    failed += 1
                    trail.append(exc)
                    break
                times.append(clock() - t0)
                trail.append((pt, bp))
            outputs.append(trail)
        return times, outputs, failed

    def check(self, mods, walks, outputs):
        F, B, R = mods.freeconstr, mods.bv, mods.rng
        errors = []
        for w, (walk, trail) in enumerate(zip(walks, outputs)):
            fam = walk.free0.family
            if walk.carrier == "formal":
                ops = None
            elif walk.flavor == "b":
                ops = F.GluedBOps(fam)
            elif walk.carrier == "product":
                ops = F.ProductIbOps(fam)
            else:
                ops = F.GluedIbOps(fam)
            evaluate = F.evaluate_ib if walk.flavor == "ib" else F.evaluate_b
            val = walk.value
            for s, ((act, _, step_vals), got) in enumerate(zip(walk.actions, trail)):
                if isinstance(got, Exception):
                    break
                pt, bp = got
                where = "walk %d (%s %s) step %d" % (w, walk.flavor, walk.carrier, s)
                if bp != B.bv_tau(pt):
                    errors.append("%s: bv_act differs from bv_tau of the free point" % where)
                order = R.Stream(w, ("order", s))
                if B.bv_normalize(bp, rng=order) != B.bv_normalize(bp):
                    errors.append("%s: bv_normalize depends on the rewrite order" % where)
                if ops is None:
                    continue
                if act[0] == "right":
                    val = ops.right(val, act[1], act[2], act[3])
                elif walk.flavor == "ib":
                    val = ops.left(act[1], val)
                else:
                    val = ops.left(act[1], [val] + list(step_vals))
                if evaluate(pt, ops) != val:
                    errors.append("%s: counit differs from the direct carrier operations" % where)
                if B.bv_eta(bp) != val:
                    errors.append("%s: bv_eta differs from the carrier value" % where)
        return errors


def _positional(fam, i, r, n):
    return fam.components[i].sample(r, tuple(str(t + 1) for t in range(n)))


def _glued(A, fam, r, arities):
    xs = tuple(PLUS if n == PLUS else _positional(fam, i, r.split(i), n) for i, n in enumerate(arities))
    return A.glued_eta(fam, xs)


def _next_action(mods, fam, shape, r, flavor, arities):
    """One action valid at the given arities, which it updates in place.

    `shape` picks the kind, place and arity of the graft and does not depend
    on the seed, so every seed grows trees of the same sizes; `r` draws the
    rectangles, cubes and fiber points.  Returns (free action, timed extra
    operands, carrier values of the extra operands)."""
    A, F, B = mods.algebra, mods.freeconstr, mods.bv
    live = [i for i in range(fam.k) if arities[i] != PLUS and arities[i] >= 1]
    if shape.maybe() and live:
        i = live[shape.randint(0, len(live) - 1)]
        j = shape.randint(1, arities[i])
        m = shape.randint(0, 2)
        arities[i] += m - 1
        return ("right", i, j, _positional(fam, i, r.split("x"), m)), None, None
    if flavor == "ib":
        extras = (shape.randint(0, 2), shape.randint(0, 2))
        theta = A.sample_ovec(r.split("th"), fam, tuple(tuple(str(t + 2) for t in range(e)) for e in extras))
        for i, e in enumerate(extras):
            arities[i] += e
        return ("left", theta), None, None
    presence = tuple(n != PLUS for n in arities)
    for attempt in range(1000):
        ss = shape.split(("left", attempt))
        m = ss.randint(1, 2)
        pk = A.sample_pk(ss.split("pk"), tuple(str(t + 1) for t in range(m)), fam.k)
        if tuple(p != PLUS and "1" in p for p in pk.parts) != presence:
            continue
        pats = [tuple(ss.split(("ar", l, i)).randint(0, 2) if p != PLUS and str(l + 1) in p else PLUS
                      for i, p in enumerate(pk.parts)) for l in range(1, m)]
        if any(all(n == PLUS for n in pat) for pat in pats):
            continue
        fib = A.sample_fiber_point(r.split("fib"), fam, pk)
        vals = tuple(_glued(A, fam, r.split(("op", l)), pat) for l, pat in enumerate(pats))
        others = tuple(F.b_generator(fam, v) for v in vals)
        op_arities = [list(arities)] + [list(pat) for pat in pats]
        for i, part in enumerate(pk.parts):
            arities[i] = PLUS if part == PLUS else sum(op_arities[int(a) - 1][i] for a in part)
        return ("left", fib, others), tuple(B.bv_tau(o) for o in others), vals
    raise RuntimeError("no left action found")


WORKLOADS = {"tree_enum": TreeEnum, "overlap_check": OverlapCheck, "module_walks": ModuleWalks}
