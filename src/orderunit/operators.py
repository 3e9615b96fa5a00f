"""Weakly additive, order-preserving operators between order-unit spaces.

Mirrors :mod:`orderunit.functionals` one level up: an operator maps one
space into another, commutes with shifts along the domain unit
(``T(x + lam*unit_E) = T(x) + lam*T(unit_E)``) and respects the cone
orders.  Those two sampled laws buy the quantitative conclusions checked
here: a Lipschitz modulus ``||T(unit_E)||``, a uniform equicontinuity
modulus ``delta(eps) = eps / sup ||T(unit_E)||`` for whole families with a
bounded orbit at the unit, stability of the laws under pointwise limits,
and the open-mapping behaviour probed by a budgeted preimage search.  The
search is a multi-start coordinate descent whose candidates, for every
target and start of a probe, are tested and evaluated in shared blocks
where a block pays and one point at a time where it does not; its results
and evaluation counts are those of the one-point loop.

Kinds: ``linear_positive`` (a cone-preserving matrix), ``clamp`` (the
plane operator that pins the second coordinate into the band
``[x1 - 1, x1 + 1]``; the stock example that is weakly additive and
order-preserving yet not open away from the band), ``stack`` (one
functional per codomain coordinate) and ``custom``.
"""

from __future__ import annotations

import math
from dataclasses import asdict, dataclass, field
from functools import partial
from typing import Callable, Sequence

import numpy as np

from . import sampling
from .functionals import (
    Functional,
    PropertyReport,
    _all_of,
    _first,
    _from_descriptor,
    _order_report,
    _row_loop,
    _shift_report,
    _to_descriptor,
    _unzip,
    _verdict,
    evaluate,
    functional_from_json,
    functional_to_json,
)
from .spaces import (
    TOL,
    OrderedSpace,
    _finite,
    _json_field,
    _json_list,
    _json_numbers,
    _max_abs_rows,
    _unit_products,
    as_rows,
    as_vec,
    cone_contains_rows,
    interior_contains,
    matvecs,
    order_norm,
    order_norms,
    orthant,
)


@dataclass(frozen=True, eq=False)
class Operator:
    """Map between two spaces with a declared kind; ``fn`` is the kind's
    evaluator on a vector already checked against the domain, ``batch`` its
    evaluator on an ``(n, domain dim)`` array of such vectors, returning the
    ``(n, codomain dim)`` images, ``image_oracle`` its exact membership test
    for ``T(E)`` where one is known, as a mask over such rows, and
    ``unit_image`` caches the value at the domain unit.

    ``batch`` equals ``fn`` row by row, bit for bit, and the law checkers
    evaluate through it; a ``custom`` operator leaves it unset and gets the
    row loop over ``fn``."""

    domain: OrderedSpace
    codomain: OrderedSpace
    kind: str
    fn: Callable[[np.ndarray], np.ndarray]
    matrix: np.ndarray | None = None
    functionals: tuple[Functional, ...] | None = None
    image_oracle: Callable[[np.ndarray], np.ndarray] | None = None
    batch: Callable[[np.ndarray], np.ndarray] | None = None
    unit_image: np.ndarray = field(init=False)

    def __post_init__(self):
        if self.batch is None:
            object.__setattr__(self, "batch", partial(_row_loop, self.fn, (self.codomain.dim,)))
        object.__setattr__(self, "unit_image", apply(self, self.domain.unit))

    def __call__(self, x) -> np.ndarray:
        return apply(self, x)


def _clamp_eval(x: np.ndarray) -> np.ndarray:
    lo, hi = x[0] - 1.0, x[0] + 1.0
    if x[1] <= lo:
        return np.array([x[0], lo])
    if x[1] >= hi:
        return np.array([x[0], hi])
    return np.array([x[0], x[1]])


def _clamp_rows(X: np.ndarray) -> np.ndarray:
    lo, hi = X[:, 0] - 1.0, X[:, 0] + 1.0
    return np.column_stack([X[:, 0], np.where(X[:, 1] <= lo, lo, np.where(X[:, 1] >= hi, hi, X[:, 1]))])


def _in_band(Y: np.ndarray) -> np.ndarray:
    return np.abs(Y[:, 1] - Y[:, 0]) <= 1.0 + TOL


def _stack_eval(fs: tuple[Functional, ...], v: np.ndarray) -> np.ndarray:
    return np.array([evaluate(f, v) for f in fs])


def _stack_rows(fs: tuple[Functional, ...], X: np.ndarray) -> np.ndarray:
    return np.column_stack([f.batch(X) for f in fs])


def apply(T: Operator, x) -> np.ndarray:
    return T.fn(as_vec(x, T.domain.dim))


def linear_positive(domain: OrderedSpace, codomain: OrderedSpace, matrix, strict: bool = True) -> Operator:
    """Matrix operator; with ``strict`` it must map 128 cone points, sampled
    at seed 0, into the codomain cone (on orthant domains the generators are
    checked exactly)."""
    m = _finite("linear_positive matrix", matrix)
    if m.shape != (codomain.dim, domain.dim):
        raise ValueError(
            f"matrix shape {m.shape} does not map dim {domain.dim} "
            f"into dim {codomain.dim}"
        )
    T = Operator(
        domain=domain,
        codomain=codomain,
        kind="linear_positive",
        fn=m.__matmul__,
        matrix=m,
        batch=partial(matvecs, m),
    )
    if strict:
        points = sampling.cone_points(domain, 128, 0)
        images = T.batch(points)
        if domain.cone.orthant:  # the generators' images are the matrix's columns
            points, images = np.concatenate([points, np.eye(domain.dim)]), np.concatenate([images, m.T])
        i = _first(~cone_contains_rows(codomain, images))
        if i is not None:
            raise ValueError(
                f"matrix does not preserve the cone: image of {np.round(points[i], 6).tolist()} "
                "leaves the codomain cone"
            )
    return T


def clamp_operator(space: OrderedSpace) -> Operator:
    """The band clamp on a 2-d space (second coordinate pinned to
    ``[x1 - 1, x1 + 1]``); domain and codomain coincide."""
    if space.dim != 2:
        raise ValueError("clamp is defined on 2-d spaces only")
    return Operator(domain=space, codomain=space, kind="clamp", fn=_clamp_eval, image_oracle=_in_band, batch=_clamp_rows)


def stack_operator(domain: OrderedSpace, fs: Sequence[Functional]) -> Operator:
    """One functional per codomain coordinate; the codomain is the orthant
    of matching dimension with an all-ones unit."""
    fs = tuple(fs)
    if not fs:
        raise ValueError("stack requires at least one functional")
    return Operator(
        domain=domain, codomain=orthant(len(fs)), kind="stack", fn=partial(_stack_eval, fs), functionals=fs, batch=partial(_stack_rows, fs)
    )


def custom_operator(domain: OrderedSpace, codomain: OrderedSpace, hook) -> Operator:
    return Operator(domain=domain, codomain=codomain, kind="custom", fn=lambda v: as_vec(hook(v), codomain.dim))


def identity_operator(space: OrderedSpace) -> Operator:
    return linear_positive(space, space, np.eye(space.dim), strict=False)


@dataclass(frozen=True, eq=False)
class OperatorFamily:
    """Nonempty collection sharing domain and codomain."""

    members: tuple[Operator, ...]

    def __post_init__(self):
        members = tuple(self.members)
        if not members:
            raise ValueError("a family needs at least one operator")
        first = members[0]
        for T in members[1:]:
            same = (
                np.array_equal(T.domain.cone.rows, first.domain.cone.rows)
                and np.array_equal(T.codomain.cone.rows, first.codomain.cone.rows)
                and np.array_equal(T.domain.unit, first.domain.unit)
                and np.array_equal(T.codomain.unit, first.codomain.unit)
            )
            if not same:
                raise ValueError("all family members must share domain and codomain")
        object.__setattr__(self, "members", members)

    @property
    def domain(self) -> OrderedSpace:
        return self.members[0].domain

    @property
    def codomain(self) -> OrderedSpace:
        return self.members[0].codomain

    def __len__(self):
        return len(self.members)

    def __iter__(self):
        return iter(self.members)


def _max_abs(v: np.ndarray) -> float:
    return float(np.max(np.abs(v)))


def check_weakly_additive_op(
    T: Operator, samples=None, *, seed: int = 0, n: int = 2**12, tol: float = TOL
) -> PropertyReport:
    """Componentwise defect of ``T(x + lam*unit) - T(x) - lam*T(unit)``."""
    return _shift_report("weakly_additive", T.batch, T.domain, T.unit_image, samples, seed, n, _max_abs_rows, _max_abs, tol)


def check_order_preserving_op(
    T: Operator, pairs=None, *, seed: int = 0, n: int = 2**12, tol: float = TOL
) -> PropertyReport:
    """``x <= y`` in the domain must give ``T(x) <= T(y)`` in the codomain."""

    def holds(txs, tys):
        return cone_contains_rows(T.codomain, tys - txs, tol=tol)

    return _order_report("order_preserving", T.batch, T.domain, pairs, seed, n, holds, "T")


def unit_image_interior(T: Operator) -> bool:
    """Is ``T(unit)`` interior in the codomain cone?  When true it can serve
    as the codomain order unit."""
    return interior_contains(T.codomain, T.unit_image)


def operator_modulus(T: Operator) -> float:
    """Codomain order norm of ``T(unit)``: the Lipschitz constant of ``T``
    between the order norms, exact for weakly additive order-preserving maps."""
    return order_norm(T.codomain, T.unit_image)


@dataclass(frozen=True)
class EquicontinuityModulus:
    """Uniform modulus for a family: ``delta(eps) = eps / bound`` where
    ``bound = sup ||T(unit)||`` over the members."""

    bound: float
    cap: float
    unbounded: bool
    size: int

    def delta(self, eps: float) -> float:
        if self.unbounded:
            raise ValueError("the family orbit at the unit is unbounded; no uniform modulus")
        if self.bound == 0.0:
            return float("inf")
        return eps / self.bound


def equicontinuity_modulus(family: OperatorFamily, cap: float = 1e6) -> EquicontinuityModulus:
    """Boundedness of the single orbit at the unit yields one modulus for
    the whole family; families exceeding ``cap``, or with a modulus that is
    not finite, are reported unbounded."""
    bound = float(np.max([operator_modulus(T) for T in family]))  # a NaN anywhere is the bound
    return EquicontinuityModulus(bound=bound, cap=float(cap), unbounded=not bound <= cap, size=len(family))


@np.errstate(over="ignore", invalid="ignore")  # an overflow in a sample is a value, not a warning
def certify_equicontinuity(
    family: OperatorFamily,
    eps: float,
    pairs=None,
    *,
    cap: float = 1e6,
    seed: int = 0,
    n: int = 256,
    tol: float = TOL,
) -> PropertyReport:
    """Sampled certificate that ``||x - y|| < delta(eps)`` forces
    ``||T(x) - T(y)|| < eps`` for every member."""
    modulus = equicontinuity_modulus(family, cap=cap)
    if modulus.unbounded:
        return PropertyReport(
            name="equicontinuity",
            passed=False,
            samples=0,
            witness={"reason": "unbounded orbit at the unit", "bound": modulus.bound, "cap": cap},
        )
    delta = modulus.delta(eps)
    if pairs is None:
        xs, ys = sampling._pairs_within_arrays(family.domain, min(delta, 1e6), n, sampling.rng_from(seed))
    else:
        xs, ys = _unzip(pairs, family.domain.dim, family.domain.dim)
    gaps = np.concatenate([order_norms(family.codomain, T.batch(xs) - T.batch(ys)) for T in family])

    def witness(i):  # member-major: member by member, each over the pairs
        k, j = divmod(i, len(xs))
        return {"member": k, "x": xs[j].tolist(), "y": ys[j].tolist(), "image_gap": float(gaps[i])}

    return _verdict("equicontinuity", gaps < eps + tol, len(gaps), witness)


@np.errstate(over="ignore", invalid="ignore")
def graph_check(
    T: Operator, samples=None, lambdas=(-2.0, -1.0, 0.0, 1.0, 2.0), *, seed: int = 0, n: int = 512, tol: float = TOL
) -> PropertyReport:
    """The graph is closed under adding multiples of the product unit
    ``(unit_E, T(unit_E))``: shifting a graph point along it lands on the
    graph point of the shifted argument."""
    if samples is None:
        samples = sampling.box_points(T.domain, n, sampling.rng_from(seed))
    xs = as_rows(samples, T.domain.dim)
    unit = T.domain.unit
    gu = np.concatenate([unit, T.unit_image])
    txs = T.batch(xs)
    gxs = np.concatenate([xs, txs], axis=1)
    defects = np.empty((len(xs), len(lambdas)))
    for j, lam in enumerate(lambdas):
        shifted = xs + lam * unit
        images = txs if lam == 0.0 else T.batch(shifted)
        defects[:, j] = _max_abs_rows(gxs + lam * gu - np.concatenate([shifted, images], axis=1))
    k = _first(~(defects.ravel() <= tol))  # the pass rule of _verdict, row-major: sample by sample, each over the lambdas
    if k is None:
        return PropertyReport(name="graph_shift_closure", passed=True, samples=defects.size)
    i, j = divmod(k, len(lambdas))
    witness = {"x": xs[i].tolist(), "lam": float(lambdas[j]), "defect": float(defects[i, j])}
    return PropertyReport(name="graph_shift_closure", passed=False, samples=k + 1, witness=witness)


PREIMAGE_TOL = 1e-6
"""Slack of the openness probes: a preimage search stops at a residual
``|T(x) - y|`` at or below it, and :func:`open_ball_image_check` lets an
image norm exceed ``epsilon`` by it."""


def _norm2(r: np.ndarray) -> float:
    """``sqrt(r @ r)``; where only the sum of squares overflows, it is taken
    over ``r / max|r|`` and scaled back.  Call under ``np.errstate``."""
    rr = r @ r
    if rr == np.inf and np.isfinite(r).all():
        s = float(np.max(np.abs(r)))
        u = r / s
        return math.sqrt(u @ u) * s
    return math.sqrt(rr)


# The constants of the preimage search; ``BENCH_36.json`` has the grid that chose them.

_SWEEPS = 3
"""Whole sweeps a candidate block may reach past the current one."""

_BLOCK_ENTRIES = (32, 1 << 14)
"""Bounds on a block's candidates times the dimension.  A row's first block
is at the lower bound; a block without a move doubles the next one and a
move halves it.  The upper bound keeps a block within 128 KiB however
large the space."""

_SPECULATION = 1 << 12
"""Bound on the candidates times the dimension that one step gives to the
targets past the first one that has not ended."""

_BATCH_MIN = 32
"""Evaluations that a step's rows are expected to charge (what the last
step of each charged per move) below which a step is not worth its fixed
cost, and the loop itself runs instead."""

_WALK = 128
"""Evaluations the loop itself runs before the search looks again."""


def _residuals(T: Operator, P: np.ndarray, Y: np.ndarray) -> np.ndarray:
    """``_norm2(T(p) - y)`` for the rows of ``P`` and ``Y``, bit for bit, in
    one ``T.batch`` call: each ``r @ r`` from the stacked matmul, which runs
    the vector dot of a row, and ``_norm2`` only where the square overflows.
    Call under ``np.errstate``."""
    r = T.batch(P) - Y
    rr = np.matmul(r[:, None, :], r[:, :, None])[:, 0, 0]
    res = np.sqrt(rr)
    for i in np.flatnonzero(rr == np.inf):
        res[i] = _norm2(r[i])
    return res


@np.errstate(over="ignore", invalid="ignore")
def _preimage_searches(T: Operator, ys, x0, epsilon: float, budget: int, rng) -> list:
    """Multi-start coordinate descent, for each target ``y`` in order, for an
    ``x`` in the open ball around ``x0`` with ``T(x) = y``, through the first
    target without one; returns their ``(x or None, best residual,
    evals <= budget)``.

    Exhausting the budget is a semi-decision: it reports that no preimage
    was *found*, not that none exists.  The loop this runs, per target: the
    starts are ``x0``, ``y`` when the dimensions match and it lies in the
    ball, a matrix kind's least-squares solution when it lies in the ball,
    and six :func:`sampling.ball_point` draws at radius ``0.95 * epsilon``.
    Each start is evaluated, then runs sweeps over the coordinates, each
    coordinate ``+step`` and then ``-step``, from ``step = epsilon / 2``.
    The budget check comes before every candidate; a candidate counts only
    when it is in the ball (``max |unit_rows @ (x - x0)| < epsilon * (1 - 1e-12)``,
    :func:`order_norm`'s test, NaN included); the first residual
    ``_norm2(T(x) - y)`` below the current one less ``1e-15`` is a move,
    after which the sweep goes on at the next coordinate; and a sweep
    without a move halves ``step``.  A start ends at a residual of at most
    ``PREIMAGE_TOL``, at the budget, or before a sweep at a step of at most
    ``1e-14``; a target ends at the first start that reached ``PREIMAGE_TOL``.

    Every result is the loop's, bit for bit, but the loop runs as rows, one
    per start, that advance together in steps.  At each step a row takes a
    block of candidates: the next ones of its sweep and the sweeps after it,
    assuming no move, each sweep at half the step of the one before, at
    most ``_SWEEPS`` whole sweeps past the current one and at most
    ``_BLOCK_ENTRIES`` entries.  One ball test and one ``T.batch`` call
    serve every row's block, and the first candidate of a block that is in
    the ball, within the budget and improving is the loop's next move;
    without one, the row goes on after its block.  A block without a move
    doubles the row's next block and a move halves it, so the candidates
    evaluated past a move stay within about those the loop evaluates.  A
    step has a fixed cost, so when the rows would charge fewer than
    ``_BATCH_MIN`` evaluations, judged by what each charged per move at
    its last step, the current start of the first target that has not
    ended runs the loop itself for ``_WALK`` evaluations, one point at a
    time through ``T.fn``, and the other rows wait: a lone start that
    moves at almost every candidate costs about what the loop costs.

    The rows are the current start of each target in a window, and the
    later starts of its lead target, the first one not yet known to have a
    preimage, which join one per step.  Every row may evaluate up to what
    its target has left of the budget, so a later start runs ahead of the
    starts before it, records its moves, and once they end is cut back to
    its share, its last move within what they left.  The window starts at
    one target and doubles each time the lead moves on: a failing target
    (the probe off the clamp's band) runs almost alone, while targets that
    pass share the steps.  A step gives the rows
    of targets past the first one that has not ended at most
    ``_SPECULATION`` entries; at most ``_SPECULATION // dim`` targets are
    open at once, and the rows of targets that have ended are reused, so
    the search's memory grows with the dimension, not with the number of
    targets.  Candidates past a move, later starts and
    targets past the first failure are evaluated in vain, but only at
    points in the ball; a later start stops once it has used what its
    target has left.  Targets draw their six ball starts when they
    join the window, in target order; the generator's state after the call
    is unspecified.
    """
    dom = T.domain
    dim, R = dom.dim, dom.unit_rows
    x0 = as_vec(x0, dim)
    Y = as_rows(ys, T.codomain.dim)
    n = len(Y)
    limit = epsilon * (1.0 - 1e-12)
    widest = max(1, min(dim * (_SWEEPS + 1), _BLOCK_ENTRIES[1] // (2 * dim)))  # in coordinates, two candidates each
    narrowest = max(1, min(widest, _BLOCK_ENTRIES[0] // (2 * dim)))
    # slot 0 of a block is the row's point, slot k > 0 moves coordinate (k - 1) // 2 from where its sweep resumes, + then -
    slot = np.arange(1 + 2 * widest)
    ahead_of, sign = np.maximum(slot - 1, 0) // 2, np.where(slot % 2 == 1, 1.0, -1.0)
    # the step of the w-th sweep from a row's over its step, by whether the current sweep has moved; exact powers of two
    level = np.array([[1.0] + [0.5 ** (w - m) for w in range(1, _SWEEPS + 2)] for m in (0, 1)])

    def inside(x):
        return all(abs(v) < limit for v in (R @ (x - x0)).tolist())

    # per row: target, start, evals, the coordinate its sweep resumes at,
    # whether that sweep has moved, block width in coordinates,
    # evals per move at its last step, point, residual, step, y.  A target has
    # at most 9 starts and at most `most` targets are open at once; a step
    # may add rows besides those in use when it began, since the rows of the
    # targets that finish in it are free only from the next step on
    most = max(1, min(n, _SPECULATION // dim))
    rows = 18 * most
    tgt, sid, own, pos, moved, span, gap = (np.zeros(rows, dtype=np.intp) for _ in range(7))
    X, val, step, Yr = np.empty((rows, dim)), np.empty(rows), np.empty(rows), np.empty((rows, Y.shape[1]))
    fresh, live, ahead = (np.zeros(rows, dtype=bool) for _ in range(3))  # fresh: start not yet evaluated; live: not ended
    history = [None] * rows  # of a row run ahead: (evals, residual, point) at its start and after each move
    # per target: starts, rows by start, current start, evals of the starts that ended, best so far, result
    starts, balls, rows_of, cur, spent = [None] * n, [None] * n, [{} for _ in range(n)], [0] * n, np.zeros(n, dtype=np.intp)
    best, best_x, done = [np.inf] * n, [None] * n, {}
    free, retired = list(range(rows - 1, -1, -1)), []

    def add_row(t, s, run_ahead):
        u = free.pop()
        tgt[u], sid[u], own[u], pos[u], moved[u], span[u], gap[u] = t, s, 0, 0, 0, narrowest, 2 * narrowest
        X[u], step[u], Yr[u] = (x0 if s == 0 else starts_of(t)[s]), epsilon / 2.0, Y[t]
        fresh[u] = live[u] = True
        ahead[u] = run_ahead
        history[u] = [] if run_ahead else None
        rows_of[t][s] = u

    def walk(u):
        """The loop itself on row ``u``, for about ``_WALK`` evaluations; whether the row has ended."""
        x, y, p, st, e, cap, mv = X[u].copy(), Yr[u], int(pos[u]), float(step[u]), int(own[u]), int(budget - spent[tgt[u]]), bool(moved[u])
        e0, moves = e, 0
        if fresh[u]:
            fresh[u], v, e = False, _norm2(T.fn(x) - y), e + 1
        else:
            v = float(val[u])
        while e - e0 < _WALK:
            if e >= cap or not (v > PREIMAGE_TOL and st > 1e-14):
                break
            for sgn in (1.0, -1.0):
                c = x.copy()
                c[p] += sgn * st
                if e < cap and inside(c):
                    r, e = _norm2(T.fn(c) - y), e + 1
                    if r < v - 1e-15:
                        x, v, mv, moves = c, r, True, moves + 1
                        break
            p += 1
            if p == dim:
                p, st, mv = 0, (st if mv else 0.5 * st), False
        X[u], val[u], pos[u], moved[u], step[u], own[u], gap[u] = x, v, p, mv, st, e, (e - e0) // max(moves, 1)
        return e >= cap or not (v > PREIMAGE_TOL and st > 1e-14)

    def end(u):
        """Row ``u`` has ended."""
        t = tgt[u]
        if t not in done:
            live[u] = False
            if sid[u] == cur[t]:
                settle(t)
            elif val[u] <= PREIMAGE_TOL:
                found.add(t)

    def finish(t, found):
        done[t] = (best_x[t] if found else None), best[t], int(spent[t])
        for u in rows_of[t].values():
            live[u] = False
        retired.extend(rows_of[t].values())

    def settle(t):
        """The loop's outer part: end the starts of ``t`` in order, as far as they have ended."""
        while True:
            if spent[t] >= budget or cur[t] and cur[t] == len(starts_of(t)):
                return finish(t, False)
            u = rows_of[t].get(cur[t])
            if u is None:
                return add_row(t, cur[t], False)
            room = budget - spent[t]
            ahead[u] = False
            if own[u] > room:  # it ran past its share: back to its last move within it
                _, val[u], X[u] = next(h for h in reversed(history[u]) if h[0] <= room)
                own[u] = room
            live[u] &= own[u] < room
            if live[u]:
                return
            spent[t] += own[u]
            if val[u] < best[t]:
                best[t], best_x[t] = float(val[u]), X[u].copy()
            if best[t] <= PREIMAGE_TOL:
                return finish(t, True)
            cur[t] += 1

    def starts_of(t):
        """The starts of ``t``, found when a start past ``x0`` is first asked for."""
        if starts[t] is None:
            s = [x0]
            if T.codomain.dim == dim and inside(Y[t]):
                s.append(Y[t])
            if T.matrix is not None:
                sol, *_ = np.linalg.lstsq(T.matrix, Y[t], rcond=None)
                if inside(sol):
                    s.append(sol)
            starts[t] = np.concatenate([s, balls[t]])
        return starts[t]

    def enter(ts):
        """Targets ``ts`` join the window, their ball starts drawn in one run."""
        drawn = sampling._ball_point_run(dom, x0, epsilon * 0.95, 6 * len(ts), rng).reshape(len(ts), 6, dim)
        for t, ball in zip(ts, drawn):
            balls[t] = ball
            settle(t)

    head = lead = entered = 0
    window, found = 1, set()  # found: targets a start of which, run ahead, reached a preimage
    while head < n:
        if head in done:
            if done[head][0] is None:
                break
            head += 1
            continue
        while lead < entered and (lead in found or lead in done and done[lead][0] is not None):
            lead, window = lead + 1, 2 * window
        free += retired
        retired.clear()
        joining = min(n, lead + window, len(done) + most)
        if entered < joining:
            enter(range(entered, joining))
            entered = joining
        if lead < entered and lead not in done:
            s = next((s for s in range(cur[lead] + 1, len(starts_of(lead))) if s not in rows_of[lead]), None)
            if s is not None:  # one more later start runs ahead at each step
                add_row(lead, s, True)

        a = np.flatnonzero(live)
        if len(a) * (1 + 2 * widest) * dim > _SPECULATION:
            far = (1 + 2 * span[a]) * dim * (tgt[a] > head)  # the entries of the rows the loop may never run
            a = a[(far == 0) | (np.cumsum(far) <= _SPECULATION)]
        if gap[a].sum() < _BATCH_MIN:  # too little work to share a step: the head's current start runs the loop, the rest wait
            u = rows_of[head][cur[head]]
            if walk(u):
                end(u)
            continue

        # one block per row, one ball test and one batch call for all
        A, at, fr, width = len(a), np.arange(len(a)), fresh[a], 2 * span[a]
        room = np.maximum(budget - spent[tgt[a]] - own[a], 0)  # a start run ahead may be past what its target has left
        k = slot[: 1 + width.max()]
        sweep, coord = np.divmod(pos[a, None] + ahead_of[k], dim)
        S = step[a, None] * level[moved[a, None], sweep]
        dS = S * sign[k]
        dS[:, 0] = -0.0  # adding -0.0 keeps every bit, -0.0 included, where +0.0 would not
        test = S > 1e-14
        if narrowest < widest:
            test &= k <= width[:, None]
        test[:, 0] = fr  # a start is evaluated wherever it lies
        ti, tk = np.nonzero(test)
        D = X[a[ti]]  # only the coordinate that moves changes, so every other keeps its bits
        D.ravel()[np.arange(len(ti)) * dim + coord[ti, tk]] += dS[ti, tk]
        ok = np.zeros(S.shape, dtype=bool)
        ok[test] = _max_abs_rows(_unit_products(dom, D - x0)) < limit
        ok[:, 0] = fr
        cum = ok.cumsum(axis=1)  # the evals up to each slot
        ev = ok & (cum <= room[:, None])
        res = np.full(S.shape, np.nan)
        if ev.any():
            on = ev[test]
            res[ev] = _residuals(T, D[on], Yr[a[ti[on]]])

        # the first improving slot of each block, or 0 for none
        v0 = np.where(fr, res[:, 0], val[a])
        go = ~fr | (v0 > PREIMAGE_TOL)
        j = (res < np.where(go, v0 - 1e-15, -np.inf)[:, None]).argmax(axis=1)
        move = j > 0
        used = np.where(move, cum[at, j], np.where(go, np.minimum(cum[:, -1], room), 1))
        own[a] += used
        gap[a] = used
        # the next place: after a move, the next coordinate at its step; else after the block, a sweep past it halving the step
        after, nxt = np.divmod(np.where(move, coord[at, j] + 1, pos[a] + span[a]), dim)
        nstep = np.where(move, S[at, j], step[a] * level[moved[a], after])
        pos[a], moved[a], step[a] = nxt, (after == 0) & (move | (moved[a] > 0)), nstep
        if narrowest < widest:
            span[a] = np.clip(np.where(move, span[a] // 2, 2 * span[a]), narrowest, widest)
        m = np.flatnonzero(move)
        X.ravel()[a[m] * dim + coord[m, j[m]]] += dS[m, j[m]]  # the point of the move, as D has it
        val[a] = nval = np.where(move, res[at, j], v0)
        fresh[a] = False
        stop = ~go | (nval <= PREIMAGE_TOL) | (used >= room) | ~(nstep > 1e-14)

        runs = ahead[a]
        for i in np.flatnonzero(runs & fr):
            history[a[i]].append((1, v0[i], starts_of(tgt[a[i]])[sid[a[i]]]))
        runs = a[runs & move]
        for u, e, v, x in zip(runs.tolist(), own[runs].tolist(), val[runs].tolist(), X[runs]):
            history[u].append((e, v, x))
        for u in a[stop]:
            end(u)
    return [done[t] for t in range(min(head + 1, n))]


@dataclass(frozen=True)
class OpennessVerdict:
    """Outcome of a relative-openness probe.

    A FAIL means the budgeted search found no preimage for ``witness``; it
    is evidence against openness at the probed point, not a proof.  A probe
    that sampled no target (``targets_tested == 0``) tested nothing, so it
    fails too, with ``witness`` None and the note saying why.
    """

    passed: bool
    witness: list | None
    center: list
    epsilon: float
    delta: float
    targets_tested: int
    evals_used: int
    budget: int
    best_residual: float | None
    note: str = ""

    def to_json(self) -> dict:
        return asdict(self)


@np.errstate(over="ignore", invalid="ignore")  # an overflow in a target or an image is a value, not a warning
def openness_check(
    T: Operator,
    x0,
    epsilon: float,
    delta: float,
    *,
    targets: int = 32,
    budget: int = 1000,
    seed: int = 0,
) -> OpennessVerdict:
    """Probe openness of ``T`` at ``x0`` relative to its image.

    Samples ``targets`` points in the radius-``delta`` ball around ``T(x0)``
    intersected with ``T(E)``: ball points that the row mask
    ``T.image_oracle`` keeps (the clamp), every ball point for a matrix of
    full row rank, and otherwise forward images; and searches the
    radius-``epsilon`` ball around ``x0`` for a preimage of each, ``budget``
    evaluations per target, in sampling order, stopping at the first target
    without one.  It passes only when at least one target was sampled and
    every target got a preimage.  The tries are drawn and tested in blocks
    of at most the tries still needed, so the draws are the one-try loop's.
    """
    if not (0 < epsilon < np.inf and 0 < delta < np.inf):
        raise ValueError("epsilon and delta must be positive and finite")
    if targets < 1 or budget < 1:
        raise ValueError("targets and budget must be at least 1")
    rng = sampling.rng_from(seed)
    x0 = as_vec(x0, T.domain.dim)
    center = apply(T, x0)

    onto = T.matrix is not None and np.linalg.matrix_rank(T.matrix) == T.codomain.dim
    ball = onto or T.image_oracle is not None
    rows, cap = max(1, _BLOCK_ENTRIES[1] // max(T.domain.dim, T.codomain.dim)), (200 if ball else 500) * targets
    sampled, tries = [], 0
    while len(sampled) < targets and tries < cap:
        k = min(targets - len(sampled), cap - tries, rows)
        tries += k
        if ball:
            Y = sampling._ball_point_run(T.codomain, center, delta, k, rng)
            sampled.extend(Y if onto else Y[T.image_oracle(Y)])
        else:
            Y = T.batch(x0 + rng.normal(scale=max(2.0 * epsilon, 1.0), size=(k, T.domain.dim)))
            sampled.extend(Y[order_norms(T.codomain, Y - center) < delta])
    note = "no image oracle; targets are forward images near the probe point"
    if ball:
        note = "" if sampled else "no image points found inside the target ball"

    results = _preimage_searches(T, sampled, x0, epsilon, budget, rng)
    witness = best_residual = None
    if results and results[-1][0] is None:
        witness, best_residual = list(map(float, sampled[len(results) - 1])), float(results[-1][1])
        note = note or "search budget exhausted without a preimage"
    return OpennessVerdict(
        passed=witness is None and bool(sampled),
        witness=witness,
        center=list(map(float, center)),
        epsilon=float(epsilon),
        delta=float(delta),
        targets_tested=len(sampled),
        evals_used=sum(evals for _, _, evals in results),
        budget=budget,
        best_residual=best_residual,
        note=note,
    )


def open_ball_image_check(
    T: Operator,
    epsilon: float,
    *,
    seed: int = 0,
    n: int = 64,
    budget: int = 800,
) -> PropertyReport:
    """For a declared-onto ``T`` with ``T(unit_E)`` the codomain unit, the
    image of the radius-``eps`` ball at zero is the radius-``eps`` ball at
    zero: both inclusions are sampled, preimages found by budgeted search."""
    if not 0 < epsilon < np.inf:
        raise ValueError("epsilon must be positive and finite")
    rng = sampling.rng_from(seed)
    if not unit_image_interior(T):
        witness = {"reason": "unit image is not interior in the codomain cone"}
        return PropertyReport(name="open_ball_image", passed=False, samples=0, witness=witness)
    if not order_norm(T.codomain, T.unit_image - T.codomain.unit) <= TOL:
        witness = {"reason": "codomain unit differs from the unit image", "unit_image": T.unit_image.tolist()}
        return PropertyReport(name="open_ball_image", passed=False, samples=0, witness=witness)

    zero_dom = np.zeros(T.domain.dim)
    xs = sampling.ball_points(T.domain, zero_dom, epsilon, n, rng)
    norms = order_norms(T.codomain, T.batch(xs))
    forward = _verdict(
        "open_ball_image", norms < epsilon + PREIMAGE_TOL, n, lambda i: {"side": "forward", "x": xs[i].tolist(), "image_norm": float(norms[i])}
    )
    if not forward.passed:
        return forward
    ys = sampling.ball_points(T.codomain, np.zeros(T.codomain.dim), epsilon, n, rng)
    results = _preimage_searches(T, ys, zero_dom, epsilon, budget, rng)
    if results and results[-1][0] is None:
        return PropertyReport(
            name="open_ball_image",
            passed=False,
            samples=2 * n,
            witness={
                "side": "preimage",
                "y": ys[len(results) - 1].tolist(),
                "best_residual": float(results[-1][1]),
                "reason": "declared onto, but no preimage found in the matching ball",
            },
        )
    return PropertyReport(name="open_ball_image", passed=True, samples=2 * n)


@np.errstate(over="ignore", invalid="ignore")
def pointwise_limit(Ts: Sequence[Operator], probes, *, tol: float = 1e-6) -> tuple[Operator, PropertyReport]:
    """Tabulated limit of an operator sequence on a probe set.

    Convergence is checked as a Cauchy condition over the last four members:
    the spread at a probe is the greatest order-norm distance between their
    images there, and a probe whose spread is not at most ``tol`` (a NaN
    included) raises, naming the first such probe.  The returned operator
    evaluates by the nearest probe line, the first of the nearest, completed
    along the unit direction, which makes it weakly additive by construction;
    a point with no probe line at a finite distance gets a NaN image.  The
    report also checks order preservation over the comparable probe pairs
    ``(P[i], P[j])``, in row-major order.
    """
    Ts = list(Ts)
    if len(Ts) < 2:
        raise ValueError("need at least two operators to take a limit")
    dom, cod = Ts[0].domain, Ts[0].codomain
    P = np.array([as_vec(p, dom.dim) for p in probes] + [np.zeros(dom.dim)])

    window = [T.batch(P) for T in Ts[-4:]]
    spread = np.max([order_norms(cod, a - b) for i, a in enumerate(window) for b in window[i + 1:]], axis=0)
    k = _first(~(spread <= tol))
    if k is not None:
        raise ValueError(f"sequence diverges at probe {k} ({P[k].tolist()}): tail spread {spread[k]:g} > {tol:g}")

    values, unit_image = window[-1], apply(Ts[-1], dom.unit)

    @np.errstate(over="ignore", invalid="ignore")
    def _limit_eval(x):
        t = _unit_products(dom, x - P)  # row k: ray_thresholds(dom, P[k], x), bit for bit
        lo, hi = t.min(axis=1), t.max(axis=1)
        dist = 0.5 * (hi - lo)
        k = int(np.argmin(np.where(dist < np.inf, dist, np.inf)))  # the first nearest line; NaN is never nearer
        shift = 0.5 * (hi[k] + lo[k]) if dist[k] < np.inf else np.nan
        return values[k] + shift * unit_image

    limit = custom_operator(dom, cod, _limit_eval)

    wa = check_weakly_additive_op(limit, samples=[(p, lam) for p in P for lam in (-1.5, 0.5, 2.0)])
    i, j = np.divmod(np.flatnonzero(cone_contains_rows(dom, (P[None, :] - P[:, None]).reshape(-1, dom.dim))), len(P))
    op = check_order_preserving_op(limit, pairs=list(zip(P[i], P[j])))
    return limit, _all_of("pointwise_limit", [wa, op])


def _matrix_from_json(domain: OrderedSpace, obj: dict) -> Operator:
    matrix = np.asarray(_json_numbers("linear_positive matrix", _json_field(obj, "matrix", "operator"), 2), dtype=float)
    if matrix.ndim != 2 or matrix.size == 0:
        raise ValueError(f"linear_positive matrix must be a nonempty 2-d array, got shape {matrix.shape}")
    codomain = domain if matrix.shape[0] == domain.dim else orthant(matrix.shape[0])
    return linear_positive(domain, codomain, matrix, strict=False)


def _stack_from_json(domain: OrderedSpace, obj: dict) -> Operator:
    fs = _json_list("stack functionals", _json_field(obj, "functionals", "operator"))
    return stack_operator(domain, [functional_from_json(domain, f) for f in fs])


# kind -> (build from a descriptor, descriptor fields besides "kind");
# ``custom`` operators have no descriptor form
_DESCRIPTORS = {
    "linear_positive": (_matrix_from_json, lambda T: {"matrix": T.matrix.tolist()}),
    "clamp": (lambda domain, obj: clamp_operator(domain), lambda T: {}),
    "stack": (_stack_from_json, lambda T: {"functionals": [functional_to_json(f) for f in T.functionals]}),
}


def operator_from_json(domain: OrderedSpace, obj: dict) -> Operator:
    """Build from ``{"kind": "linear_positive"|"clamp"|"stack", ...}``.

    A matrix maps into ``domain`` when its row count is ``domain.dim``, else
    into the orthant of that many rows, and loads with ``strict=False``, so
    diagnostic tooling can load a cone-violating matrix and let the checkers
    report it.  A stack maps into the orthant of one coordinate per functional.
    """
    return _from_descriptor(_DESCRIPTORS, "operator", domain, obj)


def operator_to_json(T: Operator) -> dict:
    return _to_descriptor(_DESCRIPTORS, "operator", T)
