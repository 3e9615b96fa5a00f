"""Weakly additive, order-preserving operators between order-unit spaces.

Mirrors :mod:`orderunit.functionals` one level up: an operator maps one
space into another, commutes with shifts along the domain unit
(``T(x + lam*unit_E) = T(x) + lam*T(unit_E)``) and respects the cone
orders.  Those two sampled laws buy the quantitative conclusions checked
here: a Lipschitz modulus ``||T(unit_E)||``, a uniform equicontinuity
modulus ``delta(eps) = eps / sup ||T(unit_E)||`` for whole families with a
bounded orbit at the unit, stability of the laws under pointwise limits,
and the open-mapping behaviour probed by a budgeted preimage search.

Kinds: ``linear_positive`` (a cone-preserving matrix), ``clamp`` (the
plane operator that pins the second coordinate into the band
``[x1 - 1, x1 + 1]``; the stock example that is weakly additive and
order-preserving yet not open away from the band), ``stack`` (one
functional per codomain coordinate) and ``custom``.
"""

from __future__ import annotations

from dataclasses import asdict, dataclass, field
from functools import partial
from typing import Callable, Sequence

import numpy as np

from . import sampling
from .functionals import (
    Functional,
    PropertyReport,
    _first,
    _from_descriptor,
    _order_report,
    _row_loop,
    _shift_report,
    _to_descriptor,
    _unzip,
    evaluate,
    functional_from_json,
    functional_to_json,
)
from .spaces import (
    TOL,
    OrderedSpace,
    _finite,
    as_rows,
    as_vec,
    cone_contains_rows,
    interior_contains,
    leq,
    matvecs,
    order_norm,
    order_norms,
    orthant,
    ray_thresholds,
)


@dataclass(frozen=True, eq=False)
class Operator:
    """Map between two spaces with a declared kind; ``fn`` is the kind's
    evaluator on a vector already checked against the domain, ``batch`` its
    evaluator on an ``(n, domain dim)`` array of such vectors, returning the
    ``(n, codomain dim)`` images, ``image_oracle`` its exact membership test
    for ``T(E)`` where one is known, and ``unit_image`` caches the value at
    the domain unit.

    ``batch`` equals ``fn`` row by row, bit for bit, and the law checkers
    evaluate through it; a ``custom`` operator leaves it unset and gets the
    row loop over ``fn``."""

    domain: OrderedSpace
    codomain: OrderedSpace
    kind: str
    fn: Callable[[np.ndarray], np.ndarray]
    matrix: np.ndarray | None = None
    functionals: tuple[Functional, ...] | None = None
    image_oracle: Callable[[np.ndarray], bool] | None = None
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


def _in_band(y) -> bool:
    return abs(float(y[1]) - float(y[0])) <= 1.0 + TOL


def _in_range(M: np.ndarray, y) -> bool:
    sol, *_ = np.linalg.lstsq(M, np.asarray(y, dtype=float), rcond=None)
    return bool(np.max(np.abs(M @ sol - y)) <= 1e-8)


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
        image_oracle=partial(_in_range, m),
        batch=partial(matvecs, m),
    )
    if strict:
        points = sampling.cone_points(domain, 128, 0)
        if domain.cone.orthant:
            points = np.concatenate([points, np.eye(domain.dim)])
        i = _first(~cone_contains_rows(codomain, T.batch(points)))
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


def _max_abs_rows(V: np.ndarray) -> np.ndarray:
    return np.max(np.abs(V), axis=1)


def check_weakly_additive_op(
    T: Operator, samples=None, *, seed: int = 0, n: int = 2**12, tol: float = TOL
) -> PropertyReport:
    """Componentwise defect of ``T(x + lam*unit) - T(x) - lam*T(unit)``."""
    return _shift_report("weakly_additive", T.batch, T.domain, T.unit_image, samples, seed, n, _max_abs_rows, _max_abs, tol)


def check_order_preserving_op(
    T: Operator, pairs=None, *, seed: int = 0, n: int = 2**12, tol: float = TOL
) -> PropertyReport:
    """``x <= y`` in the domain must give ``T(x) <= T(y)`` in the codomain."""

    def broken(txs, tys):
        return ~cone_contains_rows(T.codomain, tys - txs, tol=tol)

    return _order_report("order_preserving", T.batch, T.domain, pairs, seed, n, broken, "T", lambda v: list(map(float, v)))


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
    samples = len(xs) * len(family)
    for k, T in enumerate(family):
        gaps = order_norms(family.codomain, T.batch(xs) - T.batch(ys))
        i = _first(gaps >= eps + tol)
        if i is not None:
            witness = {"member": k, "x": list(map(float, xs[i])), "y": list(map(float, ys[i])), "image_gap": float(gaps[i])}
            return PropertyReport(name="equicontinuity", passed=False, samples=samples, witness=witness)
    return PropertyReport(name="equicontinuity", passed=True, samples=samples)


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
        defects[:, j] = np.max(np.abs(gxs + lam * gu - np.concatenate([shifted, images], axis=1)), axis=1)
    k = _first(defects.ravel() > tol)  # row-major: sample by sample, each over the lambdas
    if k is None:
        return PropertyReport(name="graph_shift_closure", passed=True, samples=defects.size)
    i, j = divmod(k, len(lambdas))
    witness = {"x": list(map(float, xs[i])), "lam": float(lambdas[j]), "defect": float(defects[i, j])}
    return PropertyReport(name="graph_shift_closure", passed=False, samples=k + 1, witness=witness)


PREIMAGE_TOL = 1e-6
"""Slack of the openness probes: a preimage search stops at a residual
``|T(x) - y|`` at or below it, and :func:`open_ball_image_check` lets an
image norm exceed ``epsilon`` by it."""


def _preimage_search(T: Operator, y, x0, epsilon: float, budget: int, rng):
    """Multi-start coordinate descent for ``x`` in the open ball around
    ``x0`` with ``T(x) = y``; returns ``(x or None, best residual, evals <= budget)``.

    Exhausting the budget is a semi-decision: it reports that no preimage
    was *found*, not that none exists.
    """
    dom = T.domain
    y = as_vec(y, T.codomain.dim)
    x0 = as_vec(x0, dom.dim)
    evals = 0

    def inside(x):
        return order_norm(dom, x - x0) < epsilon * (1.0 - 1e-12)

    def residual(x):
        nonlocal evals
        evals += 1
        r = apply(T, x) - y
        return float(np.sqrt(r @ r))

    starts = [x0.copy()]
    if T.codomain.dim == dom.dim and inside(y):
        starts.append(y.copy())
    if T.matrix is not None:
        sol, *_ = np.linalg.lstsq(T.matrix, y, rcond=None)
        if inside(sol):
            starts.append(sol)
    starts.extend(sampling.ball_point(dom, x0, epsilon * 0.95, rng) for _ in range(6))

    best_x, best = None, np.inf
    for s in starts:
        if evals >= budget:
            break
        x = s.copy()
        val = residual(x)
        step = epsilon / 2.0
        while evals < budget and val > PREIMAGE_TOL and step > 1e-14:
            improved = False
            for i in range(dom.dim):
                for sign in (1.0, -1.0):
                    cand = x.copy()
                    cand[i] += sign * step
                    if evals >= budget or not inside(cand):
                        continue
                    v = residual(cand)
                    if v < val - 1e-15:
                        x, val = cand, v
                        improved = True
                        break
                if evals >= budget or val <= PREIMAGE_TOL:
                    break
            if not improved:
                step *= 0.5
        if val < best:
            best, best_x = val, x
        if best <= PREIMAGE_TOL:
            return best_x, best, evals
    return (best_x if best <= PREIMAGE_TOL else None), best, evals


@dataclass(frozen=True)
class OpennessVerdict:
    """Outcome of a relative-openness probe.

    A FAIL means the budgeted search found no preimage for ``witness``; it
    is evidence against openness at the probed point, not a proof.
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
    intersected with ``T(E)`` (membership decided by ``T.image_oracle``,
    which the clamp and matrix kinds set; without one, targets are forward
    images) and searches the radius-``epsilon`` ball around ``x0`` for a
    preimage of each, ``budget`` evaluations per target.
    """
    if not (epsilon > 0 and delta > 0):
        raise ValueError("epsilon and delta must be positive")
    if targets < 1 or budget < 1:
        raise ValueError("targets and budget must be at least 1")
    rng = sampling.rng_from(seed)
    x0 = as_vec(x0, T.domain.dim)
    center = apply(T, x0)

    note = ""
    sampled = []
    tries = 0
    if T.image_oracle is not None:
        while len(sampled) < targets and tries < 200 * targets:
            y = sampling.ball_point(T.codomain, center, delta, rng)
            tries += 1
            if T.image_oracle(y):
                sampled.append(y)
        if not sampled:
            note = "no image points found inside the target ball"
    else:
        note = "no image oracle; targets are forward images near the probe point"
        while len(sampled) < targets and tries < 500 * targets:
            tries += 1
            x = x0 + rng.normal(scale=max(2.0 * epsilon, 1.0), size=T.domain.dim)
            y = apply(T, x)
            if order_norm(T.codomain, y - center) < delta:
                sampled.append(y)

    evals_total = 0
    witness = best_residual = None
    for y in sampled:
        found, best, evals = _preimage_search(T, y, x0, epsilon, budget, rng)
        evals_total += evals
        if found is None:
            witness, best_residual = list(map(float, y)), float(best)
            note = note or "search budget exhausted without a preimage"
            break
    return OpennessVerdict(
        passed=witness is None,
        witness=witness,
        center=list(map(float, center)),
        epsilon=float(epsilon),
        delta=float(delta),
        targets_tested=len(sampled),
        evals_used=evals_total,
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
    if not epsilon > 0:
        raise ValueError("epsilon must be positive")
    rng = sampling.rng_from(seed)
    if not unit_image_interior(T):
        return PropertyReport(
            name="open_ball_image",
            passed=False,
            samples=0,
            witness={"reason": "unit image is not interior in the codomain cone"},
        )
    if order_norm(T.codomain, T.unit_image - T.codomain.unit) > 1e-9:
        return PropertyReport(
            name="open_ball_image",
            passed=False,
            samples=0,
            witness={
                "reason": "codomain unit differs from the unit image",
                "unit_image": list(map(float, T.unit_image)),
            },
        )

    zero_dom = np.zeros(T.domain.dim)
    xs = sampling.ball_points(T.domain, zero_dom, epsilon, n, rng)
    norms = order_norms(T.codomain, T.batch(xs))
    i = _first(norms >= epsilon + PREIMAGE_TOL)
    if i is not None:
        return PropertyReport(
            name="open_ball_image",
            passed=False,
            samples=n,
            witness={"side": "forward", "x": list(map(float, xs[i])), "image_norm": float(norms[i])},
        )
    for y in sampling.ball_points(T.codomain, np.zeros(T.codomain.dim), epsilon, n, rng):
        found, best, _ = _preimage_search(T, y, zero_dom, epsilon, budget, rng)
        if found is None:
            return PropertyReport(
                name="open_ball_image",
                passed=False,
                samples=2 * n,
                witness={
                    "side": "preimage",
                    "y": list(map(float, y)),
                    "best_residual": float(best),
                    "reason": "declared onto, but no preimage found in the matching ball",
                },
            )
    return PropertyReport(name="open_ball_image", passed=True, samples=2 * n)


def pointwise_limit(Ts: Sequence[Operator], probes, *, tol: float = 1e-6) -> tuple[Operator, PropertyReport]:
    """Tabulated limit of an operator sequence on a probe set.

    Convergence is checked as a Cauchy condition over the last four members
    at every probe (divergence raises, naming the probe).  The returned
    operator evaluates by nearest probe line, completed along the unit
    direction, which makes it weakly additive by construction; the report
    also checks order preservation over the comparable probe pairs.
    """
    Ts = list(Ts)
    if len(Ts) < 2:
        raise ValueError("need at least two operators to take a limit")
    dom, cod = Ts[0].domain, Ts[0].codomain
    P = np.array([as_vec(p, dom.dim) for p in probes] + [np.zeros(dom.dim)])

    window = [T.batch(P) for T in Ts[-4:]]
    for idx, p in enumerate(P):
        values = [images[idx] for images in window]
        worst = max(order_norm(cod, a - b) for i, a in enumerate(values) for b in values[i + 1:])
        if worst > tol:
            raise ValueError(
                f"sequence diverges at probe {idx} ({p.tolist()}): tail spread {worst:g} > {tol:g}"
            )

    unit_image = apply(Ts[-1], dom.unit)

    def _limit_eval(x):
        best_val, best_dist, best_shift = None, np.inf, 0.0
        for p, v in zip(P, window[-1]):
            lo, hi = ray_thresholds(dom, p, x)
            dist = 0.5 * (hi - lo)
            if dist < best_dist:
                best_dist, best_val, best_shift = dist, v, 0.5 * (hi + lo)
        return best_val + best_shift * unit_image

    limit = custom_operator(dom, cod, _limit_eval)

    wa = check_weakly_additive_op(limit, samples=[(p, lam) for p in P for lam in (-1.5, 0.5, 2.0)])
    pairs = [(p, q) for p in P for q in P if leq(dom, p, q)]
    op = check_order_preserving_op(limit, pairs=pairs)
    passed = wa.passed and op.passed
    report = PropertyReport(
        name="pointwise_limit",
        passed=passed,
        samples=wa.samples + op.samples,
        witness=None if passed else (wa.witness or op.witness),
    )
    return limit, report


def _matrix_from_json(domain: OrderedSpace, obj: dict) -> Operator:
    matrix = np.asarray(obj["matrix"], dtype=float)
    if matrix.ndim != 2 or matrix.size == 0:
        raise ValueError(f"linear_positive matrix must be a nonempty 2-d array, got shape {matrix.shape}")
    codomain = domain if matrix.shape[0] == domain.dim else orthant(matrix.shape[0])
    return linear_positive(domain, codomain, matrix, strict=False)


# kind -> (build from a descriptor, descriptor fields besides "kind");
# ``custom`` operators have no descriptor form
_DESCRIPTORS = {
    "linear_positive": (_matrix_from_json, lambda T: {"matrix": T.matrix.tolist()}),
    "clamp": (lambda domain, obj: clamp_operator(domain), lambda T: {}),
    "stack": (
        lambda domain, obj: stack_operator(domain, [functional_from_json(domain, f) for f in obj["functionals"]]),
        lambda T: {"functionals": [functional_to_json(f) for f in T.functionals]},
    ),
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
