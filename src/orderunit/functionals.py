"""Concrete weakly additive functionals and the checkers for their laws.

A functional here is a map from a space to the reals with a declared kind.
The interesting ones commute with shifts along the order unit,

    f(x + lam * unit) = f(x) + lam * f(unit),

("weak additivity") and may or may not respect the cone order.  The package
ships four closed-form kinds:

* ``linear``    -- a weight vector, the classical case;
* ``choquet``   -- the sorted-sum aggregation against a capacity;
* ``maxplus``   -- idempotent aggregation ``max_i (w_i + x_i)``;
* ``sqrt_gap``  -- the 2-d half-sum plus square-rooted coordinate gap,
  the stock example of a weakly additive, positive functional that is
  *not* order-preserving;

plus ``extended`` (produced by :mod:`orderunit.extension`) and ``custom``
(an arbitrary evaluation hook, mainly for counterexamples in tests).

Choquet and max-plus aggregation act on coordinates, so their weak
additivity is relative to a constant-vector unit (the usual orthant with an
all-ones unit, up to scale).  On other units the checkers will simply
report the failure.

All ``check_*`` operations are sampling-based with a seeded generator and
return a :class:`PropertyReport`; a failed report always carries a
reproducible witness.
"""

from __future__ import annotations

import warnings
from dataclasses import asdict, dataclass, field
from functools import partial
from typing import Callable

import numpy as np

from . import sampling
from .spaces import TOL, OrderedSpace, _finite, _fold_rows, _json_field, _json_int, _json_number, _json_numbers, as_rows, as_vec, matvecs, order_norms


@dataclass(frozen=True, eq=False)
class Capacity:
    """Monotone set function on ``{0, .., n-1}`` with ``v(empty) = 0``.

    ``values`` has length ``2**n`` and is indexed by subset bitmask.
    Monotonicity is *not* enforced at construction (several checks exist to
    expose what breaks without it); query it with :meth:`is_monotone`.
    """

    n: int
    values: np.ndarray

    def __post_init__(self):
        object.__setattr__(self, "n", int(self.n))
        vals = _finite("capacity values", self.values)
        if vals.shape != (2**self.n,):
            raise ValueError(f"capacity on {self.n} points needs {2**self.n} values, got {vals.shape}")
        if abs(vals[0]) > TOL:
            raise ValueError("capacity must vanish on the empty set")
        if np.any(vals < -TOL):
            raise ValueError("capacity values must be nonnegative")
        object.__setattr__(self, "values", vals)

    @property
    def full_mask(self) -> int:
        return (1 << self.n) - 1

    @property
    def total(self) -> float:
        """Value on the full ground set."""
        return float(self.values[self.full_mask])

    def monotonicity_witness(self):
        """The first covering pair ``(S minus {i}, S)``, by mask ``S`` and then bit ``i``, whose value drops by more than ``TOL``, or None."""
        v, masks = self.values, np.arange(len(self.values))
        drops = np.array([((masks & (1 << i)) > 0) & (v < v[masks & ~(1 << i)] - TOL) for i in range(self.n)], dtype=bool)
        hit = drops.reshape(self.n, len(v)).any(axis=0)
        if not hit.any():
            return None
        mask = int(hit.argmax())
        return mask & ~(1 << int(drops[:, mask].argmax())), mask

    def is_monotone(self) -> bool:
        return self.monotonicity_witness() is None


_MAX_GROUND_SIZE = 16
"""Largest ground set :func:`capacity_from_dict` builds: ``2**16`` values, 512 KiB."""


def capacity_from_dict(n: int, subset_values: dict) -> Capacity:
    """Capacity from ``{bitmask: value}`` (missing masks default to 0, masks
    outside ``[0, 2**n)`` are refused) on at most ``_MAX_GROUND_SIZE`` points."""
    if not 0 <= n <= _MAX_GROUND_SIZE:
        raise ValueError(f"capacity ground size must lie in [0, {_MAX_GROUND_SIZE}], got {n}")
    if not isinstance(subset_values, dict):
        raise ValueError(f"capacity values must be an object of masks, got {type(subset_values).__name__}")
    vals = np.zeros(2**n)
    for mask, v in subset_values.items():
        if not 0 <= int(mask) < 2**n:
            raise ValueError(f"capacity mask {mask} outside [0, {2**n})")
        vals[int(mask)] = float(v)
    return Capacity(n=n, values=vals)


def _ground_size(n) -> int:
    """A capacity's ground size ``n``: a JSON integer in ``[0, _MAX_GROUND_SIZE]``, checked before anything is allocated."""
    n = _json_int("capacity ground size n", n)
    if not 0 <= n <= _MAX_GROUND_SIZE:
        raise ValueError(f"capacity ground size must lie in [0, {_MAX_GROUND_SIZE}], got {n}")
    return n


def _mask(key: str) -> int:
    """A capacity mask key: a decimal integer in ASCII digits, so ``"1_0"``, ``" 3 "`` and ``"٣"`` are refused.
    Past leading zeros, a key with more digits than ``2**_MAX_GROUND_SIZE - 1`` is
    refused before ``int()``, which reads at most 4,300 digits."""
    digits = key.removeprefix("-")
    if not (key.isascii() and digits.isdigit()):
        raise ValueError(f"capacity mask {key!r} must be a decimal integer")
    digits = digits.lstrip("0") or "0"
    if len(digits) > len(str(2**_MAX_GROUND_SIZE - 1)):
        raise ValueError(f"capacity mask of {len(digits)} digits outside [0, 2**{_MAX_GROUND_SIZE})")
    return -int(digits) if key.startswith("-") else int(digits)


def capacity_from_json(obj: dict) -> Capacity:
    n = _ground_size(_json_field(obj, "n", "capacity"))
    values = _json_field(obj, "values", "capacity")
    if isinstance(values, dict):  # else capacity_from_dict names the type
        masks = {_mask(k): _json_number("capacity values", v) for k, v in values.items()}
        if len(masks) < len(values):  # two keys, such as "01" and "1" or "-0" and "0", name one subset
            first = {}
            k = next(k for k in values if first.setdefault(_mask(k), k) != k)
            raise ValueError(f"capacity masks {first[_mask(k)]!r} and {k!r} name one subset")
        values = masks
    return capacity_from_dict(n, values)


def capacity_to_json(cap: Capacity) -> dict:
    return {
        "n": cap.n,
        "values": {str(mask): float(v) for mask, v in enumerate(cap.values) if mask and v != 0.0},
    }


def _sqrt_gap(v: np.ndarray):
    return 0.5 * (v[0] + v[1] + np.sqrt(abs(v[1] - v[0])))


def _sqrt_gap_rows(X: np.ndarray) -> np.ndarray:
    return 0.5 * (X[:, 0] + X[:, 1] + np.sqrt(np.abs(X[:, 1] - X[:, 0])))


def sqrt_gap(x) -> float:
    """Half-sum plus square-rooted coordinate gap on the plane:
    ``(x1 + x2 + sqrt(|x2 - x1|)) / 2``."""
    return float(_sqrt_gap(as_vec(x, 2)))


def _choquet(cap: Capacity, v: np.ndarray):
    order = np.argsort(v, kind="stable")
    xs = v[order]
    mask = cap.full_mask
    total = xs[0] * cap.values[mask]
    for i in range(1, cap.n):
        mask &= ~(1 << int(order[i - 1]))
        total += (xs[i] - xs[i - 1]) * cap.values[mask]
    return total


def _choquet_rows(cap: Capacity, X: np.ndarray) -> np.ndarray:
    """:func:`_choquet` on every row: the same sums, column by column, with one mask per row."""
    order = np.argsort(X, axis=1, kind="stable")
    xs = np.take_along_axis(X, order, axis=1)
    mask = np.full(len(X), cap.full_mask)
    total = xs[:, 0] * cap.values[mask]
    for i in range(1, cap.n):
        mask &= ~(1 << order[:, i - 1])
        total += (xs[:, i] - xs[:, i - 1]) * cap.values[mask]
    return total


def choquet(cap: Capacity, x) -> float:
    """Sorted-sum aggregation of ``x`` against the capacity.

    With coordinates sorted ascending (ties broken by index) and ``A_i`` the
    index set of the ``n - i + 1`` largest coordinates:

        x_(1) * v(full) + sum_{i>=2} (x_(i) - x_(i-1)) * v(A_i)
    """
    return float(_choquet(cap, as_vec(x, cap.n)))


def _maxplus(w: np.ndarray, v: np.ndarray):
    return np.max(w + v)


def _maxplus_rows(w: np.ndarray, X: np.ndarray) -> np.ndarray:
    """:func:`_maxplus` for every row, bit for bit.  Which zero or NaN a maximum is depends on the order
    a short row is folded in (:func:`spaces._fold_rows`), so those rows keep the reduction."""
    out = _fold_rows(np.maximum, X, lambda c, j: w[j] + c)
    odd = np.flatnonzero(~(np.abs(out) > 0.0))
    out[odd] = np.max(w + X[odd], axis=1)
    return out


def maxplus(weights, x) -> float:
    """Idempotent aggregation ``max_i (w_i + x_i)``."""
    w = np.asarray(weights, dtype=float)
    if w.size == 0:
        raise ValueError("maxplus requires at least one weight")
    return float(_maxplus(w, as_vec(x, w.size)))


def _linear_rows(w: np.ndarray, X: np.ndarray) -> np.ndarray:
    return matvecs(w[None, :], X)[:, 0]


def _row_loop(fn, shape: tuple, X: np.ndarray) -> np.ndarray:
    """The batch evaluator of a kind with no vectorized form: ``fn`` on every row."""
    return np.array([fn(x) for x in X], dtype=float).reshape(len(X), *shape)


@dataclass(frozen=True, eq=False)
class Functional:
    """Evaluation map with a declared kind; immutable after construction.

    ``fn`` is the kind's evaluator on a vector already checked against the
    space.  ``batch`` is its evaluator on an ``(n, dim)`` array of such
    vectors, returning the ``n`` values; it equals ``fn`` row by row, bit for
    bit, and the law checkers evaluate through it.  Kinds without a
    vectorized form (``custom``, ``extended``) leave it unset and get the row
    loop over ``fn``.  ``unit_value`` caches ``f(unit)``.  Use the
    ``*_functional`` helpers below rather than instantiating directly.
    """

    space: OrderedSpace
    kind: str
    fn: Callable[[np.ndarray], float]
    weights: np.ndarray | None = None
    capacity: Capacity | None = None
    batch: Callable[[np.ndarray], np.ndarray] | None = None
    unit_value: float = field(init=False)

    def __post_init__(self):
        if self.batch is None:
            object.__setattr__(self, "batch", partial(_row_loop, self.fn, ()))
        object.__setattr__(self, "unit_value", evaluate(self, self.space.unit))

    def __call__(self, x) -> float:
        return evaluate(self, x)


def evaluate(f: Functional, x) -> float:
    """Value of ``f`` at ``x``."""
    return float(f.fn(as_vec(x, f.space.dim)))


def linear_functional(space: OrderedSpace, weights) -> Functional:
    w = _finite("linear weights", as_vec(weights, space.dim))
    return Functional(space=space, kind="linear", fn=w.__matmul__, weights=w, batch=partial(_linear_rows, w))


def sqrt_gap_functional(space: OrderedSpace) -> Functional:
    if space.dim != 2:
        raise ValueError("sqrt_gap is defined on 2-d spaces only")
    return Functional(space=space, kind="sqrt_gap", fn=_sqrt_gap, batch=_sqrt_gap_rows)


def choquet_functional(space: OrderedSpace, cap: Capacity) -> Functional:
    if cap.n != space.dim:
        raise ValueError("capacity ground size must equal the space dimension")
    return Functional(
        space=space, kind="choquet", fn=partial(_choquet, cap), capacity=cap, batch=partial(_choquet_rows, cap)
    )


def maxplus_functional(space: OrderedSpace, weights) -> Functional:
    w = _finite("maxplus weights", as_vec(weights, space.dim))
    if abs(np.max(w)) > TOL:
        warnings.warn(
            f"maxplus weights are not normalized (max = {np.max(w):g}, expected 0); "
            "the functional will not be normed at an all-ones unit",
            stacklevel=2,
        )
    return Functional(space=space, kind="maxplus", fn=partial(_maxplus, w), weights=w, batch=partial(_maxplus_rows, w))


def custom_functional(space: OrderedSpace, hook: Callable[[np.ndarray], float]) -> Functional:
    return Functional(space=space, kind="custom", fn=hook)


@dataclass(frozen=True)
class PropertyReport:
    """Outcome of one sampled property check.

    ``witness`` is None on pass; on failure it reproduces the offending
    input(s) and the values both sides of the violated inequality took.
    """

    name: str
    passed: bool
    samples: int
    witness: dict | None = None

    def to_json(self) -> dict:
        return asdict(self)


def _unzip(pairs, dim: int, second_dim: int | None = None):
    """The two columns of a sequence of pairs as float arrays: ``(n, dim)``
    rows, and ``(n, second_dim)`` rows or, without ``second_dim``, ``n`` scalars."""
    firsts = as_rows([p[0] for p in pairs], dim)
    seconds = [p[1] for p in pairs]
    return firsts, (np.array(seconds, dtype=float) if second_dim is None else as_rows(seconds, second_dim))


def _first(failing: np.ndarray):
    """Index of the first true entry of a boolean array, or None."""
    hits = np.flatnonzero(failing)
    return int(hits[0]) if hits.size else None


def _verdict(name: str, holds: np.ndarray, samples: int, witness) -> PropertyReport:
    """The one pass rule of the sampled checkers: ``holds`` is the mask of the
    samples where the checked inequality holds, and the report fails on the
    first sample ``i`` where it does not, with ``witness(i)``.  Every comparison
    with NaN is false, so a NaN defect fails and is the witness."""
    i = _first(~holds)
    if i is None:
        return PropertyReport(name=name, passed=True, samples=samples)
    return PropertyReport(name=name, passed=False, samples=samples, witness=witness(i))


def _all_of(name: str, parts: list) -> PropertyReport:
    """The report of several checks that must all pass: ``samples`` summed, and
    on failure the first failing part's witness, its name under ``failed_check``."""
    failed = next((p for p in parts if not p.passed), None)
    return PropertyReport(
        name=name,
        passed=failed is None,
        samples=sum(p.samples for p in parts),
        witness=None if failed is None else {"failed_check": failed.name, **(failed.witness or {})},
    )


@np.errstate(over="ignore", invalid="ignore")  # an overflow in a sample is a value, not a warning
def _shift_report(name: str, batch, space, unit_image, samples, seed: int, n: int, size, shown, tol: float) -> PropertyReport:
    """Passes the samples ``(x, lam)``, given or else ``n`` drawn at ``seed``,
    whose shift defect ``batch(x + lam*unit) - batch(x) - lam*unit_image`` has
    ``size`` at most ``tol`` (``size`` maps the stacked defects to one number
    each); the witness gives the defect as ``shown(defect)``."""
    if samples is None:
        xs, lams = sampling._shift_arrays(space, n, sampling.rng_from(seed))
    else:
        xs, lams = _unzip(samples, space.dim)
    defects = batch(xs + lams[:, None] * space.unit) - batch(xs) - np.multiply.outer(lams, unit_image)
    return _verdict(
        name, size(defects) <= tol, len(xs), lambda i: {"x": xs[i].tolist(), "lam": float(lams[i]), "defect": shown(defects[i])}
    )


@np.errstate(over="ignore", invalid="ignore")
def _order_report(name: str, batch, space, pairs, seed: int, n: int, holds, image: str) -> PropertyReport:
    """Passes the comparable pairs ``(x, y)``, given or else ``n`` drawn at
    ``seed``, with ``holds(batch(x), batch(y))`` (``holds`` compares stacked
    images row by row); the witness gives the images as ``<image>_x`` and
    ``<image>_y``."""
    if pairs is None:
        xs, ys = sampling._comparable_arrays(space, n, sampling.rng_from(seed))
    else:
        xs, ys = _unzip(pairs, space.dim, space.dim)
    fxs, fys = batch(xs), batch(ys)

    def witness(i):
        return {"x": xs[i].tolist(), "y": ys[i].tolist(), f"{image}_x": fxs[i].tolist(), f"{image}_y": fys[i].tolist()}

    return _verdict(name, holds(fxs, fys), len(xs), witness)


def check_weak_additivity(
    f: Functional, samples=None, *, seed: int = 0, n: int = 2**14, tol: float = TOL
) -> PropertyReport:
    """Does ``f(x + lam*unit) - f(x) - lam*f(unit)`` vanish on the samples?"""
    return _shift_report("weak_additivity", f.batch, f.space, f.unit_value, samples, seed, n, np.abs, float, tol)


def check_order_preserving(
    f: Functional, pairs=None, *, seed: int = 0, n: int = 2**14, tol: float = TOL
) -> PropertyReport:
    """Does ``x <= y`` imply ``f(x) <= f(y)`` on the sampled comparable pairs?"""
    return _order_report("order_preserving", f.batch, f.space, pairs, seed, n, lambda fx, fy: fx <= fy + tol, "f")


def check_normed(f: Functional, tol: float = TOL) -> PropertyReport:
    """Is ``f(unit) = 1``?"""
    ok = bool(abs(f.unit_value - 1.0) <= tol)
    return PropertyReport(
        name="normed",
        passed=ok,
        samples=1,
        witness=None if ok else {"unit_value": float(f.unit_value)},
    )


@np.errstate(over="ignore", invalid="ignore")
def check_positive(
    f: Functional, samples=None, *, seed: int = 0, n: int = 2**12, tol: float = TOL
) -> PropertyReport:
    """Is ``f`` nonnegative on the sampled cone points?"""
    if samples is None:
        samples = sampling.cone_points(f.space, n, sampling.rng_from(seed))
    xs = as_rows(samples, f.space.dim)
    fxs = f.batch(xs)
    return _verdict("positive", fxs >= -tol, len(xs), lambda i: {"x": xs[i].tolist(), "f_x": float(fxs[i])})


def bound(f: Functional) -> float:
    """Supremum of ``|f|`` over the open unit ball.

    For a weakly additive, order-preserving ``f`` this equals ``f(unit)``
    exactly, so no sampling is needed; the Monte-Carlo estimate lives in the
    test suite as the independent cross-check.
    """
    return float(f.unit_value)


@np.errstate(over="ignore", invalid="ignore")
def lipschitz_defect(f: Functional, pairs=None, *, seed: int = 0, n: int = 2**12) -> float:
    """Worst ``|f(z) - f(y)| - f(unit) * order_norm(z - y)`` over the pairs.

    Weakly additive order-preserving functionals are Lipschitz with constant
    ``f(unit)`` in the order norm, so the defect stays below tolerance.  A NaN
    defect is the result, as the law checkers fail it; no pairs give ``-inf``.
    """
    if pairs is None:
        rng = sampling.rng_from(seed)
        ys = sampling.box_points(f.space, n, rng)
        zs = sampling.box_points(f.space, n, rng)
    else:
        ys, zs = _unzip(pairs, f.space.dim, f.space.dim)
    defects = np.abs(f.batch(zs) - f.batch(ys)) - f.unit_value * order_norms(f.space, zs - ys)
    return float(np.max(defects, initial=-np.inf))


def _weights(obj: dict, kind: str):
    return _json_numbers(f"{kind} weights", _json_field(obj, "weights", "functional"), 1)


# kind -> (build from a descriptor, descriptor fields besides "kind");
# ``custom`` and ``extended`` functionals have no descriptor form
_DESCRIPTORS = {
    "linear": (lambda space, obj: linear_functional(space, _weights(obj, "linear")), lambda f: {"weights": f.weights.tolist()}),
    "sqrt_gap": (lambda space, obj: sqrt_gap_functional(space), lambda f: {}),
    "choquet": (
        lambda space, obj: choquet_functional(space, capacity_from_json(_json_field(obj, "capacity", "functional"))),
        lambda f: {"capacity": capacity_to_json(f.capacity)},
    ),
    "maxplus": (lambda space, obj: maxplus_functional(space, _weights(obj, "maxplus")), lambda f: {"weights": f.weights.tolist()}),
}


def _from_descriptor(descriptors: dict, noun: str, space: OrderedSpace, obj: dict):
    """Build through ``descriptors`` (``kind -> (build, fields)``) from ``{"kind": ..., <fields>}``;
    a subject whose value at the unit is not finite is refused."""
    kind = _json_field(obj, "kind", noun)
    if not isinstance(kind, str) or kind not in descriptors:
        raise ValueError(f"unknown {noun} kind {kind!r}")
    with np.errstate(all="ignore"), warnings.catch_warnings():  # an overflow at the unit is the error raised below
        warnings.simplefilter("ignore", UserWarning)  # unnormed maxplus weights are a failed check_normed, not a warning
        subject = descriptors[kind][0](space, obj)
    at_unit = subject.unit_value if noun == "functional" else subject.unit_image
    if not np.isfinite(at_unit).all():
        raise ValueError(f"bad {noun} descriptor: its value at the unit, {np.asarray(at_unit).tolist()}, is not finite")
    return subject


def _to_descriptor(descriptors: dict, noun: str, subject) -> dict:
    """``{"kind": ..., <fields>}`` of a functional or operator through ``descriptors``."""
    if subject.kind not in descriptors:
        raise ValueError(f"{noun} kind {subject.kind!r} has no descriptor form")
    return {"kind": subject.kind, **descriptors[subject.kind][1](subject)}


def functional_from_json(space: OrderedSpace, obj: dict) -> Functional:
    """Build from ``{"kind": ..., "weights": [...] | "capacity": {...}}``."""
    return _from_descriptor(_DESCRIPTORS, "functional", space, obj)


def functional_to_json(f: Functional) -> dict:
    return _to_descriptor(_DESCRIPTORS, "functional", f)
