"""Finite-dimensional partially ordered vector spaces carrying an order unit.

A space is a polyhedral cone in half-space form together with a distinguished
interior point, the order unit.  Everything else is derived from the rows:
the partial order, the order norm, its neighbourhood balls, and the ray
thresholds used by the extension machinery.  Every predicate reduces to sign
tests on a handful of inner products, shared tolerance ``TOL``.

Construction is total on finite input: a unit sitting on the cone boundary
or an unpointed row set does not raise, it is reported by
:func:`validate_space`.  This keeps diagnostic tooling able to load and
inspect defective descriptors.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

import numpy as np

TOL = 1e-9
"""Comparison tolerance for all cone/order predicates in the package.

Boundary points count as members of the cone but not of its interior.
"""

MAX_ORTHANT_DIM = 1024
"""Largest dimension :meth:`ConeSpec.nonneg_orthant` builds: its dense identity
rows take 8 MiB there.  Descriptors size orthants (a space's ``dim``, a
matrix's row count, a stack's length), so the bound is checked before
allocating."""


def as_vec(x, dim: int) -> np.ndarray:
    """Coerce ``x`` to a float vector of length ``dim``, or raise ValueError."""
    v = np.asarray(x, dtype=float)
    if v.shape != (dim,):
        raise ValueError(
            f"dimension mismatch: expected a vector of length {dim}, got shape {v.shape}"
        )
    return v


def as_rows(X, dim: int) -> np.ndarray:
    """Coerce ``X`` to a float array of ``dim``-vectors, shape ``(n, dim)``
    (``n`` may be 0), or raise ValueError."""
    a = np.asarray(X, dtype=float)
    if a.size == 0:
        a = a.reshape(0, dim)
    if a.ndim != 2 or a.shape[1] != dim:
        raise ValueError(
            f"dimension mismatch: expected rows of length {dim}, got shape {a.shape}"
        )
    return a


def matvecs(M: np.ndarray, X: np.ndarray) -> np.ndarray:
    """``M @ x`` for every row ``x`` of ``X``, shape ``(n, rows of M)``.

    Bit for bit the per-row product: the stacked matmul runs the same
    vector kernel per row, where ``X @ M.T`` runs a matrix kernel that
    rounds differently.
    """
    return np.matmul(X[:, None, :], M.T)[:, 0, :]


def _finite(name: str, a) -> np.ndarray:
    """``a`` as a float array, or a ValueError naming ``name`` when an entry is not finite."""
    a = np.asarray(a, dtype=float)
    if not np.all(np.isfinite(a)):
        raise ValueError(f"{name} must be finite")
    return a


@dataclass(frozen=True, eq=False)
class ConeSpec:
    """Polyhedral cone ``{x : rows @ x >= 0}``.

    ``orthant`` tags the special case where the rows are the identity, i.e.
    the nonnegative orthant.  At least ``dim`` rows are required for the cone
    to have a chance of being pointed; fewer rows always leave a free line.
    """

    rows: np.ndarray
    orthant: bool = False

    def __post_init__(self):
        rows = np.atleast_2d(np.asarray(self.rows, dtype=float))
        if rows.ndim != 2 or rows.shape[0] == 0:
            raise ValueError("cone requires a nonempty 2-d array of half-space rows")
        object.__setattr__(self, "rows", _finite("cone rows", rows))

    @property
    def dim(self) -> int:
        return self.rows.shape[1]

    @staticmethod
    def nonneg_orthant(dim: int) -> "ConeSpec":
        if int(dim) > MAX_ORTHANT_DIM:
            raise ValueError(f"orthant dimension {int(dim)} exceeds the bound {MAX_ORTHANT_DIM}")
        return ConeSpec(rows=np.eye(int(dim)), orthant=True)


@dataclass(frozen=True, eq=False)
class OrderedSpace:
    """A cone plus an order unit; the ambient dimension is ``dim``.

    The unit is expected to be strictly interior to the cone (every row
    pairs strictly positively with it); this is what makes the order norm
    finite on the whole space.  The expectation is *reported*, not enforced:
    see :func:`validate_space`.
    """

    dim: int
    cone: ConeSpec
    unit: np.ndarray

    def __post_init__(self):
        if int(self.dim) <= 0:
            raise ValueError("dim must be a positive integer")
        object.__setattr__(self, "dim", int(self.dim))
        if self.cone.dim != self.dim:
            raise ValueError(
                f"dimension mismatch: cone rows have {self.cone.dim} columns, dim is {self.dim}"
            )
        object.__setattr__(self, "unit", _finite("the order unit", as_vec(self.unit, self.dim)))

    @cached_property
    def unit_pairings(self) -> np.ndarray:
        """Row-by-row inner products of the half-space rows with the unit."""
        return self.cone.rows @ self.unit

    @cached_property
    def unit_rows(self) -> np.ndarray:
        """The cone rows in multiples of the unit: each row divided by its
        largest absolute entry, then by that scaled row's pairing with the
        unit, so every row pairs to 1 with the unit.

        On an interior unit each row is a positive linear functional normed
        at the unit, and every ratio to the unit (the order norm, the ray
        thresholds, the extension lines) reads this one form.  Scaling
        first keeps a large finite row from overflowing.  Entries are not
        finite when a row pairs to zero with the unit, or so near zero that
        the division overflows.
        """
        rows = self.cone.rows
        with np.errstate(divide="ignore", over="ignore", invalid="ignore"):
            scaled = rows / np.abs(rows).max(axis=1, keepdims=True)
            return scaled / (scaled @ self.unit)[:, None]


def orthant(dim: int, unit=None) -> OrderedSpace:
    """The nonnegative orthant in ``dim`` dimensions, default unit all-ones."""
    u = np.ones(dim) if unit is None else unit
    return OrderedSpace(dim=dim, cone=ConeSpec.nonneg_orthant(dim), unit=u)


def halfspace_space(rows, unit) -> OrderedSpace:
    """Space cut out by half-space rows, with the given order unit."""
    cone = ConeSpec(rows=rows)
    return OrderedSpace(dim=cone.dim, cone=cone, unit=unit)


def cone_contains(space: OrderedSpace, x, tol: float = TOL) -> bool:
    """Membership of ``x`` in the positive cone (boundary inclusive)."""
    v = as_vec(x, space.dim)
    return bool(np.all(space.cone.rows @ v >= -tol))


def interior_contains(space: OrderedSpace, x) -> bool:
    """Strict membership: every half-space functional above ``TOL``."""
    v = as_vec(x, space.dim)
    return bool(np.all(space.cone.rows @ v > TOL))


def cone_contains_rows(space: OrderedSpace, X: np.ndarray, tol: float = TOL) -> np.ndarray:
    """:func:`cone_contains` for every row of the ``(n, dim)`` array ``X``."""
    return np.all(matvecs(space.cone.rows, X) >= -tol, axis=1)


def leq(space: OrderedSpace, x, y) -> bool:
    """Partial order: ``x <= y`` iff ``y - x`` lies in the cone."""
    return cone_contains(space, as_vec(y, space.dim) - as_vec(x, space.dim))


def order_norm(space: OrderedSpace, x) -> float:
    """Least ``lam >= 0`` with ``-lam*unit <= x <= lam*unit``.

    Closed form over the unit-scaled rows: ``max |unit_rows @ x|``, which is
    ``max_k |a_k.x| / (a_k.unit)``.  The result on a unit that is not
    interior is unspecified; validate first.
    """
    v = as_vec(x, space.dim)
    with np.errstate(over="ignore", invalid="ignore"):
        return float(np.max(np.abs(space.unit_rows @ v)))


def order_norms(space: OrderedSpace, X: np.ndarray) -> np.ndarray:
    """:func:`order_norm` for every row of the ``(n, dim)`` array ``X``."""
    with np.errstate(over="ignore", invalid="ignore"):
        return np.abs(matvecs(space.unit_rows, X)).max(axis=1)


def nbhd_contains(space: OrderedSpace, z, delta: float, x) -> bool:
    """Is ``x`` in the open order ball of radius ``delta`` around ``z``?

    Equivalent to ``order_norm(x - z) < delta``; implemented through the
    defining pair of strict cone memberships.
    """
    if not delta > 0:
        raise ValueError("delta must be positive")
    d = as_vec(x, space.dim) - as_vec(z, space.dim)
    shift = delta * space.unit
    return interior_contains(space, shift + d) and interior_contains(space, shift - d)


def product(E: OrderedSpace, F: OrderedSpace) -> OrderedSpace:
    """Coordinatewise product space with unit ``(unit_E, unit_F)``.

    The product order norm is the max of the component norms, which falls
    out of stacking the half-space rows block-diagonally.
    """
    rows = np.block(
        [
            [E.cone.rows, np.zeros((E.cone.rows.shape[0], F.dim))],
            [np.zeros((F.cone.rows.shape[0], E.dim)), F.cone.rows],
        ]
    )
    cone = ConeSpec(rows=rows, orthant=E.cone.orthant and F.cone.orthant)
    return OrderedSpace(dim=E.dim + F.dim, cone=cone, unit=np.concatenate([E.unit, F.unit]))


def ray_thresholds(space: OrderedSpace, x, y) -> tuple[float, float]:
    """Entry/exit parameters of the unit ray through ``x`` against ``y``.

    Returns ``(lambda_minus, lambda_plus)`` where

    * ``lambda_plus  = inf { t : x + t*unit - y  in cone }``
    * ``lambda_minus = sup { t : y - x - t*unit  in cone }``

    Both are finite for an interior unit, and ``lambda_minus <= lambda_plus``.
    """
    d = as_vec(y, space.dim) - as_vec(x, space.dim)
    with np.errstate(over="ignore", invalid="ignore"):
        ratios = space.unit_rows @ d
    return float(np.min(ratios)), float(np.max(ratios))


@dataclass(frozen=True)
class SpaceValidation:
    """Outcome of :func:`validate_space`: per-check entries, never raised,
    and ``samples``, the size of the norm check's random sample."""

    ok: bool
    checks: tuple[dict, ...]
    samples: int

    @property
    def failures(self) -> list[dict]:
        return [c for c in self.checks if not c["passed"]]


def _pointedness_witness(space: OrderedSpace):
    """A nonzero ``v`` with both ``v`` and ``-v`` in the cone, or None.

    The lineality space of ``{x : rows @ x >= 0}`` is the kernel of the rows,
    so the cone holds a line exactly when the last right-singular vector,
    scaled to largest entry ``+1``, has ``|rows @ v| <= TOL``.
    """
    v = np.linalg.svd(space.cone.rows)[2][-1]
    v = v / v[np.argmax(np.abs(v))]
    return v if np.max(np.abs(space.cone.rows @ v)) <= TOL else None


def _unit_interior_entry(space: OrderedSpace) -> dict:
    """The ``unit_interior`` check of :func:`validate_space`, with the least unit pairing."""
    pairings = space.unit_pairings
    k_min = int(np.argmin(pairings))
    return {
        "name": "unit_interior",
        "passed": interior_contains(space, space.unit),
        "detail": {"min_row_pairing": float(pairings[k_min]), "row": k_min},
    }


def validate_space(space: OrderedSpace, samples: int = 256, seed: int = 0) -> SpaceValidation:
    """Report on the order-unit axioms; never throws.

    Checks: the unit is strictly interior; the cone is pointed (the rows have
    no nonzero kernel vector, so no line survives inside it); and on a
    random sample every ``x`` satisfies ``-lam*unit <= x <= lam*unit`` at
    ``lam = order_norm(x) + TOL``.
    """
    checks = [_unit_interior_entry(space)]

    witness = _pointedness_witness(space)
    detail = None if witness is None else {"line_direction": witness.tolist()}
    checks.append({"name": "pointed", "passed": witness is None, "detail": detail})

    X = np.random.default_rng(seed).normal(scale=2.0, size=(samples, space.dim))
    lams = order_norms(space, X)
    finite = np.isfinite(lams)
    with np.errstate(over="ignore", invalid="ignore"):
        shift = (lams + TOL)[:, None] * space.unit
        bounded = finite & cone_contains_rows(space, shift - X) & cone_contains_rows(space, shift + X)
    bound_witness = None
    if not bounded.all():
        i = int(np.argmin(bounded))
        # a norm that is not finite is reported as null, so the detail stays strict JSON
        bound_witness = {"x": X[i].tolist(), "norm": float(lams[i]) if finite[i] else None}
    checks.append({"name": "norm_bounds", "passed": bound_witness is None, "detail": bound_witness})

    return SpaceValidation(ok=all(c["passed"] for c in checks), checks=tuple(checks), samples=samples)


def space_to_json(space: OrderedSpace) -> dict:
    cone = "orthant" if space.cone.orthant else {"halfspaces": space.cone.rows.tolist()}
    return {"dim": space.dim, "cone": cone, "unit": space.unit.tolist()}


def space_from_json(obj: dict) -> OrderedSpace:
    """Build a space from ``{"dim": n, "cone": "orthant" | {"halfspaces": ...}, "unit": [...]}``."""
    try:
        dim = int(obj["dim"])
        cone_obj = obj["cone"]
        unit = obj["unit"]
    except (KeyError, TypeError) as exc:
        raise ValueError(f"bad space descriptor: {exc}") from exc
    if cone_obj == "orthant":
        unit = as_vec(unit, dim)  # a wrong length fails here, before np.eye(dim) allocates
        cone = ConeSpec.nonneg_orthant(dim)
    elif isinstance(cone_obj, dict) and "halfspaces" in cone_obj:
        cone = ConeSpec(rows=cone_obj["halfspaces"])
    else:
        raise ValueError("bad space descriptor: cone must be 'orthant' or {'halfspaces': rows}")
    return OrderedSpace(dim=dim, cone=cone, unit=unit)
