"""Finite-dimensional partially ordered vector spaces carrying an order unit.

A space is a polyhedral cone in half-space form together with a distinguished
interior point, the order unit.  Everything else is derived from the rows:
the partial order, the order norm, its neighbourhood balls, and the ray
thresholds used by the extension machinery.  The cone stores its rows scaled
to largest absolute entry 1, so every predicate reduces to sign tests on a
handful of inner products, shared tolerance ``TOL``, whatever the row scale.

The row forms of the kernels (:func:`order_norms`, :func:`cone_contains_rows`)
agree with the one-point forms bit for bit and verdict for verdict.
:func:`matvecs` is their exact path: it rounds each row's products as the
one-point kernel does.  :func:`cone_contains_rows` decides most rows from one
block product ``P = rows @ X.T`` instead, which rounds differently, and keeps
every verdict exact with a filter.  Two orders of summing ``d`` products lie
within ``2 * gamma_d * S`` of each other, where ``S`` is the sum of the
absolute products and ``gamma_d = d*u / (1 - d*u)`` (``u = 2**-53``); the
bound ``B = (2d + 4) * u * fl(|rows| @ |X|.T) + 1e-300`` covers that gap.  A
row whose every ``P - B`` clears ``-tol`` is in, a row with some ``P + B``
below ``-tol`` is out, and every other row, as well as one with a NaN, an
infinity or a sum near overflow, takes the exact path.  An orthant's finite
rows (tag ``orthant``, identity rows) skip the products, which are their
entries plus zeros, in verdicts and bits alike (:func:`_unit_products`).
Short rows are reduced column by column (:func:`_fold_rows`).  The predicates
and the row kernels run under ``np.errstate(over="ignore", invalid="ignore")``:
an overflow is a value (``inf`` or NaN), never a warning.

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

_PAST_FLOAT = 2**1024 - 2**970  # the least integer that float() rounds past the largest float


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
    (an empty sequence is ``n = 0``), or raise ValueError.

    One conversion for the whole block; ragged input is converted again row
    by row, so the error names the first row that fails."""
    try:
        a = np.asarray(X, dtype=float)
    except ValueError:
        for x in X:
            as_vec(x, dim)
        raise
    if a.shape == (0,):
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
    rounds differently.  An orthant's unit-scaled rows take :func:`_unit_products`.
    """
    return np.matmul(X[:, None, :], M.T)[:, 0, :]


def _nonfinite_rows(X: np.ndarray) -> np.ndarray:
    """The indices of the rows of ``X`` that hold a NaN or an infinity."""
    return np.empty(0, dtype=np.intp) if np.isfinite(X).all() else np.flatnonzero(~np.isfinite(X).all(axis=1))


def _unit_products(space: OrderedSpace, X: np.ndarray) -> np.ndarray:
    """``matvecs(space.unit_rows, X)``, bit for bit.  On an orthant with an interior unit those rows
    are ``diag(1 / unit)``, so a finite row's products are ``x * (1 / unit)`` plus zeros, whose sum makes
    ``-0.0`` ``+0.0`` as ``+ 0.0`` does.  A row with a NaN or an infinity keeps the dense products."""
    if not (space.cone.orthant and space.unit_is_interior):
        return matvecs(space.unit_rows, X)
    out, odd = X * (1.0 / space.unit) + 0.0, _nonfinite_rows(X)
    out[odd] = matvecs(space.unit_rows, X[odd])
    return out


def _fold_rows(op: np.ufunc, V: np.ndarray, f) -> np.ndarray:
    """``op.reduce(f(V, slice(None)), axis=1)`` for an ``(n, k)`` array, ``k >= 1``, where ``f(V[:, j], j)``
    is a fresh array holding column ``j`` of ``f(V, slice(None))``.  Up to 16 columns ``op`` folds over the
    columns, since a reduction along a short row axis pays a loop per row; past that the strided columns
    cost more.  The fold goes in column order, so where ``op`` picks between equal values the bits may differ."""
    if V.shape[1] > 16:
        return op.reduce(f(V, slice(None)), axis=1)
    out = f(V[:, 0], 0)
    for j in range(1, V.shape[1]):
        op(out, f(V[:, j], j), out=out)
    return out


def _max_abs_rows(V: np.ndarray) -> np.ndarray:
    """``np.abs(V).max(axis=1)``, bit for bit: absolute values have no ``-0.0``
    to tie with ``+0.0``, and NaN wins in either order."""
    return _fold_rows(np.maximum, V, lambda c, j: np.abs(c))


def _finite(name: str, a) -> np.ndarray:
    """``a`` as a float array, or a ValueError naming ``name`` when an entry is not finite."""
    a = np.asarray(a, dtype=float)
    if not np.all(np.isfinite(a)):
        raise ValueError(f"{name} must be finite")
    return a


def _json_field(obj, key: str, noun: str):
    """``obj[key]`` when ``obj`` is a JSON object holding ``key``, else a ValueError naming the ``noun`` descriptor."""
    if not isinstance(obj, dict):
        raise ValueError(f"bad {noun} descriptor: expected an object, got {type(obj).__name__}")
    if key not in obj:
        raise ValueError(f"bad {noun} descriptor: missing field '{key}'")
    return obj[key]


def _json_list(name: str, v) -> list:
    """``v`` when it is a JSON list, else a ValueError naming ``name``."""
    if not isinstance(v, list):
        raise ValueError(f"{name} must be a list, got {type(v).__name__}")
    return v


def _json_int(name: str, v) -> int:
    """``v`` when it is a JSON integer (not a bool, not a float), else a ValueError naming ``name``."""
    if isinstance(v, bool) or not isinstance(v, int):
        raise ValueError(f"{name} must be an integer, got {type(v).__name__}")
    return v


def _json_number(name: str, v) -> float:
    """``v`` as a float when it is a finite JSON number (not a bool, not a string), else a ValueError naming ``name``."""
    if isinstance(v, bool) or not isinstance(v, (int, float)):
        raise ValueError(f"{name} must be a number, got {type(v).__name__}")
    if not abs(v) < _PAST_FLOAT:
        raise ValueError(f"{name} must be finite")
    return float(v)


def _json_numbers(name: str, v, depth: int):
    """``v`` as floats when it is a finite JSON number (``depth`` 0), a list of them (1) or a list of such lists (2),
    each entry read by :func:`_json_number`, since ``np.asarray(..., dtype=float)`` takes ``True`` and ``"2"``.
    The rows of a list of lists must have one length, so NumPy only ever sees a rectangular block."""
    if not depth:
        return _json_number(name, v)
    out = [_json_numbers(name, x, depth - 1) for x in _json_list(name, v)]
    for i, row in enumerate(out if depth == 2 else ()):
        if len(row) != len(out[0]):
            raise ValueError(f"{name}: every row must have the length of the first, {len(out[0])}; row {i} has {len(row)}")
    return out


@dataclass(frozen=True, eq=False)
class ConeSpec:
    """Polyhedral cone ``{x : rows @ x >= 0}``.

    Each nonzero row is stored over its largest absolute entry, which changes
    neither the cone nor the unit's place in it; a zero row stays zero.
    ``orthant`` tags the special case where the rows are the identity, i.e.
    the nonnegative orthant.  At least ``dim`` rows are required for the cone
    to have a chance of being pointed; fewer rows always leave a free line.
    """

    rows: np.ndarray
    orthant: bool = False

    def __post_init__(self):
        rows = np.atleast_2d(np.asarray(self.rows, dtype=float))
        if rows.ndim != 2 or rows.size == 0:
            raise ValueError("cone requires a nonempty 2-d array of half-space rows")
        top = np.abs(_finite("cone rows", rows)).max(axis=1, keepdims=True)
        object.__setattr__(self, "rows", rows / np.where(top > 0.0, top, 1.0))
        if self.orthant and not np.array_equal(self.rows, np.eye(self.dim)):
            raise ValueError("orthant=True requires the identity as cone rows")

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
        """Row-by-row inner products of the stored (scaled) cone rows with the unit."""
        with np.errstate(over="ignore", invalid="ignore"):
            return self.cone.rows @ self.unit

    @cached_property
    def unit_rows(self) -> np.ndarray:
        """The cone rows in multiples of the unit: each stored row over its
        pairing with the unit, so every row pairs to 1 with the unit.

        On an interior unit each row is a positive linear functional normed
        at the unit, and every ratio to the unit (the order norm, the ray
        thresholds, the extension lines) reads this one form; its entries
        are then at most ``1 / TOL`` in magnitude.
        """
        with np.errstate(divide="ignore", over="ignore", invalid="ignore"):
            return self.cone.rows / self.unit_pairings[:, None]

    @cached_property
    def unit_is_interior(self) -> bool:
        """The verdict of :func:`validate_space`'s ``unit_interior`` check."""
        return _unit_interior_entry(self)["passed"]


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
    with np.errstate(over="ignore", invalid="ignore"):
        return bool(np.all(space.cone.rows @ v >= -tol))


def interior_contains(space: OrderedSpace, x) -> bool:
    """Strict membership: every half-space functional above ``TOL``."""
    v = as_vec(x, space.dim)
    with np.errstate(over="ignore", invalid="ignore"):
        return bool(np.all(space.cone.rows @ v > TOL))


_BLOCK = 2**14
"""Entries per temporary of :func:`cone_contains_rows` (128 KiB): a block
holds ``_BLOCK // (cone rows)`` points.  Blocks of 2 MiB and more lose most
of the gain to fresh-page faults."""


def cone_contains_rows(space: OrderedSpace, X: np.ndarray, tol: float = TOL) -> np.ndarray:
    """:func:`cone_contains` for every row of the ``(n, dim)`` array ``X``,
    verdict for verdict.

    Each block of ``_BLOCK // (cone rows)`` points is decided from one matrix
    product ``P = rows @ X.T`` where it can be, and through the exact per-row
    products of :func:`matvecs` where it cannot.

    The filter.  For a point ``x`` and a cone row ``m`` in ``d`` dimensions,
    let ``s`` be the exact ``m.x`` and ``S = sum |m_k x_k|``.  Any order of
    summation, the one-point kernel's and the block product's alike, lies
    within ``gamma_d * S`` of ``s`` (``gamma_d = d*u / (1 - d*u)``,
    ``u = 2**-53``), so ``|P - p| <= 2 * gamma_d * S`` for the one-point
    product ``p``.  The computed ``fl(S)`` is at least ``(1 - gamma_d) * S``,
    so ``2 * gamma_d * S <= 2*d*u / (1 - 2*d*u) * fl(S)``, and the bound
    ``B = (2d + 4) * u * fl(S) + 1e-300`` covers that with a margin of
    about ``4 * u * fl(S)``: enough for the rounding of ``B`` itself while
    ``d < 2**26``.  The ``1e-300`` covers underflow, where each product
    may lose up to ``2**-1075`` more.  ``fl(S)`` comes from
    ``2|rows| @ |X|.T``, so ``B`` is ``inf`` once ``S`` nears ``2**1023``,
    which keeps every partial sum of ``p`` clear of overflow wherever ``B``
    is finite.

    Rounding is monotone, and ``p`` and ``-tol`` are floats.  So when every
    ``P - B >= -tol`` (in floats) every ``p >= -tol``, and the row is in;
    when some ``P + B < -tol``, that ``p < -tol``, and the row is out.  A
    NaN or infinite entry of ``X``, or a ``B`` that is not finite, makes
    both tests false on its cone row.  Every row that neither test decides
    takes the exact path.  On an orthant only a row with a NaN or an infinity
    does: a finite row's products are its entries plus zeros, a sign test each.
    """
    rows = space.cone.rows
    X = as_rows(X, space.dim)
    if space.cone.orthant:
        inside = _fold_rows(np.logical_and, X, lambda c, j: c >= -tol)
        odd = _nonfinite_rows(X)
        if odd.size:  # the exact test of the filter's undecided rows
            with np.errstate(over="ignore", invalid="ignore"):
                inside[odd] = np.all(matvecs(rows, X[odd]) >= -tol, axis=1)
        return inside
    twice_abs = 2.0 * np.abs(rows)
    scale = (space.dim + 2) * 2.0**-53  # times 2|rows| gives (2d + 4) * u
    step = max(1, _BLOCK // len(rows))
    inside = np.empty(len(X), dtype=bool)
    with np.errstate(over="ignore", invalid="ignore"):
        for s in range(0, len(X), step):
            Y = X[s : s + step]
            P = rows @ Y.T  # (cone rows, block): each fold over the cone rows reads contiguous memory
            B = twice_abs @ np.abs(Y).T
            B *= scale
            B += 1e-300
            surely_in = (P - B).min(axis=0) >= -tol
            P += B
            exact = np.flatnonzero(~surely_in & ~(P.min(axis=0) < -tol))
            inside[s : s + len(Y)] = surely_in
            if exact.size:
                inside[s + exact] = np.all(matvecs(rows, Y[exact]) >= -tol, axis=1)
    return inside


def leq(space: OrderedSpace, x, y) -> bool:
    """Partial order: ``x <= y`` iff ``y - x`` lies in the cone."""
    with np.errstate(over="ignore", invalid="ignore"):
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
    """:func:`order_norm` for every row of the ``(n, dim)`` array ``X``.  On an orthant with
    an interior unit a finite row's norm folds ``|x_j| * (1 / unit_j)``, which is the absolute
    value of its product in :func:`_unit_products`, so the bits are the dense path's."""
    with np.errstate(over="ignore", invalid="ignore"):
        if not (space.cone.orthant and space.unit_is_interior):
            return _max_abs_rows(matvecs(space.unit_rows, X))
        inv, odd = 1.0 / space.unit, _nonfinite_rows(X)
        out = _fold_rows(np.maximum, X, lambda c, j: np.abs(c) * inv[j])
        out[odd] = _max_abs_rows(matvecs(space.unit_rows, X[odd]))
        return out


def nbhd_contains(space: OrderedSpace, z, delta: float, x) -> bool:
    """Is ``x`` in the open order ball of radius ``delta`` around ``z``?

    Equivalent to ``order_norm(x - z) < delta``; implemented through the
    defining pair of strict cone memberships.
    """
    if not delta > 0:
        raise ValueError("delta must be positive")
    with np.errstate(over="ignore", invalid="ignore"):
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
    """The one test of "the unit is interior": every stored row pairs with it
    finitely and above ``TOL``.  The detail names the least pairing, one that
    is not finite first and written as null, so it stays strict JSON."""
    pairings = space.unit_pairings
    finite = np.isfinite(pairings)
    k = int(np.argmin(np.where(finite, pairings, -np.inf)))
    return {
        "name": "unit_interior",
        "passed": bool(finite[k] and pairings[k] > TOL),
        "detail": {"min_row_pairing": float(pairings[k]) if finite[k] else None, "row": k},
    }


def validate_space(space: OrderedSpace, samples: int = 256, seed: int = 0) -> SpaceValidation:
    """Report on the order-unit axioms; never throws.

    Checks: the unit is strictly interior; the cone is pointed (the rows have
    no nonzero kernel vector, so no line survives inside it); and on a
    random sample every ``x`` satisfies ``-lam*unit <= x <= lam*unit`` at
    ``lam = order_norm(x) + TOL``.
    """
    checks = [_unit_interior_entry(space)]

    witness = None if space.cone.orthant else _pointedness_witness(space)  # identity rows have no kernel
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
    """The space's descriptor; half-space rows are written as stored, scaled to largest absolute entry 1."""
    cone = "orthant" if space.cone.orthant else {"halfspaces": space.cone.rows.tolist()}
    return {"dim": space.dim, "cone": cone, "unit": space.unit.tolist()}


def space_from_json(obj: dict) -> OrderedSpace:
    """Build a space from ``{"dim": n, "cone": "orthant" | {"halfspaces": ...}, "unit": [...]}``."""
    dim = _json_int("dim", _json_field(obj, "dim", "space"))
    if dim < 1:  # before anything is read against it
        raise ValueError("dim must be a positive integer")
    cone_obj = _json_field(obj, "cone", "space")
    unit = _json_numbers("the order unit", _json_field(obj, "unit", "space"), 1)
    if cone_obj == "orthant":
        unit = as_vec(unit, dim)  # a wrong length fails here, before np.eye(dim) allocates
        cone = ConeSpec.nonneg_orthant(dim)
    else:  # {"halfspaces": rows}
        cone = ConeSpec(rows=_json_numbers("cone rows", _json_field(cone_obj, "halfspaces", "cone"), 2))
    return OrderedSpace(dim=dim, cone=cone, unit=unit)
