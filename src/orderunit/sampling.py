"""Seeded samplers shared by the property checkers, the CLI and the tests.

All functions take an explicit ``numpy.random.Generator`` so every check in
the package is reproducible from a single integer seed.  The ball samplers
draw in whole blocks: all radii, then all directions, then the redraws of
the rejected directions in row order, then all lengths (see
:func:`_ball_draws`).
"""

from __future__ import annotations

import numpy as np

from .spaces import OrderedSpace, as_rows, cone_contains_rows, order_norm, order_norms


def rng_from(seed) -> np.random.Generator:
    return seed if isinstance(seed, np.random.Generator) else np.random.default_rng(seed)


def box_points(space: OrderedSpace, n: int, rng, half_width: float = 2.0) -> np.ndarray:
    """``n`` points uniform in the coordinate box ``[-half_width, half_width]^dim``."""
    rng = rng_from(rng)
    return rng.uniform(-half_width, half_width, size=(n, space.dim))


def _require_interior_unit(space: OrderedSpace) -> None:
    """Raise unless the unit is interior (``validate_space``'s ``unit_interior``
    check); otherwise the ball draws could leave the ball or never be accepted.
    Every sampler that draws from the ball calls this before its first draw."""
    if not space.unit_is_interior:
        raise ValueError("ball sampling needs an interior order unit: a scaled cone row pairs to <= TOL with it, or overflows")


def _ball_draws(space: OrderedSpace, n: int, rng, radius=None, scale: float = 1.0):
    """``(radii, offsets)``: ``n`` offsets with ``order_norm(offsets[k]) < radii[k]``
    (``radii`` is ``radius`` itself when one is given).

    Every ball sampler draws through here, in whole blocks taken from
    ``rng`` in this order: with ``radius`` None, ``n`` radii
    ``|normal()| * scale + 1e-12``; ``n`` directions ``normal(size=dim)``;
    the redraws of the rejected directions (order norm not finite and
    positive), one row at a time in row order, each until it is accepted;
    and ``n`` signed lengths ``uniform(-1, 1)``.  Each block is bit for bit
    that many scalar draws, so :func:`ball_point` takes a direction, its
    redraws and then its length.  A unit that is not interior raises before
    the first draw.
    """
    _require_interior_unit(space)
    radii = np.abs(rng.standard_normal(n)) * scale + 1e-12 if radius is None else radius
    dirs = rng.normal(size=(n, space.dim))
    norms = order_norms(space, dirs)
    for k in np.flatnonzero(~((0.0 < norms) & (norms < np.inf))):
        while not 0.0 < norms[k] < np.inf:
            dirs[k] = rng.normal(size=space.dim)
            norms[k] = order_norm(space, dirs[k])
    lengths = (-1.0 + 2.0 * rng.random(n)) * radii * (1.0 - 1e-12)  # uniform(-1, 1) is -1 + 2 * random()
    return radii, dirs * (lengths / norms)[:, None]


def ball_point(space: OrderedSpace, center, radius: float, rng) -> np.ndarray:
    """One point with ``order_norm(p - center) < radius`` (strictly inside), drawn in the single-draw
    order: a direction, its redraws until its order norm is finite and positive, then a signed length."""
    return ball_points(space, center, radius, 1, rng)[0]


def _ball_point_run(space: OrderedSpace, center, radius: float, k: int, rng) -> np.ndarray:
    """``k`` calls of :func:`ball_point` in a row, bit for bit, as a ``(k, dim)``
    array: the draws are taken in the single-draw order, and the norms and
    points in one block.  Should a direction need a redraw, the generator
    goes back to its state on entry and the calls run one by one; so do
    they for a subclass of ``Generator``, whose state may hold more."""
    _require_interior_unit(space)
    if type(rng) is not np.random.Generator:
        return np.array([ball_point(space, center, radius, rng) for _ in range(k)])
    state = rng.bit_generator.state
    dirs, u = np.empty((k, space.dim)), np.empty(k)
    for i in range(k):
        dirs[i], u[i] = rng.normal(size=space.dim), rng.random()
    norms = order_norms(space, dirs)
    if not ((0.0 < norms) & (norms < np.inf)).all():
        rng.bit_generator.state = state
        return np.array([ball_point(space, center, radius, rng) for _ in range(k)])
    t = (-1.0 + 2.0 * u) * radius * (1.0 - 1e-12)
    return np.asarray(center, dtype=float) + dirs * (t / norms)[:, None]


def ball_points(space: OrderedSpace, center, radius: float, n: int, rng) -> np.ndarray:
    """``n`` points with ``order_norm(p - center) < radius``, shape ``(n, dim)``."""
    return np.asarray(center, dtype=float) + _ball_draws(space, n, rng_from(rng), radius)[1]


def cone_points(space: OrderedSpace, n: int, rng, scale: float = 2.0) -> np.ndarray:
    """``n`` points of the positive cone, shape ``(n, dim)``.

    Mixes box rejection (for breadth) with the guaranteed construction
    ``lam*unit + w`` where ``order_norm(w) < lam``: that ball sits inside the
    cone for any interior unit, so the sampler never stalls on narrow cones.
    The first ``n // 2`` accepted box candidates come first.
    """
    _require_interior_unit(space)
    rng = rng_from(rng)
    candidates = box_points(space, 3 * n, rng, half_width=scale)
    box = candidates[cone_contains_rows(space, candidates)][: n // 2]
    lams, offsets = _ball_draws(space, n - len(box), rng, scale=scale)
    # ``0.0 +`` is the ball's zero center: it turns a -0.0 offset into +0.0 as the per-point sum did
    return np.concatenate([box, lams[:, None] * space.unit + (0.0 + offsets)])


def _shift_arrays(space: OrderedSpace, n: int, rng):
    """:func:`shift_samples` as the arrays ``(xs, lams)``."""
    rng = rng_from(rng)
    xs = box_points(space, n, rng)
    return xs, rng.uniform(-3.0, 3.0, size=n)


def shift_samples(space: OrderedSpace, n: int, rng):
    """Pairs ``(x, lam)`` for probing behaviour along the unit direction:
    ``x`` uniform in the box ``[-2, 2]^dim``, ``lam`` uniform in ``[-3, 3]``."""
    return list(zip(*_shift_arrays(space, n, rng)))


def probe_pairs(space: OrderedSpace) -> list[tuple[np.ndarray, np.ndarray]]:
    """Small deterministic battery of comparable pairs, tried before any
    random sampling so that failure witnesses are stable across seeds."""
    z = np.zeros(space.dim)
    candidates = [
        (z, space.unit),
        (space.unit, 2.0 * space.unit),
        (-space.unit, z),
    ]
    if space.dim == 2:
        candidates.insert(0, (np.array([0.25, 0.5]), np.array([0.5, 0.5])))
    candidates += [(z, e) for e in np.eye(space.dim)]
    xs, ys = (as_rows(side, space.dim) for side in zip(*candidates))
    with np.errstate(over="ignore", invalid="ignore"):  # leq(space, x, y) for every pair, verdict for verdict
        keep = cone_contains_rows(space, ys - xs)
    return [pair for pair, k in zip(candidates, keep) if k]


def _comparable_arrays(space: OrderedSpace, n: int, rng):
    """:func:`comparable_pairs` as the arrays ``(xs, ys)``."""
    _require_interior_unit(space)
    rng = rng_from(rng)
    probes = probe_pairs(space)
    need = max(0, n - len(probes))
    xs = box_points(space, need, rng)
    steps = cone_points(space, need, rng, scale=1.0)
    firsts = np.concatenate([as_rows([x for x, _ in probes], space.dim), xs])
    seconds = np.concatenate([as_rows([y for _, y in probes], space.dim), xs + steps])
    return firsts[:n], seconds[:n]


def comparable_pairs(space: OrderedSpace, n: int, rng):
    """``n`` pairs ``(x, y)`` with ``x <= y``, built as ``y = x + cone point``.

    The deterministic probe battery comes first, so the first failure of an
    order-preservation check lands on a reproducible pair; the random pairs
    take ``x`` in the box ``[-2, 2]^dim`` and the cone step at scale 1.
    """
    return list(zip(*_comparable_arrays(space, n, rng)))


def _pairs_within_arrays(space: OrderedSpace, delta: float, n: int, rng):
    """:func:`pairs_within` as the arrays ``(xs, ys)``."""
    _require_interior_unit(space)
    rng = rng_from(rng)
    xs = box_points(space, n, rng)
    return xs, xs + ball_points(space, np.zeros(space.dim), delta, n, rng)


def pairs_within(space: OrderedSpace, delta: float, n: int, rng):
    """``n`` pairs with ``order_norm(x - y) < delta``, ``x`` in the box ``[-2, 2]^dim``."""
    return list(zip(*_pairs_within_arrays(space, delta, n, rng)))
