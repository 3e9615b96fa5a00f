"""Seeded samplers shared by the property checkers, the CLI and the tests.

All functions take an explicit ``numpy.random.Generator`` so every check in
the package is reproducible from a single integer seed.  The ball samplers
draw in whole blocks: all radii, then all directions, then the redraws of
the rejected directions in row order, then all lengths (see
:func:`_ball_draws`).
"""

from __future__ import annotations

import numpy as np

from .spaces import TOL, OrderedSpace, as_rows, cone_contains_rows, leq, order_norm, order_norms


def rng_from(seed) -> np.random.Generator:
    return seed if isinstance(seed, np.random.Generator) else np.random.default_rng(seed)


def box_points(space: OrderedSpace, n: int, rng, half_width: float = 2.0) -> np.ndarray:
    """``n`` points uniform in the coordinate box ``[-half_width, half_width]^dim``."""
    rng = rng_from(rng)
    return rng.uniform(-half_width, half_width, size=(n, space.dim))


def ball_samplable(space: OrderedSpace) -> bool:
    """Does every cone row pair above ``TOL`` with the unit (as in
    :func:`interior_contains`), with every unit-scaled row finite?  Otherwise
    the ball draws could leave the ball or never be accepted."""
    return bool(np.all(space.unit_pairings > TOL) and np.isfinite(space.unit_rows).all())


def _require_interior_unit(space: OrderedSpace) -> None:
    """Raise unless :func:`ball_samplable`; every sampler that draws from the
    ball calls this before its first draw."""
    if not ball_samplable(space):
        raise ValueError(
            "ball sampling needs an interior order unit: a cone row pairs to <= TOL with it, "
            "or its unit-scaled row is not finite"
        )


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
    """One point with ``order_norm(p - center) < radius`` (strictly inside)."""
    return ball_points(space, center, radius, 1, rng)[0]


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
    pairs = []
    z = np.zeros(space.dim)
    candidates = [
        (z, space.unit),
        (space.unit, 2.0 * space.unit),
        (-space.unit, z),
    ]
    if space.dim == 2:
        candidates.insert(0, (np.array([0.25, 0.5]), np.array([0.5, 0.5])))
    for i in range(space.dim):
        e = np.zeros(space.dim)
        e[i] = 1.0
        candidates.append((z, e))
    for x, y in candidates:
        if leq(space, x, y):
            pairs.append((x, y))
    return pairs


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
