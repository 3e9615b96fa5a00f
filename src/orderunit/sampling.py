"""Seeded samplers shared by the property checkers, the CLI and the tests.

All functions take an explicit ``numpy.random.Generator`` so every check in
the package is reproducible from a single integer seed.
"""

from __future__ import annotations

import itertools

import numpy as np

from .spaces import OrderedSpace, cone_contains, leq, order_norm


def rng_from(seed) -> np.random.Generator:
    return seed if isinstance(seed, np.random.Generator) else np.random.default_rng(seed)


def box_points(space: OrderedSpace, n: int, rng, half_width: float = 2.0) -> np.ndarray:
    """``n`` points uniform in the coordinate box ``[-half_width, half_width]^dim``."""
    rng = rng_from(rng)
    return rng.uniform(-half_width, half_width, size=(n, space.dim))


def ball_point(space: OrderedSpace, center, radius: float, rng) -> np.ndarray:
    """One point with ``order_norm(p - center) < radius`` (strictly inside)."""
    rng = rng_from(rng)
    center = np.asarray(center, dtype=float)
    while True:
        d = rng.normal(size=space.dim)
        nrm = order_norm(space, d)
        if np.isfinite(nrm) and nrm > 0:
            break
        if np.any(space.unit_pairings <= 0):  # off the interior, no draw may ever be accepted
            raise ValueError("ball sampling needs an interior order unit; a cone row pairs to <= 0 with it")
    t = rng.uniform(-1.0, 1.0) * radius * (1.0 - 1e-12)
    return center + d * (t / nrm)


def ball_points(space: OrderedSpace, center, radius: float, n: int, rng) -> np.ndarray:
    rng = rng_from(rng)
    return np.array([ball_point(space, center, radius, rng) for _ in range(n)])


def cone_points(space: OrderedSpace, n: int, rng, scale: float = 2.0) -> np.ndarray:
    """``n`` points of the positive cone.

    Mixes box rejection (for breadth) with the guaranteed construction
    ``lam*unit + w`` where ``order_norm(w) < lam``: that ball sits inside the
    cone for any interior unit, so the sampler never stalls on narrow cones.
    """
    rng = rng_from(rng)
    out = []
    candidates = box_points(space, 3 * n, rng, half_width=scale)
    for c in candidates:
        if len(out) >= n // 2:
            break
        if cone_contains(space, c):
            out.append(c)
    while len(out) < n:
        lam = abs(rng.normal()) * scale + 1e-12
        w = ball_point(space, np.zeros(space.dim), lam, rng)
        out.append(lam * space.unit + w)
    return np.array(out[:n])


def shift_samples(space: OrderedSpace, n: int, rng, half_width: float = 2.0, lam_width: float = 3.0):
    """Pairs ``(x, lam)`` for probing behaviour along the unit direction."""
    rng = rng_from(rng)
    xs = box_points(space, n, rng, half_width=half_width)
    lams = rng.uniform(-lam_width, lam_width, size=n)
    return list(zip(xs, lams))


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


def comparable_pairs(space: OrderedSpace, n: int, rng, scale: float = 2.0, include_probes: bool = True):
    """``n`` pairs ``(x, y)`` with ``x <= y``, built as ``y = x + cone point``.

    The deterministic probe battery is prepended by default so the first
    failure of an order-preservation check lands on a reproducible pair.
    """
    rng = rng_from(rng)
    pairs = probe_pairs(space) if include_probes else []
    need = max(0, n - len(pairs))
    xs = box_points(space, need, rng, half_width=scale)
    steps = cone_points(space, need, rng, scale=scale / 2.0)
    pairs.extend((x, x + s) for x, s in zip(xs, steps))
    return pairs[:n] if len(pairs) > n else pairs


def pairs_within(space: OrderedSpace, delta: float, n: int, rng, half_width: float = 2.0):
    """``n`` pairs with ``order_norm(x - y) < delta``."""
    rng = rng_from(rng)
    xs = box_points(space, n, rng, half_width=half_width)
    return [(x, x + ball_point(space, np.zeros(space.dim), delta, rng)) for x in xs]


def grid_points(dim: int, lo: float = 0.0, hi: float = 1.0, step: float = 0.5) -> np.ndarray:
    """Exhaustive coordinate grid, the small-dimension alternative to sampling."""
    axis = np.arange(lo, hi + step / 2, step)
    return np.array(list(itertools.product(axis, repeat=dim)))


def grid_comparable_pairs(space: OrderedSpace, lo: float = 0.0, hi: float = 1.0, step: float = 0.5):
    """Every comparable pair on the grid; exhaustive for dim <= 3."""
    pts = grid_points(space.dim, lo, hi, step)
    return [(x, y) for x in pts for y in pts if leq(space, x, y)]
