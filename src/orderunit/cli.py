"""Command-line front end.

Subcommands: ``check`` (functional/operator law checkers), ``norm``,
``extend``, ``openness``, ``compact``, and ``gallery`` (built-in fixtures
reproducing the package's stock examples end to end).

Exit codes: 0 all requested checks passed, 1 a property/contract check
failed (the report carries a witness), 2 malformed input.  JSON reports are
byte-deterministic for a fixed seed: keys are sorted and wall-clock timing
is only rendered in text mode.
"""

from __future__ import annotations

import argparse
import json
import math
import sys
import time

import numpy as np

from .dual import subsequence_limit
from .extension import (
    NonFiniteError,
    _step,
    check_partial_consistency,
    extension_interval,
    extend_one,
    partial_from_json,
    partial_to_json,
    partial_functional,
)
from .functionals import (
    _MAX_GROUND_SIZE,
    capacity_from_json,
    capacity_to_json,
    check_normed,
    check_order_preserving,
    check_positive,
    check_weak_additivity,
    functional_from_json,
    sqrt_gap_functional,
)
from .operators import (
    check_order_preserving_op,
    check_weakly_additive_op,
    clamp_operator,
    openness_check,
    operator_from_json,
    unit_image_interior,
)
from .sampling import ball_samplable
from .spaces import (
    _unit_interior_entry,
    order_norm,
    orthant,
    space_from_json,
    validate_space,
)

EXIT_OK = 0
EXIT_VIOLATION = 1
EXIT_INPUT = 2


def _load_json(path: str) -> dict:
    with open(path, "r", encoding="utf-8") as fh:
        return json.load(fh)


def _parse_point(text: str) -> list[float]:
    try:
        point = [float(t) for t in text.split(",")]
    except ValueError as exc:
        raise ValueError(f"bad point {text!r}: expected comma-separated floats") from exc
    if not all(map(math.isfinite, point)):
        raise ValueError(f"bad point {text!r}: coordinates must be finite")
    return point


def _dumps(value) -> str:
    """Strict JSON: a NaN or an infinity raises ValueError instead of being written."""
    return json.dumps(value, sort_keys=True, allow_nan=False)


def _render(payload: dict, fmt: str, elapsed: float) -> str:
    if fmt == "json":
        return _dumps(payload)
    lines = [f"command: {payload.get('command')}"]
    for key, value in payload.items():
        if key in ("command", "checks", "fixtures"):
            continue
        lines.append(f"{key}: {_dumps(value)}")
    for entry in payload.get("checks", []):
        mark = "PASS" if entry.get("passed") else "FAIL"
        line = f"  [{mark}] {entry.get('name')}"
        if entry.get("witness"):
            line += f"  witness={_dumps(entry['witness'])}"
        elif entry.get("detail"):
            line += f"  detail={_dumps(entry['detail'])}"
        lines.append(line)
    for entry in payload.get("fixtures", []):
        mark = "ok" if entry.get("matched") else "MISMATCH"
        lines.append(f"  [{mark}] {entry.get('name')} (expected {entry.get('expected')})")
    lines.append(f"elapsed: {elapsed:.3f}s")
    return "\n".join(lines)


def _unit_not_interior(command: str, space) -> dict | None:
    """The failure payload of a value-returning command on a space whose unit is not interior."""
    entry = _unit_interior_entry(space)
    if entry["passed"]:
        return None
    return {"command": command, "checks": [entry], "exit_status": EXIT_VIOLATION}


def run_check(args) -> tuple[dict, int]:
    space = space_from_json(_load_json(args.space))
    validation = validate_space(space)
    failures = {c["name"]: c["detail"] for c in validation.failures}
    checks = [{"name": "space_valid", "passed": validation.ok, "samples": validation.samples, "witness": failures or None}]
    samplable = ball_samplable(space)  # the law checkers draw from the ball
    n = args.samples
    if args.functional:
        f = functional_from_json(space, _load_json(args.functional))
        if samplable:
            checks.append(check_weak_additivity(f, seed=args.seed, n=n, tol=args.tol).to_json())
            checks.append(check_order_preserving(f, seed=args.seed, n=n, tol=args.tol).to_json())
            checks.append(check_normed(f, tol=args.tol).to_json())
            checks.append(check_positive(f, seed=args.seed, n=min(n, 4096), tol=args.tol).to_json())
        subject = {"functional": args.functional}
    else:
        T = operator_from_json(space, _load_json(args.operator))
        if samplable:
            checks.append(check_weakly_additive_op(T, seed=args.seed, n=min(n, 8192), tol=args.tol).to_json())
            checks.append(check_order_preserving_op(T, seed=args.seed, n=min(n, 8192), tol=args.tol).to_json())
        subject = {"operator": args.operator, "unit_image_interior": unit_image_interior(T)}
    ok = all(c["passed"] for c in checks)
    payload = {
        "command": "check",
        "seed": args.seed,
        "samples": n,
        "subject": subject,
        "checks": checks,
        "exit_status": EXIT_OK if ok else EXIT_VIOLATION,
    }
    return payload, payload["exit_status"]


def run_norm(args) -> tuple[dict, int]:
    space = space_from_json(_load_json(args.space))
    points = [_parse_point(text) for text in args.point]
    failure = _unit_not_interior("norm", space)
    if failure:
        return failure, EXIT_VIOLATION
    entries = [{"point": p, "norm": order_norm(space, p)} for p in points]
    payload = {"command": "norm", "points": entries, "exit_status": EXIT_OK}
    return payload, EXIT_OK


def run_extend(args) -> tuple[dict, int]:
    space = space_from_json(_load_json(args.space))
    partial = _load_json(args.partial)
    # a boundary unit makes the unit-scaled pairings of the partial functional not finite, so check it first
    failure = _unit_not_interior("extend", space)
    if failure:
        return failure, EXIT_VIOLATION
    pf = partial_from_json(space, partial, strict=False)
    if not pf.consistent:
        payload = {
            "command": "extend",
            "checks": [check_partial_consistency(pf).to_json()],
            "exit_status": EXIT_VIOLATION,
        }
        return payload, EXIT_VIOLATION
    entries = []
    payload = {"command": "extend", "rule": args.rule, "targets": entries}
    for text in args.target:
        y = _parse_point(text)
        try:
            step = _step(pf, y, args.rule, args.value)
        except NonFiniteError:
            raise  # exit 1 with one error line, as for any result that is not finite
        except ValueError as exc:
            extension_interval(pf, y)  # input errors (a wrong length, an empty interval) raise again: exit 2
            entries.append({"target": y, "error": str(exc)})
            payload["exit_status"] = EXIT_VIOLATION
            return payload, EXIT_VIOLATION
        if step is None:
            entries.append({"target": y, "skipped": "already in span"})
            continue
        pf, interval, value = step
        entries.append({"target": y, "p_minus": interval.p_minus, "p_plus": interval.p_plus, "value": value})
    payload.update(result=partial_to_json(pf), exit_status=EXIT_OK)
    return payload, EXIT_OK


def run_openness(args) -> tuple[dict, int]:
    space = space_from_json(_load_json(args.space))
    T = operator_from_json(space, _load_json(args.operator))
    at = _parse_point(args.at)
    failure = _unit_not_interior("openness", space)
    if failure:
        return failure, EXIT_VIOLATION
    verdict = openness_check(
        T,
        at,
        args.epsilon,
        args.delta,
        targets=args.targets,
        budget=args.budget,
        seed=args.seed,
    )
    payload = {
        "command": "openness",
        "at": at,
        "verdict": verdict.to_json(),
        "exit_status": EXIT_OK if verdict.passed else EXIT_VIOLATION,
    }
    return payload, payload["exit_status"]


def run_compact(args) -> tuple[dict, int]:
    obj = _load_json(args.capacities)
    try:
        n = int(obj["n"])
        seq = obj["sequence"]
    except (KeyError, TypeError) as exc:
        raise ValueError(f"bad capacity-sequence descriptor: {exc}") from exc
    if not 0 <= n <= _MAX_GROUND_SIZE:  # checked here too, since an empty sequence builds no capacity
        raise ValueError(f"capacity ground size must lie in [0, {_MAX_GROUND_SIZE}], got {n}")
    caps = []
    for entry in seq:
        values = entry["values"] if isinstance(entry, dict) and "values" in entry else entry
        caps.append(capacity_from_json({"n": n, "values": values}))
    space = orthant(n)
    result = subsequence_limit(
        caps,
        space,
        conv_tol=args.tol,
        min_length=args.min_length,
        truncation=args.truncation,
        seed=args.seed,
    )
    payload = {
        "command": "compact",
        "indices": result.indices,
        "limit_capacity": capacity_to_json(result.limit_capacity),
        "distances": [float(d) for d in result.distances],
        "checks": [result.report.to_json()],
        "exit_status": EXIT_OK if result.report.passed else EXIT_VIOLATION,
    }
    return payload, payload["exit_status"]


def _fixture(name: str, expected: str, matched: bool, detail=None) -> dict:
    return {"name": name, "expected": expected, "matched": bool(matched), "detail": detail}


def _gallery_band_open(rng) -> dict:
    """Sampled interior balls, around 16 points of the open band ``|x2 - x1| < 1``, stay inside it."""
    space = orthant(2)
    from .sampling import ball_points

    ok = True
    min_margin = np.inf
    for _ in range(16):
        t = rng.uniform(-3.0, 3.0)
        a = rng.uniform(-0.95, 0.95)
        z = np.array([t, t + a])
        radius = 0.499 * (1.0 - abs(a))
        min_margin = min(min_margin, radius)
        for w in ball_points(space, z, radius, 8, rng):
            if abs(w[1] - w[0]) >= 1.0:
                ok = False
    return _fixture(
        "band_subspace_open",
        "pass",
        ok,
        {"points": 16, "min_ball_radius": float(min_margin)},
    )


def run_gallery(args) -> tuple[dict, int]:
    seed = args.seed
    rng = np.random.default_rng(seed)
    fixtures = []

    orth2 = orthant(2)
    gapf = sqrt_gap_functional(orth2)

    r = check_weak_additivity(gapf, seed=seed, n=4096)
    fixtures.append(_fixture("sqrt_gap_weakly_additive", "pass", r.passed))

    r = check_order_preserving(gapf, seed=seed, n=4096)
    canonical = (
        not r.passed
        and r.witness is not None
        and np.allclose(r.witness["x"], [0.25, 0.5])
        and np.allclose(r.witness["y"], [0.5, 0.5])
    )
    fixtures.append(_fixture("sqrt_gap_order_violation", "fail_with_witness", canonical, r.witness))

    r = check_positive(gapf, seed=seed, n=2048)
    fixtures.append(_fixture("sqrt_gap_positive", "pass", r.passed))

    clamp = clamp_operator(orth2)
    r = check_weakly_additive_op(clamp, seed=seed, n=4096)
    fixtures.append(_fixture("clamp_weakly_additive", "pass", r.passed))
    r = check_order_preserving_op(clamp, seed=seed, n=4096)
    fixtures.append(_fixture("clamp_order_preserving", "pass", r.passed))

    v0 = openness_check(clamp, [0.0, 0.0], 0.25, 0.25, seed=seed, targets=24, budget=800)
    fixtures.append(_fixture("clamp_open_at_zero", "pass", v0.passed, v0.to_json()))

    v24 = openness_check(clamp, [2.0, 4.0], 1.0, 0.1, seed=seed, targets=24, budget=800)
    witness_ok = (
        not v24.passed
        and v24.witness is not None
        and max(abs(v24.witness[0] - 2.0), abs(v24.witness[1] - 3.0)) <= 0.1
        and abs(v24.witness[1] - v24.witness[0] - 1.0) > 1e-9
    )
    fixtures.append(_fixture("clamp_not_open_off_band", "fail_with_witness", witness_ok, v24.to_json()))

    fixtures.append(_gallery_band_open(rng))

    pf = partial_functional(orth2, [], [], 1.0)
    interval = extension_interval(pf, [1.0, 0.0])
    extended = extend_one(pf, [1.0, 0.0], rule="midpoint")
    pinned = extension_interval(extended, [1.0, 0.0])
    demo_ok = (
        abs(interval.p_minus - 0.0) <= 1e-12
        and abs(interval.p_plus - 1.0) <= 1e-12
        and abs(pinned.p_minus - 0.5) <= 1e-12
        and abs(pinned.p_plus - 0.5) <= 1e-12
        and extended.consistent
    )
    fixtures.append(
        _fixture(
            "extension_demo",
            "pass",
            demo_ok,
            {"p_minus": interval.p_minus, "p_plus": interval.p_plus, "midpoint": interval.midpoint},
        )
    )

    ok = all(f["matched"] for f in fixtures)
    payload = {
        "command": "gallery",
        "seed": seed,
        "fixtures": fixtures,
        "exit_status": EXIT_OK if ok else EXIT_VIOLATION,
    }
    return payload, payload["exit_status"]


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="orderunit",
        description="Order-unit space toolkit: cone geometry, weakly additive "
        "functional/operator checks, constructive extension, compactness probes.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def common(sp, seed=False, samples=False, tol=None):
        """Add ``--format`` and whichever of ``--seed``/``--samples``/``--tol`` the handler reads."""
        if seed:
            sp.add_argument("--seed", type=int, default=0)
        if samples:
            sp.add_argument("--samples", type=int, default=2**14)
        if tol is not None:
            sp.add_argument("--tol", type=float, default=tol)
        sp.add_argument("--format", dest="fmt", choices=("text", "json"), default="text")

    p = sub.add_parser("check", help="run the law checkers on a functional or an operator")
    common(p, seed=True, samples=True, tol=1e-9)
    p.add_argument("--space", required=True)
    group = p.add_mutually_exclusive_group(required=True)
    group.add_argument("--functional")
    group.add_argument("--operator")
    p.set_defaults(handler=run_check)

    p = sub.add_parser("norm", help="order norms of points in a space")
    common(p)
    p.add_argument("--space", required=True)
    p.add_argument("--point", action="append", required=True, help="comma-separated coordinates")
    p.set_defaults(handler=run_norm)

    p = sub.add_parser("extend", help="extend a partial functional to target points")
    common(p)
    p.add_argument("--space", required=True)
    p.add_argument("--partial", required=True)
    p.add_argument("--target", action="append", required=True)
    p.add_argument("--rule", choices=("lower", "upper", "midpoint", "given"), default="midpoint")
    p.add_argument("--value", type=float, default=None, help="value for rule 'given'")
    p.set_defaults(handler=run_extend)

    p = sub.add_parser("openness", help="probe relative openness of an operator at a point")
    common(p, seed=True)
    p.add_argument("--space", required=True)
    p.add_argument("--operator", required=True)
    p.add_argument("--at", required=True)
    p.add_argument("--epsilon", type=float, required=True)
    p.add_argument("--delta", type=float, required=True)
    p.add_argument("--budget", type=int, default=1000)
    p.add_argument("--targets", type=int, default=32)
    p.set_defaults(handler=run_openness)

    p = sub.add_parser("compact", help="extract a convergent subsequence from a capacity sequence")
    common(p, seed=True, tol=1e-6)  # convergence tolerance, not a predicate tolerance
    p.add_argument("--capacities", required=True)
    p.add_argument("--min-length", type=int, default=8)
    p.add_argument("--truncation", type=int, default=64)
    p.set_defaults(handler=run_compact)

    p = sub.add_parser("gallery", help="reproduce the built-in example fixtures")
    common(p, seed=True)
    p.set_defaults(handler=run_gallery)

    return parser


def main(argv=None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)
    if getattr(args, "seed", 0) < 0 or getattr(args, "samples", 1) <= 0:
        print("error: seed must be nonnegative and samples positive", file=sys.stderr)
        return EXIT_INPUT
    start = time.perf_counter()
    try:
        payload, code = args.handler(args)
    except (OSError, json.JSONDecodeError, ValueError, KeyError, TypeError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_VIOLATION if isinstance(exc, NonFiniteError) else EXIT_INPUT
    try:
        text = _render(payload, args.fmt, time.perf_counter() - start)
    except ValueError as exc:
        print(f"error: result is not finite, so not strict JSON: {exc}", file=sys.stderr)
        return EXIT_VIOLATION
    print(text)
    return code


if __name__ == "__main__":
    sys.exit(main())
