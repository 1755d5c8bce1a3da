"""Command-line surface for building, classifying, and simulating systems.

Reports are machine-readable JSON bodies between a header (whose timestamp
line is the only nondeterministic byte) and human summary footer lines.
Exit codes: 0 success, 1 negative verdict (``rich`` only), 2 validation
failure, 3 numerical-degeneracy abort, 4 usage error (including a system
too large for a stated size limit).  A failure's exit code is that of its
base in ``cylbill.errors``.
"""

from __future__ import annotations

import argparse
import contextlib
import functools
import sys
from datetime import datetime, timezone

import numpy as np

from . import builders, classify, config, fileio, model, paths
from . import torusflow as flow
from .errors import DegeneracyError, InputError, UsageError
from .geometry import orthonormalize, span_of

EXIT_OK = 0
EXIT_NEGATIVE = 1
EXIT_VALIDATION = 2
EXIT_DEGENERACY = 3
EXIT_USAGE = 4


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        raise UsageError(message)


def _run_info(seed=None) -> dict:
    info = {
        "tolerances": {
            "rank_rel": config.RANK_REL,
            "drop": config.DROP,
            "disc": config.DISC,
            "t_min_gap": config.T_MIN_GAP,
            "axis_parallel": config.AXIS_PARALLEL,
            "unit_norm": config.UNIT_NORM,
            "overlap": config.OVERLAP,
        },
    }
    if seed is not None:
        info["seed"] = int(seed)
    return info


def _write_report(command: str, body: dict, summary: list[str],
                  out_path: str | None) -> None:
    stamp = datetime.now(timezone.utc).isoformat()
    text = (
        f"# cylbill report: {command}\n"
        f"# generated: {stamp}\n"
        + fileio.dumps(body)
        + "".join(f"# summary: {line}\n" for line in summary)
    )
    if out_path:
        with open(out_path, "w", encoding="utf-8") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)


def _load_valid_system(path):
    system = model.load_system(path)
    report = model.validate(system)
    if not report.ok:
        raise InputError(f"{path}: {report}")
    return system


def _parse_vector(text: str) -> np.ndarray:
    try:
        vec = np.array([float(x) for x in text.split(",")], dtype=float)
    except ValueError as exc:
        raise UsageError(f"cannot parse vector {text!r}") from exc
    if not np.isfinite(vec).all():
        raise UsageError(f"vector {text!r} has a non-finite component")
    return vec


def _seed(text: str) -> int:
    """A non-negative ``--seed``; argparse names the option on refusal."""
    if not text.isdecimal():
        raise argparse.ArgumentTypeError(
            f"expected a non-negative integer, not {text!r}")
    return int(text)


def _parse_ints(text: str) -> list[int]:
    try:
        return [int(x) for x in text.split(",")]
    except ValueError as exc:
        raise UsageError(f"cannot parse integer list {text!r}") from exc


# ---------------------------------------------------------------------------
# Commands
# ---------------------------------------------------------------------------


def cmd_classify(args) -> int:
    system = _load_valid_system(args.system)
    bases = system.base_spaces()
    graph = classify.non_orthogonality_graph(bases)
    joint = span_of(bases, ambient_dim=system.dim)
    transitive, witness = classify.is_transitive(bases, ambient_dim=system.dim,
                                                 graph=graph, joint=joint)
    commutant = classify.commutant_dimension(bases, graph=graph, joint=joint) \
        if all(b.dim >= 2 for b in bases) else None
    transverse, counterexample = classify.is_transverse(system)
    components = classify.graph_components(graph)
    body = {
        "system": args.system,
        "dim": system.dim,
        "n_cylinders": system.k,
        "transitive": transitive,
        "transverse": transverse,
        "commutant_dimension": commutant,
        "graph_components": components,
        "run": _run_info(),
    }
    if witness is not None:
        body["splitting_witness"] = {
            "b1_dim": witness.b1.dim,
            "b2_dim": witness.b2.dim,
            "b1_basis": [[float(x) for x in row] for row in witness.b1.basis],
            "assignment": {str(k): v for k, v in witness.assignment.items()},
        }
    if counterexample is not None:
        body["transverseness_counterexample"] = list(counterexample)
    summary = [
        f"transitive: {'yes' if transitive else 'no'}",
        f"transverse: {'yes' if transverse else 'no'}",
        f"commutant dimension: {commutant}",
        f"graph components: {len(components)}",
    ]
    _write_report("classify", body, summary, args.out)
    return EXIT_OK


def _directsum_params(path) -> dict:
    """Arguments of ``builders.direct_sum_system`` read from a JSON file; a
    missing key or a malformed value raises ``SystemFormatError``."""
    doc = model.load_document(path)
    if not isinstance(doc, dict):
        raise model.SystemFormatError(f"{path}: parameters must be an object")
    for key in ("bases", "block_dims", "radii"):
        if key not in doc:
            raise model.SystemFormatError(f"{path}: missing key {key!r}")
    try:
        return {
            "block_dims": [int(x) for x in doc["block_dims"]],
            "bases": [orthonormalize(np.asarray(rows, dtype=float),
                                     ambient_dim=len(rows[0]))
                      for rows in doc["bases"]],
            "radii": [float(x) for x in doc["radii"]],
            "translations": [np.asarray(t, dtype=float)
                             for t in doc.get("translations", [])] or None,
            "lattice_basis": np.asarray(doc["lattice_basis"], dtype=float)
            if "lattice_basis" in doc else None,
        }
    except (IndexError, TypeError, ValueError) as exc:
        raise model.SystemFormatError(f"{path}: {exc}") from exc


def cmd_build(args) -> int:
    if args.kind == "hardball":
        masses = tuple(float(x) for x in args.masses.split(","))
        params = builders.HardBallParams(
            n_balls=args.n, torus_dim=args.nu, masses=masses, radius=args.r
        )
        system, embedding = builders.hard_ball_system(params)
        extra = {
            "kind": "hardball",
            "reduced_dim": system.dim,
            "n_cylinders": system.k,
            "pairs": [list(p) for p in embedding.pairs],
            "radii": [c.radius for c in system.cylinders],
        }
    elif args.kind == "directsum":
        system, graph = builders.direct_sum_system(
            **_directsum_params(args.params))
        extra = {
            "kind": "directsum",
            "n_cylinders": system.k,
            "graph_edges": np.argwhere(np.triu(graph)).tolist(),
        }
    else:   # subbilliard
        parent = _load_valid_system(args.system)
        system, report = builders.sub_billiard(parent,
                                               _parse_ints(args.indices))
        extra = {
            "kind": "subbilliard",
            "parent": args.system,
            "parent_indices": list(report.parent_indices),
            "factor_dim": system.dim,
            "drift_rank": report.drift_lattice_rank,
        }
    report = model.validate(system)
    if not report.ok:
        raise InputError(f"built system failed validation: {report}")
    model.save_system(system, args.out)
    body = {"out": args.out, "dim": system.dim, "run": _run_info()}
    body.update(extra)
    _write_report("build", body, [f"wrote {args.out} (dim {system.dim}, "
                                  f"{system.k} cylinders)"], None)
    return EXIT_OK


def _delta_body(args):
    system = _load_valid_system(args.system)
    labels = paths.load_sigma(args.sigma)
    report = paths.delta_sigma_report(
        system, labels, n_samples=args.samples, seed=args.seed)
    body = {
        "system": args.system,
        "sigma": args.sigma,
        "labels": labels,
        "delta": report.value,
        "full_target": report.d - 1,
        "bound": report.bound,
        "rich": report.rich,
        "n_success": report.n_success,
        "n_failed_samples": report.n_failed_samples,
        "sample_dims": report.sample_dims,
        "n_attempts": report.n_attempts,
        "rejected": report.rejected,
        "constrained_manifold_dim": report.d + report.bound,
        "run": _run_info(seed=args.seed),
    }
    summary = [
        f"delta = {report.value} (full target {report.d - 1}, "
        f"bound {report.bound})",
        f"rich: {'yes' if report.rich else 'no'}",
        f"samples: {report.n_success} ok, {report.n_failed_samples} failed",
        f"candidates: {report.n_attempts} tried, rejected "
        + ", ".join(f"{k} {v}" for k, v in report.rejected.items()),
    ]
    return body, summary, report


def cmd_delta(args) -> int:
    body, summary, _ = _delta_body(args)
    _write_report("delta", body, summary, args.out)
    return EXIT_OK


def cmd_rich(args) -> int:
    body, summary, report = _delta_body(args)
    _write_report("rich", body, summary, args.out)
    return EXIT_OK if report.rich else EXIT_NEGATIVE


def _initial_phase(args, system) -> flow.PhasePoint:
    if args.random:
        if args.q is not None or args.v is not None:
            raise UsageError("--random draws the start point; it cannot be "
                             "combined with --q or --v")
        if args.seed is None:
            raise UsageError("--random requires --seed")
        rng = np.random.default_rng(np.random.SeedSequence(args.seed))
        return flow.random_phase(system, rng)
    if args.q is None or args.v is None:
        raise UsageError("provide --q and --v, or --random with --seed")
    q = _parse_vector(args.q)
    v = _parse_vector(args.v)
    if len(q) != system.dim or len(v) != system.dim:
        raise UsageError(f"--q and --v need {system.dim} components")
    nv = np.linalg.norm(v)
    if nv == 0:
        raise UsageError("velocity must be nonzero")
    return flow.PhasePoint(q, v / nv)


@contextlib.contextmanager
def _start_point(q_text: str | None):
    """A ``--q`` inside a scatterer is a refused argument, not a
    degeneracy of the run; a sampled start point is always outside."""
    try:
        yield
    except flow.StartInside as exc:
        raise UsageError(f"--q {q_text}: {exc}") from exc


def cmd_simulate(args) -> int:
    system = _load_valid_system(args.system)
    if args.seed is not None and not args.random:
        raise UsageError("--seed is read only with --random")
    phase = _initial_phase(args, system)
    if args.collisions is None and args.time is None:
        raise UsageError("need --collisions or --time")
    # without --collisions the flow stops at its event cap
    max_collisions = flow.MAX_FLOW_EVENTS if args.collisions is None \
        else args.collisions
    with _start_point(args.q):
        record = flow.flow(
            system, phase,
            max_collisions=max_collisions,
            max_time=args.time,
        )
    flow.save_record(record, args.out)
    if args.table:
        with open(args.table, "w", encoding="utf-8") as fh:
            fh.write(flow.record_table(record))
    body = {
        "system": args.system,
        "out": args.out,
        "n_events": len(record.events),
        "total_time": record.total_time,
        "flags": {k: bool(v) for k, v in record.flags.items()},
        "max_collisions": max_collisions,
        "max_time": args.time,
        "horizon": record.horizon,
        "run": _run_info(seed=args.seed),
    }
    summary = [
        f"{len(record.events)} events over time {record.total_time:.6g}",
        "flags: " + ", ".join(k for k, v in record.flags.items() if v)
        if any(record.flags.values()) else "flags: none",
    ]
    if args.collisions is None and len(record.events) == max_collisions:
        summary.append(f"stopped at the event cap MAX_FLOW_EVENTS = "
                       f"{max_collisions}, before --time")
    _write_report("simulate", body, summary, None)
    return EXIT_DEGENERACY if record.degenerate else EXIT_OK


def cmd_lyapunov(args) -> int:
    system = _load_valid_system(args.system)
    phase = _initial_phase(args, system)
    with _start_point(args.q):
        result = flow.lyapunov_max(
            system, phase,
            total_t=args.total_time,
            renorm_dt=args.renorm_dt,
            seed=args.seed,
        )
    body = {
        "system": args.system,
        "estimate": result.estimate,
        "stderr": result.stderr if np.isfinite(result.stderr) else None,
        "spectrum": result.spectrum,
        "n_windows": result.n_windows,
        "renorm_dt": args.renorm_dt,
        # the run is rounded to whole windows
        "total_time": result.n_windows * args.renorm_dt,
        "n_kept": len(result.window_logs),
        "discarded": result.discarded,
        "discarded_by_reason": result.discarded_by_reason,
        "unreliable": result.unreliable,
        "n_collisions": result.n_collisions,
        "n_scans": result.n_scans,
        "window_logs": result.window_logs if args.dump_windows else None,
        "run": _run_info(seed=args.seed),
    }
    summary = [
        f"lyapunov estimate {result.estimate:.6g} "
        f"(stderr {result.stderr:.3g}, {len(result.window_logs)} windows, "
        f"{result.discarded} discarded)",
        f"spectrum sum {sum(result.spectrum):.3g}, pairing residual "
        f"{result.pairing_residual:.3g}",
        "UNRELIABLE (too many discarded windows)" if result.unreliable
        else "reliability: ok",
    ]
    _write_report("lyapunov", body, summary, args.out)
    return EXIT_DEGENERACY if result.unreliable else EXIT_OK


def cmd_splitting_scan(args) -> int:
    system = _load_valid_system(args.system)
    result = flow.splitting_scan(
        system,
        n_orbits=args.orbits,
        n_collisions=args.collisions,
        seed=args.seed,
    )
    body = {
        "system": args.system,
        "fraction": result.fraction,
        "n_orbits": result.n_orbits,
        "n_with_witness": result.n_with_witness,
        "n_degenerate": result.n_degenerate,
        "n_horizon_stops": result.n_horizon_stops,
        "collisions_per_orbit": args.collisions,
        "horizon": result.horizon,
        "run": _run_info(seed=args.seed),
    }
    summary = [
        f"splitting fraction {result.fraction:.4f} "
        f"({result.n_with_witness}/{result.n_orbits} orbits, "
        f"up to {args.collisions} collisions each)",
        f"{result.n_horizon_stops} of {result.n_orbits} orbits stopped "
        "short: no collision within the horizon",
        f"{result.n_degenerate} of {result.n_orbits} orbits stopped at a "
        "degeneracy",
    ]
    _write_report("splitting-scan", body, summary, args.out)
    return EXIT_OK


# ---------------------------------------------------------------------------
# Parser
# ---------------------------------------------------------------------------


@functools.cache
def build_parser() -> _Parser:
    """The command-line parser, built once per process: ``parse_args``
    leaves a parser unchanged, so every call can share it."""
    parser = _Parser(prog="cylbill",
                     description="Cylindric billiards: build, classify, "
                                 "simulate, and diagnose hyperbolicity.")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("classify", help="transitivity / transverseness report")
    p.add_argument("--system", required=True)
    p.add_argument("--out", default=None)
    p.set_defaults(func=cmd_classify)

    # each build kind declares only the options it reads
    kinds = sub.add_parser("build", help="build a system file") \
        .add_subparsers(dest="kind", required=True)
    p = kinds.add_parser("hardball", help="hard balls on the unit torus")
    p.add_argument("--n", type=int, required=True, help="number of balls")
    p.add_argument("--nu", type=int, required=True, help="torus dimension")
    p.add_argument("--masses", required=True, help="comma-separated masses")
    p.add_argument("--r", type=float, required=True, help="ball radius")
    p = kinds.add_parser("directsum", help="prescribed base-space blocks")
    p.add_argument("--params", required=True, help="JSON parameter file")
    p = kinds.add_parser("subbilliard", help="factor of a parent system")
    p.add_argument("--system", required=True, help="parent system")
    p.add_argument("--indices", required=True,
                   help="comma-separated cylinder indices")
    for p in kinds.choices.values():
        p.add_argument("--out", required=True)
        p.set_defaults(func=cmd_build)

    for name, fn in (("delta", cmd_delta), ("rich", cmd_rich)):
        p = sub.add_parser(name, help="expanding-dimension sampler")
        p.add_argument("--system", required=True)
        p.add_argument("--sigma", required=True)
        p.add_argument("--samples", type=int, required=True)
        p.add_argument("--seed", type=_seed, required=True)
        p.add_argument("--out", default=None)
        p.set_defaults(func=fn)

    p = sub.add_parser("simulate", help="run the flow, export the record")
    p.add_argument("--system", required=True)
    p.add_argument("--q", default=None, help="comma-separated start position")
    p.add_argument("--v", default=None, help="comma-separated start velocity")
    p.add_argument("--random", action="store_true")
    p.add_argument("--seed", type=_seed, default=None)
    p.add_argument("--collisions", type=int, default=None)
    p.add_argument("--time", type=float, default=None)
    p.add_argument("--out", required=True)
    p.add_argument("--table", default=None, help="also write a flat TSV")
    p.set_defaults(func=cmd_simulate)

    p = sub.add_parser("lyapunov", help="Lyapunov spectrum estimate")
    p.add_argument("--system", required=True)
    p.add_argument("--q", default=None)
    p.add_argument("--v", default=None)
    p.add_argument("--random", action="store_true")
    p.add_argument("--seed", type=_seed, required=True)
    p.add_argument("--total-time", type=float, required=True)
    p.add_argument("--renorm-dt", type=float, default=1.0)
    p.add_argument("--dump-windows", action="store_true")
    p.add_argument("--out", default=None)
    p.set_defaults(func=cmd_lyapunov)

    p = sub.add_parser("splitting-scan",
                       help="fraction of orbits with a splitting witness")
    p.add_argument("--system", required=True)
    p.add_argument("--orbits", type=int, required=True)
    p.add_argument("--collisions", type=int, required=True)
    p.add_argument("--seed", type=_seed, required=True)
    p.add_argument("--out", default=None)
    p.set_defaults(func=cmd_splitting_scan)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
        return args.func(args)
    except InputError as exc:
        print(f"validation failure: {exc}", file=sys.stderr)
        return EXIT_VALIDATION
    except DegeneracyError as exc:
        print(f"numerical-degeneracy abort: {exc}", file=sys.stderr)
        return EXIT_DEGENERACY
    except (UsageError, ValueError, OSError) as exc:
        # a bare ValueError is an argument the library refused, an
        # OSError an unreadable path
        print(f"usage error: {exc}", file=sys.stderr)
        return EXIT_USAGE


if __name__ == "__main__":
    sys.exit(main())
