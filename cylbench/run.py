"""Seeded benchmark of cylbill: hard-ball flow, d=2 Lyapunov, CLI diagnostics.

Run from the repository root (the directory holding ``BENCHMARK.json`` and
``src/``)::

    python3 cylbench/run.py --workload flow-hardball --seed 1 --seconds 30 --trace 0

The workloads live in ``workloads.py``; ``BENCHMARK.json`` names them and
defines every printed metric with its unit.  Each run is one process and
one closed-loop caller.  ``--seconds`` fixes the work budget: the number of
units per pass is ``--seconds`` over the passes and the workload's nominal
unit cost, so a seed always attempts the same operations (about
``--seconds`` of work on a 2-core machine with Python 3.11 and numpy 2.4).

Times are CPU seconds of this process, scaled to a fixed host speed.
Every operation runs on one thread (BLAS is pinned to one thread), so its
CPU time is its wall time less the time a virtual machine's host took the
CPU away (steal).  A shared host also runs the same code faster or slower
for minutes at a time as its neighbours' load changes, so before every unit
the run times ``REFERENCES_PER_UNIT`` executions of a fixed kernel
(``workloads.reference_s``, no cylbill code) and scales every time by
``REFERENCE_S`` over the kernel's median.  The report also prints the
unscaled CPU times, the wall time and the steal counter.

The untraced run makes ``REPEATS`` passes over the same units, with
``SETUPS_PER_PASS`` fresh set-ups spread evenly over each pass.  An
operation's time is the fastest of its executions, and likewise for each
set-up slot; the executions lie seconds apart, so this filters out short
phases in which the host runs the same code more slowly.  ``setup_s`` is
the median over the set-up slots.

``--trace 0`` prints the end-to-end metrics.  ``--trace 1`` runs each unit
untraced, traced, untraced and traced again, and prints the per-layer
metrics from the first traced execution of each unit and from the traced
set-ups.  ``trace_overhead_share`` is the traced over the untraced time,
each operation taking the best of its two executions, minus one.  Every
per-layer metric is printed on every workload; a layer that a workload does
not call reads 0 there.  Span times, and so each ``self_s``, are wall
times.  The spans are written to ``.bench_out/``.

Lines starting with ``#`` are the human report (values with units and sample
counts, the environment, failures by type, every gate); the last line is the
JSON result.  Exit status: 0 when every gate holds, 1 when one was breached,
2 when cylbill cannot be imported from ``src/`` or a set-up fails.
"""

from __future__ import annotations

import argparse
import contextlib
import json
import math
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import traceback
from collections import Counter
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
REPEATS = 3
TRACE_ROUNDS = 2
SETUPS_PER_PASS = 5
REFERENCES_PER_UNIT = 2
# CPU seconds of workloads.reference_s on an Intel Xeon vCPU at 2.1 GHz with
# Python 3.11.7 and numpy 2.4.6: times are reported at this host speed
REFERENCE_S = 0.010
BLAS_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")


def _import_cylbill():
    src = (ROOT / "src").resolve()
    sys.path.insert(0, str(src))
    import cylbill

    if Path(cylbill.__file__).resolve().parent.parent != src:
        raise ImportError(f"cylbill was imported from {cylbill.__file__}, "
                          f"not from {src}")


def _git_commit() -> str:
    try:
        out = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT,
                             capture_output=True, text=True,
                             env={**os.environ,
                                  "GIT_CEILING_DIRECTORIES": str(ROOT.parent)})
    except OSError:
        return "unavailable"
    return out.stdout.strip() if out.returncode == 0 else "unavailable"


def _steal_s() -> float | None:
    """Seconds of CPU time the host has taken from this virtual machine,
    summed over its CPUs, or None where the kernel does not say."""
    try:
        with open("/proc/stat", encoding="ascii") as fh:
            fields = fh.readline().split()
        return int(fields[8]) / os.sysconf("SC_CLK_TCK")
    except (OSError, IndexError, ValueError):
        return None


def _environment(np, steal_start) -> dict:
    steal_end = _steal_s()
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = f"{blas.get('name')} {blas.get('version', '')}".strip()
    except (KeyError, TypeError, AttributeError):
        blas = "unknown"
    return {
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "git_commit": _git_commit(),
        "blas": blas,
        "blas_threads": {v: os.environ[v] for v in BLAS_VARS},
        "steal_s": steal_end,
        "steal_s_during_run": None if steal_start is None or steal_end is None
        else round(steal_end - steal_start, 2),
    }


def _trace_targets():
    from cylbill import (builders, classify, cli, fileio, geometry, model,
                         paths, torusflow)

    def collisions(counts, record):
        counts["torusflow.flow.collisions"] += len(record.events)

    def candidates(counts, result):
        counts["geometry.enumerate_ball.candidates"] += len(result[0])

    def windows(counts, result):
        counts["torusflow.lyapunov.discarded"] += result.discarded
        counts["torusflow.lyapunov.windows"] += result.n_windows

    modules = (
        (builders, ("hard_ball_system",)),
        (model, ("save_system", "load_system", "validate")),
        (fileio, ("dump", "load")),
        (geometry, ("span_of",)),
        (classify, ("is_transitive", "is_transverse", "commutant_dimension")),
        (paths, ("trace", "w_plus", "delta_sigma_report")),
        (torusflow, ("random_phase", "flow", "detect_splitting",
                     "lyapunov_max")),
        (cli, ("main",)),
    )
    observers = {"torusflow.flow": collisions,
                 "torusflow.lyapunov_max": windows}
    targets = [(geometry.Lattice, "enumerate_ball",
                "geometry.enumerate_ball", candidates)]
    for module, names in modules:
        short = module.__name__.rpartition(".")[2]
        for attr in names:
            name = f"{short}.{attr}"
            targets.append((module, attr, name, observers.get(name)))
    return targets


def _layer_metrics(spec, tracer, untraced_s, traced_s) -> dict:
    rows = tracer.summary()
    counts = tracer.counts

    def row(name, key):
        return rows.get(name, {}).get(key, 0)

    def share(num, den):
        return num / den if den else 0.0

    w_plus = row("paths.w_plus", "calls")
    values = {
        "torusflow.flow.us_per_collision": 1e6 * share(
            row("torusflow.flow", "total_s"),
            counts["torusflow.flow.collisions"]),
        "geometry.enumerate_ball.candidates":
            counts["geometry.enumerate_ball.candidates"],
        "torusflow.lyapunov.discarded_share": share(
            counts["torusflow.lyapunov.discarded"],
            counts["torusflow.lyapunov.windows"]),
        "paths.trace.fail_share": share(counts["paths.trace.errors"],
                                        row("paths.trace", "calls")),
        "paths.delta.accept_share": share(
            w_plus - counts["paths.w_plus.errors"], w_plus),
        "trace_overhead_share": traced_s / untraced_s - 1.0,
    }
    for metric in spec["per_layer"]:
        name = metric["name"]
        if name not in values:
            layer, _, stat = name.rpartition(".")
            if stat not in ("calls", "self_s"):
                raise KeyError(f"no rule computes per-layer metric {name}")
            values[name] = row(layer, stat)
    return values


def _tail(times):
    """Highest percentile with at least ten samples above it, as (value,
    percentile).  Below 21 samples that percentile is not above the
    median, and the maximum is reported instead."""
    ordered = sorted(times)
    n = len(ordered)
    if n < 21:
        return ordered[-1], 100
    return ordered[n - 11], math.floor(100 * (n - 10) / n)


def _timings(times, setup_times, work, work_s) -> dict:
    tail, pct = _tail(times)
    return {
        "setup_s": statistics.median(setup_times),
        "work_per_s": work / work_s,
        "ops_per_s": len(times) / sum(times),
        "op_s.p50": statistics.median(times),
        "op_s.tail": tail,
    }, pct


def _end_to_end(ops, setup_times, refs, wl, lines) -> dict:
    """The end-to-end metrics, every time scaled by ``REFERENCE_S`` over
    the median of ``refs``, the reference kernel's times in this run."""
    ref_s = statistics.median(refs)
    scale = REFERENCE_S / ref_s
    worked = [op for op in ops if op.work is not None]
    work = sum(op.work for op in worked)
    work_s = sum(op.cpu_s for op in worked)
    cpu = [op.cpu_s for op in ops]
    unscaled, _ = _timings(cpu, setup_times, work, work_s)
    values, pct = _timings([t * scale for t in cpu],
                           [t * scale for t in setup_times], work,
                           work_s * scale)
    times_s = sum(cpu) * scale
    values["peak_rss_mb"] = rss_mb = resource.getrusage(
        resource.RUSAGE_SELF).ru_maxrss / 1024.0
    lines += [
        f"host speed: reference kernel {ref_s:.6g} CPU s (median of "
        f"{len(refs)} runs); times below are CPU times scaled by "
        f"{REFERENCE_S} / {ref_s:.6g} = {scale:.4f}",
        f"setup_s = {values['setup_s']:.6g} s (median over "
        f"{len(setup_times)} set-up slots, each the best of {REPEATS})",
        f"work_per_s = {values['work_per_s']:.6g} 1/s ({wl.work_label}; "
        f"{work:.6g} over {work_s * scale:.4f} s in {len(worked)} ops)",
        f"ops_per_s = {values['ops_per_s']:.6g} 1/s ({len(ops)} ops in "
        f"{times_s:.4f} s; {sum(op.wall_s for op in ops):.4f} s wall "
        "unscaled)",
        f"op_s.p50 = {values['op_s.p50']:.6g} s (n={len(ops)} ops, each "
        f"the best of {REPEATS} executions)",
        f"op_s.tail = {values['op_s.tail']:.6g} s (p{pct} of n={len(ops)} "
        f"ops, {10 if pct < 100 else 0} samples above it)",
        f"peak_rss_mb = {rss_mb:.6g} MB (max resident set of this process)",
        "unscaled CPU times " + json.dumps(unscaled),
    ]
    return values


def _setup_slots(n_units) -> Counter:
    """How many set-ups run before each unit: ``SETUPS_PER_PASS`` spread
    evenly over a pass, each unit running on the latest."""
    return Counter(j * n_units // SETUPS_PER_PASS
                   for j in range(SETUPS_PER_PASS))


def _pass(wl, seed, n_units, reference):
    """Every unit once, untraced, each after ``REFERENCES_PER_UNIT`` runs
    of the reference kernel: (set-up CPU times, ops, reference times)."""
    slots = _setup_slots(n_units)
    setup_times, ops, refs = [], [], []
    for unit in range(n_units):
        for _ in range(slots[unit]):
            state, seconds = wl.timed_setup()
            setup_times.append(seconds)
        refs += [reference() for _ in range(REFERENCES_PER_UNIT)]
        ops.extend(wl.run_unit(state, seed, unit))
    return setup_times, ops, refs


def _traced_run(wl, seed, n_units, tracer):
    """Every unit ``TRACE_ROUNDS`` times untraced and as often traced,
    interleaved, so both see the same host; the set-ups are traced.  Spans
    are kept from the set-ups and the first traced round only.  Returns
    (untraced, traced), each a list over rounds of the ops of a round."""
    targets = _trace_targets()
    wl.pause = tracer.paused
    slots = _setup_slots(n_units)
    untraced = [[] for _ in range(TRACE_ROUNDS)]
    traced = [[] for _ in range(TRACE_ROUNDS)]
    for unit in range(n_units):
        for _ in range(slots[unit]):
            with tracer.installed(targets):
                state, _ = wl.timed_setup()
        tracer.op = unit
        for r in range(TRACE_ROUNDS):
            untraced[r].extend(wl.run_unit(state, seed, unit))
            with tracer.installed(targets), (
                    tracer.discarding() if r else contextlib.nullcontext()):
                traced[r].extend(wl.run_unit(state, seed, unit))
    return untraced, traced


def _best(rounds):
    """Per operation, the execution with the least CPU time."""
    return [min(execs, key=lambda op: op.cpu_s) for execs in zip(*rounds)]


def _measure(args, spec, workdir) -> int:
    import numpy as np
    import tracing
    import workloads

    steal_start = _steal_s()
    gates = workloads.Gates()
    wl = workloads.WORKLOADS[args.workload](workdir, gates)
    executions = 2 * TRACE_ROUNDS if args.trace else REPEATS
    n_units = max(1, round(args.seconds / executions / wl.unit_s))
    why = {w["name"]: w["why"] for w in spec["workloads"]}[args.workload]
    lines = [f"workload {wl.name}: {why}",
             f"budget: {n_units} units ({wl.unit_label}; nominal "
             f"{wl.unit_s} s each), each run {executions} times, and "
             f"{SETUPS_PER_PASS} set-ups per pass, seed {args.seed}"]
    clock = workloads.Clock()
    try:
        if args.trace:
            tracer = tracing.Tracer()
            untraced, traced = _traced_run(wl, args.seed, n_units, tracer)
            ops = [op for r in untraced + traced for op in r]
        else:
            runs = [_pass(wl, args.seed, n_units, workloads.reference_s)
                    for _ in range(REPEATS)]
            ops = [op for _, pass_ops, _ in runs for op in pass_ops]
    except Exception:           # a set-up failed: nothing to measure
        traceback.print_exc()
        return 2
    cpu_s, wall_s = clock.read()
    lines.append(f"measuring took {wall_s:.2f} s wall, {cpu_s:.2f} s CPU")
    if args.trace:
        out_dir = ROOT / ".bench_out"
        out_dir.mkdir(exist_ok=True)
        spans_path = out_dir / f"spans-{wl.name}-seed{args.seed}.jsonl"
        tracer.write(spans_path)
        plain = sum(op.cpu_s for op in _best(untraced))
        with_spans = sum(op.cpu_s for op in _best(traced))
        values = _layer_metrics(spec, tracer, plain, with_spans)
        lines += [f"traced: {len(traced[0])} ops and {SETUPS_PER_PASS} "
                  f"set-ups, {len(tracer.spans)} spans written to "
                  f"{spans_path.relative_to(ROOT)}",
                  f"overhead: {with_spans:.4f} CPU s traced against "
                  f"{plain:.4f} untraced, best of {TRACE_ROUNDS} each"]
        wanted = spec["per_layer"]
    else:
        setup_best = [min(times) for times in zip(*(r[0] for r in runs))]
        values = _end_to_end(_best([r[1] for r in runs]), setup_best,
                             [t for r in runs for t in r[2]], wl, lines)
        wanted = spec["end_to_end"]
    if set(values) != {m["name"] for m in wanted}:
        raise KeyError("computed metrics differ from BENCHMARK.json: "
                       f"{sorted(set(values) ^ {m['name'] for m in wanted})}")
    metrics = {m["name"]: {"value": values[m["name"]], "unit": m["unit"]}
               for m in wanted}
    if args.trace:
        lines += [f"{name} = {m['value']:.6g} {m['unit']}"
                  for name, m in metrics.items()]

    failures = Counter(op.error for op in ops if op.error is not None)
    failed = sum(failures.values())
    lines.append(f"failed_share = {failed / len(ops):.6g} ({failed} of "
                 f"{len(ops)} operations); by type: "
                 f"{json.dumps(dict(sorted(failures.items())))}")
    for kind in sorted(failures):
        first = wl.failure_detail.get(kind, "").strip().splitlines()
        lines.append(f"  first {kind}: {first[-1] if first else ''}")
    lines += [f"note {name}: {n}" for name, n in sorted(wl.notes.items())]
    for name in wl.gates_named:
        lines.append(f"gate {name}: checked {gates.checked[name]}, "
                     f"breached {gates.breached[name]}"
                     + (f" (first: {gates.first_breach[name]})"
                        if name in gates.first_breach else ""))
    lines.append("env " + json.dumps(_environment(np, steal_start),
                                     sort_keys=True))
    for line in lines:
        print("# " + line)
    print(json.dumps({"correct": gates.ok, "attempted": len(ops),
                      "failed": failed, "metrics": metrics}))
    return 0 if gates.ok else 1


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    for var in BLAS_VARS:       # before numpy is first imported
        os.environ[var] = "1"
    try:
        spec = json.loads((ROOT / "BENCHMARK.json").read_text())
        _import_cylbill()
    except (OSError, ImportError, ValueError) as exc:
        print(f"cannot run the benchmark: {exc}", file=sys.stderr)
        return 2
    if args.workload not in {w["name"] for w in spec["workloads"]}:
        parser.error(f"unknown workload {args.workload!r}")
    workdir = ROOT / ".bench_work" / f"{args.workload}-{os.getpid()}"
    workdir.mkdir(parents=True, exist_ok=True)
    try:
        return _measure(args, spec, workdir)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
        with contextlib.suppress(OSError):
            workdir.parent.rmdir()      # only when no other run uses it


if __name__ == "__main__":
    sys.exit(main())
