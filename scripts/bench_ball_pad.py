"""Parent/change comparison of the flow's image balls, as one JSON file.

Usage, from the repository root, with two plain checkouts (each holding
``src/``, ``cylbench/`` and ``BENCHMARK.json``), for instance the parent
made by ``git archive <commit> | tar -x -C <dir>`` and the change a copy of
the working tree::

    python3 scripts/bench_ball_pad.py --parent <dir> --change <dir> \\
        --seeds 901-910 --out BENCH_ball_pad.json

Four parts, all deterministic in their inputs:

* ``identity``: one process per side writes, for every item, a hash of
  what it computed: the trajectory files of 200-collision flows at seeds
  0-5 on each system of ``FLOWS``; 40 flows with flow-hardball's
  parameters (seeds 0-39), each trajectory file with both splitting
  verdicts; the whole ``lyapunov_max`` result (estimate, window logs,
  spectrum, counts) at seeds 0-3 on each system of ``LYAPUNOV``; and the
  ``delta`` and ``rich`` report bodies (exit code and body, timestamp line
  aside; 50 samples, seed 1) of five label sequences on each hard-ball
  file of ``tests/data``.
* ``same_process``: one process loads the parent package under another
  name beside the change, builds each system once per side and
  alternates calls between them, the first side alternating from rep to
  rep; CPU time of each call, medians.  Per system: how many cylinders'
  balls hold how many images (``_FlowView.sizes``), the ``_FlowView``
  set-up, and the per-collision CPU of the flows (or ``lyapunov_max``
  runs) that ``identity`` hashes.
* ``window``: the change alone, with ``torusflow._WINDOW_DIAMETERS`` set
  to each of ``WINDOWS`` in turn, alternating between the settings from
  rep to rep: CPU time of one flow-hardball unit (a 200-collision flow and
  its two splitting verdicts, seeds 0-9), of one lyapunov-sinai unit on
  each of its systems (``lyapunov_max`` over ``total_t = 500``, seeds
  0-3), and of two 200-collision flows (seeds 0-1) on each other system
  of ``FLOWS``, each against its time at 2 diameters.
* ``pairs``: ``cylbench/run.py --seconds 30 --trace 0`` on each workload
  and seed, the parent and the change back to back, as in
  ``scripts/bench_build_once.py``, with its ``summary``.  They run first,
  while this script's process is small, because a child's ``ru_maxrss``
  (``peak_rss_mb``) starts from its parent's.
"""

from __future__ import annotations

import argparse
import importlib
import json
import os
import platform
import statistics
import subprocess
import sys
import tempfile
import time
from collections import Counter
from pathlib import Path

from bench_build_once import (ENV, _alternate, _cli, _digest,
                              _load_package, _seed_range, pairs, summary)

ROOT = Path(__file__).resolve().parent.parent
DATA = ROOT / "tests" / "data"
# (label, n, nu, masses or None for unit masses, r)
FLOWS = (("hb(3,2) masses 1,1.2,0.9 r=0.2", 3, 2, (1.0, 1.2, 0.9), 0.2),
         ("hb(8,2) r=0.05", 8, 2, None, 0.05),
         ("hb(4,3) r=0.1", 4, 3, None, 0.1),
         ("hb(8,3) r=0.06", 8, 3, None, 0.06),
         ("hb(12,3) r=0.05", 12, 3, None, 0.05),
         ("hb(20,2) r=0.02", 20, 2, None, 0.02))
FLOW_SEEDS, COLLISIONS, HORIZON = range(6), 200, 1e4
LYAPUNOV = ("sinai r=0.3", "hb(2,2) r=0.1", "hb_3_2.json", "hb_4_3.json")
LYAPUNOV_SEEDS, LYAPUNOV_T = range(4), 200.0
WINDOWS = (0.75, 1.0, 1.5, 2.0, 3.0, 4.0)


def _flow_system(side, n, nu, masses, r):
    builders = side["builders"]
    return builders.hard_ball_system(builders.HardBallParams(
        n, nu, masses or (1.0,) * n, r))[0]


def _lyapunov_system(side, label):
    if label.endswith(".json"):
        return side["model"].load_system(DATA / label)
    if label.startswith("sinai"):
        model, np = side["model"], side["np"]
        return model.CylindricBilliardSystem(
            dim=2, lattice=side["geometry"].Lattice(np.eye(2)),
            cylinders=[model.CylinderSpec(
                radius=0.3, translation=np.full(2, 0.5),
                generator_coeffs=np.zeros((2, 0), np.int64))])
    return _flow_system(side, 2, 2, None, 0.1)


def _side(package: str) -> dict:
    import numpy

    side = {module: importlib.import_module(f"{package}.{module}")
            for module in ("builders", "cli", "geometry", "model",
                           "torusflow")}
    side["np"] = numpy
    return side


def _flows(side, system, seeds, collisions=COLLISIONS):
    tf, np = side["torusflow"], side["np"]
    return [tf.flow(system, tf.random_phase(system, np.random.default_rng(s)),
                    max_collisions=collisions, default_horizon=HORIZON)
            for s in seeds]


def _lyapunov(side, system, seeds, total_t=LYAPUNOV_T):
    tf, np = side["torusflow"], side["np"]
    results = []
    for s in seeds:
        rng = np.random.default_rng(s)
        phase = tf.random_phase(system, rng)
        results.append(tf.lyapunov_max(system, phase, total_t=total_t,
                                       renorm_dt=1.0, d0=1e-9,
                                       seed=int(rng.integers(2**31))))
    return results


# ---------------------------------------------------------------------------
# identity: run inside one side's process
# ---------------------------------------------------------------------------


def identity_side(workdir: Path) -> dict:
    side = _side("cylbill")
    tf = side["torusflow"]
    os.chdir(workdir)
    items = {}

    def saved(record) -> str:
        tf.save_record(record, "traj.json")
        return _digest(Path("traj.json").read_bytes())

    for label, *params in FLOWS:
        system = _flow_system(side, *params)
        for seed, record in zip(FLOW_SEEDS,
                                _flows(side, system, FLOW_SEEDS)):
            items[f"flow {label} seed {seed}"] = saved(record)
    system = _flow_system(side, *FLOWS[0][1:])
    for seed, record in enumerate(_flows(side, system, range(40))):
        verdicts = [repr(tf.detect_splitting(part, system))
                    for part in (record.prefix(20), record)]
        items[f"flow-hardball seed {seed}"] = [saved(record),
                                              _digest(repr(verdicts))]
    for label in LYAPUNOV:
        system = _lyapunov_system(side, label)
        for seed, res in zip(LYAPUNOV_SEEDS,
                             _lyapunov(side, system, LYAPUNOV_SEEDS)):
            items[f"lyapunov_max {label} seed {seed}"] = _digest(repr(res))
    for path in sorted(DATA.glob("hb_*.json")):
        k = side["model"].load_system(path).k
        for labels in ([0], [0, 1], [0, 1, 2], list(range(k)),
                       [0, 1, 0, 2, 1, 3, 0]):
            labels = [i % k for i in labels]
            sigma = Path("sigma.json")
            sigma.write_text(json.dumps({"format": "cylbill-sigma",
                                         "labels": labels}))
            for command in ("delta", "rich"):
                code, body = _cli(side["cli"], [
                    command, "--system", str(path), "--sigma", str(sigma),
                    "--samples", "50", "--seed", "1"])
                items[f"{command} {path.name} {labels}"] = [code,
                                                           _digest(body)]
    return items


def identity(parent: Path, change: Path) -> dict:
    sides = {}
    for name, tree in (("parent", parent), ("change", change)):
        with tempfile.TemporaryDirectory() as work:
            run = subprocess.run(
                [sys.executable, __file__, "--identity-side", work],
                env={**ENV, "PYTHONPATH": str(tree / "src")},
                capture_output=True, text=True, check=True)
        sides[name] = json.loads(run.stdout)
    differ = sorted(k for k in sides["change"]
                    if sides["parent"].get(k) != sides["change"][k])
    differ += sorted(set(sides["parent"]) - set(sides["change"]))
    return {"items": len(sides["change"]), "differ": len(differ),
            "differing": differ, "digests": sides}


# ---------------------------------------------------------------------------
# same-process A/B
# ---------------------------------------------------------------------------


def _per_collision(timing: dict, collisions: int) -> dict:
    """``_alternate``'s medians, restated per collision in microseconds."""
    return {"collisions": collisions,
            "parent_us": round(1e3 * timing["parent_ms"] / collisions, 2),
            "change_us": round(1e3 * timing["change_ms"] / collisions, 2),
            "change_over_parent": timing["change_over_parent"],
            "change_faster_in": timing["change_faster_in"]}


def same_process(parent: Path, change: Path) -> dict:
    sys.path.insert(0, str(change / "src"))
    _load_package("cylbill_parent", parent / "src")
    sides = {"parent": _side("cylbill_parent"), "change": _side("cylbill")}
    results = {}
    cases = [(label, "flow", lambda side, p=params: _flow_system(side, *p))
             for label, *params in FLOWS]
    cases += [(label, "lyapunov_max",
               lambda side, lab=label: _lyapunov_system(side, lab))
              for label in LYAPUNOV]
    for label, kind, build in cases:
        systems = {name: build(side) for name, side in sides.items()}
        views = {name: side["torusflow"]._flow_view(systems[name])
                 for name, side in sides.items()}
        setup = _alternate(
            {name: (lambda tf=side["torusflow"], s=systems[name]:
                    tf._FlowView(s))
             for name, side in sides.items()}, 9)
        if kind == "flow":
            runs = {name: (lambda side=side, s=systems[name]:
                           _flows(side, s, FLOW_SEEDS))
                    for name, side in sides.items()}
            count = sum(len(r.events) for r in runs["change"]())
        else:
            runs = {name: (lambda side=side, s=systems[name]:
                           _lyapunov(side, s, LYAPUNOV_SEEDS))
                    for name, side in sides.items()}
            count = sum(r.n_collisions for r in runs["change"]())
        results[label] = {
            "images_per_ball": {name: dict(Counter(view.sizes))
                                for name, view in views.items()},
            "flow_view_setup": setup,
            f"{kind}_per_collision": _per_collision(
                _alternate(runs, 5), count),
        }
    return results


# ---------------------------------------------------------------------------
# scan window sweep, the change alone
# ---------------------------------------------------------------------------


def _sweep(side, build, unit, reps) -> dict:
    """Median CPU time of ``unit(system)`` per window setting, over its
    median at 2 diameters; a fresh system (and flow view) per setting, the
    settings' order rotating from rep to rep."""
    tf = side["torusflow"]
    saved = tf._WINDOW_DIAMETERS
    systems = {}
    try:
        for w in WINDOWS:
            tf._WINDOW_DIAMETERS = w
            systems[w] = build()
            tf._flow_view(systems[w])
        times = {w: [] for w in WINDOWS}
        for rep in range(reps + 1):
            turn = rep % len(WINDOWS)
            order = WINDOWS[turn:] + WINDOWS[:turn]
            for w in order:
                start = time.process_time()
                unit(systems[w])
                if rep:         # the first rep warms up
                    times[w].append(time.process_time() - start)
    finally:
        tf._WINDOW_DIAMETERS = saved
    median = {w: statistics.median(t) for w, t in times.items()}
    return {str(w): round(median[w] / median[2.0], 3) for w in WINDOWS}


def window(change: Path) -> dict:
    sys.path.insert(0, str(change / "src"))
    side = _side("cylbill")
    tf = side["torusflow"]

    def flow_unit(system):
        for record in _flows(side, system, range(10)):
            tf.detect_splitting(record.prefix(20), system)
            tf.detect_splitting(record, system)

    out = {"diameters": list(WINDOWS),
           "relative_to": 2.0,
           "flow-hardball unit": _sweep(
               side, lambda: _flow_system(side, *FLOWS[0][1:]), flow_unit, 5)}
    for label in LYAPUNOV[:2]:
        out[f"lyapunov-sinai unit, {label}"] = _sweep(
            side, lambda lab=label: _lyapunov_system(side, lab),
            lambda s: _lyapunov(side, s, LYAPUNOV_SEEDS, total_t=500.0), 3)
    for label, *params in FLOWS[1:]:
        out[f"flow per collision, {label}"] = _sweep(
            side, lambda p=params: _flow_system(side, *p),
            lambda s: _flows(side, s, range(2)), 3)
    return out


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--parent", type=Path)
    parser.add_argument("--change", type=Path)
    parser.add_argument("--seeds", type=_seed_range, default="901-910")
    parser.add_argument("--out", type=Path)
    parser.add_argument("--identity-side", type=Path, help=argparse.SUPPRESS)
    args = parser.parse_args()
    if args.identity_side is not None:
        print(json.dumps(identity_side(args.identity_side)))
        return
    parent, change = args.parent.resolve(), args.change.resolve()
    runs = pairs(parent, change, args.seeds)
    doc = {
        "what": "Each cylinder's image ball is padded by half the "
                "fundamental diameter of its projected lattice, the most "
                "that rounding to the reduced basis leaves a point from "
                "its lattice point, instead of half the sum of the "
                "reduced basis lengths.",
        "how": "Four parts" + __doc__.split("Four parts", 1)[1].rstrip(),
        "command": "python3 cylbench/run.py --workload <workload> --seed "
                   "<seed> --seconds 30 --trace 0",
        "script": "scripts/bench_ball_pad.py",
        "host": f"{os.cpu_count()} CPUs, Python {platform.python_version()},"
                " OPENBLAS/OMP/MKL threads 1",
        "identity": identity(parent, change),
        "same_process": same_process(parent, change),
        "window": window(change),
        "runs": runs,
        "summary": summary(runs),
    }
    text = json.dumps(doc, indent=1) + "\n"
    if args.out:
        args.out.write_text(text)
    else:
        sys.stdout.write(text)


if __name__ == "__main__":
    main()
