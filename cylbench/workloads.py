"""The benchmark's workloads: seeded inputs, timed operations, gates.

Each workload runs as one closed-loop caller: an operation starts when the
previous one returns.  A workload builds its state in `setup`, then runs
*units* (one flow, one estimate, or one CLI session of several commands);
`run_unit` returns one `Op` per operation with its CPU and wall time, its
failure type (None when it succeeded) and the work it did.  Inputs derive
from the benchmark seed and the unit index only.  Every output is checked
by a gate after its operation's clock stops; the checks run with tracing
paused, and an exception inside a check breaches its gate.

Library calls go through module attributes (``tf.flow``, not a bound
``flow``) so the traced pass sees them.
"""

from __future__ import annotations

import contextlib
import io
import json
import time
import traceback
from collections import Counter
from dataclasses import dataclass

import numpy as np

from cylbill import builders, classify, cli, geometry, model, paths
from cylbill import torusflow as tf


class Clock:
    """CPU and wall time since it was made.  The operations run on one
    thread with BLAS pinned to one thread, so CPU time is their cost
    without the time the host's hypervisor takes the CPU away (steal)."""

    def __init__(self):
        self.cpu, self.wall = time.process_time(), time.perf_counter()

    def read(self) -> tuple[float, float]:
        return time.process_time() - self.cpu, time.perf_counter() - self.wall


_REF_RNG = np.random.default_rng(0)
_REF_IMAGES = _REF_RNG.standard_normal((2048, 4))
_REF_BASIS = _REF_RNG.standard_normal((4, 4))
_REF_SQUARE = _REF_RNG.standard_normal((6, 6))


def reference_s() -> float:
    """CPU seconds of a fixed kernel that does no cylbill work but mixes
    what cylbill spends its time on: small numpy products in an interpreted
    loop, a sweep over a block of lattice-image-like rows, small rank
    computations and JSON round trips.  Its time tracks how fast the host
    currently runs this kind of code."""
    clock = Clock()
    acc = 0.0
    for _ in range(3):
        for j in range(400):
            w = _REF_BASIS @ _REF_BASIS[j % 4]
            acc += float(w @ w) if j % 3 else -float(w[j % 4])
        for _ in range(4):
            d = _REF_IMAGES @ _REF_BASIS
            r = np.einsum("ij,ij->i", d, d)
            int(np.argmin(np.where(r > 1.0, r, np.inf)))
        for _ in range(30):
            np.linalg.matrix_rank(_REF_SQUARE)
        for j in range(100):
            json.loads(json.dumps({"dim": j, "v": [acc, 1.5, -2.0]}))
    return clock.read()[0]


@dataclass
class Op:
    kind: str
    cpu_s: float
    wall_s: float
    error: str | None = None
    work: float | None = None   # None: the op does no work_per_s work


class Gates:
    """Named correctness checks: how often each ran and was breached."""

    def __init__(self):
        self.checked: Counter = Counter()
        self.breached: Counter = Counter()
        self.first_breach: dict[str, str] = {}

    def check(self, name: str, ok: bool, detail: str = "") -> None:
        self.checked[name] += 1
        if not ok:
            self.breached[name] += 1
            self.first_breach.setdefault(name, detail)

    @contextlib.contextmanager
    def guard(self, name: str):
        """An exception raised while gate ``name`` is evaluated breaches it
        and the run goes on."""
        try:
            yield
        except Exception as exc:
            self.check(name, False, f"check raised {exc!r}")

    @property
    def ok(self) -> bool:
        return not self.breached


class Workload:
    name = ""
    gates_named: tuple[str, ...] = ()
    unit_s = 1.0          # nominal seconds per unit; sets the unit budget
    unit_label = ""
    work_label = ""       # what work_per_s counts on this workload

    def __init__(self, workdir, gates: Gates):
        self.workdir = workdir
        self.gates = gates
        self.pause = contextlib.nullcontext
        self.failure_detail: dict[str, str] = {}
        self.notes: Counter = Counter()     # counts worth reporting

    def timed_setup(self):
        """(state, CPU seconds the set-up took)."""
        clock = Clock()
        state = self.setup()
        return state, clock.read()[0]

    def _failed(self, exc: Exception) -> str:
        kind = type(exc).__name__
        self.failure_detail.setdefault(kind, traceback.format_exc(limit=3))
        return kind

    def _saved_and_loaded(self, system, filename):
        """Write a system, read it back and validate it, as a user's files
        go."""
        path = self.workdir / filename
        model.save_system(system, path)
        system = model.load_system(path)
        report = model.validate(system)
        if not report.ok:
            raise RuntimeError(f"{filename} failed validation:\n{report}")
        return system

    @staticmethod
    def rng(seed: int, unit: int) -> np.random.Generator:
        return np.random.default_rng(np.random.SeedSequence([seed, unit]))


# ---------------------------------------------------------------------------


class FlowHardball(Workload):
    """Toroidal flow of three hard balls in the 2-torus (d=4, k=3)."""

    name = "flow-hardball"
    gates_named = ("speed_drift", "retrace", "splitting_witness")
    unit_s = 0.9
    unit_label = "flow of 200 collisions + 2 splitting checks"
    work_label = "collisions_per_s: collisions per second of operation time"
    params = builders.HardBallParams(3, 2, (1.0, 1.2, 0.9), 0.2)
    collisions = 200
    horizon = 1e4
    retraced = 3

    def setup(self):
        system, _ = builders.hard_ball_system(self.params)
        system = self._saved_and_loaded(system, "hardball-3-2.json")
        # first flow view: lattice reduction and the first image balls
        warm = tf.random_phase(system, np.random.default_rng(0))
        tf.flow(system, warm, max_collisions=20, default_horizon=self.horizon)
        return system

    def run_unit(self, system, seed, unit):
        rng = self.rng(seed, unit)
        clock = Clock()
        try:
            phase = tf.random_phase(system, rng)
            record = tf.flow(system, phase, max_collisions=self.collisions,
                             default_horizon=self.horizon)
            early = tf.detect_splitting(record.prefix(20), system)
            late = tf.detect_splitting(record, system)
        except Exception as exc:
            return [Op("flow", *clock.read(), self._failed(exc), 0)]
        times = clock.read()
        with self.pause():
            self._check(system, record, ((20, early), (None, late)))
        flagged = [k for k, v in record.flags.items() if v]
        return [Op("flow", *times, flagged[0] if flagged else None,
                   len(record.events))]

    def _check(self, system, record, witnesses):
        g = self.gates
        with g.guard("speed_drift"):
            drift = abs(float(np.linalg.norm(record.final_v)) - 1.0)
            g.check("speed_drift", drift < 1e-9, f"speed drift {drift:.3e}")
        n = min(self.retraced, len(record.events))
        if n:
            with g.guard("retrace"):
                head = record.prefix(n)
                labels, spec = tf.unfold_to_path(head, system)
                try:
                    res = paths.trace(system, labels, spec)
                    err = max(max(abs(float(res.times[j]) - ev.time),
                                  float(np.linalg.norm(res.normals[j]
                                                       - ev.normal)))
                              for j, ev in enumerate(head.events))
                    detail = f"retrace error {err:.3e} on {labels}"
                except paths.TraceError as exc:
                    err, detail = np.inf, f"retrace of {labels} failed: {exc}"
                g.check("retrace", err < 1e-9, detail)
        for n_events, witness in witnesses:
            with g.guard("splitting_witness"):
                part = record if n_events is None else record.prefix(n_events)
                labels = sorted(part.collided_labels())
                bases = {i: system.base_space(i) for i in labels}
                transitive = bool(labels) and classify.is_transitive(
                    list(bases.values()), ambient_dim=system.dim)[0]
                ok = (witness is None) == transitive
                detail = f"witness {witness!r} for collided labels {labels}"
                if ok and witness is not None:
                    try:
                        witness.check(
                            {i: bases[i] for i in witness.assignment})
                    except ValueError as exc:
                        ok, detail = False, f"witness check failed: {exc}"
                g.check("splitting_witness", ok, detail)


# ---------------------------------------------------------------------------


class LyapunovSinai(Workload):
    """Largest Lyapunov exponent of two d=2 point scatterers."""

    name = "lyapunov-sinai"
    gates_named = ("lyapunov_positive", "lyapunov_reliable",
                   "window_accounting")
    unit_s = 0.2
    unit_label = "lyapunov_max estimate over total_t=500"
    work_label = "flow_time_per_s: simulated time per second of operation time"
    total_t = 500.0

    def setup(self):
        sinai = model.CylindricBilliardSystem(
            dim=2,
            lattice=geometry.Lattice(np.eye(2)),
            cylinders=[model.CylinderSpec(
                radius=0.3, translation=np.full(2, 0.5),
                generator_coeffs=np.zeros((2, 0), np.int64))],
        )
        pair, _ = builders.hard_ball_system(
            builders.HardBallParams(2, 2, (1.0, 1.0), 0.1))
        systems = []
        for label, system in (("sinai", sinai), ("hardball-2-2", pair)):
            system = self._saved_and_loaded(system, f"{label}.json")
            tf.random_phase(system, np.random.default_rng(0))  # flow view
            systems.append((label, system))
        return systems

    def run_unit(self, systems, seed, unit):
        label, system = systems[unit % len(systems)]
        rng = self.rng(seed, unit)
        clock = Clock()
        try:
            phase = tf.random_phase(system, rng)
            res = tf.lyapunov_max(system, phase, total_t=self.total_t,
                                  renorm_dt=1.0, d0=1e-9,
                                  seed=int(rng.integers(2**31)))
        except Exception as exc:
            return [Op(label, *clock.read(), self._failed(exc), 0.0)]
        times = clock.read()
        with self.pause():
            self._check(label, system, phase, res)
        return [Op(label, *times, None, self.total_t)]

    def _check(self, label, system, phase, res):
        g = self.gates
        with g.guard("lyapunov_positive"):
            positive = res.estimate > 5 * res.stderr
            if not positive:
                # this table has infinite horizon: an orbit that spends most
                # of the window in one corridor flight rightly shows no growth
                positive = self._longest_flight(system, phase) \
                    > self.total_t / 2
                self.notes["corridor orbits exempt from lyapunov_positive"] \
                    += positive
            g.check("lyapunov_positive", positive,
                    f"{label}: estimate {res.estimate:.4g}, "
                    f"stderr {res.stderr:.3g}")
        with g.guard("lyapunov_reliable"):
            g.check("lyapunov_reliable", not res.unreliable,
                    f"{label}: {res.discarded} of {res.n_windows} windows "
                    "discarded")
        with g.guard("window_accounting"):
            g.check("window_accounting",
                    len(res.window_logs) + res.discarded == res.n_windows,
                    f"{label}: {len(res.window_logs)} kept + {res.discarded} "
                    f"discarded != {res.n_windows} windows")

    def _longest_flight(self, system, phase, step=10.0) -> float:
        """Longest free flight of the orbit within ``total_t``, followed
        collision by collision in steps of at most ``step`` so that the
        lattice-image search stays as small as the estimator's own."""
        q, v = phase.q, phase.v
        t = flight = longest = 0.0
        while t < self.total_t:
            reach = min(step, self.total_t - t)
            try:
                hit = tf.next_collision(system, tf.PhasePoint(q, v), reach)
            except tf.FlowError:
                break
            s = reach if hit is None else hit.time
            t += s
            flight += s
            longest = max(longest, flight)
            q = q + s * v
            if hit is not None:
                v = v - 2.0 * float(v @ hit.normal) * hit.normal
                flight = 0.0
        return longest


# ---------------------------------------------------------------------------


class DiagnoseHardball(Workload):
    """In-process `cylbill` CLI sessions: build, classify, delta."""

    name = "diagnose-hardball"
    gates_named = ("exit_codes", "build_output", "classify_verdicts",
                   "delta_bound", "delta_samples", "delta_full_rank")
    unit_s = 1.6
    unit_label = "CLI session of 7 commands"
    work_label = "samples_per_s: delta samples per second of delta time"
    systems = (("hb3", 3, 0.15), ("hb5", 5, 0.05))
    sigmas = ((0, 1), (0, 1, 2), (0, 1, 2, 0))
    full_rank_sigma = (0, 1, 2)
    samples = 100
    # the gate that a command's unparseable output breaches
    output_gates = {"build": "build_output", "classify": "classify_verdicts",
                    "delta": "delta_bound"}

    def __init__(self, workdir, gates):
        super().__init__(workdir, gates)
        self._exit_types: dict[tuple, str] = {}

    def setup(self):
        for labels in self.sigmas:
            paths.save_sigma(labels, self._sigma_path(labels))
        for name, n, r in self.systems:
            system, _ = builders.hard_ball_system(
                builders.HardBallParams(n, 2, (1.0,) * n, r))
            self._saved_and_loaded(system, f"{name}.json")
        return None

    def _sigma_path(self, labels):
        return self.workdir / ("sigma-" + "-".join(map(str, labels)) + ".json")

    def _session(self, seed, unit):
        """(kind, argv, context) for each command of one session."""
        out = []
        for name, n, r in self.systems:
            out.append(("build", [
                "build", "hardball", "--n", str(n), "--nu", "2",
                "--masses", ",".join(["1"] * n), "--r", str(r),
                "--out", str(self.workdir / f"{name}.json")], n))
        for name, _, _ in self.systems:
            out.append(("classify", [
                "classify", "--system", str(self.workdir / f"{name}.json")],
                name))
        seeds = np.random.SeedSequence([seed, unit]).generate_state(
            len(self.sigmas))
        for labels, s in zip(self.sigmas, seeds):
            out.append(("delta", [
                "delta", "--system", str(self.workdir / "hb3.json"),
                "--sigma", str(self._sigma_path(labels)),
                "--samples", str(self.samples), "--seed", str(int(s))],
                labels))
        return out

    def run_unit(self, _state, seed, unit):
        ops = []
        for kind, argv, context in self._session(seed, unit):
            stdout, stderr = io.StringIO(), io.StringIO()
            work = self.samples if kind == "delta" else None
            clock = Clock()
            try:
                with contextlib.redirect_stdout(stdout), \
                        contextlib.redirect_stderr(stderr):
                    code = cli.main(argv)
            except Exception as exc:
                ops.append(Op(kind, *clock.read(), self._failed(exc), work))
                continue
            times = clock.read()
            with self.pause():
                error = self._check(kind, argv, context, code,
                                    stdout.getvalue(), stderr.getvalue())
            ops.append(Op(kind, *times, error, work))
        return ops

    def _exit_type(self, kind, argv, code, stderr) -> str:
        """Exception type behind a non-zero exit.  A delta that exits 3 is
        rerun through the library to name the exception it raised; reruns
        are shared by exits with identical messages."""
        key = (kind, code, stderr)
        if key not in self._exit_types:
            found = f"exit{code}"
            if kind == "delta" and code == cli.EXIT_DEGENERACY:
                opt = dict(zip(argv[1::2], argv[2::2]))
                try:
                    paths.delta_sigma_report(
                        model.load_system(opt["--system"]),
                        paths.load_sigma(opt["--sigma"]),
                        n_samples=int(opt["--samples"]),
                        seed=int(opt["--seed"]))
                except Exception as exc:
                    found = type(exc).__name__
            self._exit_types[key] = found
        return self._exit_types[key]

    def _check(self, kind, argv, context, code, stdout, stderr):
        g = self.gates
        error = None
        with g.guard("exit_codes"):
            if code != cli.EXIT_OK:
                error = f"exit{code}"
                error = self._exit_type(kind, argv, code, stderr)
                self.failure_detail.setdefault(error, stderr.strip())
            g.check("exit_codes", code == cli.EXIT_OK or (
                code == cli.EXIT_DEGENERACY and error == "NoValidPath"),
                f"{' '.join(argv[:1])} exited {code} ({error}): "
                f"{stderr.strip()}")
        if error is not None:
            return error
        body = None
        with g.guard(self.output_gates[kind]):
            body = json.loads("".join(line for line in stdout.splitlines(True)
                                      if not line.startswith("#")))
        if body is None:
            return None
        if kind == "build":
            with g.guard("build_output"):
                n = context
                g.check("build_output",
                        body["dim"] == 2 * (n - 1)
                        and body["n_cylinders"] == n * (n - 1) // 2,
                        f"{n} balls: dim {body['dim']}, "
                        f"{body['n_cylinders']} cylinders")
        elif kind == "classify":
            with g.guard("classify_verdicts"):
                g.check("classify_verdicts",
                        body["transitive"] is True
                        and body["transverse"] is True,
                        f"{context}: transitive {body['transitive']}, "
                        f"transverse {body['transverse']}")
        else:
            with g.guard("delta_bound"):
                g.check("delta_bound", body["delta"] <= body["bound"],
                        f"{list(context)}: delta {body['delta']} > bound "
                        f"{body['bound']}")
            with g.guard("delta_samples"):
                g.check("delta_samples",
                        body["n_success"] + body["n_failed_samples"]
                        == self.samples
                        and len(body["sample_dims"]) == body["n_success"]
                        and max(body["sample_dims"]) == body["delta"],
                        f"{list(context)}: inconsistent sample counts")
            if tuple(context) == self.full_rank_sigma:
                with g.guard("delta_full_rank"):
                    g.check("delta_full_rank",
                            body["delta"] == body["full_target"],
                            f"{list(context)}: delta {body['delta']} below "
                            f"d-1 = {body['full_target']}")
        return None


WORKLOADS = {w.name: w for w in (FlowHardball, LyapunovSinai,
                                 DiagnoseHardball)}
