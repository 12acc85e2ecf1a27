"""The three benchmark workloads: inputs, one op, and the check of its output.

Every input is drawn in ``setup`` from ``numpy.random.default_rng(seed)``;
valiron receives only these generated inputs.  Each op does the same amount
of work, so the median op sits inside one cost cluster.

* ``renorm_grid``: one ``run_valiron`` on a fresh 100-point grid, then
  ``sigma_at`` on 8 off-grid probes.  Exercises geometry, maps, renorm.
* ``classify_sweep``: 16 draws of one sequence of each of the four
  approach kinds, generated and classified.  Exercises limits, dynamics,
  geometry.
* ``report_all``: one in-process ``valiron run`` over four report-all
  configs.  The only workload through config, cli and reports.

A check returns ``(ok, message, work)``; ``work`` is the op's point-steps
(see bench/README.md).  Checks recompute expected values with plain numpy
and never call valiron, so traced runs count only the op's own calls.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import math
import os
import shutil

import numpy as np

GRID_POINTS = 100
PROBES = 8
SIGMA_TOL = 1e-6
AFFINE = (1.2, 1.0)  # lambda, b of the renorm_grid map on H^2
AMBIGUITY_BAND = 1e-9
REPORT_FILES = frozenset({"valiron.csv", "limits.csv", "jwc.csv", "orbit.csv", "summary.txt"})


class Workload:
    name = ""
    # ops per traced pass; a traced run repeats the same ops, so per-op counts repeat
    trace_ops = 1
    # the map the benchmark built, if any; traced passes swap in a wrapped copy
    map = None

    def __init__(self, valiron, seed: int, work_dir: str):
        self.v = valiron
        self.work_dir = work_dir
        self.digest = hashlib.sha256()
        self.setup(np.random.default_rng(seed))

    def _record(self, *arrays) -> None:
        for arr in arrays:
            self.digest.update(np.ascontiguousarray(arr).tobytes())

    def setup(self, rng) -> None:
        raise NotImplementedError

    def op(self, i: int):
        raise NotImplementedError

    def check(self, i: int, out) -> tuple:
        raise NotImplementedError


def _siegel_samples(rng, n: int):
    """n points of H^2 at height between 0.5 and 4."""
    r = rng.uniform(0.0, 0.7, n)
    theta = rng.uniform(0.0, 2.0 * math.pi, n)
    w = r * np.exp(1j * theta)
    z = np.abs(w) ** 2 + rng.uniform(0.5, 4.0, n) + 1j * rng.uniform(-2.0, 2.0, n)
    return z, w


class RenormGrid(Workload):
    """run_valiron(halfplane_affine(1.2, 1, 2), grid, tol=1e-8) plus sigma_at probes."""

    name = "renorm_grid"
    trace_ops = 2
    pool = 64  # inputs are drawn for this many ops, then reused in order

    def setup(self, rng) -> None:
        geometry, maps, renorm = self.v.geometry, self.v.maps, self.v.renorm
        lam, b = AFFINE
        self.map = maps.make_halfplane_affine(lam, b, 2)
        self.drift = b / (lam - 1.0)
        self.inputs = []
        for _ in range(self.pool):
            gz, gw = _siegel_samples(rng, GRID_POINTS)
            pz, pw = _siegel_samples(rng, PROBES)
            self._record(gz, gw, pz, pw)
            grid = renorm.EvaluationGrid(
                [geometry.SiegelPoint(z, [w]) for z, w in zip(gz, gw)])
            probes = [geometry.SiegelPoint(z, [w]) for z, w in zip(pz, pw)]
            self.inputs.append((grid, probes, gz, pz))

    def op(self, i: int):
        grid, probes, _, _ = self.inputs[i % len(self.inputs)]
        result = self.v.renorm.run_valiron(self.map, grid, tol=1e-8)
        return result, result.sigma_at(probes)

    def check(self, i: int, out) -> tuple:
        result, probe_sigma = out
        _, _, gz, pz = self.inputs[i % len(self.inputs)]
        if not result.converged:
            return False, f"op {i}: not converged after {result.n_stop} steps", 0
        # closed-form intertwiner of the affine map: sigma = z + i b / (lam - 1)
        for label, got, z in (("grid", result.sigma, gz), ("probe", probe_sigma, pz)):
            expect = z + 1j * self.drift
            err = float(np.max(np.abs(got - expect) / (1.0 + np.abs(expect))))
            if not err <= SIGMA_TOL:
                return False, f"op {i}: {label} sigma off the intertwiner by {err:.3g}", 0
        return True, "", GRID_POINTS * result.n_stop


class ClassifySweep(Workload):
    """Sequences of the four kinds of criterion 4, generated and classified.

    One draw is one Koranyi, one C-special, one zero-special and one radial
    sequence.  An op is DRAWS_PER_OP draws, so that the cost of single
    inputs, which varies threefold, averages out and every op costs about
    the same.
    """

    name = "classify_sweep"
    DRAWS_PER_OP = 16
    trace_ops = 13
    pool = 16384  # draws
    N_DIM = 2
    KINDS = ("koranyi", "c-special", "zero-special", "radial")

    def setup(self, rng) -> None:
        n = self.pool
        self.m_amp = np.exp(rng.uniform(math.log(1.2), math.log(64.0), n))
        self.c_param = rng.uniform(0.05, 1.5, n)
        self.c_t = rng.uniform(0.0, 2.0, n)
        self.s_param = rng.uniform(1e-5, 8e-4, n)
        self.s_t = rng.uniform(0.0, 2.0, n)
        self.scale = rng.uniform(0.5, 50.0, n)
        self.gen_seed = rng.integers(0, 2**31, size=(n, 3))
        self.pick = rng.integers(0, 1 << 30, size=(n, 3))
        self._record(self.m_amp, self.c_param, self.c_t, self.s_param, self.s_t,
                     self.scale, self.gen_seed, self.pick)

    def _draws(self, i: int) -> range:
        return range(i * self.DRAWS_PER_OP, (i + 1) * self.DRAWS_PER_OP)

    def op(self, i: int):
        return [self._draw(j % self.pool) for j in self._draws(i)]

    def _draw(self, j: int) -> list:
        limits, classify = self.v.limits, self.v.dynamics.classify_sequence
        d = self.N_DIM
        families = (
            limits.koranyi_family(float(self.m_amp[j]), d),
            limits.c_special_family(float(self.c_param[j]), float(self.c_t[j]), d),
            limits.zero_special_family(float(self.s_param[j]), float(self.s_t[j]), d),
        )
        out = []
        for k, fam in enumerate(families):
            seqs = limits.generate_sequences(
                fam, count=len(fam.seeds) + 1, seed=int(self.gen_seed[j, k]))
            seq = seqs[int(self.pick[j, k]) % len(seqs)]
            out.append((seq, classify(seq)))
        ladder = tuple(float(self.scale[j]) * 10.0 ** k for k in range(1, 8))
        seq = limits.generate_sequences(limits.radial_family(d, ladder))[0]
        out.append((seq, classify(seq)))
        return out

    def check(self, i: int, out) -> tuple:
        points = 0
        for j, draw in zip(self._draws(i), out):
            ok, msg = self._check_draw(j % self.pool, draw)
            if not ok:
                return False, f"op {i}, draw {j}: {msg}", 0
            points += sum(len(seq) for seq, _ in draw)
        return True, "", points

    def _check_draw(self, j: int, draw) -> tuple:
        (_, kor), (_, csp), (_, zsp), (_, rad) = draw
        c, ct, st = self.c_param[j], self.c_t[j], self.s_t[j]
        verdicts = (
            kor.koranyi_m is not None,
            csp.c_special is not None and csp.c_special <= c + 1e-9
            and csp.restricted and csp.restricted_t <= ct + 1e-9
            and csp.a_witness <= math.tanh(c) ** 2 + 1e-9,
            zsp.special and zsp.restricted_t <= st + 1e-9,
            rad.special and rad.a_witness == 0.0 and rad.restricted
            and rad.restricted_t == 0.0 and rad.koranyi_m is not None,
        )
        for kind, ok, (seq, cls) in zip(self.KINDS, verdicts, draw):
            if not ok:
                return False, f"{kind} sequence got the wrong verdict"
            if not _conversion_holds(cls, seq):
                return False, f"witness conversion fails on the {kind} sequence"
        return True, ""


def _conversion_holds(cls, seq) -> bool:
    """Amplitudes above sqrt(1 + T^2)/(1 - a), widened by (1 + 1/x_min), contain the tail."""
    tail = seq[cls.tail_start:]
    z = np.array([q.z for q in tail])
    wsq = np.array([float(np.vdot(q.w, q.w).real) for q in tail])
    amp = cls.m_predicted * (1.0 + 1.0 / float(np.min(z.real))) * 1.00001
    margin = z.real - np.abs(z + 1.0) / amp - wsq
    return bool(np.all(margin > AMBIGUITY_BAND * np.maximum(1.0, np.abs(z))))


class ReportAll(Workload):
    """In-process `valiron run` over four report-all configs; exits 0, 0, 0, 2."""

    name = "report_all"
    trace_ops = 1

    def setup(self, rng) -> None:
        # narrow ranges keep the step counts, and so the work per op, the same across seeds
        a_osc, a_cay, lam = (float(x) for x in rng.uniform(1.99, 2.01, 3))
        b = float(rng.uniform(0.9, 1.1))
        cfg_seed = int(rng.integers(0, 2**31))
        self._record(np.array([a_osc, a_cay, lam, b, cfg_seed]))
        affine = f"map = halfplane_affine\nlambda = {lam!r}\nb = {b!r}\nN = 2\n"
        configs = (
            ("oscillating", f"map = valiron_example\nA = {a_osc!r}\npsi = oscillating\n", a_osc, 0),
            ("cayley", f"map = valiron_example\nA = {a_cay!r}\npsi = cayley\n", a_cay, 0),
            ("affine", affine, lam, 0),
            # conjugation makes the base orbit only C-special: outside hypotheses
            ("conjugated", affine + "conjugate = scale(4); translate(1)\n", lam, 2),
        )
        os.makedirs(self.work_dir, exist_ok=True)
        self.configs = []
        for label, body, multiplier, code in configs:
            path = os.path.join(self.work_dir, f"{label}.cfg")
            text = f"command = report-all\n{body}seed = {cfg_seed}\n"
            self.v.config.parse_config(text)
            with open(path, "w", encoding="utf-8") as handle:
                handle.write(text)
            self.configs.append((label, path, float(multiplier), code))
        self.reference: dict = {}

    def _out_dir(self, i: int, label: str) -> str:
        return os.path.join(self.work_dir, f"op{i}", label)

    def op(self, i: int):
        main = self.v.cli.main
        codes = []
        sink = io.StringIO()
        with contextlib.redirect_stdout(sink), contextlib.redirect_stderr(sink):
            for label, path, _, _ in self.configs:
                codes.append(main(["run", path, "--out", self._out_dir(i, label)]))
        return codes

    def check(self, i: int, codes) -> tuple:
        try:
            return self._check(i, codes)
        finally:
            shutil.rmtree(os.path.join(self.work_dir, f"op{i}"), ignore_errors=True)

    def _check(self, i: int, codes) -> tuple:
        work = 0
        for (label, _, multiplier, expect_code), code in zip(self.configs, codes):
            if code != expect_code:
                return False, f"op {i}: {label} exited {code}, expected {expect_code}", 0
            out_dir = self._out_dir(i, label)
            names = set(os.listdir(out_dir)) if os.path.isdir(out_dir) else set()
            if names != REPORT_FILES:
                return False, f"op {i}: {label} wrote {sorted(names)}", 0
            files = {}
            for name in names:
                with open(os.path.join(out_dir, name), "rb") as handle:
                    files[name] = handle.read()
            ref = self.reference.setdefault(label, files)
            for name in sorted(names):
                if files[name] != ref[name]:
                    return False, f"op {i}: {label}/{name} differs from the first pass", 0
            ok, msg, steps = _summary_facts(files["summary.txt"].decode(), multiplier)
            if not ok:
                return False, f"op {i}: {label}: {msg}", 0
            rows = files["valiron.csv"].count(b"\n") - 1
            work += rows * steps
        return True, "", work


def _summary_facts(text: str, multiplier: float) -> tuple:
    """The valiron section converged near the configured multiplier; returns its n_stop."""
    fields = {}
    for line in text.splitlines():
        key, sep, value = line.partition(" = ")
        if sep and key not in fields:
            fields[key] = value
    if fields.get("converged") != "true":
        return False, "valiron stage did not converge", 0
    lam = float(fields["lambda"].split()[0])
    if not abs(lam - multiplier) <= 1e-2 * multiplier:
        return False, f"lambda estimate {lam!r} far from {multiplier!r}", 0
    return True, "", int(fields["n_stop"])


WORKLOADS = {w.name: w for w in (RenormGrid, ClassifySweep, ReportAll)}
