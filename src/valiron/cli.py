"""Batch command line: `valiron run <config>` and `valiron catalog`.

Each run executes one pipeline selected by the config's `command` key,
writes CSV data plus a plain-text summary into the output directory, and
exits 0 on success, 2 when the pipeline completed with an
outside-hypotheses warning, 1 on any error.
"""

from __future__ import annotations

import argparse
import os
import re
import sys
from dataclasses import dataclass
from typing import Optional

import numpy as np

from .config import ConfigError, ExperimentConfig, parse_config
from .dynamics import (
    Orbit,
    classify_sequence,
    compute_orbit,
    summarize_orbit,
)
from .geometry import (
    DomainError,
    LinearProjectionAtInfinity,
    SiegelAutomorphism,
    SiegelBatch,
    SiegelPoint,
)
from .limits import (
    CHECK_SWEEPS,
    SweepPlan,
    e0_families,
    e_families,
    first_coordinate_ratio_fn,
    k_families,
)
from .maps import (
    HoloMap,
    PsiChoice,
    catalog,
    conjugate_map,
    make_halfplane_affine,
    make_siegel_linear,
    make_valiron_example,
)
from .renorm import EvaluationGrid, run_valiron
from .reports import (
    format_float,
    read_points_csv,
    write_limits_csv,
    write_orbit_csv,
    write_summary,
    write_valiron_csv,
)

OUT_ENV = "VALIRON_OUT"
EXIT_OK = 0
EXIT_ERROR = 1
EXIT_WARNING = 2


class CliError(ValueError):
    pass


# -- Config value parsing ------------------------------------------------------


def _parse_complex(text: str) -> complex:
    try:
        return complex(text.strip().replace(" ", ""))
    except ValueError:
        raise CliError(f"cannot parse complex number from {text!r}") from None


def _parse_vector(text: str) -> np.ndarray:
    text = text.strip()
    if not text:
        return np.zeros(0, dtype=np.complex128)
    return np.array([_parse_complex(part) for part in text.split(",")], dtype=np.complex128)


def _parse_point(text: str) -> SiegelPoint:
    vals = _parse_vector(text)
    if vals.size == 0:
        raise CliError("a point needs at least the z coordinate")
    return SiegelPoint(complex(vals[0]), vals[1:])


def _parse_psi(text: str) -> PsiChoice:
    text = text.strip()
    if text == "cayley":
        return PsiChoice("cayley")
    if text == "oscillating":
        return PsiChoice("oscillating")
    match = re.fullmatch(r"constant\(([^)]*)\)", text)
    if match:
        return PsiChoice("constant", _parse_complex(match.group(1)))
    raise CliError(
        f"psi must be constant(<value>), cayley or oscillating, got {text!r}"
    )


def _parse_conjugate(text: str) -> SiegelAutomorphism:
    factors = []
    for item in text.split(";"):
        item = item.strip()
        if not item:
            continue
        match = re.fullmatch(r"(scale|translate)\(([^)]*)\)", item)
        if not match:
            raise CliError(
                f"conjugate items must be scale(x[,y]) or translate(a1,...), got {item!r}"
            )
        kind, args = match.group(1), match.group(2)
        if kind == "scale":
            vals = [float(v) for v in args.split(",")]
            if len(vals) == 1:
                factors.append(SiegelAutomorphism.scale(vals[0]))
            elif len(vals) == 2:
                factors.append(SiegelAutomorphism.scale(vals[0], vals[1]))
            else:
                raise CliError("scale takes one or two real arguments")
        else:
            factors.append(SiegelAutomorphism.translate(_parse_vector(args)))
    if not factors:
        raise CliError("empty conjugate chain")
    return SiegelAutomorphism.composite(factors)


def build_map(cfg: ExperimentConfig) -> HoloMap:
    if cfg.map_name == "siegel_linear":
        m = make_siegel_linear(cfg.lam, cfg.n_dim)
    elif cfg.map_name == "halfplane_affine":
        m = make_halfplane_affine(cfg.lam, cfg.b, cfg.n_dim)
    elif cfg.map_name == "valiron_example":
        m = make_valiron_example(cfg.a_mult, _parse_psi(cfg.psi))
    else:
        raise CliError(f"config selects no map (map = {cfg.map_name!r})")
    if cfg.conjugate:
        m = conjugate_map(m, _parse_conjugate(cfg.conjugate))
    return m


def build_grid(cfg: ExperimentConfig, n_dim: int) -> Optional[EvaluationGrid]:
    if cfg.grid_z is None:
        return None
    zs = _parse_vector(cfg.grid_z)
    if cfg.grid_w is None:
        ws = [np.zeros(n_dim - 1, dtype=np.complex128)]
    else:
        ws = [_parse_vector(part) for part in cfg.grid_w.split(";")]
        for w in ws:
            if w.size != n_dim - 1:
                raise CliError(
                    f"grid_w vectors must have {n_dim - 1} entries, got {w.size}"
                )
    # z-major, as the points z x w; the batch checks every row once
    z, w = np.repeat(zs, len(ws)), np.tile(np.array(ws), (zs.size, 1))
    return EvaluationGrid(SiegelBatch(z, w))


def _ladder(cfg: ExperimentConfig) -> tuple:
    return tuple(10.0 ** k for k in range(1, cfg.ladder_max + 1))


def _projection_vector(cfg: ExperimentConfig, n_dim: int) -> np.ndarray:
    if cfg.a is None:
        return np.zeros(n_dim - 1, dtype=np.complex128)
    a = _parse_vector(cfg.a)
    if a.size != n_dim - 1:
        raise CliError(f"a must have {n_dim - 1} entries for an N = {n_dim} map")
    return a


# -- Pipelines -----------------------------------------------------------------


def _describe_map(m: HoloMap) -> str:
    params = ", ".join(f"{k}={v}" for k, v in sorted(m.params.items()))
    return f"{m.name}({params})" if params else m.name


def _classification_lines(cls) -> list:
    lines = [
        f"classification.special = {str(cls.special).lower()}",
        f"classification.c_special = "
        + ("none" if cls.c_special is None else format_float(cls.c_special)),
        f"classification.restricted = {str(cls.restricted).lower()}"
        + f" (T = {format_float(cls.restricted_t)})",
        f"classification.koranyi_M = "
        + ("none" if cls.koranyi_m is None else format_float(cls.koranyi_m)),
        f"classification.a_witness = {format_float(cls.a_witness)}",
    ]
    return lines


@dataclass
class _Run:
    """What the commands of one ``run_command`` share.

    ``plan`` holds the limit sweeps of every command.  ``probe`` is the
    probe orbit of the valiron command, kept so that the orbit command
    continues it instead of stepping its first points again.
    """

    plan: SweepPlan
    probe: Optional[Orbit] = None


def _start(cfg: ExperimentConfig, m: HoloMap) -> SiegelPoint:
    return _parse_point(cfg.start) if cfg.start else SiegelPoint(1.0, np.zeros(m.dim - 1))


def _cmd_orbit(cfg, m, out_dir, run) -> tuple:
    start = _start(cfg, m)
    probe = run.probe
    # continuing the probe gives the orbit of its first row, so that row must
    # be the start bit for bit: == takes -0.0 for 0.0, which prints otherwise
    if (probe is not None
            and probe.points.z[:1].tobytes() == np.complex128(start.z).tobytes()
            and probe.points.w[0].tobytes() == start.w.tobytes()):
        start = probe
    orbit = compute_orbit(m, start, cfg.n_max)
    path = os.path.join(out_dir, "orbit.csv")
    write_orbit_csv(path, orbit)
    lines = [
        "command = orbit",
        f"map = {_describe_map(m)}",
        f"points = {len(orbit)}",
        f"cutoff = {orbit.cutoff or 'none'}",
    ]
    try:
        summary = summarize_orbit(orbit)
        lines += [
            f"lambda = {format_float(summary.multiplier.value)}"
            + f" (uncertainty {format_float(summary.multiplier.uncertainty)})",
            f"L = {format_float(summary.drift.value)}"
            + f" (uncertainty {format_float(summary.drift.uncertainty)})",
            f"q_final = {format_float(summary.q_final.real)} + {format_float(summary.q_final.imag)}i",
        ]
        lines += _classification_lines(summary.classification)
    except ValueError as exc:
        lines.append(f"estimates unavailable: {exc}")
    return EXIT_OK, lines, [path]


def _cmd_classify(cfg, m, out_dir, run) -> tuple:
    if cfg.points:
        try:
            orbit = Orbit(map=m, points=read_points_csv(cfg.points))
        except OSError as exc:
            raise CliError(f"cannot read points: {exc}") from None
        source = f"points file {cfg.points}"
    else:
        orbit = compute_orbit(m, _start(cfg, m), cfg.n_max)
        source = f"orbit of {_describe_map(m)}"
    path = os.path.join(out_dir, "orbit.csv")
    write_orbit_csv(path, orbit)
    cls = classify_sequence(orbit.points)
    lines = ["command = classify", f"source = {source}", f"points = {len(orbit)}"]
    lines += _classification_lines(cls)
    return EXIT_OK, lines, [path]


def _arg_sigma_diagnostic(result) -> list:
    """Argument of sigma along the positive real ray; informational only."""
    rays = [10.0 ** k for k in range(0, 7)]
    try:
        values = result.sigma_at(SiegelBatch(rays, np.zeros((len(rays), result.base.dim - 1))))
    except (DomainError, ArithmeticError) as exc:
        return [f"arg sigma unavailable: {exc}"]
    lines = ["arg sigma along the real ray (diagnostic, no pass/fail contract):"]
    for r, v in zip(rays, values):
        lines.append(f"  r = {r:g}: arg sigma = {format_float(np.angle(v))}")
    return lines


def _cmd_valiron(cfg, m, out_dir, run) -> tuple:
    grid = build_grid(cfg, m.dim)
    result = run_valiron(m, grid=grid, tol=cfg.tol, n_max=cfg.n_max)
    run.probe = result.base_orbit
    path = os.path.join(out_dir, "valiron.csv")
    write_valiron_csv(path, result.grid.points, result.sigma, result.schroder_residuals)
    lines = [
        "command = valiron",
        f"map = {_describe_map(m)}",
        f"lambda = {format_float(result.multiplier)}"
        + f" (uncertainty {format_float(result.multiplier_uncertainty)})",
        f"L = {format_float(result.drift)}"
        + f" (uncertainty {format_float(result.drift_uncertainty)})",
        f"n_stop = {result.n_stop}",
        f"converged = {str(result.converged).lower()}",
        f"max_schroder_residual = {format_float(np.max(result.schroder_residuals))}",
        f"normalization = {format_float(result.normalization.real)}"
        + f" + {format_float(result.normalization.imag)}i",
    ]
    lines += _classification_lines(result.classification)
    lines.append(f"outside_hypotheses = {str(result.outside_hypotheses).lower()}")
    for w in result.warnings:
        lines.append(f"warning: {w}")
    lines += _arg_sigma_diagnostic(result)
    code = EXIT_WARNING if result.outside_hypotheses else EXIT_OK
    return code, lines, [path]


def _verdict_line(label: str, verdict) -> str:
    if verdict.status == "limit-exists":
        return (
            f"{label}: limit-exists value = {format_float(verdict.value.real)}"
            + f" + {format_float(verdict.value.imag)}i"
            + f" (spread {format_float(verdict.spread)})"
        )
    if verdict.status == "no-limit":
        sep = verdict.witness[4]
        return f"{label}: no-limit (witness separation {format_float(sep)})"
    return f"{label}: inconclusive (spread {format_float(verdict.spread)})"


def _cmd_limits(cfg, m, out_dir, run) -> tuple:
    h = first_coordinate_ratio_fn(m)
    ladder = _ladder(cfg)
    plan = run.plan
    vk, ve, v0 = (
        plan.verdict(h, plan.sweep(families(m.dim, ladder), extra), cfg.limit_tol)
        for families, extra in _SWEEPS["limits"]
    )
    path = os.path.join(out_dir, "limits.csv")
    write_limits_csv(path, vk.traces + ve.traces + v0.traces)
    lines = [
        "command = limits",
        f"map = {_describe_map(m)}",
        "h = first image coordinate over z",
        _verdict_line("K-limit", vk),
        _verdict_line("E-limit", ve),
        _verdict_line("E0-limit", v0),
    ]
    return EXIT_OK, lines, [path]


def _cmd_jwc(cfg, m, out_dir, run) -> tuple:
    a = _projection_vector(cfg, m.dim)
    rho = LinearProjectionAtInfinity(a)
    ladder = _ladder(cfg)
    report = run.plan.jwc_check(m, rho, tol=cfg.limit_tol, ladder=ladder)
    li = run.plan.left_inverse_ratio_check(m, rho, tol=cfg.limit_tol, ladder=ladder)

    path = os.path.join(out_dir, "jwc.csv")
    write_limits_csv(path, [
        (f"{tag}:{label}", si, values)
        for tag, verdict in (("part1", report.part1), ("part2", report.part2))
        for label, si, values in verdict.traces
    ])

    lines = [
        "command = jwc",
        f"map = {_describe_map(m)}",
        f"a = {cfg.a or 'zero vector'}",
        _verdict_line("part1 (left-inverse ratio, E0)", report.part1),
        _verdict_line("part2 (off-geodesic gap, E0)", report.part2),
        f"jwc_passed = {str(report.passed).lower()}"
        + f" (multiplier {format_float(report.multiplier)})",
        f"left_inverse_ratio_check = {li.status}",
    ]
    if li.ratio_verdict is not None:
        lines.append(_verdict_line("  ratio (E)", li.ratio_verdict))
    if li.derivative_verdict is not None:
        lines.append(_verdict_line("  w-growth (E)", li.derivative_verdict))
    return EXIT_OK, lines, [path]


_COMMANDS = {
    "orbit": _cmd_orbit,
    "classify": _cmd_classify,
    "valiron": _cmd_valiron,
    "limits": _cmd_limits,
    "jwc": _cmd_jwc,
}
_REPORT_ALL = ("valiron", "limits", "jwc", "orbit")
# the limit sweeps each command reads: (families of (N, ladder), drawn sequences per family)
_SWEEPS = {
    "limits": ((k_families, 2), (e_families, 1), (e0_families, 1)),
    "jwc": CHECK_SWEEPS,
}


def run_command(
    cfg: ExperimentConfig,
    out_dir: Optional[str] = None,
    seed: Optional[int] = None,
    verbose: bool = False,
) -> int:
    """Execute the configured pipeline; returns the process exit code."""
    out_dir = out_dir or cfg.out or os.environ.get(OUT_ENV) or "."
    os.makedirs(out_dir, exist_ok=True)
    seed = cfg.seed if seed is None else seed

    m = build_map(cfg) if cfg.map_name else None
    names = _REPORT_ALL if cfg.command == "report-all" else (cfg.command,)
    # one plan for the limit sweeps of every command: each family is generated,
    # and the map evaluated on it, once, when the first verdict is asked for
    run = _Run(SweepPlan(seed))
    ladder = _ladder(cfg)
    for name in names:
        for families, extra in _SWEEPS.get(name, ()):
            run.plan.sweep(families(m.dim, ladder), extra)
    code = EXIT_OK
    lines: list = []
    paths: list = []
    for name in names:
        sub_code, sub_lines, sub_paths = _COMMANDS[name](cfg, m, out_dir, run)
        code = max(code, sub_code)
        if lines:
            lines.append("")
        lines += sub_lines
        paths += sub_paths

    summary_path = os.path.join(out_dir, "summary.txt")
    write_summary(summary_path, lines)
    paths.append(summary_path)
    for p in paths:
        print(f"wrote {p}")
    if verbose:
        for line in lines:
            print(line)
    if code == EXIT_WARNING:
        print("completed with warnings (outside hypotheses)", file=sys.stderr)
    return code


def _cmd_catalog() -> int:
    for name, m in sorted(catalog().items()):
        print(
            f"{name}: domain={m.domain} N={m.dim} "
            f"multiplier={m.multiplier:g}"
        )
    return EXIT_OK


def main(argv: Optional[list] = None) -> int:
    parser = argparse.ArgumentParser(
        prog="valiron",
        description="Renormalization, invariant geometry and boundary limits "
        "for hyperbolic self-maps of the Siegel domain.",
    )
    sub = parser.add_subparsers(dest="subcommand", required=True)
    run_p = sub.add_parser("run", help="execute an experiment config file")
    run_p.add_argument("config", help="path to a key = value config file")
    run_p.add_argument("--out", help=f"output directory (default: config, then ${OUT_ENV})")
    run_p.add_argument("--seed", type=int, help="override the config seed")
    run_p.add_argument("--verbose", action="store_true", help="echo the summary to stdout")
    sub.add_parser("catalog", help="list built-in maps")

    args = parser.parse_args(argv)
    if args.subcommand == "catalog":
        return _cmd_catalog()

    try:
        with open(args.config, encoding="utf-8") as handle:
            text = handle.read()
    except OSError as exc:
        print(f"error: cannot read config: {exc}", file=sys.stderr)
        return EXIT_ERROR
    try:
        cfg = parse_config(text)
        return run_command(cfg, out_dir=args.out, seed=args.seed, verbose=args.verbose)
    except (ConfigError, CliError, DomainError, ValueError, ArithmeticError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_ERROR
    except OSError as exc:
        print(f"error: cannot write output: {exc}", file=sys.stderr)
        return EXIT_ERROR


if __name__ == "__main__":
    sys.exit(main())
