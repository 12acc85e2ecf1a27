"""Flat key=value experiment configuration, parsed and checked before any command runs.

Format: one `key = value` per line, `#` starts a comment, blank lines
ignored.  ``parse_config`` reads every value once into its typed form:
`psi` a ``PsiChoice``, `conjugate` one composite ``SiegelAutomorphism``,
`start` a ``SiegelPoint``, `grid_z` and `a` tuples of complex, `grid_w` a
tuple of them (the README gives the grammar).  The map's dimension is `N`,
or 2 for `valiron_example`; `start` has N entries, and each `grid_w`
vector, `a` and a `conjugate` translation N - 1.  Every error, of a key or
of a value's text, range or dimension, is a ``ConfigError`` naming the
line of its key.
"""

from __future__ import annotations

import cmath
import math
import re
from dataclasses import dataclass
from typing import Optional

from .geometry import DomainError, SiegelAutomorphism, SiegelPoint
from .maps import PsiChoice

COMMANDS = ("orbit", "classify", "valiron", "limits", "jwc", "report-all")
# each map and the keys it needs
_NEEDS = {"siegel_linear": ("lambda", "N"), "halfplane_affine": ("lambda", "b", "N"),
          "valiron_example": ("A", "psi")}
MAP_NAMES = tuple(_NEEDS)


class ConfigError(ValueError):
    """Parse or validation failure; message carries line numbers."""


@dataclass(frozen=True)
class ExperimentConfig:
    command: str
    map_name: Optional[str] = None
    lam: Optional[float] = None
    b: Optional[float] = None
    a_mult: Optional[float] = None
    n_dim: Optional[int] = None
    psi: Optional[PsiChoice] = None
    conjugate: Optional[SiegelAutomorphism] = None
    start: Optional[SiegelPoint] = None
    points: Optional[str] = None
    grid_z: Optional[tuple] = None
    grid_w: Optional[tuple] = None
    a: Optional[tuple] = None
    n_max: int = 200
    tol: float = 1e-8
    seed: int = 0
    ladder_max: int = 7
    limit_tol: float = 1e-3
    out: Optional[str] = None


# config key -> (field name, type tag)
_KEYS = {
    "command": ("command", "command"),
    "map": ("map_name", "map"),
    "lambda": ("lam", "float"),
    "b": ("b", "float"),
    "A": ("a_mult", "float"),
    "N": ("n_dim", "int"),
    "psi": ("psi", "psi"),
    "conjugate": ("conjugate", "conjugate"),
    "start": ("start", "point"),
    "points": ("points", "str"),
    "grid_z": ("grid_z", "vector"),
    "grid_w": ("grid_w", "vectors"),
    "a": ("a", "vector"),
    "n_max": ("n_max", "int"),
    "tol": ("tol", "float"),
    "seed": ("seed", "int"),
    "ladder_max": ("ladder_max", "int"),
    "limit_tol": ("limit_tol", "float"),
    "out": ("out", "str"),
}


# -- Value grammar -------------------------------------------------------------


def _parse_complex(text: str) -> complex:
    try:
        return complex(text.strip().replace(" ", ""))
    except ValueError:
        raise ConfigError(f"cannot parse complex number from {text!r}") from None


def _parse_vector(text: str) -> tuple:
    text = text.strip()
    return tuple(_parse_complex(part) for part in text.split(",")) if text else ()


def _parse_vectors(text: str) -> tuple:
    return tuple(_parse_vector(part) for part in text.split(";"))


def _parse_point(text: str) -> SiegelPoint:
    vals = _parse_vector(text)
    if not vals:
        raise ConfigError("a point needs at least the z coordinate")
    return SiegelPoint(vals[0], vals[1:])


def _parse_psi(text: str) -> PsiChoice:
    text = text.strip()
    if text == "cayley":
        return PsiChoice("cayley")
    if text == "oscillating":
        return PsiChoice("oscillating")
    match = re.fullmatch(r"constant\(([^)]*)\)", text)
    if match:
        return PsiChoice("constant", _parse_complex(match.group(1)))
    raise ConfigError(f"psi must be constant(<value>), cayley or oscillating, got {text!r}")


def _parse_conjugate(text: str) -> SiegelAutomorphism:
    factors = []
    for item in text.split(";"):
        item = item.strip()
        if not item:
            continue
        match = re.fullmatch(r"(scale|translate)\(([^)]*)\)", item)
        if not match:
            raise ConfigError(
                f"conjugate items must be scale(x[,y]) or translate(a1,...), got {item!r}"
            )
        kind, args = match.group(1), match.group(2)
        if kind == "scale":
            try:
                vals = [float(v) for v in args.split(",")]
            except ValueError:
                vals = []
            if len(vals) not in (1, 2):
                raise ConfigError("scale takes one or two real arguments")
            factors.append(SiegelAutomorphism.scale(*vals))
        else:
            factors.append(SiegelAutomorphism.translate(_parse_vector(args)))
    if not factors:
        raise ConfigError("empty conjugate chain")
    return SiegelAutomorphism.composite(factors)


_PARSERS = {
    "psi": _parse_psi,
    "conjugate": _parse_conjugate,
    "point": _parse_point,
    "vector": _parse_vector,
    "vectors": _parse_vectors,
}
_CHOICES = {"command": COMMANDS, "map": MAP_NAMES}
_NUMBERS = {"int": (int, "an integer"), "float": (float, "a number")}


def _value(key: str, raw: str):
    """The typed value of ``key``; its errors do not name the line yet."""
    tag = _KEYS[key][1]
    if tag in _CHOICES:
        if raw not in _CHOICES[tag]:
            raise ConfigError(f"{key} must be one of {', '.join(_CHOICES[tag])}, got {raw!r}")
        return raw
    if tag in _NUMBERS:
        cast, need = _NUMBERS[tag]
        try:
            return cast(raw)
        except ValueError:
            raise ConfigError(f"key {key!r} needs {need}, got {raw!r}") from None
    if tag in ("point", "conjugate", "str") and not raw:
        return None  # an empty start, chain, points or out leaves the key unset
    return _PARSERS[tag](raw) if tag in _PARSERS else raw


def _validate(cfg: ExperimentConfig, lines: dict) -> None:
    def where(key: str) -> str:
        return f"line {lines[key]}: " if key in lines else ""

    for key, field_name in (("lambda", "lam"), ("b", "b"), ("A", "a_mult")):
        val = getattr(cfg, field_name)
        if val is not None and not math.isfinite(val):
            raise ConfigError(f"{where(key)}{key} = {val!r} is not finite")
    for key, field_name in (("lambda", "lam"), ("A", "a_mult")):
        val = getattr(cfg, field_name)
        if val is not None and not val > 1.0:
            raise ConfigError(
                f"{where(key)}{key} = {val!r} out of range: hyperbolicity requires "
                f"a multiplier > 1"
            )
    if cfg.n_dim is not None and cfg.n_dim < 1:
        raise ConfigError(f"{where('N')}N must be a positive dimension")
    if cfg.n_max < 1:
        raise ConfigError(f"{where('n_max')}n_max must be >= 1")
    for key in ("tol", "limit_tol"):  # an infinite tolerance would pass every test
        val = getattr(cfg, key)
        if not math.isfinite(val):
            raise ConfigError(f"{where(key)}{key} = {val!r} is not finite")
        if not val > 0.0:
            raise ConfigError(f"{where(key)}{key} must be > 0")
    if cfg.seed < 0:
        raise ConfigError(f"{where('seed')}seed must be >= 0")
    if not 1 <= cfg.ladder_max <= 12:
        raise ConfigError(f"{where('ladder_max')}ladder_max must lie in [1, 12]")
    if cfg.command != "classify" and cfg.map_name is None:
        raise ConfigError(f"command {cfg.command!r} needs a map")
    if cfg.command == "classify" and cfg.map_name is None and cfg.points is None:
        raise ConfigError("classify needs either a map + start or a points file")
    if cfg.map_name is None:
        return
    needs = _NEEDS[cfg.map_name]
    if any(key not in lines for key in needs):
        raise ConfigError(f"{cfg.map_name} needs keys {', '.join(needs[:-1])} and {needs[-1]}")
    n = 2 if cfg.map_name == "valiron_example" else cfg.n_dim
    if cfg.n_dim not in (None, n):
        raise ConfigError(f"{where('N')}valiron_example has dimension 2, got N = {cfg.n_dim}")

    def check(key: str, label: str, want: int, got: int) -> None:
        if got != want:
            raise ConfigError(f"{where(key)}{label} must have {want} entries for an N = {n} map, "
                              f"got {got}")

    if cfg.start is not None:
        check("start", "start", n, cfg.start.dim)
    for w in cfg.grid_w or ():
        check("grid_w", "grid_w vectors", n - 1, len(w))
    if cfg.a is not None:
        check("a", "a", n - 1, len(cfg.a))
        if not all(map(cmath.isfinite, cfg.a)):
            raise ConfigError(f"{where('a')}non-finite projection direction a")
    if cfg.conjugate is not None and cfg.conjugate.a.size:  # no translation fits every N
        check("conjugate", "conjugate translations", n - 1, cfg.conjugate.a.size)


def parse_config(text: str) -> ExperimentConfig:
    values: dict = {}
    lines_seen: dict = {}
    for lineno, raw_line in enumerate(text.splitlines(), start=1):
        line = raw_line.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise ConfigError(f"line {lineno}: expected 'key = value', got {raw_line!r}")
        key, _, raw = line.partition("=")
        key = key.strip()
        raw = raw.strip()
        if key not in _KEYS:
            raise ConfigError(f"line {lineno}: unknown key {key!r}")
        if key in lines_seen:
            raise ConfigError(
                f"line {lineno}: duplicate key {key!r} (first set on line {lines_seen[key]})"
            )
        lines_seen[key] = lineno
        try:
            values[_KEYS[key][0]] = _value(key, raw)
        except (ConfigError, DomainError) as exc:
            raise ConfigError(f"line {lineno}: {exc}") from None
    if "command" not in values:
        raise ConfigError("missing required key 'command'")
    cfg = ExperimentConfig(**values)
    _validate(cfg, lines_seen)
    return cfg
