"""Flat key=value experiment configuration.

Format: one `key = value` per line, `#` starts a comment, blank lines
ignored.  Unknown keys and duplicate keys are hard parse errors carrying
line numbers.  emit_config(parse_config(text)) is the canonical form of
text (defaults made explicit, keys in fixed order, floats in shortest
round-trip notation).
"""

from __future__ import annotations

from dataclasses import dataclass, fields
from typing import Optional

COMMANDS = ("orbit", "classify", "valiron", "limits", "jwc", "report-all")
MAP_NAMES = ("siegel_linear", "halfplane_affine", "valiron_example")


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
    psi: Optional[str] = None
    conjugate: Optional[str] = None
    start: Optional[str] = None
    points: Optional[str] = None
    grid_z: Optional[str] = None
    grid_w: Optional[str] = None
    a: Optional[str] = None
    n_max: int = 200
    tol: float = 1e-8
    seed: int = 0
    ladder_max: int = 7
    limit_tol: float = 1e-3
    out: Optional[str] = None


# config key -> (field name, type tag), in the canonical emission order
_KEYS = {
    "command": ("command", "command"),
    "map": ("map_name", "map"),
    "lambda": ("lam", "float"),
    "b": ("b", "float"),
    "A": ("a_mult", "float"),
    "N": ("n_dim", "int"),
    "psi": ("psi", "str"),
    "conjugate": ("conjugate", "str"),
    "start": ("start", "str"),
    "points": ("points", "str"),
    "grid_z": ("grid_z", "str"),
    "grid_w": ("grid_w", "str"),
    "a": ("a", "str"),
    "n_max": ("n_max", "int"),
    "tol": ("tol", "float"),
    "seed": ("seed", "int"),
    "ladder_max": ("ladder_max", "int"),
    "limit_tol": ("limit_tol", "float"),
    "out": ("out", "str"),
}


def _convert(key: str, raw: str, lineno: int):
    _, tag = _KEYS[key]
    if tag == "command":
        if raw not in COMMANDS:
            raise ConfigError(
                f"line {lineno}: command must be one of {', '.join(COMMANDS)}, got {raw!r}"
            )
        return raw
    if tag == "map":
        if raw not in MAP_NAMES:
            raise ConfigError(
                f"line {lineno}: map must be one of {', '.join(MAP_NAMES)}, got {raw!r}"
            )
        return raw
    if tag == "int":
        try:
            return int(raw)
        except ValueError:
            raise ConfigError(f"line {lineno}: key {key!r} needs an integer, got {raw!r}") from None
    if tag == "float":
        try:
            return float(raw)
        except ValueError:
            raise ConfigError(f"line {lineno}: key {key!r} needs a number, got {raw!r}") from None
    return raw


def _validate(cfg: ExperimentConfig, lines: dict) -> None:
    def where(key: str) -> str:
        return f"line {lines[key]}: " if key in lines else ""

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
    if not cfg.tol > 0.0:
        raise ConfigError(f"{where('tol')}tol must be > 0")
    if not cfg.limit_tol > 0.0:
        raise ConfigError(f"{where('limit_tol')}limit_tol must be > 0")
    if cfg.seed < 0:
        raise ConfigError(f"{where('seed')}seed must be >= 0")
    if not 1 <= cfg.ladder_max <= 12:
        raise ConfigError(f"{where('ladder_max')}ladder_max must lie in [1, 12]")
    if cfg.command != "classify" and cfg.map_name is None:
        raise ConfigError(f"command {cfg.command!r} needs a map")
    if cfg.command == "classify" and cfg.map_name is None and cfg.points is None:
        raise ConfigError("classify needs either a map + start or a points file")
    if cfg.map_name == "siegel_linear" and (cfg.lam is None or cfg.n_dim is None):
        raise ConfigError("siegel_linear needs keys lambda and N")
    if cfg.map_name == "halfplane_affine" and (
        cfg.lam is None or cfg.b is None or cfg.n_dim is None
    ):
        raise ConfigError("halfplane_affine needs keys lambda, b and N")
    if cfg.map_name == "valiron_example" and (cfg.a_mult is None or cfg.psi is None):
        raise ConfigError("valiron_example needs keys A and psi")


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
        values[_KEYS[key][0]] = _convert(key, raw, lineno)
    if "command" not in values:
        raise ConfigError("missing required key 'command'")
    cfg = ExperimentConfig(**values)
    _validate(cfg, lines_seen)
    return cfg


def _render(value) -> str:
    if isinstance(value, float):
        return repr(value)
    return str(value)


def emit_config(cfg: ExperimentConfig) -> str:
    """Canonical text form; parse_config(emit_config(c)) == c."""
    by_field = {f.name: getattr(cfg, f.name) for f in fields(cfg)}
    out = []
    for key in _KEYS:
        value = by_field[_KEYS[key][0]]
        if value is None:
            continue
        out.append(f"{key} = {_render(value)}")
    return "\n".join(out) + "\n"
