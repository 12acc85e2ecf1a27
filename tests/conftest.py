"""Shared fixtures: deterministic sampling helpers and the acceptance recorder."""

from contextlib import contextmanager

import numpy as np
import pytest

from valiron.geometry import SiegelAutomorphism
from valiron.limits import _rng_for

# the automorphism chains that CI conjugates its report-all map by
CHAIN_FACTORS = {
    "scale(4); translate(1)": (SiegelAutomorphism.scale(4.0), SiegelAutomorphism.translate([1.0])),
    "scale(3, 1); translate(0.5-0.25j)": (SiegelAutomorphism.scale(3.0, 1.0),
                                          SiegelAutomorphism.translate([0.5 - 0.25j])),
}
CHAINS = {name: SiegelAutomorphism.composite(f) for name, f in CHAIN_FACTORS.items()}

# (index, label, passed, detail), filled by tests/test_acceptance.py
_ACCEPTANCE_RESULTS = []


@pytest.fixture
def acceptance():
    """Context manager recording one acceptance criterion's pass/fail line."""

    @contextmanager
    def record(index: int, label: str):
        try:
            yield
        except BaseException as exc:
            _ACCEPTANCE_RESULTS.append((index, label, False, f"{type(exc).__name__}: {exc}"))
            raise
        else:
            _ACCEPTANCE_RESULTS.append((index, label, True, ""))

    return record


def pytest_terminal_summary(terminalreporter, exitstatus, config):
    if not _ACCEPTANCE_RESULTS:
        return
    terminalreporter.write_sep("-", "acceptance criteria")
    for index, label, passed, detail in sorted(_ACCEPTANCE_RESULTS):
        status = "PASS" if passed else "FAIL"
        line = f"[{status}] criterion {index}: {label}"
        if detail:
            line += f" ({detail.splitlines()[0][:120]})"
        terminalreporter.write_line(line)


def sample_siegel(n_dim: int, seed: int, index: int, height_cap: float = 50.0):
    """Deterministic Siegel point with moderate height, for geometry tests."""
    rng = _rng_for(seed, index)
    n = n_dim - 1
    w = (rng.uniform(-1, 1, n) + 1j * rng.uniform(-1, 1, n)) * 0.7
    wsq = float(np.sum(np.abs(w) ** 2))
    x = wsq + rng.uniform(0.05, height_cap)
    y = rng.uniform(-height_cap, height_cap)
    from valiron.geometry import SiegelPoint

    return SiegelPoint(complex(x, y), w)


def sample_ball(n_dim: int, seed: int, index: int, radius: float = 0.95):
    rng = _rng_for(seed, index)
    v = rng.normal(size=n_dim) + 1j * rng.normal(size=n_dim)
    v /= np.linalg.norm(v)
    r = radius * rng.uniform(0, 1) ** (1.0 / (2 * n_dim))
    from valiron.geometry import BallPoint

    return BallPoint(r * v)
