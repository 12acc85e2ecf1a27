"""Approach families, limit verdicts, and the boundary behavior checks."""

import importlib.util
import math
import pathlib
import types

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import oracle as O
from conftest import CHAINS
from valiron import cli, config, limits
from valiron.geometry import (
    DomainError,
    LinearProjectionAtInfinity,
    SiegelPoint,
    first_coordinate_projection,
    kobayashi_distance,
    koranyi_contains,
    koranyi_region_at_infinity,
    project,
)
from valiron.limits import (
    M_SWEEP,
    NO_LIMIT_FACTOR,
    TAIL_VALUES,
    ApproachFamily,
    SweepPlan,
    c_special_family,
    e0_limit,
    e_limit,
    generate_sequences,
    jwc_check,
    k_limit,
    koranyi_family,
    left_inverse_ratio_check,
    projection_distance,
    projection_invariance_check,
    radial_family,
    verdict_from_traces,
    zero_special_family,
)
from valiron.maps import PsiChoice, catalog, make_siegel_linear, make_valiron_example


class TestFamilies:
    def test_ladder_must_increase(self):
        with pytest.raises(DomainError):
            ApproachFamily(kind="radial", n_dim=1, ladder=(10.0, 10.0))

    def test_generation_is_deterministic(self):
        fam = c_special_family(0.5, 1.0, 2)
        a = generate_sequences(fam, count=len(fam.seeds) + 3, seed=9)
        b = generate_sequences(fam, count=len(fam.seeds) + 3, seed=9)
        assert len(a) == len(fam.seeds) + 3
        for sa, sb in zip(a, b):
            assert sa == sb

    def test_drawn_seeds_depend_on_the_seed(self):
        fam = koranyi_family(2.0, 2)
        a = generate_sequences(fam, count=len(fam.seeds) + 2, seed=0)
        b = generate_sequences(fam, count=len(fam.seeds) + 2, seed=1)
        assert a[-1] != b[-1]

    @given(m_amp=st.sampled_from(M_SWEEP), seed=st.integers(0, 2_000))
    @settings(max_examples=40, deadline=None)
    def test_koranyi_sequences_stay_in_their_region(self, m_amp, seed):
        region = koranyi_region_at_infinity(m_amp)
        fam = koranyi_family(m_amp, 2)
        for seq in generate_sequences(fam, count=len(fam.seeds) + 2, seed=seed):
            for q in seq:
                assert koranyi_contains(region, q)

    def test_c_special_sequences_respect_their_bound(self):
        c_bound = 0.5
        fam = c_special_family(c_bound, 1.0, 2)
        p1 = first_coordinate_projection(2)
        for seq in generate_sequences(fam):
            for q in seq:
                d = kobayashi_distance(q, project(p1, q))
                assert d <= c_bound + 1e-9

    def test_zero_special_distances_decay(self):
        fam = zero_special_family(5e-4, 0.0, 2)
        p1 = first_coordinate_projection(2)
        for seq in generate_sequences(fam):
            ds = [kobayashi_distance(q, project(p1, q)) for q in seq]
            assert all(b <= a + 1e-15 for a, b in zip(ds, ds[1:]))

    def test_radial_family_is_one_real_sequence(self):
        fam = radial_family(2)
        seqs = generate_sequences(fam, count=5)
        assert len(seqs) == 1
        for q in seqs[0]:
            assert q.z.imag == 0 and np.all(q.w == 0)


def _bits(x):
    """Floats and complex numbers as bytes, inside tuples too, so NaN equals NaN."""
    if isinstance(x, tuple):
        return tuple(map(_bits, x))
    if isinstance(x, (complex, float)):
        return np.complex128(x).tobytes()
    return x


def _labelled(*values):
    """One one-row block per sequence, so sequences may hold any number of values."""
    return [("f", np.asarray(v, dtype=np.complex128)[None, :]) for v in values]


def _reference_verdict(tails, tol):
    """Reference for verdict_from_traces: plain pairwise loops giving
    (status, value, spread, witness), each modulus numpy's ``abs``.  A NaN
    difference makes the spread NaN; a NaN difference between two sequences
    makes the separation NaN, which names no witness."""
    flat = np.concatenate(tails)
    spread = 0.0
    with np.errstate(invalid="ignore"):  # inf - inf
        for i in range(flat.size):
            spread = float(np.max([spread, np.max(np.abs(flat - flat[i]))]))
    witness = None
    separation = 0.0
    for i in range(len(tails)):
        for j in range(i + 1, len(tails)):
            # the moduli of one pair of sequences, value in i by value in j
            with np.errstate(invalid="ignore"):
                moduli = np.abs(np.subtract.outer(tails[i], tails[j]))
            for k, d in enumerate(moduli.ravel().tolist()):
                if math.isnan(d):
                    separation = math.nan
                elif d > separation:
                    separation = d
                    vi, vj = divmod(k, moduli.shape[1])
                    witness = (i, j, complex(tails[i][vi]), complex(tails[j][vj]), d)
    if math.isnan(separation):
        witness = None
    if spread < tol:
        return "limit-exists", complex(np.mean(flat)), spread, None
    if witness is not None and separation > NO_LIMIT_FACTOR * tol:
        return "no-limit", None, spread, witness
    return "inconclusive", None, spread, witness


class TestVerdicts:
    def test_constant_traces_give_a_limit(self):
        traces = _labelled(np.full(7, 2.0 + 0j), np.full(7, 2.0 + 1e-6j))
        v = verdict_from_traces(traces, tol=1e-3)
        assert v.exists and v.value == pytest.approx(2.0, abs=1e-5)

    def test_separated_traces_give_a_witness(self):
        traces = _labelled(np.full(7, 2.0 + 0j), np.full(7, 2.5 + 0j))
        v = verdict_from_traces(traces, tol=1e-3)
        assert v.status == "no-limit"
        i, j, vi, vj, sep = v.witness
        assert {i, j} == {0, 1}
        assert sep == pytest.approx(0.5)

    def test_mild_spread_is_inconclusive(self):
        traces = _labelled(np.full(7, 2.0 + 0j), np.full(7, 2.003 + 0j))
        v = verdict_from_traces(traces, tol=1e-3)
        assert v.status == "inconclusive"

    def test_matches_the_pairwise_loops(self):
        """Same status, value, spread and witness as the loops, ties included."""
        rng = np.random.default_rng(5)
        lattice = np.array([0.0, 1.0, 1j, 1.0 + 1j, -2.0 + 0.5j])
        for case in range(300):
            n_traces = int(rng.integers(1, 9))
            traces = []
            for i in range(n_traces):
                size = int(rng.integers(1, 8))
                if case % 2:
                    # few distinct values: many pairs tie for the largest separation
                    values = rng.choice(lattice, size) * 10.0 ** rng.integers(-4, 1)
                else:
                    values = 2.0 + 10.0 ** rng.uniform(-6, 0) * (
                        rng.normal(size=size) + 1j * rng.normal(size=size))
                traces.append((f"f{i % 3}", values.astype(np.complex128)[None, :]))
            tails = [v[0, -min(TAIL_VALUES, v.size):] for _, v in traces]
            for tol in (1e-7, 1e-4, 1e-2, 10.0):
                got = verdict_from_traces(traces, tol)
                assert (got.status, got.value, got.spread, got.witness) == _reference_verdict(
                    tails, tol
                ), (case, tol)
                assert got.traces == tuple(traces)

    def test_matches_the_pairwise_loops_on_nan_and_inf(self):
        """Non-finite values: NaN spreads take the witness search, as the loops do."""
        rng = np.random.default_rng(8)
        odd = np.array([np.nan, complex(np.nan, 0.0), complex(0.0, np.nan), np.inf,
                        complex(1.0, -np.inf)])
        statuses = set()
        for case in range(200):
            traces = []
            for i in range(int(rng.integers(1, 6))):
                size = int(rng.integers(1, 6))
                values = 2.0 + 10.0 ** rng.uniform(-6, 1) * (
                    rng.normal(size=size) + 1j * rng.normal(size=size))
                hit = rng.uniform(size=size) < 0.1
                values[hit] = rng.choice(odd, int(hit.sum()))
                traces.append(values.astype(np.complex128))
            tails = [v[-min(TAIL_VALUES, v.size):] for v in traces]
            for tol in (1e-4, 1e-2, 10.0):
                got = verdict_from_traces(_labelled(*traces), tol)
                want = _reference_verdict(tails, tol)
                assert _bits((got.status, got.value, got.spread, got.witness)) == _bits(want), (
                    case, tol)
                statuses.add((got.status, math.isnan(got.spread)))
        assert statuses >= {("limit-exists", False), ("no-limit", False),
                            ("inconclusive", True), ("no-limit", True)}

    def test_matches_the_pairwise_loops_on_one_value_traces(self):
        """A lone non-finite value: only its own difference x - x is NaN."""
        odd = [np.nan, complex(np.nan, 0.0), complex(0.0, np.nan), np.inf, -np.inf,
               complex(1.0, -np.inf), complex(np.inf, np.inf), complex(np.inf, np.nan)]
        finite = [2.0, 2.0 + 1e-6j, 2.5, -3.0 + 4.0j]
        cases = [[v] for v in odd]
        cases += [[v, f] for v in odd for f in finite] + [[f, v] for v in odd for f in finite]
        cases += [[v, u] for v in odd for u in odd]
        cases += [[f, v, g] for v in odd for f, g in zip(finite, finite[1:])]
        for values in cases:
            tails = [np.array([v], dtype=np.complex128) for v in values]
            for tol in (1e-4, 10.0):
                got = verdict_from_traces(_labelled(*tails), tol)
                want = _reference_verdict(tails, tol)
                assert _bits((got.status, got.value, got.spread, got.witness)) == _bits(want), (
                    values, tol)

    def test_matches_the_pairwise_loops_on_tied_separations(self):
        """Many pairs tie for the largest separation, at every offset of the
        pair rows: the witness is the first in (i, j, value in i, value in j) order."""
        rng = np.random.default_rng(12)
        corners = np.array([1.0, -1.0, 1j, -1j, 0.0, 1.0 + 1j])
        witnesses = set()
        for case in range(150):
            n_traces = int(rng.integers(2, 30))
            traces = [rng.choice(corners, int(rng.integers(1, 5))) for _ in range(n_traces)]
            tails = [v[-min(TAIL_VALUES, v.size):] for v in traces]
            got = verdict_from_traces(_labelled(*traces), 1e-3)
            want = _reference_verdict(tails, 1e-3)
            assert (got.status, got.value, got.spread, got.witness) == want, case
            witnesses.add(got.witness[:2] if got.witness else None)
        assert len(witnesses) > 20

    def test_matches_the_pairwise_loops_on_near_ties(self):
        """Separations a few ulps apart: the witness is the first pair of
        largest np.abs modulus, and that modulus is within the rounding of
        one abs (2 ulps) of the exact one."""
        rng = np.random.default_rng(13)
        for case in range(40):
            # one trace at 0, the others on a short arc of the unit circle
            angles = rng.uniform(0.0, 0.1, (int(rng.integers(2, 40)), 3))
            traces = [np.zeros(1, dtype=np.complex128)] + list(np.exp(1j * angles))
            tails = [v[-TAIL_VALUES:] for v in traces]
            got = verdict_from_traces(_labelled(*traces), 1e-3)
            assert (got.status, got.value, got.spread, got.witness) == _reference_verdict(
                tails, 1e-3), case
            _, _, vi, vj, separation = got.witness
            assert O.within(separation, O.absolute(O.exact(vi) - O.exact(vj)))

    def test_matches_the_pairwise_loops_on_many_traces(self):
        """Up to 300 tail values, odd and even counts, some of them non-finite."""
        rng = np.random.default_rng(14)
        for n_traces in (33, 34, 64, 99, 100):
            for case in range(2):
                traces = [2.0 + 10.0 ** rng.uniform(-6, 0) * (
                    rng.normal(size=int(rng.integers(1, 8)))
                    + 1j * rng.normal(size=1)) for _ in range(n_traces)]
                if case:
                    traces[int(rng.integers(n_traces))][-1] = np.nan
                tails = [v[-min(TAIL_VALUES, v.size):] for v in traces]
                for tol in (1e-7, 1e-2):
                    got = verdict_from_traces(_labelled(*traces), tol)
                    want = _reference_verdict(tails, tol)
                    assert _bits((got.status, got.value, got.spread, got.witness)) == _bits(
                        want), (n_traces, case, tol)

    def test_blocks_give_the_verdict_of_their_sequences(self):
        """Blocks of many rows, some empty, with ties and non-finite values: the
        verdict of the same sequences one at a time, to the bit."""
        rng = np.random.default_rng(15)
        lattice = np.array([0.0, 1.0, 1j, np.nan, np.inf])
        for case in range(150):
            traces = []
            for k in range(int(rng.integers(1, 5))):
                shape = (int(rng.integers(k == 0, 5)), int(rng.integers(1, 8)))
                if case % 2:
                    values = rng.choice(lattice, shape)
                else:
                    values = 2.0 + 10.0 ** rng.uniform(-6, 0) * (
                        rng.normal(size=shape) + 1j * rng.normal(size=shape))
                traces.append((f"f{k}", values.astype(np.complex128)))
            for tol in (1e-7, 1e-2, 10.0):
                got = verdict_from_traces(traces, tol)
                want = O.per_sequence_verdict(O.per_sequence(traces), tol)
                assert _bits((got.status, got.value, got.spread, got.witness)) == _bits(want), (
                    case, tol)

    @pytest.mark.parametrize("configs", ["ci", "bench"])
    def test_report_all_verdicts_are_those_of_their_sequences(self, tmp_path, monkeypatch,
                                                              configs):
        """Every verdict of the report-all configs that CI runs, and of the
        benchmark's report_all configs of seeds 1, 2, 3 and 11: the verdict of
        the same sequences one at a time, to the bit."""
        if configs == "ci":
            affine = "map = halfplane_affine\nlambda = 2\nb = 1\n"
            bodies = [affine + "N = 2\nn_max = 60\n", affine + "N = 10\nn_max = 60\n",
                      "map = halfplane_affine\nlambda = 1.02\nb = 1\nN = 3\nn_max = 2000\n",
                      "map = siegel_linear\nlambda = 1.05\nN = 2\n",
                      affine + "N = 3\na = 0.1, 0.2j\nladder_max = 9\nn_max = 60\n",
                      # fails in its jwc sweeps, after the limits verdicts
                      affine + "N = 3\na = 1e200, 0\n"]
            bodies += [affine + f"N = 2\nconjugate = {chain}\nn_max = 60\n" for chain in CHAINS]
            paths = []
            for i, body in enumerate(bodies):
                paths.append(tmp_path / f"ci{i}.cfg")
                paths[-1].write_text(f"command = report-all\n{body}seed = 1\n")
        else:
            spec = importlib.util.spec_from_file_location(
                "workloads", pathlib.Path(__file__).parents[1] / "bench" / "workloads.py")
            workloads = importlib.util.module_from_spec(spec)
            spec.loader.exec_module(workloads)
            valiron = types.SimpleNamespace(config=config)
            paths = [path for seed in (1, 2, 3, 11) for _, path, _, _ in workloads.ReportAll(
                valiron, seed, str(tmp_path / f"seed{seed}")).configs]
        seen = []

        def recorded(traces, tol):
            got = verdict_from_traces(traces, tol)
            seen.append((got, O.per_sequence_verdict(O.per_sequence(got.traces), tol)))
            return got

        monkeypatch.setattr(limits, "verdict_from_traces", recorded)
        for i, path in enumerate(paths):
            before = len(seen)
            cli.main(["run", str(path), "--out", str(tmp_path / f"out{i}")])
            assert len(seen) > before, path
        for got, want in seen:
            assert _bits((got.status, got.value, got.spread, got.witness)) == _bits(want)

    def test_one_family_sweep_on_linear_map(self):
        m = make_siegel_linear(2.0, 2)

        def h(q):
            return m(q).z / q.z

        plan = SweepPlan(0)
        v = plan.verdict(h, plan.sweep((koranyi_family(2.0, 2),)), 1e-6)
        assert v.exists and v.value == pytest.approx(2.0, abs=1e-9)


class TestSweeps:
    def test_linear_map_has_all_three_limits(self):
        m = make_siegel_linear(3.0, 2)

        def h(q):
            return m(q).z / q.z

        assert k_limit(h, 2).exists
        assert e_limit(h, 2).exists
        assert e0_limit(h, 2).exists

    def test_oscillating_example_separates_the_notions(self):
        """K- and E-limits fail while the E0-limit exists: the negative control."""
        m = make_valiron_example(2.0, PsiChoice("oscillating"))

        def h(q):
            return m(q).z / q.z

        vk = k_limit(h, 2, tol=1e-2)
        assert vk.status == "no-limit"
        assert vk.witness[4] > 0.1
        ve = e_limit(h, 2, tol=1e-3)
        assert ve.status == "no-limit"
        v0 = e0_limit(h, 2, tol=1e-2)
        assert v0.exists
        assert v0.value == pytest.approx(2.0, abs=1e-2)


class TestProjectionInvariance:
    def test_closed_form_matches_two_point_pipeline(self):
        rho = LinearProjectionAtInfinity(np.array([1.0 + 0j]))
        p1 = first_coordinate_projection(2)
        for k in (5.0, 50.0, 500.0, 5000.0):
            q = SiegelPoint(k, np.zeros(1))
            direct = kobayashi_distance(project(p1, q), project(rho, q))
            assert projection_distance(q, rho) == pytest.approx(direct, rel=1e-10)

    def test_a_projection_vector_of_another_dimension_is_rejected(self):
        q = SiegelPoint(3.0, [0.1, 0.2])
        for a in ([1.0], [1.0, 0.0, 0.0]):
            with pytest.raises(DomainError, match="dimension mismatch"):
                projection_distance(q, LinearProjectionAtInfinity(a))

    def test_a_huge_projection_vector_gives_an_infinite_distance(self):
        # ||a||^2 overflows to inf: the distance is infinite, and the check
        # fails on the projected images, which leave the domain
        rho = LinearProjectionAtInfinity([1e200])
        points = [SiegelPoint(3.0 * 4.0 ** k, [0.1j]) for k in range(6)]
        assert projection_distance(points[0], rho) == math.inf
        with np.errstate(invalid="ignore"):  # inf - inf in the monotonicity test
            with pytest.raises(DomainError, match="^projected image left the Siegel domain: non-finite"):
                projection_invariance_check(points, rho, tol=1e-2)

    def test_a_squared_modulus_overflowing_from_finite_parts_raises(self):
        # |2x + c|^2 overflows from a finite |2x + c|, as Python's float ** 2 raises
        with pytest.raises(OverflowError):
            projection_distance(SiegelPoint(1e200, [0.0]), LinearProjectionAtInfinity([1.0]))

    def test_pins_the_true_distance_at_small_heights(self):
        # atanh(1/sqrt(1+k)): 0.0706 at k = 200, an order above 1e-2
        rho = LinearProjectionAtInfinity(np.array([1.0 + 0j]))
        d200 = projection_distance(SiegelPoint(200.0, np.zeros(1)), rho)
        assert d200 == pytest.approx(math.atanh(1.0 / math.sqrt(201.0)), rel=1e-12)
        assert d200 == pytest.approx(0.070651, abs=1e-6)

    def test_ladder_report(self):
        rho = LinearProjectionAtInfinity(np.array([1.0 + 0j]))
        pts = [SiegelPoint(200.0 * 4.0 ** j, np.zeros(1)) for j in range(12)]
        rep = projection_invariance_check(pts, rho, tol=1e-2)
        assert rep.passed and rep.monotone
        assert rep.max_tail < 1e-2
        assert rep.distances[0] == pytest.approx(0.070651, abs=1e-6)
        assert rep.distances[-1] < 1e-3
        # the two projected shadows agree up to the vanishing gap
        assert abs(rep.c_witness_axis - rep.c_witness_projected) <= rep.max_tail + 1e-12
        assert rep.restricted_projected_t < 1e-12


class TestChecks:
    def test_jwc_passes_for_every_catalog_map(self):
        for name, m in catalog().items():
            rho = first_coordinate_projection(m.dim)
            rep = jwc_check(m, rho, tol=1e-3)
            assert rep.passed, name
            assert abs(rep.part1.value - m.multiplier) <= 1e-3
            assert abs(rep.part2.value) <= 1e-3

    def test_jwc_with_tilted_projection(self):
        m = catalog()["halfplane_affine(2,1,2)"]
        rho = LinearProjectionAtInfinity(np.array([0.3 + 0.4j]))
        rep = jwc_check(m, rho, tol=1e-3)
        assert rep.passed

    def test_left_inverse_ratio_confirmed_for_linear(self):
        m = make_siegel_linear(2.0, 2)
        ladder = tuple(10.0 ** k for k in range(1, 10))
        rep = left_inverse_ratio_check(
            m, LinearProjectionAtInfinity(np.array([0.5 + 0j])), tol=1e-3, ladder=ladder
        )
        assert rep.status == "confirmed" and rep.passed
        assert abs(rep.ratio_verdict.value - 2.0) <= 1e-3
        assert abs(rep.derivative_verdict.value) <= 1e-3

    def test_left_inverse_ratio_inconclusive_without_the_prerequisite(self):
        """w^2 psi(z) does not decay along C-special families, so the
        prerequisite E-limit genuinely fails and no verdict is forced."""
        m = make_valiron_example(2.0, PsiChoice("oscillating"))
        rep = left_inverse_ratio_check(
            m, LinearProjectionAtInfinity(np.array([0.5 + 0j])), tol=1e-3
        )
        assert rep.status == "inconclusive"
        assert not rep.prerequisite.exists
        assert rep.ratio_verdict is None

    def test_jwc_requires_siegel_side(self):
        from valiron.maps import make_ball_map_from_siegel

        ball = make_ball_map_from_siegel(make_siegel_linear(2.0, 2))
        with pytest.raises(DomainError):
            jwc_check(ball, first_coordinate_projection(2))
