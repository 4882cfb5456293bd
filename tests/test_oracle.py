"""Population oracle against values frozen from an independent
derivation run (tests/fixtures/derived.json, 4e6 draws). Tolerances
cover the Monte Carlo gap between that run and the 1e6-draw samples
used here."""
import json
import pathlib
import tracemalloc

import numpy as np
import pytest

from cbara.datagen import CovariateVector, Scenario, ScenarioId
from cbara.estimator import rank_deficient
from cbara import oracle
from cbara.oracle import (
    PopulationSample,
    _rho_star,
    asymptotic_report,
    balance_coeff_a,
    invariant_pi_g_check,
    ipw_asym_var,
    mest_covariance,
    oracle_theta_star,
    sigma_z_sq,
)
from cbara.policy import (
    Family,
    ModelCoefficients,
    TargetPolicy,
    _feature_guard,
    allocation_prob,
    derive_constants,
    target_ratio_from_x1,
)

FIXTURES = json.loads(
    (pathlib.Path(__file__).parent / "fixtures" / "derived.json").read_text()
)
POLICY = TargetPolicy(family=Family.CRD)


@pytest.fixture(scope="module")
def pop_a():
    return PopulationSample(Scenario(ScenarioId.A), seed=301, m=10**6)


@pytest.fixture(scope="module")
def pop_b():
    return PopulationSample(Scenario(ScenarioId.B), seed=302, m=10**6)


@pytest.fixture(scope="module")
def theta_a(pop_a):
    return oracle_theta_star(pop_a)


@pytest.fixture(scope="module")
def theta_b(pop_b):
    return oracle_theta_star(pop_b)


def test_limit_parameter_continuous(pop_a, theta_a):
    np.testing.assert_allclose(
        theta_a.as_array(), FIXTURES["theta_star"]["A"], atol=5e-3
    )


def test_limit_parameter_misspecified(pop_b, theta_b):
    np.testing.assert_allclose(
        theta_b.as_array(), FIXTURES["theta_star"]["B"], atol=5e-3
    )


def test_limit_parameter_discrete():
    pop = PopulationSample(Scenario(ScenarioId.DISCRETE), seed=303, m=10**5)
    theta = oracle_theta_star(pop)
    np.testing.assert_allclose(
        theta.as_array()[:4], FIXTURES["theta_star"]["Discrete4"], atol=5e-3
    )
    assert theta.beta2 == 0.0 and theta.beta3 == 0.0


def test_balance_coefficients(pop_a, theta_a):
    a = balance_coeff_a(pop_a, theta_a, POLICY)
    np.testing.assert_allclose(a, FIXTURES["zstar"]["balance_a"], atol=0.01)


def test_asymptotic_spillover_variance(pop_a, theta_a):
    a = balance_coeff_a(pop_a, theta_a, POLICY)
    s2 = sigma_z_sq(pop_a, theta_a, POLICY, a)
    assert s2 == pytest.approx(FIXTURES["zstar"]["sigma_sq"], rel=0.02)
    s2_a0 = sigma_z_sq(pop_a, theta_a, POLICY, np.zeros(4))
    assert s2_a0 == pytest.approx(FIXTURES["zstar"]["sigma_sq_a0"], rel=0.02)
    # balancing can only shrink the variance
    assert s2 < s2_a0


def test_ipw_asymptotic_variance(pop_a, theta_a, pop_b, theta_b):
    fx = FIXTURES["ipw"]
    assert ipw_asym_var(pop_a, theta_a, POLICY, balance=True) == pytest.approx(
        fx["A"]["v_opt_noiseless"], rel=0.02
    )
    assert ipw_asym_var(pop_a, theta_a, POLICY, balance=False) == pytest.approx(
        fx["A"]["v_a0_noiseless"], rel=0.02
    )
    assert ipw_asym_var(pop_b, theta_b, POLICY, balance=True) == pytest.approx(
        fx["B"]["v_opt_noiseless"], rel=0.02
    )
    assert ipw_asym_var(pop_b, theta_b, POLICY, balance=False) == pytest.approx(
        fx["B"]["v_a0_noiseless"], rel=0.02
    )


@pytest.mark.parametrize("family", [Family.CRD, Family.LOGISTIC])
@pytest.mark.parametrize("scenario", ["a", "b"])
def test_ipw_variance_is_effect_variance_plus_balanced_z(request, scenario, family):
    # z = (1 - rho) Y(1) + rho Y(0) is what the allocation adds to the
    # IPW error; its balance vector must be the one inside ipw_asym_var.
    # In B (misspecified) z is not linear in phi, so sigma_z_sq > 0.
    pop = request.getfixturevalue(f"pop_{scenario}")
    theta = request.getfixturevalue(f"theta_{scenario}")
    policy = TargetPolicy(family=family)
    rho_of_x1 = {x1: target_ratio_from_x1(policy, theta, x1) for x1 in (-1.0, 0.0, 1.0)}

    def z_ipw(pop):
        rho = np.vectorize(rho_of_x1.__getitem__)(pop.x1)
        return (1.0 - rho) * pop.y1 + rho * pop.y0

    a = balance_coeff_a(pop, theta, policy, z_ipw)
    want = float(np.var(pop.y1 - pop.y0)) + sigma_z_sq(pop, theta, policy, a, z_ipw)
    assert ipw_asym_var(pop, theta, policy, balance=True) == pytest.approx(
        want, rel=1e-12
    )


def test_noise_adds_to_ipw_variance():
    pop_n = PopulationSample(Scenario(ScenarioId.A, 1.0), seed=304, m=4 * 10**5)
    v = ipw_asym_var(pop_n, oracle_theta_star(pop_n), POLICY, balance=True)
    want = (
        FIXTURES["ipw"]["A"]["v_opt_noiseless"]
        + FIXTURES["ipw"]["A"]["noise_add_per_sigma_sq"]
    )
    assert v == pytest.approx(want, rel=0.03)


def test_mest_covariance_matches_fixture(pop_b, theta_b):
    sig = mest_covariance(pop_b, theta_b, POLICY)
    ref = np.array(FIXTURES["mest"]["sigma_B_noiseless"])
    assert float(np.abs(sig - ref).max()) <= 0.02 * float(np.abs(ref).max())
    np.testing.assert_allclose(sig, sig.T, atol=1e-12)


def test_mest_covariance_shared_noise_case():
    pop = PopulationSample(Scenario(ScenarioId.A, 1.0), seed=305, m=4 * 10**5)
    sig = mest_covariance(pop, oracle_theta_star(pop), POLICY)
    ref = np.array(FIXTURES["mest"]["sigma_A_shared_noise_sd1"])
    assert float(np.abs(sig - ref).max()) <= 0.03 * float(np.abs(ref).max())


def test_mest_covariance_on_the_discrete_scenario():
    # x2 = x3 = 0 there: the criterion Gram is solved on the arm columns
    # only, and the dropped coefficients get zero rows and columns
    pop = PopulationSample(Scenario(ScenarioId.DISCRETE, 1.0), seed=310, m=10**5)
    sig = mest_covariance(pop, oracle_theta_star(pop), TargetPolicy(family=Family.LOGISTIC))
    assert np.array_equal(sig, sig.T)
    assert (sig[4:] == 0.0).all() and (sig[:, 4:] == 0.0).all()
    eigs = np.linalg.eigvalsh(sig)
    assert eigs[0] >= -1e-12 * eigs[-1]
    assert eigs[2] > 0.0  # the four arm coefficients carry variance


def test_discrete_target_ratios():
    pop = PopulationSample(Scenario(ScenarioId.DISCRETE), seed=306, m=10**5)
    theta = oracle_theta_star(pop)
    for family_name, key in (("logistic", "rho_star_logistic"), ("probit", "rho_star_probit")):
        pol = TargetPolicy(family=Family(family_name))
        for atom, want in FIXTURES["discrete"][key].items():
            got = target_ratio_from_x1(pol, theta, float(atom))
            assert got == pytest.approx(want, abs=1e-6)


def test_z_definition_must_return_one_value_per_unit():
    pop = PopulationSample(Scenario(ScenarioId.A), seed=308, m=10**4)
    theta = oracle_theta_star(pop)
    with pytest.raises(ValueError):
        balance_coeff_a(pop, theta, POLICY, lambda p: p.zstar[:-1])
    with pytest.raises(ValueError):
        sigma_z_sq(pop, theta, POLICY, np.zeros(4), lambda p: float(p.zstar[0]))


@pytest.mark.parametrize("family", list(Family))
def test_oracle_ratio_is_the_engine_link(pop_b, theta_b, family):
    # the oracle's per-unit rho is the engine's scalar link at each x1
    # atom, bit for bit, at the limit parameter and at random ones
    policy = TargetPolicy(family=family)
    x1 = pop_b.x1[:10**4]
    rng = np.random.default_rng(309)
    thetas = [theta_b] + [
        ModelCoefficients(*rng.uniform(-3.0, 3.0, size=6)) for _ in range(200)
    ]
    for theta in thetas:
        atoms = {a: target_ratio_from_x1(policy, theta, a) for a in (-1.0, 0.0, 1.0)}
        want = np.array([atoms[v] for v in x1.tolist()])
        assert np.array_equal(_rho_star(policy, theta, x1), want)


def _assert_report_is_the_public_functions(pop, policy):
    # the report's passes and the public functions share their per-chunk
    # formulas, so every field matches bit for bit
    report = asymptotic_report(pop, policy)
    theta = oracle_theta_star(pop)
    assert report.theta_star == theta
    a = balance_coeff_a(pop, theta, policy)
    assert report.a_vec == tuple(float(v) for v in a)
    assert report.sigma_z_sq == sigma_z_sq(pop, theta, policy, a)
    assert report.ipw_var == ipw_asym_var(pop, theta, policy)
    assert np.array_equal(report.mest_cov, mest_covariance(pop, theta, policy))
    assert report.mest_cov.shape == (6, 6)


def test_report_bundles_consistent_pieces(pop_a):
    _assert_report_is_the_public_functions(pop_a, POLICY)


def test_report_pieces_agree_on_a_ragged_last_chunk():
    # two full chunks and one unit: the last chunk's design buffers are
    # a one-row slice
    pop = PopulationSample(
        Scenario(ScenarioId.DISCRETE, 1.0), seed=312, m=2 * oracle._CHUNK + 1
    )
    _assert_report_is_the_public_functions(pop, TargetPolicy(family=Family.PROBIT))


def _plain_sums(pop, policy, theta, minv):
    """The criterion normal equations, the balance sums and the six
    M-estimator moment sums, one fresh array per expression, from d1/d0
    stacked anew out of each chunk's slices; the chunk view gives only
    rho and phi. On the way it checks that the view's in-place rr, w
    and h are the plain expressions to the last bit."""
    gram, rhs = np.zeros((6, 6)), np.zeros(6)
    for c in oracle._Rows(pop):
        n = c.hi - c.lo
        one, zero = np.ones(n), np.zeros(n)
        d1 = np.column_stack([one, c.x1, zero, zero, c.x2, c.x3])
        d0 = np.column_stack([zero, zero, one, c.x1, c.x2, c.x3])
        gram += 0.5 * (d1.T @ d1 + d0.T @ d0)
        rhs += 0.5 * (d1.T @ c.y1 + d0.T @ c.y0)
    ts, neg_minv_t = theta.as_array(), -minv.T
    _, c_theta = derive_constants(policy, theta)
    sums = dict(
        g=np.zeros((4, 4)), z_rhs=np.zeros(4), h_rhs=np.zeros(4),
        zc_quad=np.zeros((6, 6)), zc_phi=np.zeros((6, 4)), h_mat=np.zeros((6, 4)),
        phi_quad=np.zeros((4, 4)), zu_mom=np.zeros((6, 6)), zu_mean=np.zeros(6),
    )
    for c in oracle._Rows(pop, policy, theta):
        n = c.hi - c.lo
        rho, phi = c.rho, c.phi
        rr = rho * (1.0 - rho)
        phi_norm = np.sqrt(1.0 + c.x1**2 + c.x2**2 + c.x3**2)
        w = 1.0 / _feature_guard(phi_norm, rho, c_theta)
        h = c.y1 / rho + c.y0 / (1.0 - rho)
        assert c.rr.tobytes() == rr.tobytes()
        assert c.w.tobytes() == w.tobytes()
        assert c.h.tobytes() == h.tobytes()
        z = pop.zstar[c.lo : c.hi]
        sums["g"] += (phi * (w / rr)[:, None]).T @ phi
        sums["z_rhs"] += phi.T @ (z * w / rr)
        sums["h_rhs"] += phi.T @ (h * w)
        one, zero = np.ones(n), np.zeros(n)
        d1 = np.column_stack([one, c.x1, zero, zero, c.x2, c.x3])
        d0 = np.column_stack([zero, zero, one, c.x1, c.x2, c.x3])
        r1 = c.y1 - d1 @ ts
        r0 = c.y0 - d0 @ ts
        s1 = (r1 * d1.T).T @ neg_minv_t
        s0 = (r0 * d0.T).T @ neg_minv_t
        zc = (0.5 / rho)[:, None] * s1 - (0.5 / (1.0 - rho))[:, None] * s0
        zu = 0.5 * (s1 + s0)
        sums["zc_quad"] += (zc * rr[:, None]).T @ zc
        sums["zc_phi"] += zc.T @ phi
        sums["h_mat"] += (zc * w[:, None]).T @ phi
        sums["phi_quad"] += (phi / rr[:, None]).T @ phi
        sums["zu_mom"] += zu.T @ zu
        sums["zu_mean"] += zu.sum(axis=0)
    return gram / len(pop), rhs / len(pop), sums


@pytest.mark.parametrize("family", list(Family))
@pytest.mark.parametrize(
    "scenario", [ScenarioId.A, ScenarioId.B, ScenarioId.DISCRETE], ids=lambda s: s.value
)
def test_chunk_buffers_give_the_plain_expressions_bit_for_bit(scenario, family):
    # the passes write into the chunk view's reused buffers; every sum
    # equals the allocate-per-expression form to the last bit, on one
    # chunk and, for one case, on a full chunk and a ragged 1001-unit one
    ragged = scenario is ScenarioId.B and family is Family.LOGISTIC
    m = oracle._CHUNK + 1001 if ragged else 20_000
    noise = {ScenarioId.A: 0.0, ScenarioId.B: 0.5, ScenarioId.DISCRETE: 1.0}[scenario]
    pop = PopulationSample(Scenario(scenario, noise), seed=313, m=m)
    policy = TargetPolicy(family=family)
    gram, rhs = oracle._criterion_pass(pop)
    theta = oracle_theta_star(pop)
    minv = oracle._solve_active(pop, gram, np.eye(6))
    want_gram, want_rhs, want = _plain_sums(pop, policy, theta, minv)
    assert gram.tobytes() == want_gram.tobytes()
    assert rhs.tobytes() == want_rhs.tobytes()
    assert theta == ModelCoefficients.from_array(oracle._solve_active(pop, want_gram, want_rhs))
    mest = oracle._MestSums(theta, minv)
    got = dict(zip(
        ("g", "z_rhs", "h_rhs"),
        oracle._balance_pass(pop, policy, theta, z=pop.zstar, ipw=True, mest=mest),
    ))
    for name, value in want.items():
        if name in got:
            assert got[name].tobytes() == (value / m).tobytes(), name
        else:
            assert getattr(mest, name).tobytes() == value.tobytes(), name


def _traced_peak(fn):
    """tracemalloc's peak over one call of fn, above what was traced
    before it, in bytes; numpy reports its data allocations to
    tracemalloc, so the figure is exact."""
    tracemalloc.start()
    try:
        start = tracemalloc.get_traced_memory()[0]
        fn()
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    return peak - start


def test_population_sample_stays_within_seven_and_a_half_arrays():
    # the draw builds its six outputs in place: at most the (m, 3)
    # normals plus three outputs, or the six outputs plus one scratch
    # vector, are alive at once
    PopulationSample(Scenario(ScenarioId.A), seed=0, m=1)  # loads scipy.special untraced
    m = 200_001
    peak = _traced_peak(lambda: PopulationSample(Scenario(ScenarioId.A, 0.7), seed=315, m=m))
    assert peak <= 7.5 * m * 8


@pytest.fixture(scope="module")
def pop_two_chunks():
    # two full chunks and one unit, so the second chunk reuses the first's buffers
    return PopulationSample(Scenario(ScenarioId.A), seed=314, m=2 * oracle._CHUNK + 1)


def test_asymptotic_report_stays_within_seven_chunk_designs(pop_two_chunks):
    # the passes' chunk-sized buffers and temporaries, above the
    # population itself, in (chunk, 6) float arrays; the five-design
    # test below is the tight bound
    policy = TargetPolicy(family=Family.LOGISTIC)
    peak = _traced_peak(lambda: asymptotic_report(pop_two_chunks, policy))
    assert peak <= 7 * oracle._CHUNK * 6 * 8


def test_asymptotic_report_stays_within_five_chunk_designs(pop_two_chunks):
    # no design buffer in the balance pass and no chunk's vectors alive
    # into the next: about 4.7 (chunk, 6) float arrays
    policy = TargetPolicy(family=Family.LOGISTIC)
    peak = _traced_peak(lambda: asymptotic_report(pop_two_chunks, policy))
    assert peak <= 5 * oracle._CHUNK * 6 * 8


@pytest.mark.parametrize("call", ["balance_coeff_a", "ipw_asym_var"])
def test_a_balance_only_pass_holds_no_mest_scratch(pop_two_chunks, call):
    # phi, the 4-wide flat buffer, rho, rr, w and one more vector: about
    # 2.0 chunk designs; the M-estimator scratch alone would add 2.2
    policy = TargetPolicy(family=Family.LOGISTIC)
    theta = oracle_theta_star(pop_two_chunks)
    fn = {"balance_coeff_a": balance_coeff_a, "ipw_asym_var": ipw_asym_var}[call]
    peak = _traced_peak(lambda: fn(pop_two_chunks, theta, policy))
    assert peak <= 2.1 * oracle._CHUNK * 6 * 8


@pytest.mark.parametrize(
    "kwargs, message",
    [
        ({"m": 0}, "m must be an integer >= 1, got 0"),
        ({"m": 2.5}, "m must be an integer >= 1, got 2.5"),
        ({"m": 1e6}, "m must be an integer >= 1, got 1000000.0"),
        ({"m": "10"}, "m must be an integer >= 1, got '10'"),
        ({"seed": 1.5}, "seed must be an integer in [0, 2**64), got 1.5"),
        ({"seed": -1}, "seed must be an integer in [0, 2**64), got -1"),
        ({"seed": 2**64}, "seed must be an integer in [0, 2**64), got 18446744073709551616"),
        ({"seed": "3"}, "seed must be an integer in [0, 2**64), got '3'"),
        ({"m": True}, "m must be an integer >= 1, got True"),
        ({"seed": True}, "seed must be an integer in [0, 2**64), got True"),
    ],
)
def test_population_sample_rejects_bad_fields_before_any_draw(monkeypatch, kwargs, message):
    def no_draw(*args):
        raise AssertionError("drew units")

    monkeypatch.setattr(oracle, "draw_unit_arrays", no_draw)
    with pytest.raises(ValueError) as info:
        PopulationSample(Scenario(ScenarioId.A), **{"seed": 1, "m": 10, **kwargs})
    assert str(info.value) == message


def test_a_tiny_population_has_a_singular_design():
    # three units cannot identify six coefficients
    pop = PopulationSample(Scenario(ScenarioId.A), seed=1, m=3)
    with pytest.raises(ValueError, match="population design is singular"):
        oracle_theta_star(pop)


def test_invariant_probability_identity():
    pol = TargetPolicy(family=Family.LOGISTIC)
    theta = ModelCoefficients(2.0, 1.0, 0.0, -1.0, 0.5, -0.5)
    probes = [CovariateVector(0.0, 0.0, 0.0), CovariateVector(1.0, 0.5, -0.5)]
    devs = invariant_pi_g_check(pol, theta, probes, horizon=10**5, seed=307)
    assert max(devs) < 0.01


def test_invariant_check_is_the_scalar_probe_loop(monkeypatch):
    # each deviation equals a scalar allocation_prob loop over the kept
    # imbalance states, summed left to right, bit for bit
    pol = TargetPolicy(family=Family.LOGISTIC)
    theta = ModelCoefficients(2.0, 1.0, 0.0, -1.0, 0.5, -0.5)
    probes = [CovariateVector(-1.0, -0.5, 0.3), CovariateVector(1.0, 0.7, -0.6)]
    logs = []
    real_run_trial = oracle.run_trial

    def keep_log(cfg):
        result = real_run_trial(cfg)
        logs.append(result.log)
        return result

    monkeypatch.setattr(oracle, "run_trial", keep_log)
    devs = invariant_pi_g_check(pol, theta, probes, horizon=10**5, seed=311)
    states = logs[0].lam[10**4 :].tolist()
    for x, dev in zip(probes, devs):
        total = 0.0
        for lam in states:
            total += allocation_prob(pol, theta, lam, x)
        assert dev == abs(total / len(states) - target_ratio_from_x1(pol, theta, x.x1))


def test_invariant_check_rejects_short_horizons():
    pol = TargetPolicy(family=Family.LOGISTIC)
    with pytest.raises(ValueError):
        invariant_pi_g_check(pol, ModelCoefficients(), [CovariateVector(0, 0, 0)], 10**4)


@pytest.mark.parametrize("smallest", [1e-2, 1e-7, 1e-9, 1e-10, 1e-14])
def test_balance_solve_takes_pinv_where_the_rank_test_says(smallest):
    # a PSD 4x4 Gram with eigenvalues 1, 0.5, 0.1 and `smallest`: the
    # solve falls back to pinv exactly where rank_deficient finds the
    # matrix singular, so the oracle and every fit share one rank rule
    q, _ = np.linalg.qr(np.random.default_rng(5).standard_normal((4, 4)))
    g = (q * [1.0, 0.5, 0.1, smallest]) @ q.T
    g = (g + g.T) / 2.0
    rhs = np.array([0.3, -1.2, 0.7, 2.0])
    deficient = bool(rank_deficient(g))
    # eigenvalue ratios below 1e-8 are deficient: cond 1e10 takes pinv
    assert deficient == (smallest < 1e-8)
    want = np.linalg.pinv(g) @ rhs if deficient else np.linalg.solve(g, rhs)
    assert oracle._solve_gram(g, rhs).tobytes() == want.tobytes()
