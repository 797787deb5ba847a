"""Acceptance suite: published-table reproduction plus oracle and property checks.

Each criterion prints one PASS/FAIL line (run with -s to see them inline).
The simulation criteria run at desk scale (I=500 replicates, B=500
bootstrap draws) and take a couple of minutes in total on one core.
"""

import inspect
import math
import re

import numpy as np
import pytest
from scipy import stats

from spimax import mc, util
from spimax.analytic import (
    TubeConstants,
    tube_alpha_bound,
    tube_cv,
)
from spimax.bootstrap import (
    BootstrapDraws,
    critical_value_bs,
    parametric_bootstrap,
    stepdown_quantile_provider,
)
from spimax.calibration import calibrate
from spimax.estimation import eblup, fit_gls_blup, g1, restricted_loglik
from spimax.maxstat import build_spi, single_step_test, step_down_test
from spimax.mc import Arrow, JointNormalModel, build_joint_normal, critical_value_mc
from spimax.model import (
    FHM,
    NERM,
    MixedParameterSpec,
    VarianceComponents,
    cluster_mean_spec,
    replace_response,
)
from spimax.simulate import (
    ScenarioConfig,
    generate_scenario,
    run_fwer_experiment,
    run_power_experiment,
    run_spi_experiment,
)

from conftest import make_fhm, make_nerm
from oracles import dense_ridge_weights, studentized

pytestmark = pytest.mark.slow

SEED = 20260819
I_DESK = 500
B_DESK = 500


def report(k: int, ok: bool, detail: str) -> None:
    print(f"\nACCEPTANCE {k}: {'PASS' if ok else 'FAIL'} - {detail}")


@pytest.fixture(scope="module")
def table1_run():
    config = ScenarioConfig(
        D=30, n_d=5, sigma2_e=0.5, sigma2_u=1.0,
        n_sim=I_DESK, n_boot=B_DESK, n_mc=2000, master_seed=SEED,
    )
    return run_spi_experiment(config)


def test_criterion_1_unit_level_coverage(table1_run):
    ecp_bs = table1_run.criteria["BS"]["ecp"] * 100
    ecp_mc = table1_run.criteria["MC"]["ecp"] * 100
    ok = abs(ecp_bs - 95.2) <= 2.0 and ecp_bs >= ecp_mc
    report(
        1,
        ok,
        f"ECP_BS={ecp_bs:.1f}% (target 95.2 +/- 2.0pp), ECP_MC={ecp_mc:.1f}%, "
        f"ordering BS >= MC {'holds' if ecp_bs >= ecp_mc else 'violated'}",
    )
    assert ok


def test_criterion_2_unit_level_widths(table1_run):
    ws_bs = table1_run.criteria["BS"]["ws"]
    ws_mc = table1_run.criteria["MC"]["ws"]
    ok = abs(ws_bs - 1.947) <= 0.05 and ws_bs > ws_mc
    report(
        2,
        ok,
        f"WS_BS={ws_bs:.3f} (target 1.947 +/- 0.05), WS_MC={ws_mc:.3f}, "
        f"ordering BS > MC {'holds' if ws_bs > ws_mc else 'violated'}",
    )
    assert ok


def test_criterion_3_area_level_coverage_and_balanced_collapse():
    def fhm_config(D):
        return ScenarioConfig(
            model_tag=FHM, D=D, sigma2_u=1.0,
            fhm_sigma_pattern=(0.7, 0.6, 0.5, 0.4, 0.3),
            n_sim=I_DESK, n_boot=B_DESK, master_seed=SEED,
        )

    ecp_bs = run_spi_experiment(fhm_config(60), methods=("BS",)).criteria["BS"]["ecp"] * 100
    # BE's calibrated level is 1.0 at D=90 with B=500 in every dataset
    # measured (D > alpha B: each column's maximum ranks B), so every
    # threshold there is its cluster's largest |S*|.  The required 5-point
    # drop therefore compares an unsaturated BE at D=15 with a saturated one
    be_15 = run_spi_experiment(fhm_config(15), methods=("BE",)).criteria["BE"]["ecp"] * 100
    be_90 = run_spi_experiment(fhm_config(90), methods=("BE",)).criteria["BE"]["ecp"] * 100
    ok = abs(ecp_bs - 95.7) <= 2.5 and be_90 <= be_15 - 5.0
    report(
        3,
        ok,
        f"ECP_BS(D=60)={ecp_bs:.1f}% (target 95.7 +/- 2.5pp); "
        f"ECP_BE {be_15:.1f}% at D=15 vs {be_90:.1f}% at D=90 "
        f"(required drop >= 5pp, got {be_15 - be_90:.1f}pp)",
    )
    assert ok


def test_bootstrap_widths_stay_near_mc_on_the_c3_fhm_design():
    # C3's FHM design at D=15, where a few refits per dataset land on the
    # variance floor: studentized by sqrt(g1) alone such a replicate's |S*|
    # reached about 1e4, and with it the critical value and the widths.
    # Studentized by sqrt(g1 + g2) on both sides of the pivot, BS and BE
    # stay close to MC on every dataset
    config = ScenarioConfig(
        model_tag=FHM, D=15, sigma2_u=1.0, fhm_sigma_pattern=(0.7, 0.6, 0.5, 0.4, 0.3),
        n_boot=B_DESK, master_seed=SEED,
    )
    largest_cv = largest_ratio = 0.0
    for i in range(40):
        data, _, spec = generate_scenario(config, i)
        fit = eblup(data, spec)
        widths, draws = {}, None
        for method in ("BS", "BE", "MC"):
            cv, scales, draws = calibrate(
                method, data, spec, fit, alpha=config.alpha,
                seed=util.derive_seed(SEED, i, 2 if method == "MC" else 1),
                B=config.n_boot, K=config.n_mc, draws=draws,
            )
            spi = build_spi(fit, cv, scales)
            widths[method] = float(np.median(spi.upper - spi.lower))
            if method != "MC":
                largest_cv = max(largest_cv, float(cv.thresholds(data.D).max()))
        largest_ratio = max(largest_ratio, widths["BS"] / widths["MC"], widths["BE"] / widths["MC"])
    assert largest_cv <= 10.0
    assert largest_ratio <= 3.0


def test_criterion_4_family_wise_error():
    rates = {}
    for D in (15, 30):
        config = ScenarioConfig(
            D=D, n_d=5, sigma2_e=1.0, sigma2_u=1.0,
            n_sim=I_DESK, n_boot=B_DESK, master_seed=SEED,
        )
        rates[D] = run_fwer_experiment(config, shift=1.0).criteria["BS"]["fwer"]
    bound = 0.05 + 1.96 * math.sqrt(0.05 * 0.95 / I_DESK)
    ok = all(r <= bound for r in rates.values())
    report(
        4,
        ok,
        f"FWER_BS={rates[15]:.3f} (D=15), {rates[30]:.3f} (D=30); "
        f"bound {bound:.3f}",
    )
    assert ok


def test_criterion_5_power_curve():
    config = ScenarioConfig(
        D=30, n_d=5, sigma2_e=0.5, sigma2_u=1.0,  # ICC = 2/3
        n_sim=I_DESK, n_boot=B_DESK, master_seed=SEED,
    )
    result = run_power_experiment(config, delta_grid=(-1.0, 0.0, 1.0), methods=("BS",))
    p_neg = result.criteria["BS"]["power@-1"]
    size = result.criteria["BS"]["power@0"]
    p_pos = result.criteria["BS"]["power@1"]
    ok = p_neg > 0.9 and p_pos > 0.9 and abs(size - 0.05) <= 0.03
    report(
        5,
        ok,
        f"power(-1)={p_neg:.3f}, power(+1)={p_pos:.3f} (required > 0.9); "
        f"size={size:.3f} (required within 0.05 +/- 0.03)",
    )
    assert ok


def _dense_blup(data, theta):
    """Textbook GLS/BLUP through an explicit inverse of the n x n covariance."""
    Z = np.zeros((data.n_total, data.D))
    for d, sl in enumerate(data.cluster_slices()):
        Z[sl, d] = 1.0
    if data.model_tag == NERM:
        R = theta.sigma2_e * np.eye(data.n_total)
    else:
        R = np.diag(data.known_error_vars)
    V = theta.sigma2_u * Z @ Z.T + R
    Vi = np.linalg.inv(V)
    beta = np.linalg.solve(data.X.T @ Vi @ data.X, data.X.T @ Vi @ data.y)
    u = theta.sigma2_u * Z.T @ Vi @ (data.y - data.X @ beta)
    return beta, u


def test_criterion_6_oracle_equivalences():
    rng = np.random.default_rng(606)
    checks = []

    # (a) GLS/BLUP against the dense-inverse oracle on 20 random instances
    blup_err = 0.0
    for i in range(20):
        if i % 2 == 0:
            data, _ = make_nerm(D=int(rng.integers(4, 9)), n_d=int(rng.integers(2, 6)),
                                seed=600 + i)
            theta = VarianceComponents(
                sigma2_u=float(rng.uniform(0.2, 2.0)),
                sigma2_e=float(rng.uniform(0.2, 2.0)),
            )
        else:
            data, _ = make_fhm(D=int(rng.integers(5, 12)), seed=600 + i)
            theta = VarianceComponents(sigma2_u=float(rng.uniform(0.2, 2.0)))
        fit = fit_gls_blup(data, cluster_mean_spec(data), theta)
        beta_o, u_o = _dense_blup(data, theta)
        blup_err = max(
            blup_err,
            float(np.abs(fit.beta_hat - beta_o).max()),
            float(np.abs(fit.u_hat - u_o).max()),
        )
    checks.append(("blup<=1e-10", blup_err <= 1e-10, f"{blup_err:.1e}"))

    # (b) the BLUP of random linear functionals agrees with dense ridge weights
    data, _ = make_nerm(D=8, n_d=4, seed=61)
    theta = eblup(data).theta
    gls = fit_gls_blup(data, cluster_mean_spec(data), theta)
    phi = np.concatenate([gls.beta_hat, gls.u_hat])
    ridge_err = 0.0
    for _ in range(5):
        c = rng.standard_normal(phi.size)
        l, _, _ = dense_ridge_weights(data, theta, c)
        ridge_err = max(ridge_err, abs(float(l @ data.y) - float(c @ phi)))
    checks.append(("ridge<=1e-10", ridge_err <= 1e-10, f"{ridge_err:.1e}"))

    # (c) closed-form leading MSE term against its matrix definition
    fhm_data = make_fhm(D=10, seed=62)[0]
    g1_err = 0.0
    for data_, theta_ in [(data, theta), (fhm_data, eblup(fhm_data).theta)]:
        Z = np.zeros((data_.n_total, data_.D))
        for d, sl in enumerate(data_.cluster_slices()):
            Z[sl, d] = 1.0
        R = (
            theta_.sigma2_e * np.eye(data_.n_total)
            if data_.model_tag == NERM
            else np.diag(data_.known_error_vars)
        )
        G = theta_.sigma2_u * np.eye(data_.D)
        V = Z @ G @ Z.T + R
        matrix_g1 = np.diag(G - G @ Z.T @ np.linalg.inv(V) @ Z @ G)
        g1_err = max(g1_err, float(np.abs(g1(data_, theta_) - matrix_g1).max()))
    checks.append(("g1<=1e-12", g1_err <= 1e-12, f"{g1_err:.1e}"))

    # (d) REML maximizes the restricted likelihood over a surrounding lattice
    grid = np.linspace(0.25, 4.0, 16)
    best = max(
        restricted_loglik(data, VarianceComponents(sigma2_u=su, sigma2_e=se))
        for su in grid
        for se in grid
    )
    at_hat = restricted_loglik(data, theta)
    checks.append(("reml>=grid", at_hat >= best - 1e-9, f"margin {at_hat - best:.2e}"))

    # (e) calibrated thresholds against the independent-normal closed form
    D, alpha = 12, 0.05
    c_star = stats.norm.ppf(0.5 * (1.0 + (1.0 - alpha) ** (1.0 / D)))
    eye = Arrow(corner=np.eye(1), border=np.zeros((D, 1)), diag=np.ones(D))
    joint = JointNormalModel(precision=eye, cov_factor=eye)
    spec = MixedParameterSpec(k=np.zeros((D, 1)), m=np.ones(D))
    c_mc = critical_value_mc(joint, spec, 200_000, alpha, 99).value
    s = rng.standard_normal((20_000, D))
    draws = BootstrapDraws(
        abs_s=studentized(s.copy(), np.ones((20_000, D))), n_fallback=0, n_boundary=0,
    )
    c_bs = critical_value_bs(draws, alpha).value
    mc_err, bs_err = abs(c_mc - c_star), abs(c_bs - c_star)
    checks.append(("c_MC<=0.02", mc_err <= 0.02, f"{mc_err:.3f}"))
    checks.append(("c_BS<=0.05", bs_err <= 0.05, f"{bs_err:.3f}"))

    ok = all(c[1] for c in checks)
    report(6, ok, "; ".join(f"{name} {'ok' if good else 'FAIL'} ({msg})" for name, good, msg in checks))
    assert ok


def test_criterion_7_property_suites():
    checks = []
    data, _ = make_nerm(D=10, n_d=5, seed=71)
    spec = cluster_mean_spec(data)
    fit = eblup(data, spec)
    draws = parametric_bootstrap(data, spec, fit, 400, 17)

    # interval symmetry: identical half-width added and subtracted, bit for bit
    cv05 = critical_value_bs(draws, 0.05)
    iv = build_spi(fit, cv05)
    half = cv05.value * util.floor_scales(fit.scale)
    sym = np.array_equal(iv.upper, fit.mu_hat + half) and np.array_equal(
        iv.lower, fit.mu_hat - half
    )
    checks.append(("symmetry", sym))

    # alpha-monotonicity on shared draws / shared seed
    cs = [critical_value_bs(draws, a).value for a in (0.01, 0.05, 0.20)]
    joint = build_joint_normal(data, fit.theta)
    cm = [critical_value_mc(joint, spec, 20_000, a, 5).value for a in (0.01, 0.05, 0.20)]
    checks.append(("alpha-monotone", cs == sorted(cs, reverse=True) and cm == sorted(cm, reverse=True)))

    # subset quantile monotonicity, exact with shared draws
    provider = stepdown_quantile_provider(draws, 0.05)
    nested = [provider(range(k)) for k in (2, 5, 8, 10)]
    checks.append(("subset-monotone", nested == sorted(nested)))

    # step-down rejects at least everything the single-step test rejects
    h = fit.mu_hat + np.where(np.arange(data.D) < 3, 0.8, 0.0)
    t = np.abs(fit.mu_hat - h) / util.floor_scales(fit.scale)
    single = single_step_test(fit.mu_hat, fit.scale, h, critical_value_bs(draws, 0.05))
    sd = set(int(i) for i in step_down_test(t, provider, 0.05))
    checks.append(("stepdown-superset", set(np.flatnonzero(single.decisions)) <= sd))

    # MC runs its chunks in the calling thread: no CPU count, thread or
    # process pool can enter its result
    pools = re.compile(r"usable_cpus|cpu_count|Pool|Executor|concurrent|multiprocessing|threading")
    checks.append(("mc-holds-no-worker-count", not pools.search(inspect.getsource(mc))))

    # translating the response by a fixed-effect direction moves only beta
    gamma = np.array([2.0, -1.0])
    shifted_fit = eblup(replace_response(data, data.y + data.X @ gamma), spec)
    trans = (
        np.allclose(shifted_fit.beta_hat, fit.beta_hat + gamma, rtol=0, atol=1e-8)
        and np.allclose(shifted_fit.theta.sigma2_u, fit.theta.sigma2_u, rtol=1e-8)
        and np.allclose(shifted_fit.theta.sigma2_e, fit.theta.sigma2_e, rtol=1e-8)
    )
    checks.append(("reml-translation", trans))

    ok = all(good for _, good in checks)
    report(7, ok, "; ".join(f"{name} {'ok' if good else 'FAIL'}" for name, good in checks))
    assert ok


def test_criterion_8_tube_bound():
    checks = []

    # closed-form inversion when every correction term vanishes (p = 1)
    kappa0, xi0, nu, alpha = 2.2, 1.3, 40.0, 0.05
    plain = TubeConstants(
        kappa0=kappa0, zeta0=0.0, kappa2=0.0, zeta1=0.0, m0=0.0,
        euler=0.0, xi0=xi0, eta0=0.0, nu=nu,
    )
    x = math.sqrt(nu * ((kappa0 / (math.pi * alpha)) ** (2.0 / nu) - 1.0))
    closed = x / xi0
    numeric = tube_cv(1, plain, alpha).value
    inv_err = abs(numeric - closed)
    checks.append(("inversion<=1e-8", inv_err <= 1e-8, f"{inv_err:.1e}"))

    # strictly decreasing tail on a 1000-point grid for each branch
    rich = TubeConstants(
        kappa0=2.5, zeta0=3.0, kappa2=0.5, zeta1=0.2, m0=0.3,
        euler=0.5, xi0=1.0, eta0=0.0, nu=25.0,
    )
    grid = np.linspace(1.5, 10.0, 1000)
    monotone = True
    for p in (1, 2, 3):
        vals = np.array([tube_alpha_bound(p, c, rich) for c in grid])
        monotone &= bool(np.all(np.diff(vals) < 0.0) and np.all(vals > 0.0))
    checks.append(("monotone-tail", monotone, "p in {1,2,3}"))

    # nu -> infinity recovers the Gaussian tail
    gauss = TubeConstants(
        kappa0=math.pi, zeta0=0.0, kappa2=0.0, zeta1=0.0, m0=0.0,
        euler=0.0, xi0=1.0, eta0=0.0, nu=1e4,
    )
    c = 2.0
    rel = abs(tube_alpha_bound(1, c, gauss) - math.exp(-c * c / 2.0)) / math.exp(-c * c / 2.0)
    checks.append(("gaussian-limit<=1%", rel <= 0.01, f"{rel:.2%}"))

    ok = all(c[1] for c in checks)
    report(8, ok, "; ".join(f"{name} {'ok' if good else 'FAIL'} ({msg})" for name, good, msg in checks))
    assert ok
