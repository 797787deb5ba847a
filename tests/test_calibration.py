"""calibrate() and max_test(): the method dispatch and the test agree exactly with the primitives."""

import numpy as np
import pytest

from spimax import bootstrap as boot
from spimax import calibration
from spimax.analytic import TubeConstants, bonferroni_cv, ridge_interval_scales, tube_cv
from spimax.calibration import METHODS, calibrate, max_test
from spimax.errors import AlphaOutOfRange, InvalidConstants, ShapeMismatch, SpimaxError
from spimax.estimation import eblup
from spimax.mc import build_joint_normal, critical_value_mc, model_scales
from spimax.model import cluster_mean_spec

from conftest import make_fhm, make_nerm

ALPHA, SEED, B, K = 0.1, 11, 80, 3000
TUBE = (1, TubeConstants(kappa0=2.5, zeta0=3.0, kappa2=0.5, zeta1=0.2, m0=0.3,
                         euler=0.5, xi0=1.0, eta0=0.3, nu=25.0))


def _setup(model):
    data, _ = make_nerm(D=12, n_d=4, seed=5) if model == "nerm" else make_fhm(D=15, seed=5)
    spec = cluster_mean_spec(data)
    return data, spec, eblup(data, spec)


def _run(method, data, spec, fit, **kw):
    kw = {"alpha": ALPHA, "seed": SEED, "B": B, "K": K, "tube": TUBE, **kw}
    return calibrate(method, data, spec, fit, **kw)


def _contrast(D):
    A = np.zeros((D // 2, D))
    for r in range(D // 2):
        A[r, 2 * r], A[r, 2 * r + 1] = 1.0, -1.0
    return A


def _assert_same(got, cv, scales):
    got_cv, got_scales, _ = got
    assert got_cv.value == cv.value
    if cv.per_cluster is None:
        assert got_cv.per_cluster is None
    else:
        np.testing.assert_array_equal(got_cv.per_cluster, cv.per_cluster)
    np.testing.assert_array_equal(got_scales, scales)


@pytest.mark.parametrize("model", ["nerm", "fhm"])
def test_bootstrap_methods_match_primitives(model):
    data, spec, fit = _setup(model)
    draws = boot.parametric_bootstrap(data, spec, fit, B, SEED)
    lead = fit.scale
    cv, scales, got_draws = _run("BS", data, spec, fit)
    _assert_same((cv, scales, None), boot.critical_value_bs(draws, ALPHA), lead)
    np.testing.assert_array_equal(got_draws.abs_s, draws.abs_s)
    _assert_same(_run("BE", data, spec, fit), boot.beran_critical_values(draws, ALPHA), lead)


@pytest.mark.parametrize("model", ["nerm", "fhm"])
def test_closed_form_and_mc_methods_match_primitives(model):
    data, spec, fit = _setup(model)
    lead = fit.scale
    _assert_same(_run("BO", data, spec, fit), bonferroni_cv(data.D, ALPHA), lead)
    joint = build_joint_normal(data, fit.theta)
    mc_scales = model_scales(joint, spec)
    cv = critical_value_mc(joint, spec, K, ALPHA, SEED)
    _assert_same(_run("MC", data, spec, fit), cv, mc_scales)
    if model == "nerm":
        vt_scales = ridge_interval_scales(data, fit.theta, spec)
        _assert_same(_run("VT", data, spec, fit), tube_cv(*TUBE, ALPHA), vt_scales)
    else:
        # the ridge band is defined only for the unit-level model
        with pytest.raises(ShapeMismatch):
            _run("VT", data, spec, fit)


@pytest.mark.parametrize("model", ["nerm", "fhm"])
def test_contrast_methods_match_primitives(model):
    data, spec, fit = _setup(model)
    A = _contrast(data.D)
    lead = np.sqrt(fit.scale**2 @ (A.T**2))
    draws = boot.parametric_bootstrap(data, spec, fit, B, SEED, A)
    cv = boot.critical_value_contrast(draws, A, ALPHA)
    _assert_same(_run("BS", data, spec, fit, A=A), cv, lead)
    _assert_same(_run("BO", data, spec, fit, A=A), bonferroni_cv(A.shape[0], ALPHA), lead)
    joint = build_joint_normal(data, fit.theta)
    mc_scales = model_scales(joint, spec, contrast=A)
    cv = critical_value_mc(joint, spec, K, ALPHA, SEED, contrast=A)
    _assert_same(_run("MC", data, spec, fit, A=A), cv, mc_scales)


def test_passed_draws_are_reused_without_refitting(monkeypatch):
    data, spec, fit = _setup("nerm")
    draws = boot.parametric_bootstrap(data, spec, fit, B, SEED)

    def no_refit(*args, **kwargs):
        raise AssertionError("parametric_bootstrap called although draws were passed")

    monkeypatch.setattr(calibration, "parametric_bootstrap", no_refit)
    for method in ("BS", "BE", "MC", "BO", "VT"):
        _, _, got = _run(method, data, spec, fit, draws=draws)
        assert got is draws
    A = _contrast(data.D)
    contrast_draws = boot.parametric_bootstrap(data, spec, fit, B, SEED, A)
    _, _, got = _run("BS", data, spec, fit, A=A, draws=contrast_draws)
    assert got is contrast_draws
    # the seed only drives new draws, so it is ignored when draws are given
    _assert_same(
        _run("BS", data, spec, fit, seed=SEED + 1, draws=draws),
        boot.critical_value_bs(draws, ALPHA),
        fit.scale,
    )


def test_draws_studentized_for_other_targets_are_refused_before_any_work(monkeypatch):
    # the draws hold |S*| for the targets they were drawn for: D clusters, or
    # the rows of one contrast matrix; other targets cannot reuse them
    data, spec, fit = _setup("nerm")
    draws = boot.parametric_bootstrap(data, spec, fit, B, SEED)
    A = _contrast(data.D)
    contrast_draws = boot.parametric_bootstrap(data, spec, fit, B, SEED, A)

    def no_work(*args, **kwargs):
        raise AssertionError("worked on draws that do not fit the targets")

    for name in ("parametric_bootstrap", "critical_value_bs", "critical_value_contrast",
                 "beran_critical_values", "build_joint_normal", "bonferroni_cv", "tube_cv"):
        monkeypatch.setattr(calibration, name, no_work)
    # D x D contrasts other than the identity: A's row count equals the
    # per-cluster draws' column count, and the second one that of draws for the first
    centred = np.eye(data.D) - 1.0 / data.D
    square_draws = boot.parametric_bootstrap(data, spec, fit, B, SEED, centred)
    refused = [(A, draws), (A[:-1], contrast_draws), (A[::-1], contrast_draws),
               (centred, draws), (centred[::-1], square_draws)]
    for method in ("BS", "MC", "BO"):
        for A_asked, reused in refused:
            with pytest.raises(ShapeMismatch, match="studentized for"):
                _run(method, data, spec, fit, A=A_asked, draws=reused)
    for method in METHODS:
        for reused in (contrast_draws, square_draws):
            with pytest.raises(ShapeMismatch, match="studentized for"):
                _run(method, data, spec, fit, draws=reused)
    for A_asked, reused in refused:
        with pytest.raises(ShapeMismatch, match="studentized for"):
            boot.critical_value_contrast(reused, A_asked, ALPHA)


def test_non_bootstrap_methods_return_no_draws():
    data, spec, fit = _setup("nerm")
    for method in ("MC", "BO", "VT"):
        assert _run(method, data, spec, fit)[2] is None


def test_invalid_requests_raise():
    data, spec, fit = _setup("nerm")
    with pytest.raises(SpimaxError):
        _run("XX", data, spec, fit)
    with pytest.raises(SpimaxError):
        _run("bs", data, spec, fit)  # method names are the upper-case METHODS
    with pytest.raises(InvalidConstants):
        _run("VT", data, spec, fit, tube=None)
    for method in ("BE", "VT"):
        with pytest.raises(ShapeMismatch):
            _run(method, data, spec, fit, A=_contrast(data.D))
    for A in (np.ones((2, data.D - 1)), np.ones((0, data.D)), np.ones(data.D)):
        for method in ("BS", "MC", "BO"):
            with pytest.raises(ShapeMismatch):
                _run(method, data, spec, fit, A=A)
    # max_test checks A and h before calibrating, where B = 0 would fail the bootstrap
    kw = {"alpha": ALPHA, "seed": SEED, "B": 0, "K": K}
    for h, A, message in [(np.zeros(3), None, f"h must have {data.D} values, got 3"),
                          (np.zeros(data.D), _contrast(data.D), "one value per contrast row"),
                          # a 1-D A is at fault, not h, though h has one value per entry of A
                          ([0.0], np.ones(data.D), f"A must have at least one row and {data.D}")]:
        with pytest.raises(ShapeMismatch, match=message):
            max_test("BS", data, spec, fit, h, A=A, **kw)
    with pytest.raises(ShapeMismatch, match="step-down"):
        max_test("MC", data, spec, fit, stepdown=True, **kw)


_CALIBRATORS = {
    "critical_value_bs": lambda d, a: boot.critical_value_bs(d["draws"], a),
    "critical_value_contrast": lambda d, a: boot.critical_value_contrast(
        d["contrast_draws"], _contrast(d["D"]), a
    ),
    "beran_critical_values": lambda d, a: boot.beran_critical_values(d["draws"], a),
    "critical_value_mc": lambda d, a: critical_value_mc(d["joint"], d["spec"], 50, a, SEED),
    "bonferroni_cv": lambda d, a: bonferroni_cv(d["D"], a),
    "tube_cv": lambda d, a: tube_cv(*TUBE, a),
}


@pytest.mark.parametrize("name", list(_CALIBRATORS))
def test_every_calibrator_rejects_alpha_outside_the_unit_interval(name):
    data, spec, fit = _setup("nerm")
    inputs = {
        "D": data.D,
        "spec": spec,
        "draws": boot.parametric_bootstrap(data, spec, fit, 20, SEED),
        "contrast_draws": boot.parametric_bootstrap(data, spec, fit, 20, SEED, _contrast(data.D)),
        "joint": build_joint_normal(data, fit.theta),
    }
    for alpha in (0.0, 1.5):
        with pytest.raises(AlphaOutOfRange):
            _CALIBRATORS[name](inputs, alpha)


@pytest.mark.parametrize("method", ["BS", "MC"])
@pytest.mark.parametrize("alpha", [0.0, 1.5])
def test_a_bad_alpha_is_rejected_before_any_refit_or_draw(monkeypatch, method, alpha):
    data, spec, fit = _setup("nerm")
    calls = []

    def spy(name):
        def record(*args, **kwargs):
            calls.append(name)
            raise AssertionError(f"{name} called before alpha was checked")

        return record

    monkeypatch.setattr(boot, "batch_eblup", spy("batch_eblup"))
    monkeypatch.setattr(calibration, "critical_value_mc", spy("critical_value_mc"))
    with pytest.raises(AlphaOutOfRange, match="alpha must lie strictly inside"):
        _run(method, data, spec, fit, alpha=alpha)
    with pytest.raises(AlphaOutOfRange):
        max_test(method, data, spec, fit, alpha=alpha, seed=SEED, B=B, K=K)
    assert calls == []
