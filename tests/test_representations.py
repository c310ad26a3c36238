import math

import pytest

import gr32485.representations as representations
import gr32485.series as series
from gr32485.contour import hankel_hyperbolic
from gr32485.quadrature import DEFAULT_CONFIG, Interval, QuadratureConfig, integrate
from gr32485.representations import (
    CONSTANTS,
    NORMAL_FORM_COEFF,
    REPRESENTATIONS,
    B,
    constant_residuals,
    double_angle_form,
    eval_representation,
    h,
    h1_integral,
    h2_integral,
    j1_integral,
    j2_integral,
    phi,
)
from gr32485.series import u_value
from gr32485.verifier import run_checks

SQRT3 = math.sqrt(3.0)


def test_phi_examples():
    assert phi(0.0) == 1.0
    assert phi(1.0) == pytest.approx(4.0 / 3.0, rel=1e-15)
    assert phi(2.0) == pytest.approx(phi(0.5), rel=1e-15)


def test_phi_bounded_everywhere():
    for x in (-1e300, -17.0, 0.0, 1e-8, 3.0, 1e8, 1e300):
        assert 1.0 <= phi(x) <= 4.0 / 3.0 + 1e-15


def test_h_examples():
    assert h(0.0) == 1.0
    assert h(1.0) == 1.0
    assert h(1.0 / math.sqrt(2.0)) == pytest.approx(4.0 / 3.0, rel=1e-15)
    with pytest.raises(ValueError):
        h(1.5)


def test_B_examples():
    t0 = (2.0 + SQRT3) / 8.0
    assert B(t0) == pytest.approx((SQRT3 - 1.5) ** 2, abs=1e-15)
    assert B(1.0) < B(2.0)
    assert abs(B(1.0 / 3.0)) < 1e-15
    with pytest.raises(ValueError):
        B(0.0)


def test_B_limit_and_threshold():
    assert B(1e9) == pytest.approx(0.25, abs=1e-9)
    assert B(1e9) < 0.25
    t0 = (2.0 + SQRT3) / 8.0
    t = t0 * 1.0001
    while t < 1e4:
        assert 0.0 < B(t) < 0.25
        assert math.sqrt(B(t)) < 0.5
        t *= 2.7


def test_constants_exact_relations():
    for name, residual in constant_residuals().items():
        assert abs(residual) <= 1e-14, name


def test_wrong_value_definition():
    assert CONSTANTS.wrong_value == pytest.approx(math.pi / (2.0 * math.sqrt(6.0)), rel=1e-16)


def test_headline_value(rep_values):
    assert rep_values["R0"] == pytest.approx(0.666377, abs=5e-7)


def test_all_quadrature_routes_pairwise(rep_values):
    ids = [rep.id for rep in REPRESENTATIONS if rep.id not in ("R2", "R3")]
    for i, a in enumerate(ids):
        for b in ids[i + 1 :]:
            assert abs(rep_values[a] - rep_values[b]) < 1e-9, (a, b)


def test_series_routes_agree(rep_values):
    assert abs(rep_values["R2"] - rep_values["R0"]) < 1e-9
    assert abs(rep_values["R3"] - rep_values["R0"]) < 1e-9


def test_inversion_symmetry_form(rep_values):
    # the x -> 1/x folding of the half line onto [0, 1] preserves the value
    assert abs(rep_values["R0"] - rep_values["R1"]) < 1e-10


def test_all_routes_converged(rep_results):
    for rid, res in rep_results.items():
        assert res.converged, rid


def test_closed_form_route(rep_values):
    assert abs(rep_values["R12"] - rep_values["R0"]) < 1e-9


def test_discrepancy_window(rep_values):
    gap = abs(rep_values["R0"] - CONSTANTS.wrong_value)
    assert abs(gap - 0.025102) <= 2e-4


@pytest.mark.parametrize("which", [0, 1, 2])
def test_byrd_friedman_identities(which):
    check_id = ("V0-kprime", "V1-bf25600", "V2-bf25639")[which]
    record = run_checks([check_id]).records[0]
    assert record.status == "pass"
    assert record.abs_diff < 1e-10
    assert record.evals > 0  # the quadrature side's cost


def test_double_angle_chain(rep_values):
    res = double_angle_form()
    assert res.converged
    assert abs(res.value - rep_values["R0"]) < 1e-10
    assert abs(res.value - rep_values["R4"]) < 1e-10
    assert abs(res.value - rep_values["R5"]) < 1e-10


def test_bilinear_map_pieces():
    h1 = h1_integral(DEFAULT_CONFIG)
    j1 = j1_integral(DEFAULT_CONFIG)
    assert abs(NORMAL_FORM_COEFF * h1.value - CONSTANTS.coeff_a * j1.value) < 1e-9
    h2 = h2_integral(DEFAULT_CONFIG)
    j2 = j2_integral(DEFAULT_CONFIG)
    assert abs(NORMAL_FORM_COEFF * h2.value - (-CONSTANTS.coeff_b * j2.value)) < 1e-9


def test_j2_is_negative():
    assert j2_integral(DEFAULT_CONFIG).value < 0.0


def test_unknown_representation_id():
    with pytest.raises(KeyError):
        eval_representation("R99")


# I to 40 digits (mpmath; the closed form agrees to 1e-41)
I_40 = 0.66637711426883385639865821078815900224


@pytest.mark.parametrize(
    "rid", ["R0", "R1", "R2", "R3", "R4", "R5", "R6", "R7", "R8", "R9", "R10", "R11", "R12"]
)
def test_error_estimate_covers_true_error(rep_results, rid):
    res = rep_results[rid]
    assert abs(res.value - I_40) <= res.error_estimate


@pytest.mark.parametrize(
    "cfg, ceiling",
    [
        (QuadratureConfig(abs_tol=1e-13), 7_997),
        (QuadratureConfig(abs_tol=1e-14), 13_457),
        (QuadratureConfig(abs_tol=1e-15), 59_147),
        (QuadratureConfig(abs_tol=1e-300, max_evals=10**7), 59_357),
    ],
    ids=["1e-13", "1e-14", "1e-15", "1e-300"],
)
def test_catalog_passes_at_tolerances_down_to_the_rounding_floor(cfg, ceiling):
    # below about 1e-14 panels park at their roundoff floor; they converge
    # there with the floor in their error bars, which must still hold
    report = run_checks(cfg=cfg)
    assert [(r.id, r.status, r.reason) for r in report.records if r.status != "pass"] == []
    # the floor stop and the null-rule certification bound the work, not a
    # clock: the summed evals may not exceed what they measure today, even
    # at abs_tol=1e-300 with a budget of 10**7, so bisecting converged
    # panels again fails here
    assert sum(r.evals for r in report.records) <= ceiling
    for rep in REPRESENTATIONS:
        res = eval_representation(rep.id, cfg)
        assert res.converged, rep.id
        assert abs(res.value - I_40) <= res.error_estimate, rep.id


def test_r3_makes_no_adaptive_u_calls(monkeypatch):
    # R3 takes U(t) from the fixed Gauss-Legendre rule; the adaptive
    # u_integral is left to the lemma checks
    calls = []
    adaptive = series.u_integral

    def counting(*args):
        calls.append(args)
        return adaptive(*args)

    monkeypatch.setattr(series, "u_integral", counting)
    assert eval_representation("R3").converged
    assert calls == []


def test_r3_upper_piece_in_w_equals_its_t_form(monkeypatch):
    # R3 integrates its upper piece in w = 6/t over [6/50, 1]: two panels,
    # where the same integral in t over [6, 50] takes eight. Each piece
    # takes S(t) from one kernel: the sum on [0, 6], the rule on [6, 50]
    pieces = []
    engine = representations.integrate

    def recording(f, iv, cfg):
        res = engine(f, iv, cfg)
        pieces.append((iv, cfg, res))
        return res

    def recording_kernel(name):
        kernel, ts = getattr(representations, name), []

        def call(t):
            ts.append(t)
            return kernel(t)

        monkeypatch.setattr(representations, name, call)
        return ts

    monkeypatch.setattr(representations, "integrate", recording)
    series_ts = recording_kernel("hankel_series")
    rule_ts = recording_kernel("hankel_hyperbolic")
    assert eval_representation("R3").evals == 60
    (_, _, low), (iv, cfg, upper) = pieces
    assert iv == Interval(6.0 / 50.0, 1.0)
    assert low.evals == upper.evals == 30
    assert len(series_ts) == len(rule_ts) == 30
    assert max(series_ts) <= representations._R3_SPLIT_T <= min(rule_ts)

    def in_t_integrand(t):
        return hankel_hyperbolic(t) * u_value(t) * math.exp(-t)

    in_t = integrate(in_t_integrand, Interval(6.0, 50.0), cfg)
    assert in_t.evals == 120
    assert abs(upper.value - in_t.value) <= upper.error_estimate + in_t.error_estimate


@pytest.mark.parametrize("cfg", [DEFAULT_CONFIG, QuadratureConfig(abs_tol=1e-13)], ids=["default", "1e-13"])
def test_r3_pieces_take_the_run_config(monkeypatch, cfg):
    # both of R3's engine calls run at the run's config as it is, so R3's
    # error bar follows abs_tol like every other route's
    configs = []
    engine = representations.integrate

    def recording(f, iv, c):
        configs.append(c)
        return engine(f, iv, c)

    monkeypatch.setattr(representations, "integrate", recording)
    assert eval_representation("R3", cfg).converged
    assert len(configs) == 2
    assert all(c is cfg for c in configs)
