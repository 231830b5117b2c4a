from __future__ import annotations

import random

import numpy as np
import pytest

from conftest import noiseless_observations
from oracles import central_difference_jacobian

from ptqlaw import (
    ALL_FACTORS,
    DegenerateDesignError,
    Factor,
    FitError,
    FitOptions,
    FitProblem,
    Observation,
    PtqConfig,
    ScalingLawParams,
    UndefinedRSquaredError,
    ValidationError,
    fit_nls,
    goodness_of_fit,
    prediction_jacobian,
    predict,
    warm_start,
)

MASKS = (
    ALL_FACTORS,
    frozenset({Factor.N, Factor.B_EFF}),
    frozenset({Factor.N, Factor.G, Factor.B_EFF}),
    frozenset({Factor.N, Factor.C_B, Factor.B_EFF}),
)


def random_params(rng: random.Random, mask) -> ScalingLawParams:
    exponents = {}
    if Factor.N in mask:
        exponents["alpha"] = rng.uniform(0.05, 0.3)
    if Factor.C_B in mask:
        exponents["beta"] = rng.uniform(0.02, 0.2)
    if Factor.G in mask:
        exponents["gamma"] = rng.uniform(-0.1, 0.01)
    if Factor.B_EFF in mask:
        exponents["delta"] = rng.uniform(0.2, 0.9)
    c = 10 ** rng.uniform(-2.3, -1.3)
    return ScalingLawParams(task="general", c=c, mask=mask, **exponents)


class TestWarmStart:
    @pytest.mark.parametrize("mask", MASKS, ids=lambda m: ",".join(sorted(f.value for f in m)))
    def test_exact_on_noiseless_data(self, opt_grid, mask):
        rng = random.Random(hash(tuple(sorted(f.value for f in mask))) & 0xFFFF)
        truth = random_params(rng, mask)
        problem = FitProblem(noiseless_observations(truth, opt_grid), mask)
        start = warm_start(problem)
        assert start.c == pytest.approx(truth.c, rel=1e-10)
        for factor in mask:
            assert start.exponent(factor) == pytest.approx(
                truth.exponent(factor), rel=1e-10, abs=1e-12
            )

    def test_constant_factor_is_degenerate(self, registry):
        # c_b identical in every row while c_b is in the mask
        observations = tuple(
            Observation(
                config=PtqConfig(n_params=n, w_base=4, c_b=128, g=g),
                task="general",
                accuracy=0.1 + 0.01 * i,
            )
            for i, (n, g) in enumerate((n, g) for n in (1e8, 1e9, 1e10) for g in (32, 128, 1024))
        )
        with pytest.raises(DegenerateDesignError, match="c_b") as info:
            warm_start(FitProblem(observations, frozenset({Factor.N, Factor.C_B, Factor.G})))
        assert info.value.factors == (Factor.C_B,)

    def test_close_under_multiplicative_noise(self, registry, opt_grid):
        truth = registry.get("opt-general")
        rng = np.random.default_rng(321)
        observations = tuple(
            Observation(
                config=cfg,
                task="general",
                accuracy=predict(truth, cfg) * float(np.exp(rng.normal(0.0, 0.005))),
            )
            for cfg in opt_grid.configs()
        )
        start = warm_start(FitProblem(observations, ALL_FACTORS))
        for factor in ALL_FACTORS:
            true_value = truth.exponent(factor)
            assert abs(start.exponent(factor) - true_value) <= 0.2 * abs(true_value)


class TestFitNls:
    def test_builds_the_design_once(self, monkeypatch, registry, opt_grid):
        from ptqlaw import fitting

        built = []
        original = fitting._build_design

        def counting(problem):
            built.append(problem)
            return original(problem)

        problem = FitProblem(noiseless_observations(registry.get("opt-general"), opt_grid),
                             ALL_FACTORS)
        monkeypatch.setattr(fitting, "_build_design", counting)
        result = fit_nls(problem)
        assert len(built) == 1 and built[0] is problem
        assert result.converged

    def test_noiseless_recovery(self, opt_grid):
        truth = ScalingLawParams(
            task="general", c=0.03, alpha=0.10, beta=0.07, gamma=-0.004, delta=0.32
        )
        problem = FitProblem(noiseless_observations(truth, opt_grid), ALL_FACTORS)
        result = fit_nls(problem)
        assert result.converged
        assert result.params.c == pytest.approx(0.03, abs=1e-8)
        for factor in ALL_FACTORS:
            assert abs(result.params.exponent(factor) - truth.exponent(factor)) <= 1e-6
        assert result.r_squared == pytest.approx(1.0, abs=1e-10)
        assert result.adjusted_r_squared == pytest.approx(1.0, abs=1e-10)

    def test_noiseless_recovery_on_every_nonempty_mask(self, opt_grid):
        # all 15 non-empty factor subsets; the empty mask has no exponents to
        # recover (and constant data makes r2 undefined)
        from itertools import combinations

        from ptqlaw import FACTOR_ORDER

        seed = 0
        for size in (1, 2, 3, 4):
            for subset in combinations(FACTOR_ORDER, size):
                mask = frozenset(subset)
                truth = random_params(random.Random(seed), mask)
                seed += 1
                result = fit_nls(FitProblem(noiseless_observations(truth, opt_grid), mask))
                for factor in mask:
                    assert abs(
                        result.params.exponent(factor) - truth.exponent(factor)
                    ) <= 1e-6, mask
                assert result.r_squared >= 1 - 1e-9

    def test_single_factor_reduction(self):
        mask = frozenset({Factor.N})
        truth = ScalingLawParams(task="custom", c=0.02, alpha=0.13, mask=mask)
        observations = tuple(
            Observation(
                config=PtqConfig(n_params=n, w_base=4, c_b=128, g=64),
                task="custom",
                accuracy=0.02 * n**0.13,
            )
            for n in (1e8, 3e8, 1e9, 3e9, 1e10)
        )
        result = fit_nls(FitProblem(observations, mask))
        assert result.params.c == pytest.approx(truth.c, rel=1e-9)
        assert result.params.alpha == pytest.approx(truth.alpha, abs=1e-9)
        assert result.params.beta == 0.0
        assert result.params.gamma == 0.0
        assert result.params.delta == 0.0

    def test_permutation_invariance(self, registry, opt_grid):
        truth = registry.get("opt-general")
        rng = np.random.default_rng(77)
        observations = [
            Observation(cfg, "general", predict(truth, cfg) + float(rng.normal(0, 0.01)))
            for cfg in opt_grid.configs()
        ]
        first = fit_nls(FitProblem(tuple(observations), ALL_FACTORS))
        shuffled = list(observations)
        random.Random(5).shuffle(shuffled)
        second = fit_nls(FitProblem(tuple(shuffled), ALL_FACTORS))
        for factor in ALL_FACTORS:
            assert abs(
                first.params.exponent(factor) - second.params.exponent(factor)
            ) <= 1e-8
        assert first.params.c == pytest.approx(second.params.c, rel=1e-8)

    def test_accepted_steps_never_increase_cost(self, registry, opt_grid):
        truth = registry.get("opt-general")
        rng = np.random.default_rng(9)
        observations = tuple(
            Observation(cfg, "general", predict(truth, cfg) + float(rng.normal(0, 0.02)))
            for cfg in opt_grid.configs()
        )
        result = fit_nls(FitProblem(observations, ALL_FACTORS))
        trace = result.sse_trace
        assert len(trace) >= 2
        assert all(later <= earlier for earlier, later in zip(trace, trace[1:]))
        assert trace[-1] == result.sse

    def test_percent_scale_equivariance(self, registry, opt_grid):
        truth = registry.get("opt-general")
        rng = np.random.default_rng(13)
        noisy = [predict(truth, cfg) + float(rng.normal(0, 0.01)) for cfg in opt_grid.configs()]
        configs = opt_grid.configs()
        as_fraction = fit_nls(
            FitProblem(tuple(Observation(c, "general", a) for c, a in zip(configs, noisy)), ALL_FACTORS)
        )
        as_percent = fit_nls(
            FitProblem(
                tuple(Observation(c, "general", a * 100.0) for c, a in zip(configs, noisy)),
                ALL_FACTORS,
            )
        )
        assert as_percent.params.c == pytest.approx(100.0 * as_fraction.params.c, rel=1e-9)
        for factor in ALL_FACTORS:
            assert as_percent.params.exponent(factor) == pytest.approx(
                as_fraction.params.exponent(factor), abs=1e-9
            )

    def test_pinned_exponent_is_respected(self, opt_grid):
        truth = ScalingLawParams(
            task="general", c=0.03, alpha=0.1, gamma=-0.05,
            mask=frozenset({Factor.N, Factor.G}),
        )
        problem = FitProblem(
            noiseless_observations(truth, opt_grid),
            frozenset({Factor.N, Factor.G}),
            fixed={Factor.G: -0.05},
        )
        assert problem.free_factors == (Factor.N,)
        result = fit_nls(problem)
        assert result.params.gamma == -0.05
        assert result.params.alpha == pytest.approx(0.1, abs=1e-8)

    def test_fixed_factor_must_be_masked(self, opt_grid, registry):
        observations = noiseless_observations(registry.get("opt-general"), opt_grid)
        with pytest.raises(ValidationError, match="not in the mask"):
            FitProblem(observations, frozenset({Factor.N}), fixed={Factor.G: 0.1})

    def test_insufficient_observations(self):
        observations = tuple(
            Observation(PtqConfig(n_params=n, w_base=4, c_b=128, g=64), "t", 0.2 + 0.01 * i)
            for i, n in enumerate((1e8, 1e9))
        )
        with pytest.raises(ValidationError, match="insufficient observations"):
            FitProblem(observations, frozenset({Factor.N}))

    def test_non_positive_accuracy_rejected(self):
        with pytest.raises(ValidationError, match="positive"):
            FitProblem(
                (
                    Observation(PtqConfig(n_params=1e9, w_base=4, c_b=128, g=64), "t", 0.0),
                    Observation(PtqConfig(n_params=2e9, w_base=4, c_b=128, g=64), "t", 0.5),
                    Observation(PtqConfig(n_params=4e9, w_base=4, c_b=128, g=64), "t", 0.6),
                ),
                frozenset({Factor.N}),
            )

    def test_non_finite_cost_raises_fit_error(self):
        observations = tuple(
            Observation(PtqConfig(n_params=n, w_base=4, c_b=128, g=64), "t", a)
            for n, a in ((1e8, 1e-200), (1e9, 1e200), (2e9, 1e-200), (4e9, 1e200), (8e9, 1.0))
        )
        with pytest.raises(FitError) as info:
            fit_nls(FitProblem(observations, frozenset({Factor.N})))
        assert info.value.iteration is not None

    def test_options_validation(self):
        with pytest.raises(ValidationError):
            FitOptions(max_iter=0)
        with pytest.raises(ValidationError):
            FitOptions(tol_step=-1.0)

    def test_constant_only_fit_hits_the_mean(self, registry, opt_grid):
        truth = registry.get("opt-general")
        rng = np.random.default_rng(31)
        observations = tuple(
            Observation(cfg, "general", predict(truth, cfg) + float(rng.normal(0, 0.03)))
            for cfg in opt_grid.configs()
        )
        result = fit_nls(FitProblem(observations, frozenset()))
        mean = float(np.mean([o.accuracy for o in observations]))
        assert result.params.c == pytest.approx(mean, rel=1e-8)
        assert abs(result.r_squared) <= 1e-9  # the baseline model explains nothing


class TestGoodnessOfFit:
    def test_perfect_predictions(self, opt_grid, registry):
        truth = registry.get("opt-general")
        observations = noiseless_observations(truth, opt_grid)
        stats = goodness_of_fit(observations, truth)
        assert stats.r_squared == pytest.approx(1.0, abs=1e-12)
        assert stats.adjusted_r_squared == pytest.approx(1.0, abs=1e-12)
        assert stats.sse <= 1e-12

    def test_constant_prediction_at_the_mean_gives_zero(self):
        # accuracies with an exactly representable mean of 0.5
        accuracies = (0.25, 0.5, 0.75, 0.5)
        observations = tuple(
            Observation(PtqConfig(n_params=1e9 + i, w_base=4, c_b=128, g=64), "t", a)
            for i, a in enumerate(accuracies)
        )
        params = ScalingLawParams(task="t", c=0.5, mask=frozenset())
        stats = goodness_of_fit(observations, params, n_free_params=1)
        assert stats.r_squared == 0.0

    def test_four_point_hand_computation(self):
        # y and yhat are exact binary fractions; every intermediate sum below
        # is exact, so the comparison is bit-for-bit
        configs = [PtqConfig(n_params=n, w_base=4, c_b=128, g=64) for n in (1, 2, 3, 4)]
        y = (0.3125, 0.4375, 0.6875, 0.9375)
        observations = tuple(
            Observation(cfg, "t", a) for cfg, a in zip(configs, y)
        )
        params = ScalingLawParams(task="t", c=0.25, alpha=1.0, mask=frozenset({Factor.N}))
        # predictions are exactly (0.25, 0.5, 0.75, 1.0)
        sse = 0.015625        # 4 * (1/16)^2
        sst = 0.23046875      # 236/1024
        expected_r2 = 1.0 - sse / sst
        expected_adj = 1.0 - (1.0 - expected_r2) * (4 - 1) / (4 - 2 - 1)
        stats = goodness_of_fit(observations, params)
        assert stats.sse == sse
        assert stats.r_squared == expected_r2
        assert stats.adjusted_r_squared == expected_adj

    def test_zero_variance_is_undefined(self):
        observations = tuple(
            Observation(PtqConfig(n_params=n, w_base=4, c_b=128, g=64), "t", 0.5)
            for n in (1e8, 1e9, 1e10)
        )
        params = ScalingLawParams(task="t", c=0.5, mask=frozenset())
        with pytest.raises(UndefinedRSquaredError):
            goodness_of_fit(observations, params, n_free_params=1)

    @pytest.mark.filterwarnings("ignore::ptqlaw.PredictionRangeWarning")
    def test_adjusted_never_exceeds_plain(self):
        rng = random.Random(99)
        np_rng = np.random.default_rng(99)
        for _ in range(100):
            mask = random.Random(rng.random()).choice(MASKS)
            params = random_params(rng, mask)
            observations = tuple(
                Observation(
                    PtqConfig(
                        n_params=rng.uniform(1e8, 1e10),
                        w_base=rng.choice((2, 3, 4, 8)),
                        c_b=rng.choice((8, 128, 1024, 4096)),
                        g=rng.choice((32, 64, 128, 1024)),
                    ),
                    "t",
                    rng.uniform(0.05, 0.95),
                )
                for _ in range(rng.randint(8, 20))
            )
            stats = goodness_of_fit(observations, params)
            assert stats.adjusted_r_squared <= stats.r_squared
        del np_rng


class TestPredictionJacobian:
    def test_matches_finite_differences(self, registry):
        params = registry.get("opt-general")
        cfg = PtqConfig(n_params=6.7e9, w_base=4, c_b=128, g=128)
        analytic = prediction_jacobian(params, cfg)

        order = params.masked_factors
        fields = {Factor.N: "alpha", Factor.C_B: "beta", Factor.G: "gamma", Factor.B_EFF: "delta"}

        def evaluate(theta):
            import dataclasses

            kwargs = {fields[f]: theta[1 + i] for i, f in enumerate(order)}
            return predict(dataclasses.replace(params, c=theta[0], **kwargs), cfg)

        theta0 = np.array([params.c] + [params.exponent(f) for f in order])
        numeric = central_difference_jacobian(evaluate, theta0, rel_step=1e-6)
        for a, n in zip(analytic, numeric):
            assert a == pytest.approx(n, rel=1e-6)

    def test_length_matches_mask(self, registry):
        assert len(prediction_jacobian(registry.get("opt-2bit"),
                                       PtqConfig(n_params=1e9, w_base=2, c_b=128, g=64))) == 4
