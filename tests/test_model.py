from __future__ import annotations

import itertools
import math
import numbers
import random

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ptqlaw import (
    ALL_FACTORS,
    FACTOR_ORDER,
    DomainError,
    Factor,
    PredictionRangeWarning,
    PtqConfig,
    ScalingLawParams,
    ValidationError,
    effective_bit_width,
    effective_bits,
    evaluate,
    format_law,
    log2,
    mask_to_text,
    parse_factor,
    parse_mask,
    predict,
    round_half_up,
    sensitivity_report,
)

# Published two-decimal effective bit-widths for b_s=16, b_z=w_base.
BEFF_TABLE = {
    16: {2: "3.13", 3: "4.19", 4: "5.25", 8: "9.50"},
    32: {2: "2.56", 3: "3.59", 4: "4.63", 8: "8.75"},
    64: {2: "2.28", 3: "3.30", 4: "4.31", 8: "8.38"},
    128: {2: "2.14", 3: "3.15", 4: "4.16", 8: "8.19"},
    256: {2: "2.07", 3: "3.07", 4: "4.08", 8: "8.09"},
    512: {2: "2.04", 3: "3.04", 4: "4.04", 8: "8.05"},
    1024: {2: "2.02", 3: "3.02", 4: "4.02", 8: "8.02"},
}


class TestPtqConfig:
    def test_defaults_are_asymmetric(self):
        cfg = PtqConfig(n_params=6.7e9, w_base=4, c_b=128, g=128)
        assert cfg.b_s == 16
        assert cfg.b_z == 4

    def test_symmetric_zero_point(self):
        cfg = PtqConfig(n_params=1e9, w_base=4, c_b=128, g=64, b_z=0)
        assert cfg.b_z == 0

    @pytest.mark.parametrize(
        "kwargs",
        [
            dict(n_params=0, w_base=4, c_b=128, g=64),
            dict(n_params=1e9, w_base=0, c_b=128, g=64),
            dict(n_params=1e9, w_base=4, c_b=1, g=64),
            dict(n_params=1e9, w_base=4, c_b=128, g=0),
            dict(n_params=1e9, w_base=4, c_b=128, g=64, b_s=-1),
            dict(n_params=1e9, w_base=4, c_b=128, g=64, b_z=-2),
            dict(n_params=float("nan"), w_base=4, c_b=128, g=64),
            dict(n_params=1e9, w_base=4, c_b=128, g=2.5),
        ],
    )
    def test_invalid_fields_rejected(self, kwargs):
        with pytest.raises(ValidationError):
            PtqConfig(**kwargs)

    def test_c_b_of_one_rejected(self):
        # log2(1) = 0 would annihilate the power-law product
        with pytest.raises(ValidationError):
            PtqConfig(n_params=1e9, w_base=4, c_b=1, g=64)


class TestEffectiveBitWidth:
    def test_exact_values(self):
        assert effective_bits(2, 32, b_s=16, b_z=2).value == 2.5625
        assert effective_bits(4, 128, b_s=16, b_z=4).value == 4.15625
        assert effective_bits(8, 1024, b_s=16, b_z=8).value == 8.0234375

    def test_displays(self):
        assert effective_bits(2, 32).display == "2.56"
        assert effective_bits(4, 128).display == "4.16"
        assert effective_bits(8, 1024).display == "8.02"

    def test_symmetric_no_metadata(self):
        assert effective_bits(4, 64, b_s=0, b_z=0).value == 4.0

    def test_overhead_vanishes_for_large_groups(self):
        assert effective_bits(3, 10**9).value == pytest.approx(3.0, abs=1e-6)
        assert effective_bits(3, 10**9).value > 3.0

    @pytest.mark.parametrize(
        "g,w,display",
        [(g, w, disp) for g, row in BEFF_TABLE.items() for w, disp in row.items()],
    )
    def test_published_table(self, g, w, display):
        assert effective_bits(w, g).display == display

    def test_group_size_zero_rejected(self):
        with pytest.raises(ValidationError):
            effective_bits(4, 0)

    def test_monotonicity(self):
        rng = random.Random(11)
        for _ in range(200):
            w = rng.randint(1, 16)
            g = rng.randint(1, 2048)
            b_s = rng.randint(0, 32)
            b_z = rng.randint(0, 16)
            base = effective_bits(w, g, b_s=b_s, b_z=b_z).value
            # strictly antitone in g, strictly isotone in w, b_s, b_z
            assert effective_bits(w, g + 1, b_s=b_s, b_z=b_z).value < base or b_s + b_z == 0
            assert effective_bits(w + 1, g, b_s=b_s, b_z=b_z).value > base
            assert effective_bits(w, g, b_s=b_s + 1, b_z=b_z).value > base
            assert effective_bits(w, g, b_s=b_s, b_z=b_z + 1).value > base
            if b_s + b_z > 0:
                assert base > w

    def test_config_wrapper(self):
        cfg = PtqConfig(n_params=1e9, w_base=2, c_b=128, g=32, b_z=2)
        assert effective_bit_width(cfg).value == 2.5625
        assert float(effective_bit_width(cfg)) == 2.5625

    @settings(max_examples=300, deadline=None)
    @given(
        w_base=st.integers(1, 16),
        g=st.integers(1, 1 << 30),
        b_s=st.integers(0, 64),
        b_z=st.one_of(st.none(), st.just(0), st.integers(0, 16)),
    )
    def test_config_wrapper_equals_raw_fields(self, w_base, g, b_s, b_z):
        cfg = PtqConfig(n_params=1e9, w_base=w_base, c_b=128, g=g, b_s=b_s, b_z=b_z)
        expected = effective_bits(w_base, g, b_s, b_z).value
        assert effective_bit_width(cfg).value == expected
        assert effective_bits(cfg.w_base, cfg.g, cfg.b_s, cfg.b_z).value == expected


def _as_whole_reference(value, name):
    """The coercion as it was before its plain-int fast path."""
    if isinstance(value, bool):
        raise ValidationError(f"{name} must be a number, got bool")
    if isinstance(value, numbers.Integral):
        return int(value)
    if isinstance(value, numbers.Real) and float(value).is_integer():
        return int(value)
    raise ValidationError(f"{name} must be a whole number, got {value!r}")


def _outcome(coerce, value):
    try:
        result = coerce(value, "field")
    except ValidationError as exc:
        return ("error", str(exc))
    return ("ok", type(result), result)


class TestAsWhole:
    @settings(max_examples=300, deadline=None)
    @given(
        value=st.one_of(
            st.integers(),
            st.booleans(),
            st.integers(-(2**63), 2**63 - 1).map(np.int64),
            st.integers(0, 255).map(np.uint8),
            st.booleans().map(np.bool_),
            st.integers(-(10**6), 10**6).map(float),
            st.floats(),
            st.floats().map(np.float64),
            st.fractions(),
            st.text(max_size=5),
        )
    )
    def test_matches_the_reference(self, value):
        from ptqlaw.model import _as_whole

        assert _outcome(_as_whole, value) == _outcome(_as_whole_reference, value)


class TestRounding:
    def test_halves_round_up(self):
        # these are exact binary halves where bankers rounding differs
        assert round_half_up(3.125) == "3.13"
        assert round_half_up(4.625) == "4.63"
        assert round_half_up(2.5625) == "2.56"
        assert round_half_up(8.375) == "8.38"


class TestScalingLawParams:
    def test_exponent_outside_mask_rejected(self):
        with pytest.raises(ValidationError):
            ScalingLawParams(task="general", c=0.1, alpha=0.2, mask=frozenset({Factor.G}))

    def test_non_positive_c_rejected(self):
        with pytest.raises(ValidationError):
            ScalingLawParams(task="general", c=0.0, mask=frozenset())

    def test_masked_factors_order(self):
        params = ScalingLawParams(
            task="general", c=0.1, alpha=0.1, gamma=-0.01,
            mask=frozenset({Factor.G, Factor.N}),
        )
        assert params.masked_factors == (Factor.N, Factor.G)


class TestPredict:
    def test_reference_point(self, registry):
        cfg = PtqConfig(n_params=6.7e9, w_base=4, c_b=128, g=128)
        value = predict(registry.get("opt-general"), cfg)
        assert value == pytest.approx(0.3605, abs=5e-4)

    def test_constant_only_model(self):
        params = ScalingLawParams(task="custom", c=0.42, mask=frozenset())
        for cfg in (
            PtqConfig(n_params=1e6, w_base=2, c_b=8, g=32),
            PtqConfig(n_params=13e9, w_base=8, c_b=4096, g=1024),
        ):
            assert predict(params, cfg) == 0.42

    def test_multiplicative_separability(self, registry):
        params = registry.get("opt-general")
        rng = random.Random(5)
        for _ in range(100):
            n = rng.uniform(1e8, 5e9)
            k = rng.uniform(1.1, 8.0)
            cfg = PtqConfig(n_params=n, w_base=4, c_b=128, g=64)
            scaled = PtqConfig(n_params=n * k, w_base=4, c_b=128, g=64)
            ratio = predict(params, scaled) / predict(params, cfg)
            assert ratio == pytest.approx(k**params.alpha, rel=1e-12)

    def test_diminishing_returns_in_cb(self, registry):
        params = registry.get("opt-general")
        assert 0 < params.beta < 1
        values = [
            predict(params, PtqConfig(n_params=6.7e9, w_base=4, c_b=cb, g=128))
            for cb in (8, 128, 1024, 4096)
        ]
        gains = [b - a for a, b in zip(values, values[1:])]
        assert all(g > 0 for g in gains)
        assert all(later < earlier for earlier, later in zip(gains, gains[1:]))

    def test_monotone_in_n_and_beff_over_grid(self, registry, opt_grid):
        params = registry.get("opt-general")
        for w in opt_grid.w_base:
            for g in opt_grid.g:
                accs = [
                    predict(params, PtqConfig(n_params=n, w_base=w, c_b=128, g=g))
                    for n in sorted(opt_grid.n_params)
                ]
                assert accs == sorted(accs)
        # higher effective bits help at fixed n, c_b, g
        for g in opt_grid.g:
            accs = [
                predict(params, PtqConfig(n_params=6.7e9, w_base=w, c_b=128, g=g))
                for w in sorted(opt_grid.w_base)
            ]
            assert accs == sorted(accs)

    def test_antitone_in_g_at_fixed_beff(self, registry):
        # with b_s = b_z = 0 the effective width stays w_base while g varies,
        # so a negative gamma must make accuracy fall as g grows
        params = registry.get("opt-general")
        assert params.gamma < 0
        accs = [
            predict(params, PtqConfig(n_params=6.7e9, w_base=4, c_b=128, g=g, b_s=0, b_z=0))
            for g in (32, 64, 128, 1024)
        ]
        assert accs == sorted(accs, reverse=True)

    def test_out_of_range_warns(self):
        params = ScalingLawParams(task="custom", c=2.0, mask=frozenset())
        with pytest.warns(PredictionRangeWarning):
            value = predict(params, PtqConfig(n_params=1e9, w_base=4, c_b=128, g=64))
        assert value == 2.0  # reported as-is, not clamped

    def test_domain_error_for_unit_beff(self):
        params = ScalingLawParams(
            task="custom", c=0.1, delta=0.5, mask=frozenset({Factor.B_EFF})
        )
        cfg = PtqConfig(n_params=1e9, w_base=1, c_b=128, g=64, b_s=0, b_z=0)
        with pytest.raises(DomainError):
            predict(params, cfg)


def scalar_law(params, cfg):
    """The law one configuration at a time, written out independently."""
    ln2 = math.log(2.0)
    bases = {
        Factor.N: cfg.n_params,
        Factor.C_B: math.log(cfg.c_b) / ln2,
        Factor.G: float(cfg.g),
        Factor.B_EFF: math.log(cfg.w_base + (cfg.b_s + cfg.b_z) / cfg.g) / ln2,
    }
    value = params.c
    for factor in FACTOR_ORDER:
        if factor in params.mask:
            value *= bases[factor] ** params.exponent(factor)
    return value


PRESET_NAMES = (
    "opt-general", "opt-n-beff", "opt-n-g-beff", "opt-n-cb-beff", "opt-mem",
    "opt-util", "llama2-general", "llama2-mem", "llama2-util", "opt-2bit",
)


class TestEvaluate:
    # Axis values reach beyond the fitted ranges (n 125M-13B, c_b 8-4096,
    # g 32-1024, 2-8 bits) on both sides; lists may repeat values.
    @settings(max_examples=200, deadline=None)
    @given(
        preset=st.sampled_from(PRESET_NAMES),
        n_params=st.lists(st.floats(min_value=1.0, max_value=1e13), min_size=1, max_size=4),
        w_base=st.lists(st.integers(1, 16), min_size=1, max_size=3),
        c_b=st.lists(st.integers(2, 1 << 20), min_size=1, max_size=3),
        g=st.lists(st.integers(1, 1 << 20), min_size=1, max_size=3),
        b_s=st.integers(0, 32),
        symmetric=st.booleans(),
    )
    def test_equals_scalar_law_exactly(self, registry, preset, n_params, w_base, c_b, g,
                                       b_s, symmetric):
        params = registry.get(preset)
        configs = [
            PtqConfig(n_params=n, w_base=w, c_b=cb, g=size, b_s=b_s,
                      b_z=0 if symmetric else None)
            for n, w, cb, size in itertools.product(n_params, w_base, c_b, g)
        ]
        configs = [c for c in configs if c.w_base + (c.b_s + c.b_z) / c.g > 1.0]
        values = evaluate(params, configs)
        assert values.tolist() == [scalar_law(params, cfg) for cfg in configs]

    def test_names_the_first_unit_beff_config(self):
        params = ScalingLawParams(
            task="custom", c=0.1, delta=0.5, mask=frozenset({Factor.B_EFF})
        )
        configs = [
            PtqConfig(n_params=n, w_base=w, c_b=128, g=64, b_s=0, b_z=0)
            for n, w in ((1e9, 4), (2e9, 1), (3e9, 1))
        ]
        with pytest.raises(DomainError, match=r"n=2e\+09, w_base=1"):
            evaluate(params, configs)

    def test_b_eff_outside_the_mask_is_not_checked(self):
        params = ScalingLawParams(task="custom", c=0.1, alpha=0.5, mask=frozenset({Factor.N}))
        cfg = PtqConfig(n_params=4.0, w_base=1, c_b=128, g=64, b_s=0, b_z=0)
        assert evaluate(params, [cfg]).tolist() == [0.1 * 4.0 ** 0.5]


class TestSensitivityReport:
    def test_task_stratified_comparison(self, registry):
        report = sensitivity_report(registry.get("opt-mem"), registry.get("opt-util"))
        by_factor = {row.factor: row for row in report.rows}
        assert by_factor[Factor.N].exponent_a == 0.2373
        assert by_factor[Factor.N].exponent_b == 0.0862
        assert by_factor[Factor.N].more_sensitive == "memorization"
        assert by_factor[Factor.C_B].more_sensitive == "memorization"
        assert by_factor[Factor.B_EFF].more_sensitive == "memorization"
        assert by_factor[Factor.G].more_sensitive is None  # tied at -0.0036
        assert by_factor[Factor.G].difference == 0.0

    def test_self_comparison_is_all_zero(self, registry):
        params = registry.get("opt-general")
        report = sensitivity_report(params, params)
        assert all(row.difference == 0.0 for row in report.rows)
        assert all(row.more_sensitive is None for row in report.rows)

    def test_llama2_comparison(self, registry):
        report = sensitivity_report(registry.get("llama2-mem"), registry.get("llama2-util"))
        by_factor = {row.factor: row for row in report.rows}
        for factor in (Factor.N, Factor.C_B, Factor.B_EFF):
            assert by_factor[factor].more_sensitive == "memorization"
        assert by_factor[Factor.G].more_sensitive == "utilization"  # 0.0095 vs 0.0051

    def test_mask_mismatch_rejected(self, registry):
        with pytest.raises(ValidationError):
            sensitivity_report(registry.get("opt-general"), registry.get("opt-2bit"))

    def test_format_contains_factors(self, registry):
        text = sensitivity_report(registry.get("opt-mem"), registry.get("opt-util")).format()
        for name in ("n", "c_b", "g", "b_eff"):
            assert name in text


class TestFactorParsing:
    def test_round_trip(self):
        mask = parse_mask("b_eff,n")
        assert mask == frozenset({Factor.N, Factor.B_EFF})
        assert mask_to_text(mask) == "n,b_eff"
        assert parse_mask(mask_to_text(ALL_FACTORS)) == ALL_FACTORS

    def test_empty_mask(self):
        assert parse_mask("") == frozenset()
        assert parse_mask("none") == frozenset()
        assert mask_to_text(frozenset()) == "none"

    def test_unknown_factor(self):
        with pytest.raises(ValidationError):
            parse_factor("w_base")


def test_log2_matches_math():
    for x in (2.0, 4.15625, 7.0, 128.0, 1.0390625):
        assert log2(x) == pytest.approx(math.log2(x), rel=1e-15)


def test_format_law_shows_masked_terms_only(registry):
    text = format_law(registry.get("opt-2bit"))
    assert "b_eff" not in text
    assert "n^" in text and "g^" in text and "log2(c_b)" in text
