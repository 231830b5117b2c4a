from __future__ import annotations

import pickle
import random

import pytest

from oracles import brute_force_frontier_indices

from ptqlaw import (
    ExtrapolationWarning,
    ParetoPoint,
    PtqConfig,
    SearchSpace,
    ValidationError,
    default_space,
    effective_bit_width,
    min_cost_config,
    pareto_frontier,
    predict,
    sweep,
)


@pytest.fixture(scope="module")
def opt_points(registry):
    return sweep(registry.get("opt-general"), default_space())


class TestSearchSpace:
    def test_default_grid_has_384_points(self, opt_grid):
        assert len(opt_grid) == 384
        assert len(opt_grid.configs()) == 384

    def test_configs_are_sorted(self, opt_grid):
        keys = [(c.n_params, c.w_base, c.c_b, c.g) for c in opt_grid.configs()]
        assert keys == sorted(keys)

    def test_symmetric_flag_propagates(self):
        space = SearchSpace(n_params=(1e9,), w_base=(4,), c_b=(128,), g=(64,), symmetric=True)
        assert space.configs()[0].b_z == 0

    @pytest.mark.parametrize(
        "kwargs",
        [
            dict(n_params=(), w_base=(4,), c_b=(128,), g=(64,)),
            dict(n_params=(1e9,), w_base=(0,), c_b=(128,), g=(64,)),
            dict(n_params=(1e9,), w_base=(4,), c_b=(1,), g=(64,)),
            dict(n_params=(1e9,), w_base=(4,), c_b=(128,), g=(0,)),
        ],
    )
    def test_invalid_spaces_rejected(self, kwargs):
        with pytest.raises(ValidationError):
            SearchSpace(**kwargs)


class TestSweep:
    def test_single_config_matches_direct_calls(self, registry):
        params = registry.get("opt-general")
        space = SearchSpace(n_params=(6.7e9,), w_base=(4,), c_b=(128,), g=(128,))
        (point,) = sweep(params, space)
        cfg = PtqConfig(n_params=6.7e9, w_base=4, c_b=128, g=128)
        assert point.cfg == cfg
        assert point.predicted_accuracy == predict(params, cfg)
        assert point.storage_bits == 6.7e9 * effective_bit_width(cfg).value
        assert point.extrapolation is False

    def test_opt_grid_gives_384_points(self, opt_points):
        assert len(opt_points) == 384

    def test_accuracy_rises_as_group_size_falls_at_2bit(self, registry):
        params = registry.get("opt-general")
        space = SearchSpace(n_params=(6.7e9,), w_base=(2,), c_b=(128,), g=(32, 64, 128, 1024))
        points = sweep(params, space)
        by_g = {p.cfg.g: p.predicted_accuracy for p in points}
        ordered = [by_g[g] for g in (1024, 128, 64, 32)]
        assert all(b > a for a, b in zip(ordered, ordered[1:]))

    def test_extrapolation_requires_flag(self, registry):
        params = registry.get("opt-general")
        space = SearchSpace(n_params=(50e9,), w_base=(4,), c_b=(128,), g=(64,))
        with pytest.raises(ValidationError, match="n_params"):
            sweep(params, space)
        with pytest.warns(ExtrapolationWarning):
            points = sweep(params, space, allow_extrapolation=True)
        assert points[0].extrapolation is True

    def test_in_range_points_not_stamped(self, opt_points):
        assert not any(p.extrapolation for p in opt_points)

    def test_domain_error_names_the_config(self, registry):
        from ptqlaw import DomainError

        # 1 + 16 / 10**18 rounds to exactly 1.0, so log2(b_eff) is 0
        space = SearchSpace(
            n_params=(6.7e9,), w_base=(1,), c_b=(128,), g=(10**18,), symmetric=True
        )
        with pytest.warns(ExtrapolationWarning), pytest.raises(
            DomainError, match=r"n=6\.7e\+09.*g=1000000000000000000"
        ):
            sweep(registry.get("opt-general"), space, allow_extrapolation=True)


class TestGridReuse:
    def test_configs_built_once(self):
        space = default_space()
        assert space.configs() is space.configs()

    def test_repeated_sweeps_agree(self, registry):
        params = registry.get("opt-general")
        space = default_space()
        first = sweep(params, space)
        assert sweep(params, space) == first
        assert sweep(params, default_space()) == first

    def test_second_preset_gets_its_own_accuracies(self, registry):
        space = default_space()
        sweep(registry.get("opt-general"), space)
        mem = sweep(registry.get("llama2-mem"), space)
        assert mem == sweep(registry.get("llama2-mem"), default_space())

    def test_swept_space_is_a_plain_value(self, registry):
        swept, fresh = default_space(), default_space()
        sweep(registry.get("opt-general"), swept)
        assert swept == fresh
        assert hash(swept) == hash(fresh)
        assert repr(swept) == repr(fresh)
        assert pickle.dumps(swept) == pickle.dumps(fresh)
        restored = pickle.loads(pickle.dumps(swept))
        assert restored == fresh
        assert restored.configs() == fresh.configs()

    def test_unbuildable_grid_raises_on_every_sweep(self, registry):
        # 2.5 passes the axis bound but no PtqConfig accepts it
        space = SearchSpace(n_params=(1e9,), w_base=(2.5,), c_b=(128,), g=(64,))
        for _ in range(3):
            with pytest.raises(ValidationError, match="w_base"):
                sweep(registry.get("opt-general"), space)
        with pytest.raises(ValidationError, match="w_base"):
            space.configs()


class TestParetoFrontier:
    def make_point(self, accuracy, storage, w=4, g=64, cb=128):
        return ParetoPoint(
            cfg=PtqConfig(n_params=1e9, w_base=w, c_b=cb, g=g),
            predicted_accuracy=accuracy,
            storage_bits=storage,
        )

    def test_strict_dominance(self):
        a = self.make_point(0.5, 100.0)
        b = self.make_point(0.4, 200.0)
        assert pareto_frontier([a, b]) == [a]

    def test_identical_objectives_tie_break(self):
        a = self.make_point(0.5, 100.0, w=4, g=64)
        b = self.make_point(0.5, 100.0, w=2, g=64)
        c = self.make_point(0.5, 100.0, w=2, g=32)
        frontier = pareto_frontier([a, b, c])
        assert frontier == [c]  # smallest (w_base, g, c_b) wins

    def test_matches_brute_force_on_opt_grid(self, opt_points):
        frontier = pareto_frontier(opt_points)
        keep = brute_force_frontier_indices(
            [p.predicted_accuracy for p in opt_points],
            [p.storage_bits for p in opt_points],
        )
        expected = sorted(
            (opt_points[i] for i in keep), key=lambda p: p.storage_bits
        )
        assert frontier == expected

    def test_sorted_by_storage(self, opt_points):
        frontier = pareto_frontier(opt_points)
        storages = [p.storage_bits for p in frontier]
        assert storages == sorted(storages)

    def test_no_frontier_point_is_dominated(self, opt_points):
        frontier = pareto_frontier(opt_points)
        for point in frontier:
            for other in opt_points:
                dominates = (
                    other.predicted_accuracy >= point.predicted_accuracy
                    and other.storage_bits <= point.storage_bits
                    and (
                        other.predicted_accuracy > point.predicted_accuracy
                        or other.storage_bits < point.storage_bits
                    )
                )
                assert not dominates

    def test_idempotent(self, opt_points):
        frontier = pareto_frontier(opt_points)
        assert pareto_frontier(frontier) == frontier

    def test_empty_list_rejected(self):
        with pytest.raises(ValidationError):
            pareto_frontier([])


class TestMinCostConfig:
    def test_unreachable_target_returns_none(self, registry, opt_points):
        ceiling = max(p.predicted_accuracy for p in opt_points)
        assert min_cost_config(registry.get("opt-general"), default_space(), ceiling * 1.01) is None

    def test_tiny_target_returns_global_minimum_storage(self, registry, opt_points):
        cheapest = min(p.storage_bits for p in opt_points)
        best = min_cost_config(registry.get("opt-general"), default_space(), 1e-9)
        assert best.storage_bits == cheapest

    def test_matches_linear_scan(self, registry, opt_points):
        params = registry.get("opt-general")
        accuracies = [p.predicted_accuracy for p in opt_points]
        lo, hi = min(accuracies), max(accuracies)
        rng = random.Random(17)
        for _ in range(25):
            target = rng.uniform(lo, hi)
            best = min_cost_config(params, default_space(), target)
            feasible = [p for p in opt_points if p.predicted_accuracy >= target]
            expected = min(
                feasible,
                key=lambda p: (
                    p.storage_bits,
                    -p.predicted_accuracy,
                    (p.cfg.w_base, p.cfg.g, p.cfg.c_b),
                ),
            )
            assert best == expected

    def test_monotone_in_target(self, registry, opt_points):
        params = registry.get("opt-general")
        accuracies = sorted(p.predicted_accuracy for p in opt_points)
        targets = accuracies[:: len(accuracies) // 12]
        storages = [
            min_cost_config(params, default_space(), t).storage_bits for t in targets
        ]
        assert storages == sorted(storages)

    def test_non_positive_target_rejected(self, registry):
        with pytest.raises(ValidationError):
            min_cost_config(registry.get("opt-general"), default_space(), 0.0)


def test_pareto_point_requires_positive_storage():
    with pytest.raises(ValidationError):
        ParetoPoint(
            cfg=PtqConfig(n_params=1e9, w_base=4, c_b=128, g=64),
            predicted_accuracy=0.5,
            storage_bits=0.0,
        )
