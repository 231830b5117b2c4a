from __future__ import annotations

import json
import math
import pickle

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ptqlaw import (
    CSV_HEADER,
    DatasetError,
    ExperimentDataset,
    ExperimentRecord,
    PtqConfig,
    ValidationError,
    aggregate,
    dataset_to_csv,
    dataset_to_jsonl,
    default_space,
    generate_synthetic,
    load_csv,
    load_dataset,
    load_jsonl,
    predict,
    write_csv,
    write_jsonl,
)
from ptqlaw import dataset as dataset_module
from ptqlaw import model as model_module
from ptqlaw.dataset import _COLUMNS
from ptqlaw.fitting import Observation

SIX = ("lama-conceptnet", "lama-squad", "hellaswag", "winogrande", "arc-e", "arc-c")
CATEGORY = dict(zip(SIX, ("memorization", "memorization") + ("utilization",) * 4))
SCOPES = ("general", "memorization", "utilization")


def record(benchmark="hellaswag", category="utilization", **overrides):
    fields = dict(
        model_family="opt",
        n_params=1.3e9,
        w_base=4,
        c_b=128,
        g=64,
        benchmark=benchmark,
        task_category=category,
        accuracy=0.5,
    )
    fields.update(overrides)
    return ExperimentRecord(**fields)


def rows_for_config(n_params, w_base, c_b, g, accuracies):
    categories = dict(zip(SIX, ("memorization", "memorization") + ("utilization",) * 4))
    return [
        f"opt,{int(n_params)},{w_base},{c_b},{g},{bench},{categories[bench]},{acc}"
        for bench, acc in zip(SIX, accuracies)
    ]


class TestLoadCsv:
    def test_two_row_file(self, tmp_path):
        path = tmp_path / "ds.csv"
        path.write_text(
            CSV_HEADER
            + "\nopt,125000000,2,8,32,hellaswag,utilization,0.31"
            + "\nopt,125000000,2,8,32,winogrande,utilization,0.52\n"
        )
        ds = load_csv(path)
        assert len(ds) == 2
        assert ds.records[0].accuracy == 0.31
        assert ds.provenance["source"] == str(path)

    def test_out_of_range_accuracy_names_row_and_column(self, tmp_path):
        lines = [CSV_HEADER]
        lines += rows_for_config(125e6, 2, 8, 32, (0.3, 0.3, 0.3, 1.3, 0.3, 0.3))[:4]
        path = tmp_path / "bad.csv"
        path.write_text("\n".join(lines) + "\n")
        with pytest.raises(DatasetError, match="row 5.*accuracy") as info:
            load_csv(path)
        assert info.value.row == 5
        assert info.value.column == "accuracy"

    def test_malformed_number_names_column(self, tmp_path):
        path = tmp_path / "bad.csv"
        path.write_text(CSV_HEADER + "\nopt,abc,2,8,32,hellaswag,utilization,0.3\n")
        with pytest.raises(DatasetError, match="n_params") as info:
            load_csv(path)
        assert info.value.row == 2
        assert info.value.column == "n_params"

    def test_duplicate_key_names_rows(self, tmp_path):
        row = "opt,125000000,2,8,32,hellaswag,utilization,0.3"
        path = tmp_path / "dup.csv"
        path.write_text(CSV_HEADER + f"\n{row}\n{row}\n")
        with pytest.raises(DatasetError, match="row 3.*duplicate"):
            load_csv(path)

    def test_header_mismatch(self, tmp_path):
        path = tmp_path / "hdr.csv"
        path.write_text("a,b,c\n1,2,3\n")
        with pytest.raises(DatasetError, match="header"):
            load_csv(path)

    def test_wrong_field_count(self, tmp_path):
        path = tmp_path / "short.csv"
        path.write_text(CSV_HEADER + "\nopt,125000000,2,8,32\n")
        with pytest.raises(DatasetError, match="row 2"):
            load_csv(path)

    def test_bad_task_category(self, tmp_path):
        path = tmp_path / "cat.csv"
        path.write_text(CSV_HEADER + "\nopt,125000000,2,8,32,hellaswag,reasoning,0.3\n")
        with pytest.raises(DatasetError, match="row 2"):
            load_csv(path)

    @pytest.mark.parametrize(
        "fault, column",
        [
            ({"accuracy": "abc"}, "accuracy"),
            ({"accuracy": "1.5"}, "accuracy"),
            ({"task_category": "reasoning"}, None),
            ({"model_family": " "}, None),
            ({"benchmark": ""}, None),
        ],
    )
    @pytest.mark.parametrize("suffix", [".csv", ".jsonl"])
    def test_bad_row_repeating_a_valid_config_is_named(self, tmp_path, fault, column, suffix):
        # Row 3 repeats row 2's configuration text exactly; its own fault
        # must still be found and reported against row 3.
        valid = dict(zip(_COLUMNS, "opt,125000000,2,8,32,hellaswag,utilization,0.3".split(",")))
        bad = {**valid, "benchmark": "winogrande", **fault}
        path = tmp_path / f"repeat{suffix}"
        if suffix == ".csv":
            path.write_text("\n".join([CSV_HEADER] + [",".join(r.values()) for r in (valid, bad)]))
            row = 3
        else:
            path.write_text("\n".join(json.dumps(r) for r in (valid, bad)) + "\n")
            row = 2
        with pytest.raises(DatasetError, match=f"row {row}\\b") as info:
            load_dataset(path)
        assert info.value.row == row
        assert info.value.column == column

    def test_load_validates_each_configuration_once(self, monkeypatch, fixture_csv_path):
        calls = {"config": 0, "parse": 0}
        check_config = model_module.PtqConfig.__post_init__
        parse = dataset_module._number

        def counting_check(cfg):
            calls["config"] += 1
            check_config(cfg)

        def counting_parse(*args):
            calls["parse"] += 1
            return parse(*args)

        monkeypatch.setattr(model_module.PtqConfig, "__post_init__", counting_check)
        monkeypatch.setattr(dataset_module, "_number", counting_parse)
        dataset_module._checked_n_params.cache_clear()
        ds = load_csv(fixture_csv_path)
        assert len(ds) == 2304
        # One PtqConfig check and four grid-field parses per distinct
        # configuration; the accuracy is parsed on every row.
        assert calls == {"config": 384, "parse": 384 * 4 + 2304}

        calls["config"] = 0
        for scope in SCOPES:
            aggregate(ds, scope)
        assert calls["config"] == 384  # one PtqConfig per configuration, reused
        aggregate(ds, "general", symmetric=True)
        aggregate(ds, "memorization", symmetric=True)
        assert calls["config"] == 2 * 384

    def test_shipped_fixture_loads(self, fixture_csv_path):
        ds = load_csv(fixture_csv_path)
        assert len(ds) == 384 * 6
        assert len({r.config_key for r in ds.records}) == 384
        assert ds.benchmarks() == tuple(sorted(SIX))

    def test_shipped_fixture_reproduces_from_recorded_seed(self, fixture_csv_path, registry):
        # seed and noise level are recorded in tests/make_goldens.py
        ds = generate_synthetic(
            registry.get("opt-general"), default_space(), noise_sigma=0.05, seed=0
        )
        assert dataset_to_csv(ds) == fixture_csv_path.read_text()


class TestRoundTrips:
    def test_csv_round_trip_bytes(self, tmp_path, registry):
        ds = generate_synthetic(
            registry.get("opt-general"), default_space(), noise_sigma=0.02, seed=3
        )
        path = tmp_path / "ds.csv"
        write_csv(ds, path)
        first = path.read_bytes()
        reloaded = load_csv(path)
        assert reloaded == ds  # provenance excluded from equality
        write_csv(reloaded, path)
        assert path.read_bytes() == first

    def test_jsonl_round_trip(self, tmp_path, registry):
        ds = generate_synthetic(
            registry.get("opt-general"), default_space(), noise_sigma=0.02, seed=3
        )
        path = tmp_path / "ds.jsonl"
        write_jsonl(ds, path)
        assert load_jsonl(path) == ds
        # a jsonl file is accepted wherever a dataset path is
        assert load_dataset(path) == ds

    def test_load_dataset_sniffs_csv(self, fixture_csv_path):
        assert load_dataset(fixture_csv_path) == load_csv(fixture_csv_path)

    @pytest.mark.parametrize("loader", [load_csv, load_jsonl, load_dataset])
    def test_non_utf8_file_is_a_dataset_error(self, tmp_path, loader):
        path = tmp_path / "latin.csv"
        path.write_bytes(b"\xff\xfe" + CSV_HEADER.encode())
        with pytest.raises(DatasetError, match="latin.csv"):
            loader(path)

    def test_byte_order_mark_is_skipped(self, tmp_path):
        ds = ExperimentDataset((record(), record(benchmark="winogrande", accuracy=0.25)))
        bom = b"\xef\xbb\xbf"
        csv_path, jsonl_path = tmp_path / "ds.csv", tmp_path / "ds.jsonl"
        csv_path.write_bytes(bom + dataset_to_csv(ds).encode())
        jsonl_path.write_bytes(bom + dataset_to_jsonl(ds).encode())
        assert load_csv(csv_path) == load_dataset(csv_path) == ds
        assert load_jsonl(jsonl_path) == load_dataset(jsonl_path) == ds

    def test_jsonl_error_reports_line(self, tmp_path):
        path = tmp_path / "bad.jsonl"
        path.write_text('{"model_family": "opt"}\n')
        with pytest.raises(DatasetError, match="missing fields"):
            load_jsonl(path)

    @pytest.mark.parametrize("line", ["5", '["model_family", "n_params"]', '"opt"', "null"])
    def test_jsonl_line_must_be_an_object(self, tmp_path, line):
        path = tmp_path / "bad.jsonl"
        path.write_text(dataset_to_jsonl(ExperimentDataset((record(),))) + line + "\n")
        with pytest.raises(DatasetError, match="^row 2: expected a JSON object$") as info:
            load_jsonl(path)
        assert info.value.row == 2

    @pytest.mark.parametrize(
        "column, value",
        [("model_family", None), ("benchmark", 5), ("task_category", True), ("model_family", ["opt"])],
    )
    def test_jsonl_text_fields_must_be_strings(self, tmp_path, column, value):
        payload = json.loads(dataset_to_jsonl(ExperimentDataset((record(),))))
        payload[column] = value
        path = tmp_path / "bad.jsonl"
        path.write_text(json.dumps(payload) + "\n")
        with pytest.raises(DatasetError, match=f"row 1, column {column}: expected a JSON string") as info:
            load_jsonl(path)
        assert (info.value.row, info.value.column) == (1, column)


class TestDatasetInvariants:
    def test_duplicate_records_rejected(self):
        with pytest.raises(DatasetError, match="duplicate"):
            ExperimentDataset(records=(record(), record()))

    def test_conflicting_categories_rejected(self):
        with pytest.raises(DatasetError, match="conflicting"):
            ExperimentDataset(
                records=(
                    record(),
                    record(category="memorization", n_params=2.7e9),
                )
            )

    def test_empty_dataset_rejected(self):
        with pytest.raises(ValidationError):
            ExperimentDataset(records=())

    def test_fingerprint_ignores_record_order(self):
        a = record()
        b = record(benchmark="winogrande")
        assert (
            ExperimentDataset(records=(a, b)).fingerprint()
            == ExperimentDataset(records=(b, a)).fingerprint()
        )

    def test_record_accuracy_out_of_range_names_column(self):
        with pytest.raises(DatasetError, match="accuracy") as info:
            record(accuracy=1.5)
        assert info.value.column == "accuracy"

    def test_aggregate_leaves_equality_hash_repr_and_pickle_unchanged(self, fixture_csv_path):
        ds = load_csv(fixture_csv_path)
        fresh = ExperimentDataset(records=ds.records, provenance=dict(ds.provenance))
        before = (hash(ds), repr(ds), pickle.dumps(ds))
        for scope in SCOPES:
            aggregate(ds, scope)
        aggregate(ds, "general", symmetric=True)
        ds.benchmarks()
        assert ds == fresh
        assert (hash(ds), repr(ds), pickle.dumps(ds)) == before
        assert pickle.dumps(ds) == pickle.dumps(fresh)
        restored = pickle.loads(pickle.dumps(ds))
        assert aggregate(restored, "utilization") == aggregate(ds, "utilization")

    def test_filter_matches_a_constructed_dataset(self, fixture_csv_path):
        ds = load_csv(fixture_csv_path)
        aggregate(ds, "general")
        sliced = ds.filter(lambda r: r.w_base == 2, description="w_base=2")
        fresh = ExperimentDataset(
            records=tuple(r for r in ds.records if r.w_base == 2),
            provenance={**ds.provenance, "filter": "w_base=2"},
        )
        assert sliced == fresh
        assert sliced.provenance == fresh.provenance
        assert (hash(sliced), repr(sliced)) == (hash(fresh), repr(fresh))
        assert pickle.dumps(sliced) == pickle.dumps(fresh)
        assert aggregate(sliced, "memorization") == aggregate(fresh, "memorization")

    def test_filter_empty_is_an_error(self):
        ds = ExperimentDataset(records=(record(),))
        with pytest.raises(ValidationError, match="w_base=9"):
            ds.filter(lambda r: r.w_base == 9, description="w_base=9")


class TestAggregate:
    def build(self, per_config):
        lines = [CSV_HEADER]
        for (n, w, cb, g), accuracies in per_config.items():
            lines += rows_for_config(n, w, cb, g, accuracies)
        return "\n".join(lines) + "\n"

    def load(self, tmp_path, per_config):
        path = tmp_path / "agg.csv"
        path.write_text(self.build(per_config))
        return load_csv(path)

    def test_equal_accuracies_aggregate_unchanged(self, tmp_path):
        ds = self.load(tmp_path, {(125e6, 2, 8, 32): [0.5] * 6})
        for scope in ("general", "memorization", "utilization"):
            observations = aggregate(ds, scope)
            assert len(observations) == 1
            assert observations[0].accuracy == 0.5
            assert observations[0].task == scope

    def test_memorization_mean(self, tmp_path):
        ds = self.load(tmp_path, {(125e6, 2, 8, 32): [0.2, 0.4, 0.5, 0.5, 0.5, 0.5]})
        observations = aggregate(ds, "memorization")
        assert observations[0].accuracy == pytest.approx(0.3)
        utilization = aggregate(ds, "utilization")
        assert utilization[0].accuracy == pytest.approx(0.5)

    def test_missing_benchmark_named(self, tmp_path):
        lines = [CSV_HEADER]
        lines += rows_for_config(125e6, 2, 8, 32, [0.5] * 6)
        lines += rows_for_config(6.7e9, 4, 128, 64, [0.5] * 6)[:5]  # drop arc-c
        path = tmp_path / "missing.csv"
        path.write_text("\n".join(lines) + "\n")
        ds = load_csv(path)
        with pytest.raises(DatasetError, match="arc-c"):
            aggregate(ds, "general")

    def test_output_sorted_by_grid(self, tmp_path):
        per_config = {
            (6.7e9, 4, 128, 64): [0.5] * 6,
            (125e6, 2, 8, 32): [0.3] * 6,
            (125e6, 8, 8, 32): [0.4] * 6,
        }
        ds = self.load(tmp_path, per_config)
        observations = aggregate(ds, "general")
        keys = [(o.config.n_params, o.config.w_base) for o in observations]
        assert keys == sorted(keys)

    def test_row_order_does_not_change_means(self, tmp_path, registry):
        ds = generate_synthetic(
            registry.get("opt-general"), default_space(), noise_sigma=0.05, seed=1
        )
        reversed_ds = ExperimentDataset(records=tuple(reversed(ds.records)))
        assert aggregate(ds, "general") == aggregate(reversed_ds, "general")

    def test_benchmark_override(self, tmp_path):
        ds = self.load(tmp_path, {(125e6, 2, 8, 32): [0.2, 0.4, 0.6, 0.6, 0.6, 0.6]})
        observations = aggregate(ds, "general", benchmarks=("lama-conceptnet", "hellaswag"))
        assert observations[0].accuracy == pytest.approx((0.2 + 0.6) / 2)

    def test_unknown_scope(self, tmp_path):
        ds = self.load(tmp_path, {(125e6, 2, 8, 32): [0.5] * 6})
        with pytest.raises(ValidationError, match="scope"):
            aggregate(ds, "reasoning")

    def test_unknown_benchmark_override(self, tmp_path):
        ds = self.load(tmp_path, {(125e6, 2, 8, 32): [0.5] * 6})
        with pytest.raises(ValidationError, match="not present"):
            aggregate(ds, "general", benchmarks=("mmlu",))

    def test_aggregate_count_matches_distinct_configs(self, fixture_csv_path):
        ds = load_csv(fixture_csv_path)
        observations = aggregate(ds, "general")
        assert len(observations) == 384


def reference_aggregate(ds, scope="general", benchmarks=None, symmetric=False):
    """The per-call grouping ``aggregate`` used before datasets cached it."""
    categories = {r.benchmark: r.task_category for r in ds.records}
    if benchmarks is not None:
        wanted = tuple(benchmarks)
    elif scope == "general":
        wanted = tuple(sorted(categories))
    elif scope in ("memorization", "utilization"):
        wanted = tuple(sorted(b for b, cat in categories.items() if cat == scope))
        if not wanted:
            raise ValidationError(f"dataset has no {scope} benchmarks")
    else:
        raise ValidationError(
            f"unknown scope {scope!r}; expected 'general', 'memorization' or 'utilization'"
        )
    if not wanted:
        raise ValidationError("benchmark list for aggregation is empty")
    unknown = [b for b in wanted if b not in categories]
    if unknown:
        raise ValidationError(f"benchmarks not present in dataset: {unknown}")

    grouped = {}
    for r in ds.records:
        grouped.setdefault(r.config_key, {})[r.benchmark] = r.accuracy

    observations = []
    for key in sorted(grouped, key=lambda k: (k[1], k[2], k[3], k[4], k[0])):
        family, n_params, w_base, c_b, g = key
        per_benchmark = grouped[key]
        missing = [b for b in wanted if b not in per_benchmark]
        if missing:
            raise DatasetError(
                f"config (family={family}, n={n_params:g}, w={w_base}, c_b={c_b}, g={g}) "
                f"is missing benchmark {missing[0]!r}"
            )
        mean = sum(per_benchmark[b] for b in wanted) / len(wanted)
        cfg = PtqConfig(
            n_params=n_params, w_base=w_base, c_b=c_b, g=g, b_z=0 if symmetric else None
        )
        observations.append(Observation(config=cfg, task=scope, accuracy=mean))
    return observations


def outcome(function, *args):
    try:
        return function(*args)
    except ValidationError as exc:
        return type(exc), str(exc)


@st.composite
def random_datasets(draw):
    configs = draw(
        st.lists(
            st.tuples(
                st.sampled_from(("opt", "llama")),
                st.sampled_from((125e6, 1.3e9, 6.7e9, 1000.5)),
                st.integers(1, 8),
                st.sampled_from((2, 8, 128)),
                st.sampled_from((1, 32, 128)),
            ),
            min_size=1,
            max_size=10,
            unique=True,
        )
    )
    names = draw(st.lists(st.sampled_from(SIX), min_size=1, max_size=6, unique=True))
    records = [
        ExperimentRecord(family, n, w, cb, g, name, CATEGORY[name], draw(st.floats(0.0, 1.0)))
        for family, n, w, cb, g in configs
        for name in names
        if draw(st.integers(0, 24))  # now and then a configuration misses a benchmark
    ]
    if not records:
        records = [ExperimentRecord(*configs[0], names[0], CATEGORY[names[0]], 0.5)]
    return ExperimentDataset(tuple(draw(st.permutations(records))))


class TestAggregateMatchesReference:
    @settings(max_examples=200, deadline=None)
    @given(
        ds=random_datasets(),
        calls=st.lists(
            st.tuples(
                st.sampled_from(SCOPES),
                st.none() | st.lists(st.sampled_from(SIX), max_size=7),
                st.booleans(),
            ),
            min_size=1,
            max_size=6,
        ),
    )
    def test_same_observations_as_per_call_grouping(self, ds, calls):
        # Repeated calls on one dataset read its cached grouping; each must
        # equal a fresh per-call grouping: configs, order and accuracies.
        for scope, benchmarks, symmetric in calls:
            expected = outcome(reference_aggregate, ds, scope, benchmarks, symmetric)
            actual = outcome(aggregate, ds, scope, benchmarks, symmetric)
            assert actual == expected
            if isinstance(expected, list):
                assert [o.config for o in actual] == [o.config for o in expected]
                assert [o.accuracy for o in actual] == [o.accuracy for o in expected]


class TestGenerateSynthetic:
    def test_zero_noise_equals_predict(self, registry, opt_grid):
        params = registry.get("opt-general")
        ds = generate_synthetic(params, opt_grid, noise_sigma=0.0, seed=9)
        for r in ds.records[:50]:
            cfg = PtqConfig(n_params=r.n_params, w_base=r.w_base, c_b=r.c_b, g=r.g)
            assert r.accuracy == predict(params, cfg)

    def test_same_seed_is_byte_identical(self, registry, opt_grid):
        params = registry.get("opt-general")
        a = generate_synthetic(params, opt_grid, noise_sigma=0.04, seed=42)
        b = generate_synthetic(params, opt_grid, noise_sigma=0.04, seed=42)
        assert dataset_to_csv(a) == dataset_to_csv(b)
        assert dataset_to_jsonl(a) == dataset_to_jsonl(b)
        c = generate_synthetic(params, opt_grid, noise_sigma=0.04, seed=43)
        assert dataset_to_csv(c) != dataset_to_csv(a)

    def test_opt_grid_emits_384_configs(self, registry, opt_grid):
        ds = generate_synthetic(registry.get("opt-general"), opt_grid, seed=0)
        assert len({r.config_key for r in ds.records}) == 384
        assert len(ds) == 384 * 6

    def test_clamp_counting(self, registry, opt_grid):
        ds = generate_synthetic(
            registry.get("opt-general"), opt_grid, noise_sigma=0.5, seed=2
        )
        clamped = ds.provenance["clamped_rows"]
        boundary = sum(1 for r in ds.records if r.accuracy in (0.0, 1.0))
        assert clamped == boundary > 0

    def test_negative_sigma_rejected(self, registry, opt_grid):
        with pytest.raises(ValidationError):
            generate_synthetic(registry.get("opt-general"), opt_grid, noise_sigma=-0.1)

    @pytest.mark.parametrize("sigma", [math.nan, math.inf])
    def test_non_finite_sigma_rejected(self, registry, opt_grid, sigma):
        with pytest.raises(ValidationError, match="noise_sigma"):
            generate_synthetic(registry.get("opt-general"), opt_grid, noise_sigma=sigma)

    def test_unknown_benchmark_needs_category(self, registry, opt_grid):
        with pytest.raises(ValidationError, match="category"):
            generate_synthetic(
                registry.get("opt-general"), opt_grid, benchmarks=("mmlu",)
            )
        ds = generate_synthetic(
            registry.get("opt-general"),
            opt_grid,
            benchmarks=("mmlu",),
            categories={"mmlu": "utilization"},
        )
        assert ds.records[0].benchmark == "mmlu"

    def test_generate_aggregate_fit_closes(self, registry, opt_grid):
        from ptqlaw import ALL_FACTORS, FitProblem, fit_nls

        truth = registry.get("opt-general")
        ds = generate_synthetic(truth, opt_grid, noise_sigma=0.0, seed=5)
        observations = aggregate(ds, "general")
        result = fit_nls(FitProblem(tuple(observations), ALL_FACTORS))
        for factor in ALL_FACTORS:
            assert abs(result.params.exponent(factor) - truth.exponent(factor)) <= 1e-6
        assert result.r_squared >= 1 - 1e-9
