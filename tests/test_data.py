"""Unit tests for the dataset registry, the synthetic generators and the
closed-form input-pipeline model."""

import numpy as np
import pytest

from repro.data.base import DatasetSpec
from repro.data.pipeline import DataPipelineModel
from repro.data.registry import dataset_catalog, get_dataset
from repro.frameworks.registry import CNTK, MXNET, TENSORFLOW
from repro.observability import telemetry


class TestRegistry:
    def test_six_datasets(self):
        assert len(dataset_catalog()) == 6  # Table 3

    def test_table3_values(self):
        imagenet = get_dataset("imagenet1k")
        assert imagenet.num_samples == 1_200_000
        iwslt = get_dataset("iwslt15")
        assert iwslt.num_samples == 133_000
        assert "17188" in iwslt.special
        voc = get_dataset("voc2007")
        assert voc.num_samples == 5011
        assert "12608" in voc.special

    def test_variable_length_marked(self):
        assert get_dataset("iwslt15").variable_length
        assert get_dataset("librispeech").variable_length
        assert not get_dataset("imagenet1k").variable_length

    def test_unknown_dataset(self):
        with pytest.raises(KeyError):
            get_dataset("mnist")


class TestGenerators:
    @pytest.mark.parametrize("key", sorted(dataset_catalog()))
    def test_every_dataset_synthesizes(self, key):
        batch = get_dataset(key).synthesize(4, seed=1)
        assert batch.batch_size == 4
        assert np.isfinite(batch.inputs).all()

    def test_deterministic_by_seed(self):
        a = get_dataset("imagenet1k").synthesize(2, seed=7)
        b = get_dataset("imagenet1k").synthesize(2, seed=7)
        assert np.array_equal(a.inputs, b.inputs)
        assert np.array_equal(a.targets, b.targets)

    def test_different_seeds_differ(self):
        a = get_dataset("imagenet1k").synthesize(2, seed=1)
        b = get_dataset("imagenet1k").synthesize(2, seed=2)
        assert not np.array_equal(a.inputs, b.inputs)

    def test_image_labels_in_range(self):
        batch = get_dataset("imagenet1k").synthesize(16, seed=0)
        assert batch.targets.min() >= 0
        assert batch.targets.max() < 1000

    def test_translation_targets_derived_from_source(self):
        batch = get_dataset("iwslt15").synthesize(4, seed=3)
        expected = (batch.inputs[:, ::-1] + 1) % 17188
        assert np.array_equal(batch.targets, expected)

    def test_speech_geometry(self):
        batch = get_dataset("librispeech").synthesize(2, seed=0)
        assert batch.inputs.shape == (2, 1, 161, 1280)

    def test_atari_geometry(self):
        batch = get_dataset("atari2600").synthesize(3, seed=0)
        assert batch.inputs.shape == (3, 4, 84, 84)
        assert batch.targets.max() < 6

    def test_bad_batch_size(self):
        with pytest.raises(ValueError):
            get_dataset("imagenet1k").synthesize(0)

    def test_missing_generator(self):
        spec = DatasetSpec(
            key="x",
            name="x",
            num_samples=1,
            sample_shape=(1,),
            size_description="",
            special="",
            cpu_decode_cost_s=0.0,
            sample_host_bytes=4,
        )
        with pytest.raises(NotImplementedError):
            spec.synthesize(1)


class TestPipelineModel:
    def test_cost_scales_with_batch(self):
        pipeline = DataPipelineModel(get_dataset("imagenet1k"))
        small = pipeline.cost(8, TENSORFLOW)
        large = pipeline.cost(32, TENSORFLOW)
        assert large.cpu_core_seconds == pytest.approx(4 * small.cpu_core_seconds)

    def test_cntk_pipeline_nearly_free(self):
        pipeline = DataPipelineModel(get_dataset("imagenet1k"))
        cntk = pipeline.cost(32, CNTK)
        mxnet = pipeline.cost(32, MXNET)
        assert cntk.cpu_core_seconds < 0.05 * mxnet.cpu_core_seconds

    def test_exposure_smaller_than_wall(self):
        pipeline = DataPipelineModel(get_dataset("imagenet1k"))
        cost = pipeline.cost(32, TENSORFLOW)
        assert 0 <= cost.exposed_seconds < cost.wall_seconds

    def test_validation(self):
        pipeline = DataPipelineModel(get_dataset("imagenet1k"))
        with pytest.raises(ValueError):
            pipeline.cost(0, TENSORFLOW)
        with pytest.raises(ValueError):
            DataPipelineModel(get_dataset("imagenet1k"), worker_threads=0)

    @pytest.mark.parametrize("key", sorted(dataset_catalog()))
    def test_closed_form(self, key):
        """Core-seconds are batch x decode cost x framework factor, spread
        over the worker pool; the unoverlapped share is exposed."""
        dataset = get_dataset(key)
        pipeline = DataPipelineModel(dataset, worker_threads=3)
        for framework in (TENSORFLOW, MXNET, CNTK):
            cost = pipeline.cost(16, framework)
            core = 16 * dataset.cpu_decode_cost_s * framework.pipeline_cost_factor
            assert cost.cpu_core_seconds == core
            assert cost.wall_seconds == core / 3
            assert cost.exposed_seconds == (core / 3) * (
                1.0 - framework.data_pipeline_efficiency
            )

    def test_more_workers_shorten_wall_not_work(self):
        dataset = get_dataset("imagenet1k")
        one = DataPipelineModel(dataset, worker_threads=1).cost(32, MXNET)
        four = DataPipelineModel(dataset, worker_threads=4).cost(32, MXNET)
        assert four.cpu_core_seconds == one.cpu_core_seconds
        assert four.wall_seconds == pytest.approx(one.wall_seconds / 4)
        assert four.exposed_seconds == pytest.approx(one.exposed_seconds / 4)

    def test_decode_bound_datasets_cost_more(self):
        """Speech spectrograms and detection images decode slower per
        sample than translation sentences."""
        per_sample = {
            key: DataPipelineModel(get_dataset(key)).cost(1, MXNET).cpu_core_seconds
            for key in ("librispeech", "voc2007", "iwslt15")
        }
        assert per_sample["librispeech"] > per_sample["voc2007"] > per_sample["iwslt15"]

    def test_span_and_counters_record_the_cost(self):
        pipeline = DataPipelineModel(get_dataset("imagenet1k"), worker_threads=2)
        with telemetry() as run:
            first = pipeline.cost(8, TENSORFLOW)
            second = pipeline.cost(24, TENSORFLOW)
        spans = run.tracer.roots
        assert [span.name for span in spans] == ["data.pipeline"] * 2
        assert spans[0].attributes["dataset"] == "imagenet1k"
        assert spans[0].attributes["batch_size"] == 8
        assert spans[0].attributes["workers"] == 2
        assert spans[1].attributes["cpu_core_seconds"] == second.cpu_core_seconds
        assert spans[1].attributes["exposed_seconds"] == second.exposed_seconds
        snap = run.metrics.snapshot()
        assert snap["pipeline_samples_decoded_total"] == 32
        assert snap["pipeline_cpu_core_seconds_total"] == pytest.approx(
            first.cpu_core_seconds + second.cpu_core_seconds
        )
        assert snap["pipeline_exposed_seconds_total"] == pytest.approx(
            first.exposed_seconds + second.exposed_seconds
        )
