"""Unit tests for the dataset registry and the closed-form input-pipeline
model."""

import pytest

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
