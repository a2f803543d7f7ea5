"""Unit tests for the Cumulon cost model."""

import pytest

from repro.cloud.instances import get_instance_type
from repro.core.benchmarking import (
    REFERENCE_COEFFICIENTS,
    HardwareCoefficients,
    fit_local_coefficients,
    measure_elementwise_rate,
    measure_matmul_rate,
)
from repro.core.costmodel import CostModelConfig, CumulonCostModel
from repro.errors import ValidationError
from repro.hadoop.job import Job, JobKind
from repro.hadoop.task import TaskWork, make_map_task, make_reduce_task


def task(bytes_read=0, bytes_written=0, flops=0, element_ops=0,
         memory_bytes=0):
    return make_map_task("t", TaskWork(
        bytes_read=bytes_read, bytes_written=bytes_written, flops=flops,
        element_ops=element_ops, memory_bytes=memory_bytes))


@pytest.fixture
def model():
    return CumulonCostModel()


@pytest.fixture
def instance():
    return get_instance_type("m1.large")


class TestTaskDuration:
    def test_positive(self, model, instance):
        assert model.task_duration(task(), instance, 1, True) > 0

    def test_monotone_in_bytes_read(self, model, instance):
        small = model.task_duration(task(bytes_read=10**6), instance, 1, True)
        large = model.task_duration(task(bytes_read=10**8), instance, 1, True)
        assert large > small

    def test_monotone_in_flops(self, model, instance):
        small = model.task_duration(task(flops=10**6), instance, 1, True)
        large = model.task_duration(task(flops=10**9), instance, 1, True)
        assert large > small

    def test_monotone_in_element_ops(self, model, instance):
        small = model.task_duration(task(element_ops=10**6), instance, 1, True)
        large = model.task_duration(task(element_ops=10**9), instance, 1, True)
        assert large > small

    def test_contention_slows_io(self, model, instance):
        alone = model.task_duration(task(bytes_read=10**8), instance, 1, True)
        shared = model.task_duration(task(bytes_read=10**8), instance, 4, True)
        assert shared > alone

    def test_remote_read_no_faster_than_local(self, model, instance):
        local = model.task_duration(task(bytes_read=10**8), instance, 1, True)
        remote = model.task_duration(task(bytes_read=10**8), instance, 1, False)
        assert remote >= local

    def test_remote_read_slower_when_network_is_bottleneck(self, model):
        # m1.small: network (30 MB/s) < disk (60 MB/s).
        small = get_instance_type("m1.small")
        local = model.task_duration(task(bytes_read=10**8), small, 1, True)
        remote = model.task_duration(task(bytes_read=10**8), small, 1, False)
        assert remote > local

    def test_write_amplification_applied(self, model, instance):
        read_only = model.task_duration(task(bytes_read=10**8), instance, 1, True)
        write_only = model.task_duration(task(bytes_written=10**8),
                                         instance, 1, True)
        assert write_only > read_only

    def test_faster_core_speeds_compute(self, model):
        slow = get_instance_type("m1.medium")   # core_speed 1.0
        fast = get_instance_type("c1.medium")   # core_speed 1.25
        work = task(flops=10**10)
        assert model.task_duration(work, fast, 1, True) \
            < model.task_duration(work, slow, 1, True)

    def test_startup_floor(self, instance):
        coeffs = HardwareCoefficients(1e-9, 1e-9, 0.0, 5.0, 0.0, 0.0)
        model = CumulonCostModel(coeffs)
        assert model.task_duration(task(), instance, 1, True) \
            == pytest.approx(5.0)

    def test_invalid_concurrency(self, model, instance):
        with pytest.raises(ValidationError):
            model.task_duration(task(), instance, 0, True)


class TestMemoryPenalty:
    def test_no_penalty_when_fitting(self, instance):
        model = CumulonCostModel()
        fits = int(instance.memory_gb * 1e9 * 0.1)
        base = model.task_duration(task(flops=10**9), instance, 1, True)
        with_memory = model.task_duration(
            task(flops=10**9, memory_bytes=fits), instance, 1, True)
        assert with_memory == pytest.approx(base)

    def test_penalty_when_oversubscribed(self, instance):
        model = CumulonCostModel()
        big = int(instance.memory_gb * 1e9)
        normal = model.task_duration(task(flops=10**9), instance, 2, True)
        pressured = model.task_duration(
            task(flops=10**9, memory_bytes=big), instance, 2, True)
        assert pressured > normal

    def test_penalty_grows_with_concurrency(self, instance):
        model = CumulonCostModel()
        big = int(instance.memory_gb * 1e9 * 0.5)
        work = task(flops=10**9, memory_bytes=big)
        low = model.task_duration(work, instance, 2, True)
        high = model.task_duration(work, instance, 4, True)
        assert high > low

    def test_config_validation(self):
        with pytest.raises(ValidationError):
            CostModelConfig(write_amplification=0.5)
        with pytest.raises(ValidationError):
            CostModelConfig(usable_memory_fraction=0.0)
        with pytest.raises(ValidationError):
            CostModelConfig(memory_penalty_slope=-1.0)


class TestJobOverhead:
    def test_mapreduce_costs_more(self):
        model = CumulonCostModel()
        map_only = Job("a", JobKind.MAP_ONLY, [])
        mapreduce = Job("b", JobKind.MAPREDUCE,
                        [make_map_task("m", TaskWork())],
                        [make_reduce_task("r", TaskWork())])
        assert model.job_overhead(mapreduce) > model.job_overhead(map_only)


class TestBenchmarking:
    def test_reference_coefficients_sane(self):
        assert 0 < REFERENCE_COEFFICIENTS.seconds_per_flop < 1e-6
        assert REFERENCE_COEFFICIENTS.mapreduce_job_overhead \
            > REFERENCE_COEFFICIENTS.map_only_job_overhead

    def test_measured_matmul_rate_positive(self):
        rate = measure_matmul_rate(tile_size=64, repeats=1)
        assert 0 < rate < 1e-6

    def test_measured_elementwise_rate_positive(self):
        rate = measure_elementwise_rate(tile_size=64, repeats=1)
        assert 0 < rate < 1e-5

    def test_fit_local_coefficients(self):
        coeffs = fit_local_coefficients(tile_size=64, repeats=1)
        assert coeffs.task_startup_seconds == 0.0
        assert coeffs.seconds_per_flop > 0

    def test_invalid_benchmark_args(self):
        with pytest.raises(ValidationError):
            measure_matmul_rate(tile_size=0)
        with pytest.raises(ValidationError):
            measure_elementwise_rate(repeats=0)

    def test_coefficients_validation(self):
        with pytest.raises(ValidationError):
            HardwareCoefficients(0.0, 1e-9, 0, 0, 0, 0)
        with pytest.raises(ValidationError):
            HardwareCoefficients(1e-9, 1e-9, 0, -1, 0, 0)
