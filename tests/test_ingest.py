"""Unit tests for text parsing and ingestion planning."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.cloud.instances import ClusterSpec, get_instance_type
from repro.core.costmodel import CumulonCostModel
from repro.core.physical import PhysicalContext
from repro.core.simcost import simulate_program
from repro.errors import ValidationError
from repro.hadoop.job import JobDag
from repro.ingest.loader import ingest_csv, plan_ingest_job
from repro.ingest.parser import (
    TEXT_BYTES_PER_VALUE,
    format_csv_matrix,
    parse_csv_matrix,
)
from repro.matrix.tiled import DenseBacking


class TestParser:
    def test_basic_parse(self):
        text = "1,2,3\n4,5,6\n"
        np.testing.assert_array_equal(parse_csv_matrix(text),
                                      [[1, 2, 3], [4, 5, 6]])

    def test_comments_and_blank_lines_skipped(self):
        text = "# header\n1,2\n\n# mid\n3,4\n"
        np.testing.assert_array_equal(parse_csv_matrix(text),
                                      [[1, 2], [3, 4]])

    def test_scientific_notation_and_negatives(self):
        text = "-1.5e3,0.25\n+2,-0\n"
        parsed = parse_csv_matrix(text)
        assert parsed[0, 0] == -1500.0
        assert parsed[1, 0] == 2.0

    def test_custom_delimiter(self):
        np.testing.assert_array_equal(
            parse_csv_matrix("1\t2\n3\t4\n", delimiter="\t"),
            [[1, 2], [3, 4]])

    def test_ragged_rows_rejected(self):
        with pytest.raises(ValidationError, match="ragged"):
            parse_csv_matrix("1,2\n3,4,5\n")

    def test_bad_value_reports_line(self):
        with pytest.raises(ValidationError, match="line 2"):
            parse_csv_matrix("1,2\n3,oops\n")

    def test_empty_input_rejected(self):
        with pytest.raises(ValidationError, match="no data"):
            parse_csv_matrix("# only comments\n")

    def test_empty_delimiter_rejected(self):
        with pytest.raises(ValidationError):
            parse_csv_matrix("1,2", delimiter="")

    def test_format_roundtrip(self):
        rng = np.random.default_rng(3)
        array = rng.standard_normal((5, 7))
        text = format_csv_matrix(array, precision=12)
        np.testing.assert_allclose(parse_csv_matrix(text), array, rtol=1e-10)


class TestIngestReal:
    def test_csv_to_tiles(self):
        rng = np.random.default_rng(4)
        array = rng.random((13, 9))
        text = format_csv_matrix(array, precision=12)
        backing = DenseBacking()
        matrix = ingest_csv("M", text, tile_size=4, backing=backing)
        np.testing.assert_allclose(matrix.to_numpy(), array, rtol=1e-10)

    def test_ingested_matrix_usable_in_programs(self):
        from repro.core.executor import CumulonExecutor
        from repro.core.program import Program
        rng = np.random.default_rng(5)
        array = rng.random((12, 12))
        backing = DenseBacking()
        ingest_csv("A", format_csv_matrix(array, precision=12), 4, backing)
        program = Program("use")
        a = program.declare_input("A", 12, 12)
        program.assign("S", a @ a)
        program.mark_output("S")
        executor = CumulonExecutor(tile_size=4, backing=backing)
        # Inputs already in the backing: pass them explicitly to satisfy
        # the executor's interface (it overwrites with identical tiles).
        result = executor.run(program, {"A": array})
        np.testing.assert_allclose(result.output("S"), array @ array,
                                   rtol=1e-9)


class TestIngestJob:
    def test_one_task_per_strip(self):
        job, info = plan_ingest_job("load", "X", 4096, 2048,
                                    PhysicalContext(1024))
        assert len(job.map_tasks) == 4
        assert info.shape == (4096, 2048)

    def test_text_read_volume(self):
        job, __ = plan_ingest_job("load", "X", 4096, 2048,
                                  PhysicalContext(1024))
        assert job.total_bytes_read() \
            == 4096 * 2048 * TEXT_BYTES_PER_VALUE

    def test_binary_write_smaller_than_text_read(self):
        job, __ = plan_ingest_job("load", "X", 4096, 2048,
                                  PhysicalContext(1024))
        assert job.total_bytes_written() < job.total_bytes_read()

    def test_simulated_load_scales_with_nodes(self):
        model = CumulonCostModel()
        job, __ = plan_ingest_job("load", "X", 65536, 8192,
                                  PhysicalContext(2048))
        times = {}
        for nodes in (2, 8):
            spec = ClusterSpec(get_instance_type("m1.large"), nodes, 2)
            job_again, __ = plan_ingest_job("load", "X", 65536, 8192,
                                            PhysicalContext(2048))
            times[nodes] = simulate_program(JobDag([job_again]), spec,
                                            model).seconds
        assert times[8] < times[2]

    def test_validation(self):
        with pytest.raises(ValidationError):
            plan_ingest_job("load", "X", 0, 10, PhysicalContext(4))


@given(rows=st.integers(1, 8), cols=st.integers(1, 8),
       seed=st.integers(0, 2**31))
@settings(max_examples=40, deadline=None)
def test_property_csv_roundtrip(rows, cols, seed):
    rng = np.random.default_rng(seed)
    array = rng.standard_normal((rows, cols))
    text = format_csv_matrix(array, precision=15)
    np.testing.assert_allclose(parse_csv_matrix(text), array, rtol=1e-12)
