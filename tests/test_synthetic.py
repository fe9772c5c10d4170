"""The bundled desk dataset must be reproducible from its generator."""

from __future__ import annotations

import filecmp
import warnings

import numpy as np
import pytest

from nodepower import synthetic
from nodepower.data import desk_dir
from nodepower.flops import FlopsMismatchWarning
from nodepower.ingest import load_workload_config, parse_trace_file, with_compute
from nodepower.reference import REFERENCE_WORKLOADS


@pytest.fixture(scope="module")
def regenerated(tmp_path_factory):
    dest = tmp_path_factory.mktemp("desk-regen")
    return synthetic.generate(dest)


class TestRegeneration:
    def test_bundled_dataset_matches_generator_byte_for_byte(
        self, regenerated
    ):
        bundled = desk_dir()
        names = sorted(p.name for p in bundled.iterdir() if p.is_file())
        regen_names = sorted(
            p.name for p in regenerated.root.iterdir() if p.is_file()
        )
        assert regen_names == names
        for name in names:
            assert (regenerated.root / name).read_bytes() == (
                bundled / name
            ).read_bytes(), f"{name} drifted from the generator"
        match, mismatch, errors = filecmp.cmpfiles(
            regenerated.root / "traces",
            bundled / "traces",
            [p.name for p in (bundled / "traces").iterdir()],
            shallow=False,
        )
        assert not mismatch and not errors

    def test_other_seeds_differ(self, tmp_path, regenerated):
        other = synthetic.generate(tmp_path / "alt", seed=7)
        a = (regenerated.root / "traces" / "smc-gpt3-175b-64.csv").read_bytes()
        b = (other.root / "traces" / "smc-gpt3-175b-64.csv").read_bytes()
        assert a != b

    def test_row_budget(self, regenerated):
        assert regenerated.trace_rows == 7450
        assert regenerated.workloads == 9
        assert regenerated.seed == synthetic.DEFAULT_SEED


class TestTraceShape:
    @pytest.mark.parametrize(
        "workload_id,interval",
        [("smc-gpt3-175b-64", 2.0), ("bnl-llama-13b-1", 300.0)],
    )
    def test_cadence_matches_source_logger(self, workload_id, interval):
        traces = parse_trace_file(
            desk_dir() / "traces" / f"{workload_id}.csv", workload_id
        )
        for trace in traces:
            assert np.allclose(np.diff(trace.elapsed_s), interval)

    def test_samples_respect_published_ceiling(self):
        by_id = {w.workload_id: w for w in REFERENCE_WORKLOADS}
        for row in REFERENCE_WORKLOADS:
            traces = parse_trace_file(
                desk_dir() / "traces" / f"{row.workload_id}.csv",
                row.workload_id,
            )
            assert len(traces) == row.nodes
            values = np.concatenate([t.power_kw for t in traces])
            assert values.min() > 0
            assert values.max() <= by_id[row.workload_id].p_max_kw + 1e-9

    def test_node_count_floor(self):
        # even the one-node BNL runs get at least three samples per node
        traces = parse_trace_file(
            desk_dir() / "traces" / "bnl-resnet-2-1.csv", "bnl-resnet-2-1"
        )
        assert all(
            t.power_kw.size >= synthetic.MIN_SAMPLES_PER_NODE for t in traces
        )
        assert all(
            t.power_kw.size <= synthetic.MAX_SAMPLES_PER_NODE for t in traces
        )


class TestConfigs:
    def test_every_config_parses_and_derives_compute(self):
        for row in REFERENCE_WORKLOADS:
            path = desk_dir() / f"{row.workload_id}.ini"
            with warnings.catch_warnings():
                warnings.simplefilter("error")
                if row.workload_id == "bnl-llama-13b-1":
                    # the published summary rounds total flops two orders
                    # away from the per-step arithmetic; the loader says so
                    warnings.simplefilter(
                        "always", FlopsMismatchWarning
                    )
                    with warnings.catch_warnings(record=True) as caught:
                        warnings.simplefilter("always")
                        with_compute(load_workload_config(path))
                    assert any(
                        issubclass(w.category, FlopsMismatchWarning)
                        for w in caught
                    )
                else:
                    with_compute(load_workload_config(path))
