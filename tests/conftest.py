import os
import sys

import pytest

sys.path.insert(0, os.path.dirname(os.path.dirname(os.path.abspath(__file__))))


@pytest.fixture(scope="session")
def ray_session():
    import ray
    from ray.data import DataContext

    if not ray.is_initialized():
        ray.init(address="local", num_cpus=4, include_dashboard=False,
                 ignore_reinit_error=True, logging_level="ERROR")
    from ml_data_pipeline_ray.context import tune_data_context
    tune_data_context(4)
    yield
    ray.shutdown()


@pytest.fixture(scope="session")
def small_fixture(tmp_path_factory):
    """Deterministic tiny-scale transcripts + changelog on disk."""
    from ml_data_pipeline_ray.fixtures import write_fixture_set

    root = str(tmp_path_factory.mktemp("cdc_tiny"))
    paths = write_fixture_set(root, scale="tiny", seed=42, n_files=8)
    return paths


@pytest.fixture
def ray_data_runs(monkeypatch):
    """A list that grows by one per Ray Data ``StreamingExecutor``
    constructed while the test runs. ``ray.data.from_arrow_refs``, which
    submits a metadata task per block, raises meanwhile."""
    import ray.data as rd
    from ray.data import read_api
    from ray.data._internal.execution import streaming_executor

    made = []
    init = streaming_executor.StreamingExecutor.__init__

    def counting_init(self, *args, **kwargs):
        made.append(1)
        init(self, *args, **kwargs)

    def no_metadata_tasks(*args, **kwargs):
        raise AssertionError("from_arrow_refs runs a metadata task per block")

    monkeypatch.setattr(streaming_executor.StreamingExecutor, "__init__", counting_init)
    monkeypatch.setattr(rd, "from_arrow_refs", no_metadata_tasks)
    monkeypatch.setattr(read_api, "from_arrow_refs", no_metadata_tasks)
    return made
