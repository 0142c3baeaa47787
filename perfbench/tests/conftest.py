import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
sys.path[:0] = [str(HERE.parents[1] / "src"), str(HERE.parent)]


@pytest.fixture(scope="session", autouse=True)
def remove_empty_work_dir():
    """Tests put scratch files under run.WORK_BASE; drop it when it is empty."""
    yield
    import run

    try:
        run.WORK_BASE.rmdir()
    except OSError:
        pass  # not empty: a benchmark run is using it
