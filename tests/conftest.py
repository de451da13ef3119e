import ctypes
import glob
from pathlib import Path

import numpy as np
import pytest

from quantplan import TrainConfig, WallEnvConfig, gen_dataset, train_world_model


def openblas_core() -> str:
    """The kernel core numpy's bundled OpenBLAS picked at run time (say `SkylakeX`),
    or `unknown` when the library or its symbol is missing."""
    for path in glob.glob(str(Path(np.__file__).parent.parent / "numpy.libs"
                              / "libscipy_openblas64_*.so")):
        corename = getattr(ctypes.CDLL(path), "scipy_openblas_get_corename64_", None)
        if corename is not None:
            corename.restype = ctypes.c_char_p
            return corename().decode()
    return "unknown"


def pytest_report_header(config):
    # several tests assert bit-equalities that hold only on some cores (see README)
    return f"numpy {np.__version__}, OpenBLAS core {openblas_core()}"


@pytest.fixture(scope="session")
def env_cfg():
    return WallEnvConfig()


@pytest.fixture(scope="session")
def dataset(env_cfg):
    return gen_dataset(200, 10, 0, env_cfg)


@pytest.fixture(scope="session")
def trained_model(dataset):
    return train_world_model(dataset, TrainConfig(epochs=60))


@pytest.fixture
def rng():
    return np.random.default_rng(1234)
