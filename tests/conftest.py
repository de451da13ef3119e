import numpy as np
import pytest

from quantplan import TrainConfig, WallEnvConfig, gen_dataset, train_world_model


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
