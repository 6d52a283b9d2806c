import numpy as np
import pytest

from taperfwm import run_source, table1_config

FAST_NUMERICS = {"n_t": 64, "n_z": 100}


@pytest.fixture(scope="session")
def fast_cfg():
    return table1_config(numerics=FAST_NUMERICS)


@pytest.fixture(scope="session")
def fast_run(fast_cfg):
    return run_source(fast_cfg, snapshots=16)


@pytest.fixture(scope="session")
def rng():
    return np.random.default_rng(20260826)
