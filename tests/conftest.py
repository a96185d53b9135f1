import pytest

import heckepairs as hp

# finitely generated catalog labels (the full BC pair only answers
# pointwise queries and is exercised separately)
FG_LABELS = ["z:1", "z:2", "dinf", "s3-h12", "s4-h12", "s4-h12-34",
             "bcp:2", "sl2z1p:2", "psl2z1p:2"]


@pytest.fixture(scope="session")
def psl2_store_r8():
    """Shared radius-8 ball of the tree pair; several tests need it and it
    is the one expensive enumeration."""
    return hp.enumerate_ball(hp.get_pair("psl2z1p:2"), 8)


@pytest.fixture
def z1_store():
    return hp.enumerate_ball(hp.get_pair("z:1"), 50)


def pytest_report_header(config):
    # pytest.ini's `pythonpath = src` goes ahead of PYTHONPATH, so name the
    # package actually under test
    return f"heckepairs under test: {hp.__file__}"


def pytest_configure(config):
    config.addinivalue_line("markers", "acceptance: acceptance criteria")
