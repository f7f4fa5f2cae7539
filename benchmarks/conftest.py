"""Benchmark fixtures: pre-built graphs so setup cost stays out of timings."""
import pytest

from repro.graphs.datasets import load


@pytest.fixture(scope="session")
def rnpa():
    return load("rnPA")


@pytest.fixture(scope="session")
def fbco():
    return load("FBco")


@pytest.fixture(scope="session")
def cahe():
    return load("caHe")


@pytest.fixture(scope="session")
def amzn():
    return load("amzn")


@pytest.fixture(scope="session")
def hyves():
    return load("hyves")
