"""Benchmark fixtures: pre-built graphs so setup cost stays out of timings."""
import pytest

from repro.graphs.datasets import load


@pytest.fixture(scope="session")
def coli():
    return load("coli")


@pytest.fixture(scope="session")
def jazz():
    return load("jazz")


@pytest.fixture(scope="session")
def cele():
    return load("cele")


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
