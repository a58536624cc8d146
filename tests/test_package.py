"""The package's public namespace."""

import theta_selftest


def test_every_exported_name_resolves():
    missing = [name for name in theta_selftest.__all__ if not hasattr(theta_selftest, name)]
    assert missing == []
    assert len(set(theta_selftest.__all__)) == len(theta_selftest.__all__)


def test_star_import():
    namespace: dict = {}
    exec("from theta_selftest import *", namespace)
    assert set(theta_selftest.__all__) <= set(namespace)
