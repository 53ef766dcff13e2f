"""The package's public surface."""
import dgbr


def test_every_exported_name_resolves():
    assert [name for name in dgbr.__all__ if not hasattr(dgbr, name)] == []
    assert len(set(dgbr.__all__)) == len(dgbr.__all__)
    namespace: dict = {}
    exec("from dgbr import *", namespace)
    assert set(dgbr.__all__) <= set(namespace)
