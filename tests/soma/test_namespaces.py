"""Unit tests for the SOMA namespace registry."""

from repro.soma.namespaces import (
    ALL_NAMESPACES,
    APPLICATION,
    HARDWARE,
    PERFORMANCE,
    WORKFLOW,
)


class TestNamespaceConstants:
    def test_four_namespaces_as_in_the_paper(self):
        assert len(ALL_NAMESPACES) == 4
        assert set(ALL_NAMESPACES) == {
            WORKFLOW,
            HARDWARE,
            PERFORMANCE,
            APPLICATION,
        }

    def test_names_are_distinct_lowercase_identifiers(self):
        assert len(set(ALL_NAMESPACES)) == len(ALL_NAMESPACES)
        for name in ALL_NAMESPACES:
            assert name == name.lower()
            assert name.isidentifier()

