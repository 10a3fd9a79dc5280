import pytest

# the tests both projection families share are written in a helper module
pytest.register_assert_rewrite("tests.families")
