"""The repository's pytest settings: a failing property test is reported
as one failure, and the tests after it still run."""

from pathlib import Path

pytest_plugins = ["pytester"]

ROOT = Path(__file__).resolve().parent.parent


def test_a_failing_property_test_does_not_stop_the_session(pytester):
    # Hypothesis's failure report once tripped error::DeprecationWarning,
    # which stopped the session with an INTERNALERROR.
    pytester.makepyfile(test_property="""
        from hypothesis import given, strategies as st

        @given(st.integers())
        def test_fails(x):
            assert x < 5

        def test_passes():
            pass
    """)
    result = pytester.runpytest_subprocess("-c", str(ROOT / "pyproject.toml"), "--rootdir",
                                           str(pytester.path), "-p", "no:cacheprovider",
                                           "test_property.py")
    assert "INTERNALERROR" not in result.stdout.str() + result.stderr.str()
    result.assert_outcomes(failed=1, passed=1)
