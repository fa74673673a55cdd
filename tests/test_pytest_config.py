"""The project's pytest settings, run on a small session of their own."""

pytest_plugins = ["pytester"]


def test_a_failing_property_leaves_the_session_running(pytester, pytestconfig):
    # hypothesis imports its patch writer when a property fails; that import
    # warns, and with every warning an error the warning used to end the
    # session before the next test ran
    filters = pytestconfig.getini("filterwarnings")
    assert filters[0] == "error"
    pytester.makeini("[pytest]\nfilterwarnings =\n" + "".join(f"    {f}\n" for f in filters))
    pytester.makepyfile(
        """
        from hypothesis import given, strategies as st

        @given(st.integers())
        def test_fails(n):
            assert n < 5

        def test_passes():
            pass
        """
    )
    result = pytester.runpytest_subprocess("-p", "no:cacheprovider")
    result.assert_outcomes(failed=1, passed=1)
    assert result.ret == 1
