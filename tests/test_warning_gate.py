"""The suite's warning filters: every warning is an error, except one
third-party deprecation that would abort a session with a failing property test."""

import warnings

import pytest

INNER_TESTS = """
from hypothesis import Phase, given, settings, strategies as st


@settings(database=None, derandomize=True, phases=[Phase.generate])
@given(st.integers())
def test_failing_property(n):
    assert n < 0


def test_after_it():
    assert True
"""


def _inner_session(pytester, request, source):
    # the inner session runs under this suite's own filters
    pytester.makeini("[pytest]\nfilterwarnings =\n" + "".join(
        f"    {entry}\n" for entry in request.config.getini("filterwarnings")))
    pytester.makepyfile(source)
    return pytester.runpytest_subprocess("-p", "no:cacheprovider")


def test_failing_property_test_does_not_abort_the_session(pytester, request):
    result = _inner_session(pytester, request, INNER_TESTS)
    result.assert_outcomes(failed=1, passed=1)
    assert "INTERNALERROR" not in result.stdout.str()


def test_other_warnings_stay_errors(request):
    entries = request.config.getini("filterwarnings")
    assert entries[0] == "error"
    assert [e for e in entries[1:] if not e.startswith("ignore:mypy_extensions.TypedDict")] == []
    with pytest.raises(DeprecationWarning):
        warnings.warn("rickerwaves: some deprecated call", DeprecationWarning)
    with pytest.raises(RuntimeWarning):
        warnings.warn("overflow encountered in exp", RuntimeWarning)
