"""Test-session set-up shared by every test module."""

import warnings

# When a property test fails, hypothesis's pytest plugin imports
# hypothesis.extra._patching to suggest a patch.  That module imports libcst,
# whose use of mypy_extensions.TypedDict raises a DeprecationWarning; under
# `-W error` the report of the failing example would become an INTERNALERROR.
# Import it once here, with that one warning ignored inside the import only,
# so a failure prints its falsifying example.  Without libcst the plugin
# never imports it.
with warnings.catch_warnings():
    warnings.simplefilter("ignore", DeprecationWarning)
    try:
        import hypothesis.extra._patching  # noqa: F401
    except ImportError:
        pass
