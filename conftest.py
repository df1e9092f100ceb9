"""Test-session setup shared by tests/ and perfbench/.

hypothesis reports a falsified @given test through a hook that imports
hypothesis.extra._patching, and that import raises a DeprecationWarning
from mypy_extensions.  Under filterwarnings = ["error"] (and CI's
-W error) the warning became an INTERNALERROR that ended the session
before the falsifying example was printed.  Importing the module once
here, with that warning ignored, leaves it cached for the hook; every
other warning still fails the run.
"""
import warnings

with warnings.catch_warnings():
    warnings.filterwarnings("ignore", message=".*mypy_extensions", category=DeprecationWarning)
    try:
        import hypothesis.extra._patching  # noqa: F401
    except ImportError:  # a hypothesis without the module has no such hook
        pass
