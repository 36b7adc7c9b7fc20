"""Setup shim enabling legacy editable installs on environments without the
``wheel`` package.  The library itself is stdlib-only; the ``fast`` extra
pulls in numpy for the vectorized evaluation path (``pip install
repro[fast]``), which the engine auto-detects and the scalar models back
up bit-for-bit when it is absent."""

from setuptools import setup

setup(
    extras_require={"fast": ["numpy"]},
)
