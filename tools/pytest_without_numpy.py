#!/usr/bin/env python3
"""Run pytest as if numpy were not installed.

Gates the stdlib-only install: without numpy, ``repro.batch.run_fleet``
runs every cell through serial ``simulate``, and the fleet suites must
pass that way too (numpy-only tests skip).  numpy is made unimportable
by a meta-path finder rather than by ``sys.modules['numpy'] = None``,
because hypothesis dereferences any ``numpy`` entry it finds in
``sys.modules``.  Arguments go to pytest unchanged::

    PYTHONPATH=src python tools/pytest_without_numpy.py -x -q tests/test_batch.py
"""

from __future__ import annotations

import importlib.abc
import sys


class _BlockNumpy(importlib.abc.MetaPathFinder):
    """Fail every import of numpy or one of its submodules."""

    def find_spec(self, name, path=None, target=None):
        if name.partition(".")[0] == "numpy":
            raise ModuleNotFoundError(f"No module named {name!r}", name=name)
        return None


def main(argv) -> int:
    if "numpy" in sys.modules:
        raise SystemExit("numpy was imported before it could be blocked")
    sys.meta_path.insert(0, _BlockNumpy())
    import pytest

    return pytest.main(argv)


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
