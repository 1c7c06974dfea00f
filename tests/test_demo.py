"""The public surface: every exported name resolves.

The worked solver examples are the ``solve-*`` fixtures, replayed by
``tests/test_fixtures.py``.
"""

import fqlin
import fqlin.solvers
import fqlin.textio


def test_exported_names_resolve():
    # a name deleted from a module but left in its __all__ breaks only
    # ``from ... import *``, which nothing else here runs
    for module in (fqlin, fqlin.solvers, fqlin.textio):
        missing = [name for name in module.__all__ if not hasattr(module, name)]
        assert missing == [], f"{module.__name__}.__all__ names missing {missing}"
