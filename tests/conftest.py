"""Keep test runs from writing bytecode caches into the source tree.

A `src/freshblend/__pycache__` makes `import freshblend` fast enough to end
before the benchmark's host probe first ticks, which fails its `quickstart`
set-up, so a checkout that has run the tests must not carry one.  This
conftest is imported before any test module imports the package; the
subprocesses the tests start copy `os.environ` and inherit the setting."""

import os
import sys

sys.dont_write_bytecode = True
os.environ["PYTHONDONTWRITEBYTECODE"] = "1"
