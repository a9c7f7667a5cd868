"""One benchmark operation in a fresh interpreter; see ops.py.

Kept this small so that the set-up interval (spawn until the package and
its CLI are imported) holds almost nothing but the program's own import.
"""

import sys
import time

import catalan_triangles.cli  # noqa: F401

IMPORTED = time.monotonic()

import ops  # noqa: E402

sys.exit(ops.main(IMPORTED))
