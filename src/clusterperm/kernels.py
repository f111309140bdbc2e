"""Kernel selection: compiled extension when available, pure Python otherwise.

The linear-extension count always runs the pure downset DP, which visits only
the reachable downsets where the compiled kernel walks all 2^n subsets.

Set CLUSTERPERM_PURE_PYTHON=1 to force the fallback (used by the benchmark
and by tests that exercise both paths).
"""

from __future__ import annotations

import os

from . import _kernels_py

if os.environ.get("CLUSTERPERM_PURE_PYTHON") == "1":
    _compiled = None
else:
    try:
        from . import _kernels as _compiled  # type: ignore[attr-defined]
    except ImportError:
        _compiled = None

BACKEND = "compiled" if _compiled is not None else "pure"


def count_distribution(n: int, patterns) -> dict[int, int]:
    """Occurrence-count distribution over S_n for a list of patterns."""
    patterns = [tuple(p) for p in patterns]
    if _compiled is not None and 1 <= n <= 12:
        return _compiled.count_distribution(n, patterns)
    return _kernels_py.count_distribution(n, patterns)


def count_linear_extensions(n: int, less_masks) -> int:
    """Linear extensions of the strict order given by predecessor bitmasks.

    Always the pure downset DP (see the module docstring)."""
    return _kernels_py.count_linear_extensions(n, list(less_masks))
