"""The series kernels the package computes with.

``impl`` is the kernel module ``pdisk._kernels_py``; ``series`` calls the
kernels through it, and BACKEND names the implementation.
"""

from __future__ import annotations

from pdisk import _kernels_py as impl

BACKEND: str = impl.BACKEND
