import sys

from hgmp.cli import _RECURSION_LIMIT

# Big-step evaluation recurses along term structure; the fuel budget is
# the real bound, this only keeps CPython's limit out of the way. The
# tests run at the CLI's limit.
sys.setrecursionlimit(_RECURSION_LIMIT)
