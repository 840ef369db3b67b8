"""Distributed-execution simulation (§IV, Conclusion: the paper's stated
next step) as a bulk-synchronous, global-view model: ranks with nested
contexts, row-block containers, and the 1-D distributed operations, with
every collective counted.  Communication volume and equality with
single-node results are the reproduction targets, not wall clock.
"""

from .cluster import (Cluster, CommStats, DistMatrix, DistVector,
                      block_bounds)
from .ops import dist_bfs_levels, dist_mxm, dist_mxv, dist_vxm

__all__ = ["Cluster", "CommStats", "DistMatrix", "DistVector",
           "block_bounds", "dist_bfs_levels", "dist_mxm", "dist_mxv",
           "dist_vxm"]
