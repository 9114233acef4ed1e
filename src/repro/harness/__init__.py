"""Experiment harness: cluster assembly, the rig, figures, gates, tables."""

from .zeus_cluster import ZeusCluster, ZeusHandle

__all__ = ["ZeusCluster", "ZeusHandle"]
