"""Cluster substrate: nodes, lease-based membership with epochs."""

from .membership import MembershipService, View
from .node import Node

__all__ = ["Node", "MembershipService", "View"]
