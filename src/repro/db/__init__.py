"""Cluster assembly and the stateless DB library (client side).

* :mod:`repro.db.cluster` — :class:`ClusterSpec`, the one description of
  a deployment of any protocol under test (MDCC variants, Replicated
  Commit, 2PC, quorum writes, Megastore*), and :func:`build_cluster`,
  which deploys one over the simulator.
* :mod:`repro.db.client` — the transaction API used by workloads: read /
  write / delete / delta, then commit.
* :mod:`repro.db.reads` — read strategies of §4.2: local (default), quorum
  (latest), pseudo-master.
* :mod:`repro.db.checkers` — post-simulation consistency auditors.
"""

from repro.db.client import Transaction
from repro.db.cluster import Cluster, ClusterSpec, build_cluster

__all__ = ["Cluster", "ClusterSpec", "Transaction", "build_cluster"]
