"""repro — a reproduction of MDCC: Multi-Data Center Consistency (EuroSys'13).

The package implements the full MDCC stack from scratch:

* :mod:`repro.sim` — deterministic discrete-event simulation of the 5-DC WAN.
* :mod:`repro.storage` — versioned record store with value constraints.
* :mod:`repro.paxos` — Classic, Multi, Fast and Generalized Paxos building
  blocks (ballots, quorums, cstructs, collision recovery).
* :mod:`repro.core` — the MDCC commit protocol itself (options, coordinator,
  acceptors, master recovery, quorum demarcation, fast/classic policy).
* :mod:`repro.protocols` — the paper's baselines: 2PC, quorum writes
  (QW-3/QW-4) and Megastore*.
* :mod:`repro.db` — the deployment spec, cluster assembly and the
  stateless DB library clients.
* :mod:`repro.workloads` — TPC-W, the micro-benchmark and geoshift.
* :mod:`repro.bench` — the one run driver and result reporting.
* :mod:`repro.api` — typed specs: the canonical way to describe a run.
"""

__version__ = "1.0.0"

from repro.core.config import MDCCConfig, ProtocolVariant
from repro.db.client import Transaction
from repro.db.cluster import PROTOCOLS, Cluster, ClusterSpec, build_cluster
from repro.storage.schema import Constraint, TableSchema

__all__ = [
    "Cluster",
    "ClusterSpec",
    "Constraint",
    "MDCCConfig",
    "PROTOCOLS",
    "ProtocolVariant",
    "TableSchema",
    "Transaction",
    "build_cluster",
]
