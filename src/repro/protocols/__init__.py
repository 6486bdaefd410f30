"""The protocol registry and the non-MDCC protocols (§5.2, PAPERS.md).

Shared by all four — the paper's baselines are "implemented ... using the
same distributed store, and accessed by the same clients":

* :mod:`repro.protocols.participant` — the store side: one ``validate``
  (read version, schema, escrow) and one ``apply``; ``StorageRole`` (the
  record store + the ``ReadRequest``/``ReadReply`` handler) and
  ``LockingStorageRole`` (per-record locks, the decided set, a WAL).
* :mod:`repro.protocols.client` — the client side: ``ClientRole`` owns
  single-replica reads, txid allocation, the in-flight table and the
  ``TransactionOutcome``; a protocol writes ``_begin`` and its tally.
* :mod:`repro.protocols.base` — the ``Protocol`` descriptors every other
  layer asks instead of naming a protocol.

What each protocol adds on top:

* :mod:`repro.protocols.twopc` — two-phase commit: prepare/commit rounds
  to **all** replicas, a blocking coordinator.  Participant is
  ``LockingStorageRole`` as is; the coordinator tallies all-or-nothing.
* :mod:`repro.protocols.replicatedcommit` — Replicated Commit: that same
  2PC inside each data center, a Paxos majority vote across them.
  Overrides reads (majority of data centers) and apply (version-guarded,
  with an out-of-order buffer); adds anti-entropy and trace spans.
* :mod:`repro.protocols.megastore` — Megastore*: one entity group whose
  log a single master orders, Paxos-CP batching of non-conflicting
  transactions.  The master calls ``validate`` serially (no locks);
  replicas ``apply`` the log in order.
* :mod:`repro.protocols.quorumwrites` — quorum writes (QW-3 / QW-4): no
  isolation, no atomicity.  Uses neither ``validate`` nor ``apply``: its
  replicas apply on receipt, last writer wins.
"""

__all__ = []
