"""The workload abstraction: one base class, one ``run()``, one registry.

The paper's evaluation is only meaningful because every protocol is
driven by the identical client model (§5.1).  :class:`Workload` is that
model as code: a workload contributes a schema + population, a
transaction factory and (optionally) an admission gate; the closed loop
itself — populate, spawn the :class:`~repro.workloads.generator.ClientPool`,
warm up, measure, drain — is :meth:`Workload.run` and exists once.

Workloads are registered by name the way protocols are
(:mod:`repro.protocols.base`): specs, the CLI and the run driver ask
:func:`get_workload` and read class attributes; no layer branches on a
workload name.
"""

from __future__ import annotations

from typing import Callable, ClassVar, Dict, List, Optional, Tuple, Type, TypeVar

from repro.db.checkers import UpdateLedger
from repro.workloads.generator import ClientPool, WorkloadStats

__all__ = ["Workload", "get_workload", "register_workload"]


class Workload:
    """Schema, population and transaction logic of one benchmark.

    Class attributes (the registry's descriptor fields):
        name: the CLI/spec identifier.
        summary: one line for ``repro list``.
        table: the audited table — its stock attribute is what
            :attr:`ledger` tracks and the post-run checkers read.
        spec_knobs: constructor keywords a :class:`~repro.api.ScenarioSpec`
            can set beyond ``num_items`` (``hotspot_fraction``,
            ``locality``, ``phase_ms``).
        pins_preferred_client_dc: place all clients in the protocol's
            :attr:`~repro.protocols.base.Protocol.preferred_client_dc`
            when it names one (§5.2: "we play in favor of Megastore*").
        tracker_halflife_ms: write-origin decay the placement tracker
            should run at under this workload in a fault-free run, or
            ``None`` for the cluster builder's default.

    Every workload audits a table of ``num_items`` items whose stock is
    drawn from ``[min_stock, max_stock]`` at population time; subclasses
    implement :meth:`populate` and :meth:`transaction`.
    """

    name: ClassVar[str]
    summary: ClassVar[str]
    table: ClassVar[str]
    spec_knobs: ClassVar[Tuple[str, ...]] = ()
    pins_preferred_client_dc: ClassVar[bool] = False
    tracker_halflife_ms: ClassVar[Optional[float]] = None

    #: ``admission(client, rng, now)`` gate handed to the client pool.
    admission: Optional[Callable] = None

    def __init__(self, num_items: int, min_stock: int, max_stock: int) -> None:
        self.num_items = num_items
        self.min_stock = min_stock
        self.max_stock = max_stock
        self.ledger = UpdateLedger()
        self._keys = [f"item:{i:06d}" for i in range(num_items)]

    def populate(self, cluster) -> None:
        """Register tables and pre-load records on every replica."""
        raise NotImplementedError

    def transaction(self, cluster) -> Callable:
        """The ``(client, rng)`` transaction factory for the client pool."""
        raise NotImplementedError

    @property
    def keys(self) -> List[str]:
        """Keys of the audited :attr:`table`."""
        return list(self._keys)

    def run(
        self,
        cluster,
        num_clients: int = 100,
        warmup_ms: float = 10_000.0,
        measure_ms: float = 60_000.0,
        client_dcs=None,
    ) -> Tuple[WorkloadStats, ClientPool]:
        """Populate, run the closed loop, let in-flight messages settle."""
        self.populate(cluster)
        pool = ClientPool(
            cluster,
            num_clients=num_clients,
            transaction_factory=self.transaction(cluster),
            client_dcs=client_dcs,
            admission=self.admission,
        )
        stats = pool.run(warmup_ms=warmup_ms, measure_ms=measure_ms)
        pool.drain()
        return stats, pool

    def audit(self, cluster) -> List[str]:
        """Lost-update / phantom-write audit over :attr:`table`.

        Only meaningful for transactional protocols; quorum writes are
        expected to fail it.
        """
        return self.ledger.audit(cluster)


_REGISTRY: Dict[str, Type[Workload]] = {}
_W = TypeVar("_W", bound=Type[Workload])


def register_workload(cls: _W) -> _W:
    """Class decorator: add one workload to the registry."""
    if cls.name in _REGISTRY:
        raise ValueError(f"workload {cls.name!r} already registered")
    _REGISTRY[cls.name] = cls
    return cls


def get_workload(name: str) -> Type[Workload]:
    """The workload class for ``name``; raises the canonical unknown error."""
    try:
        return _REGISTRY[name]
    except KeyError:
        raise ValueError(
            f"unknown workload {name!r}; choose from {', '.join(_REGISTRY)}"
        ) from None
