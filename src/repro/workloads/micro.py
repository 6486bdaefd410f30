"""The §5.3 micro-benchmark.

"The data for the micro-benchmark is a single table of items, with
randomly chosen stock values and a constraint on the stock attribute that
it has to be at least 0.  The benchmark defines a simple buy transaction,
that chooses 3 random items uniformly, and for each item, decrements the
stock value by an amount between 1 and 3 (a commutative operation).
Unless stated otherwise, we use 100 geo-distributed clients, and a
pre-populated product table with 10,000 items sharded on 2 storage nodes
per data center."

Two knobs reproduce the sensitivity studies:

* **hot-spot size** (§5.3.2 / Figure 6): accesses go to a hot-spot of the
  given fraction of the table with probability 0.9;
* **master locality** (§5.3.3 / Figure 7): a given percentage of
  transactions picks only items whose master is in the client's own data
  center.
"""

from __future__ import annotations

from typing import Dict, Generator, List, Optional, Tuple

from repro.core.options import RecordId
from repro.storage.schema import Constraint, TableSchema
from repro.workloads.base import Workload, register_workload

__all__ = ["MicroBenchmark"]

ITEMS_TABLE = "items"


@register_workload
class MicroBenchmark(Workload):
    """Builder + transaction factory for the micro-benchmark."""

    name = "micro"
    summary = "§5.3 buy transaction; --hotspot / --locality knobs"
    table = ITEMS_TABLE
    spec_knobs = ("hotspot_fraction", "locality")

    def __init__(
        self,
        num_items: int = 10_000,
        items_per_tx: int = 3,
        min_delta: int = 1,
        max_delta: int = 3,
        min_stock: int = 10,
        max_stock: int = 30,
        hotspot_fraction: Optional[float] = None,
        hotspot_probability: float = 0.9,
        locality: Optional[float] = None,
        read_before_buy: bool = True,
    ) -> None:
        if num_items < items_per_tx:
            raise ValueError("need at least items_per_tx items")
        if hotspot_fraction is not None and not 0 < hotspot_fraction <= 1:
            raise ValueError("hotspot_fraction must be in (0, 1]")
        if locality is not None and not 0 <= locality <= 1:
            raise ValueError("locality must be in [0, 1]")
        super().__init__(num_items, min_stock, max_stock)
        self.items_per_tx = items_per_tx
        self.min_delta = min_delta
        self.max_delta = max_delta
        self.hotspot_fraction = hotspot_fraction
        self.hotspot_probability = hotspot_probability
        self.locality = locality
        self.read_before_buy = read_before_buy
        self._keys_by_master_dc: Dict[str, List[str]] = {}

    # ------------------------------------------------------------------
    # Population
    # ------------------------------------------------------------------
    @staticmethod
    def schema() -> TableSchema:
        return TableSchema(
            ITEMS_TABLE, constraints={"stock": Constraint(minimum=0)}
        )

    def stock_plan(self, rng_registry) -> List[Tuple[str, int]]:
        """(key, initial stock) for every item: the ``micro.populate``
        stream of the run's seed, so every process of a deployment that
        shares the seed derives the same table without any data transfer."""
        rng = rng_registry.stream("micro.populate")
        return [
            (key, rng.randint(self.min_stock, self.max_stock)) for key in self._keys
        ]

    def populate(self, cluster) -> None:
        """Register the table, pre-load items, index masters for locality."""
        cluster.register_table(self.schema())
        for key, stock in self.stock_plan(cluster.rng):
            cluster.load_record(ITEMS_TABLE, key, {"stock": stock})
            self.ledger.track(ITEMS_TABLE, key, "stock", stock)
        if self.locality is not None:
            for key in self._keys:
                dc = cluster.placement.master_dc(RecordId(ITEMS_TABLE, key))
                self._keys_by_master_dc.setdefault(dc, []).append(key)

    # ------------------------------------------------------------------
    # Key selection
    # ------------------------------------------------------------------
    def _pick_keys(self, rng, client_dc: str) -> List[str]:
        chosen: List[str] = []
        while len(chosen) < self.items_per_tx:
            key = self._pick_one(rng, client_dc)
            if key not in chosen:
                chosen.append(key)
        return chosen

    def _pick_one(self, rng, client_dc: str) -> str:
        if self.locality is not None and self._keys_by_master_dc:
            local = self._keys_by_master_dc.get(client_dc, [])
            if local and rng.random() < self.locality:
                return rng.choice(local)
            remote_pools = [
                keys
                for dc, keys in self._keys_by_master_dc.items()
                if dc != client_dc and keys
            ]
            pool = rng.choice(remote_pools) if remote_pools else local
            return rng.choice(pool)
        if self.hotspot_fraction is not None:
            hot_count = max(1, int(self.num_items * self.hotspot_fraction))
            if rng.random() < self.hotspot_probability:
                return self._keys[rng.randrange(hot_count)]
            if hot_count < self.num_items:
                return self._keys[rng.randrange(hot_count, self.num_items)]
            return self._keys[rng.randrange(self.num_items)]
        return self._keys[rng.randrange(self.num_items)]

    # ------------------------------------------------------------------
    # The buy transaction
    # ------------------------------------------------------------------
    def transaction(self, cluster):
        """Returns the transaction factory for :class:`ClientPool`."""

        def buy(client, rng) -> Generator:
            keys = self._pick_keys(rng, client.dc)
            amounts = [
                rng.randint(self.min_delta, self.max_delta) for _ in keys
            ]
            tx = cluster.begin(client)
            if self.read_before_buy or not tx.commutative:
                for key in keys:
                    yield tx.read(ITEMS_TABLE, key)
            for key, amount in zip(keys, amounts):
                tx.decrement(ITEMS_TABLE, key, "stock", amount)
            outcome = yield tx.commit()
            if outcome.committed:
                for key, amount in zip(keys, amounts):
                    self.ledger.record_delta(ITEMS_TABLE, key, "stock", -amount)
            return (outcome.committed, True, "buy")

        return buy
