"""TPC-W: the transactional web benchmark of §5.2.

"TPC-W defines a total of 14 web interactions (WI), each of which are web
page requests that issue several database queries. ... We implemented all
the web interactions using our own SQL-like language but forego the HTML
rendering part of the benchmark to focus on the database part. ... we
forego the wait-time between requests and only use the most write-heavy
profile to stress the system."

This module implements the *database part* of all 14 web interactions
against the reproduction's client API:

========================  =====  ========================================
Web interaction           kind   database work
========================  =====  ========================================
Home                      read   customer + promotional items
New Products              read   item list scan (sampled)
Best Sellers              read   item list scan (sampled)
Product Detail            read   one item
Search Request            read   none (form render) — modeled as 1 read
Search Results            read   item sample
Shopping Cart             write  read cart, add/update lines
Customer Registration     write  insert/refresh customer
Buy Request               write  read customer+cart, stamp cart
Buy Confirm               write  decrement stock per line (constraint
                                 stock >= 0), insert order + cc_xact,
                                 clear cart  — the commutative showcase
Order Inquiry             read   customer's latest order
Order Display             read   order + lines
Admin Request             read   one item
Admin Confirm             write  update item price/related (physical)
========================  =====  ========================================

The mix is the TPC-W **ordering** profile (the write-heaviest one) as used
by the paper.  Probabilities follow the TPC-W specification's transition
targets.
"""

from __future__ import annotations

from typing import Dict, Generator, List, Optional, Tuple

from repro.storage.schema import Constraint, TableSchema
from repro.workloads.base import Workload, register_workload

__all__ = ["TPCWBenchmark", "TPCW_MIX"]

#: The TPC-W ordering-mix web interaction frequencies (percent).
TPCW_MIX: Dict[str, float] = {
    "home": 9.12,
    "new_products": 0.46,
    "best_sellers": 0.46,
    "product_detail": 12.35,
    "search_request": 14.53,
    "search_results": 13.08,
    "shopping_cart": 13.53,
    "customer_registration": 12.86,
    "buy_request": 12.73,
    "buy_confirm": 10.18,
    "order_inquiry": 0.25,
    "order_display": 0.22,
    "admin_request": 0.12,
    "admin_confirm": 0.11,
}

WRITE_INTERACTIONS = {
    "shopping_cart",
    "customer_registration",
    "buy_request",
    "buy_confirm",
    "admin_confirm",
}


@register_workload
class TPCWBenchmark(Workload):
    """Schema, population and web-interaction logic for TPC-W."""

    name = "tpcw"
    summary = "TPC-W ordering mix (database part of the web interactions)"
    table = "item"
    pins_preferred_client_dc = True

    def __init__(
        self,
        num_items: int = 10_000,
        cart_items_max: int = 3,
        min_stock: int = 10,
        max_stock: int = 30,
        restock: bool = False,
        mix: Optional[Dict[str, float]] = None,
    ) -> None:
        if num_items < 1:
            raise ValueError("need at least one item")
        super().__init__(num_items, min_stock, max_stock)
        self.num_customers = max(10, num_items // 10)
        self.cart_items_max = cart_items_max
        self.restock = restock
        self.mix = dict(mix or TPCW_MIX)
        total = sum(self.mix.values())
        self._cumulative: List[Tuple[float, str]] = []
        acc = 0.0
        for name, weight in sorted(self.mix.items()):
            acc += weight / total
            self._cumulative.append((acc, name))
        self._customer_keys = [f"cust:{i:06d}" for i in range(self.num_customers)]

    # ------------------------------------------------------------------
    # Schema & population
    # ------------------------------------------------------------------
    @staticmethod
    def schemas() -> List[TableSchema]:
        return [
            TableSchema("item", constraints={"i_stock": Constraint(minimum=0)}),
            TableSchema("customer"),
            TableSchema("cart"),
            TableSchema("orders"),
            TableSchema("cc_xacts"),
        ]

    def populate(self, cluster) -> None:
        for schema in self.schemas():
            cluster.register_table(schema)
        rng = cluster.rng.stream("tpcw.populate")
        for index, key in enumerate(self._keys):
            stock = rng.randint(self.min_stock, self.max_stock)
            cluster.load_record(
                "item",
                key,
                {
                    "i_stock": stock,
                    "i_price": round(rng.uniform(1.0, 100.0), 2),
                    "i_title": f"Title {index}",
                    "i_related": rng.randrange(self.num_items),
                },
            )
            self.ledger.track("item", key, "i_stock", stock)
        for index, key in enumerate(self._customer_keys):
            cluster.load_record(
                "customer",
                key,
                {"c_name": f"Customer {index}", "c_discount": rng.randint(0, 50)},
            )

    # ------------------------------------------------------------------
    # Interaction selection
    # ------------------------------------------------------------------
    def pick_interaction(self, rng) -> str:
        roll = rng.random()
        for cutoff, name in self._cumulative:
            if roll <= cutoff:
                return name
        return self._cumulative[-1][1]

    def random_item(self, rng) -> str:
        return self._keys[rng.randrange(self.num_items)]

    def random_customer(self, rng) -> str:
        return self._customer_keys[rng.randrange(self.num_customers)]

    # ------------------------------------------------------------------
    # The transaction factory
    # ------------------------------------------------------------------
    def transaction(self, cluster):
        """Returns the per-client generator for :class:`ClientPool`."""

        sessions: Dict[str, _Session] = {}

        def web_interaction(client, rng) -> Generator:
            session = sessions.setdefault(client.node_id, _Session(client.node_id))
            name = self.pick_interaction(rng)
            handler = getattr(self, f"_wi_{name}")
            committed, is_write = yield from handler(cluster, client, session, rng)
            return (committed, is_write, name)

        return web_interaction

    # ------------------------------------------------------------------
    # Read-only interactions
    # ------------------------------------------------------------------
    def _wi_home(self, cluster, client, session, rng):
        tx = cluster.begin(client)
        yield tx.read("customer", self.random_customer(rng))
        for _ in range(2):
            yield tx.read("item", self.random_item(rng))
        outcome = yield tx.commit()
        return outcome.committed, False

    def _wi_new_products(self, cluster, client, session, rng):
        tx = cluster.begin(client)
        for _ in range(5):
            yield tx.read("item", self.random_item(rng))
        outcome = yield tx.commit()
        return outcome.committed, False

    def _wi_best_sellers(self, cluster, client, session, rng):
        tx = cluster.begin(client)
        for _ in range(5):
            yield tx.read("item", self.random_item(rng))
        outcome = yield tx.commit()
        return outcome.committed, False

    def _wi_product_detail(self, cluster, client, session, rng):
        tx = cluster.begin(client)
        yield tx.read("item", self.random_item(rng))
        outcome = yield tx.commit()
        return outcome.committed, False

    def _wi_search_request(self, cluster, client, session, rng):
        tx = cluster.begin(client)
        yield tx.read("item", self.random_item(rng))
        outcome = yield tx.commit()
        return outcome.committed, False

    def _wi_search_results(self, cluster, client, session, rng):
        tx = cluster.begin(client)
        for _ in range(3):
            yield tx.read("item", self.random_item(rng))
        outcome = yield tx.commit()
        return outcome.committed, False

    def _wi_order_inquiry(self, cluster, client, session, rng):
        tx = cluster.begin(client)
        yield tx.read("customer", self.random_customer(rng))
        outcome = yield tx.commit()
        return outcome.committed, False

    def _wi_order_display(self, cluster, client, session, rng):
        tx = cluster.begin(client)
        if session.last_order_key is not None:
            yield tx.read("orders", session.last_order_key)
        else:
            yield tx.read("customer", self.random_customer(rng))
        outcome = yield tx.commit()
        return outcome.committed, False

    def _wi_admin_request(self, cluster, client, session, rng):
        tx = cluster.begin(client)
        yield tx.read("item", self.random_item(rng))
        outcome = yield tx.commit()
        return outcome.committed, False

    # ------------------------------------------------------------------
    # Write interactions
    # ------------------------------------------------------------------
    def _wi_shopping_cart(self, cluster, client, session, rng):
        """Add 1-cart_items_max items to the session cart (one record)."""
        tx = cluster.begin(client)
        cart_key = session.cart_key
        reply = yield tx.read("cart", cart_key)
        lines = dict(reply.value["lines"]) if reply.exists else {}
        for _ in range(rng.randint(1, self.cart_items_max)):
            item = self.random_item(rng)
            lines[item] = lines.get(item, 0) + rng.randint(1, 2)
        # Cap the cart at the max item count (drop oldest beyond cap).
        while len(lines) > self.cart_items_max:
            lines.pop(next(iter(lines)))
        tx.write("cart", cart_key, {"lines": lines, "status": "open"})
        outcome = yield tx.commit()
        return outcome.committed, True

    def _wi_customer_registration(self, cluster, client, session, rng):
        tx = cluster.begin(client)
        key = session.next_customer_key()
        tx.insert(
            "customer", key, {"c_name": f"New {key}", "c_discount": rng.randint(0, 50)}
        )
        outcome = yield tx.commit()
        return outcome.committed, True

    def _wi_buy_request(self, cluster, client, session, rng):
        tx = cluster.begin(client)
        yield tx.read("customer", self.random_customer(rng))
        reply = yield tx.read("cart", session.cart_key)
        if not reply.exists:
            outcome = yield tx.commit()  # nothing to stamp: read-only
            return outcome.committed, False
        value = dict(reply.value)
        value["status"] = "pending"
        tx.write("cart", session.cart_key, value)
        outcome = yield tx.commit()
        return outcome.committed, True

    def _wi_buy_confirm(self, cluster, client, session, rng):
        """The product-buy: decrement stock per cart line under the
        stock >= 0 constraint, insert the order, clear the cart."""
        tx = cluster.begin(client)
        cart_reply = yield tx.read("cart", session.cart_key)
        if cart_reply.exists and cart_reply.value.get("lines"):
            lines = dict(cart_reply.value["lines"])
        else:
            # Empty cart: buy a single random item (keeps the write mix).
            lines = {self.random_item(rng): rng.randint(1, 2)}
        # Read items (needed by non-commutative protocols for the RMW).
        for item_key in lines:
            yield tx.read("item", item_key)
        if not tx.commutative:
            # Client-side sanity: obviously-unavailable stock aborts early.
            for item_key, qty in lines.items():
                observed = tx.observed_value("item", item_key)
                if observed is None or observed.get("i_stock", 0) < qty:
                    outcome = yield tx.commit()  # commit as read-only
                    return False, True
        for item_key, qty in lines.items():
            tx.decrement("item", item_key, "i_stock", qty)
        order_key = session.next_order_key()
        tx.insert(
            "orders",
            order_key,
            {"lines": dict(lines), "status": "committed"},
        )
        tx.insert("cc_xacts", order_key, {"amount": sum(lines.values())})
        if cart_reply.exists:
            tx.write("cart", session.cart_key, {"lines": {}, "status": "empty"})
        outcome = yield tx.commit()
        if outcome.committed:
            session.last_order_key = order_key
            for item_key, qty in lines.items():
                self.ledger.record_delta("item", item_key, "i_stock", -qty)
        return outcome.committed, True

    def _wi_admin_confirm(self, cluster, client, session, rng):
        tx = cluster.begin(client)
        item_key = self.random_item(rng)
        reply = yield tx.read("item", item_key)
        if not reply.exists:
            outcome = yield tx.commit()
            return outcome.committed, False
        value = dict(reply.value)
        value["i_price"] = round(rng.uniform(1.0, 100.0), 2)
        value["i_related"] = rng.randrange(self.num_items)
        tx.write("item", item_key, value)
        outcome = yield tx.commit()
        if outcome.committed:
            # The physical write resets the stock expectation to what this
            # transaction observed (it rewrote the whole record).
            self.ledger.record_write(
                "item", item_key, "i_stock", value.get("i_stock", 0)
            )
        return outcome.committed, True

    #: the audited keys under the table's own name.
    item_keys = Workload.keys


class _Session:
    """Per-client browsing session: cart key and id counters."""

    def __init__(self, client_id: str) -> None:
        self.client_id = client_id
        self.cart_key = f"cart:{client_id}"
        self.last_order_key: Optional[str] = None
        self._order_seq = 0
        self._customer_seq = 0

    def next_order_key(self) -> str:
        self._order_seq += 1
        return f"order:{self.client_id}:{self._order_seq}"

    def next_customer_key(self) -> str:
        self._customer_seq += 1
        return f"cust:{self.client_id}:{self._customer_seq}"
