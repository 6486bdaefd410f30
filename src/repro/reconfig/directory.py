"""The epoch-versioned data-center membership map.

The analogue of :class:`~repro.placement.directory.PlacementDirectory`
one level up: where the placement directory maps *records* to master
data centers, the membership directory maps the *cluster* to its current
data-center set.  Everything that depends on the DC set — replica
enumeration, classic/fast quorum sizes, hash master placement — derives
from it, so a single epoch bump atomically reconfigures all of them.

Epochs are the fencing token of §3.1.1 generalized to membership: just
as a mastership change "can change by running Phase 1" under a higher
ballot, a membership change happens under a higher epoch, and protocol
messages stamped with a stale epoch are rejected by their receivers so
no quorum vote can straddle two configurations.

Lifecycle of one data center::

    (unknown) --begin_join--> joining --admit--> active --retire--> (gone)
                  joining --abort_join--> (unknown)

``joining`` DCs host replicas (the snapshot bootstrap streams state to
them and anti-entropy repairs them) but are excluded from quorums until
admitted — a half-bootstrapped replica must never count toward a fast or
classic quorum.  Only :meth:`admit` and :meth:`retire` bump the epoch:
they are the transitions that change quorum membership.

Like the placement directory, the simulation shares one membership
object; the epoch stands in for the configuration number a distributed
deployment would agree on through its own consensus instance.
"""

from __future__ import annotations

from typing import Callable, Dict, List, Sequence, Tuple

__all__ = ["MembershipDirectory", "MembershipError"]


class MembershipError(RuntimeError):
    """Raised for invalid membership transitions (double join, unknown DC)."""


class MembershipDirectory:
    """Epoch counter + the active and joining data-center sets."""

    def __init__(self, datacenters: Sequence[str]) -> None:
        if not datacenters:
            raise MembershipError("need at least one initial data center")
        if len(set(datacenters)) != len(tuple(datacenters)):
            raise MembershipError("duplicate data center in initial membership")
        self._active: Tuple[str, ...] = tuple(datacenters)
        self._joining: Tuple[str, ...] = ()
        #: bumped on every quorum-membership change (admit / retire).
        self.epoch = 0
        #: called after each bump: how a ReplicaMap keeps its epoch and
        #: quorum sizes current without looking here on every message.
        self.on_resize: List[Callable[[], None]] = []
        #: JSON-friendly audit trail of every transition.
        self.history: List[Dict[str, object]] = []

    # ------------------------------------------------------------------
    # Views
    # ------------------------------------------------------------------
    @property
    def active(self) -> Tuple[str, ...]:
        """Quorum members, in join order (initial order, then admissions)."""
        return self._active

    @property
    def joining(self) -> Tuple[str, ...]:
        """DCs being bootstrapped: replicated to, but not counted in quorums."""
        return self._joining

    def is_active(self, dc: str) -> bool:
        return dc in self._active

    def is_joining(self, dc: str) -> bool:
        return dc in self._joining

    def as_dict(self) -> Dict[str, object]:
        return {
            "epoch": self.epoch,
            "datacenters": list(self._active),
            "joining": list(self._joining),
            "history": list(self.history),
        }

    # ------------------------------------------------------------------
    # Transitions
    # ------------------------------------------------------------------
    def _note(self, now: float, event: str, dc: str) -> None:
        self.history.append(
            {"t_ms": round(now, 3), "epoch": self.epoch, "event": event, "dc": dc}
        )

    def _bump(self, now: float, event: str, dc: str) -> int:
        self.epoch += 1
        self._note(now, event, dc)
        for resized in self.on_resize:
            resized()
        return self.epoch

    def begin_join(self, dc: str, now: float = 0.0) -> None:
        """Start bootstrapping ``dc``.  No epoch bump: quorums are unchanged."""
        if dc in self._active:
            raise MembershipError(f"DC {dc!r} is already an active member")
        if dc in self._joining:
            raise MembershipError(f"DC {dc!r} is already joining")
        self._joining = self._joining + (dc,)
        self._note(now, "join-started", dc)

    def admit(self, dc: str, now: float = 0.0) -> int:
        """Promote a bootstrapped ``dc`` into the quorum set; returns the
        new epoch.  From this epoch on, every quorum includes ``dc``'s
        replicas and stale-epoch votes are fenced out."""
        if dc not in self._joining:
            raise MembershipError(f"DC {dc!r} is not joining")
        self._joining = tuple(d for d in self._joining if d != dc)
        self._active = self._active + (dc,)
        return self._bump(now, "admitted", dc)

    def abort_join(self, dc: str, now: float = 0.0) -> None:
        """Abandon an in-progress bootstrap (donor unreachable, operator
        cancel).  No epoch bump: the DC never entered any quorum."""
        if dc not in self._joining:
            raise MembershipError(f"DC {dc!r} is not joining")
        self._joining = tuple(d for d in self._joining if d != dc)
        self._note(now, "join-aborted", dc)

    def retire(self, dc: str, now: float = 0.0) -> int:
        """Remove an active ``dc`` from the membership; returns the new
        epoch.  Quorums shrink immediately; the caller (the reconfig
        manager) evacuates masterships and then drops the replicas."""
        if dc not in self._active:
            raise MembershipError(f"DC {dc!r} is not an active member")
        if len(self._active) == 1:
            raise MembershipError("cannot retire the last data center")
        self._active = tuple(d for d in self._active if d != dc)
        return self._bump(now, "retired", dc)

    def __len__(self) -> int:
        return len(self._active)

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        joining = f" +{','.join(self._joining)}" if self._joining else ""
        return (
            f"<MembershipDirectory epoch={self.epoch} "
            f"active={','.join(self._active)}{joining}>"
        )
