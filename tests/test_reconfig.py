"""Elastic membership: directory, epoch fencing, join/leave end-to-end."""

import pytest

from repro.core.messages import FastReply
from repro.core.options import OptionStatus, RecordId
from repro.core.topology import ReplicaMap
from repro.db.cluster import ClusterSpec, build_cluster
from repro.reconfig.directory import MembershipDirectory, MembershipError
from repro.storage.schema import Constraint, TableSchema

THREE_DCS = ("us-west", "us-east", "eu-west")
ITEMS = TableSchema("items", constraints={"stock": Constraint(minimum=0)})


def make_cluster(protocol="mdcc", seed=1):
    cluster = build_cluster(
        ClusterSpec(
            protocol=protocol,
            datacenters=THREE_DCS,
            partitions_per_table=1,
            seed=seed,
            elastic=True,
        )
    )
    cluster.register_table(ITEMS)
    return cluster


def run_fut(cluster, fut, limit_ms=240_000):
    return cluster.sim.run_until(fut, limit=cluster.sim.now + limit_ms)


def drain(cluster, ms=5_000):
    cluster.sim.run(until=cluster.sim.now + ms)


def commit_write(cluster, client, key, value):
    tx = cluster.begin(client)
    run_fut(cluster, tx.read("items", key))
    tx.write("items", key, value)
    return run_fut(cluster, tx.commit())


class TestMembershipDirectory:
    def test_initial_state(self):
        directory = MembershipDirectory(THREE_DCS)
        assert directory.active == THREE_DCS
        assert directory.joining == ()
        assert directory.epoch == 0
        assert len(directory) == 3

    def test_join_lifecycle_bumps_epoch_only_on_admit(self):
        directory = MembershipDirectory(THREE_DCS)
        directory.begin_join("ap-southeast", now=10.0)
        assert directory.epoch == 0  # bootstrap does not change quorums
        assert directory.joining == ("ap-southeast",)
        assert "ap-southeast" not in directory.active
        epoch = directory.admit("ap-southeast", now=20.0)
        assert epoch == directory.epoch == 1
        assert directory.active[-1] == "ap-southeast"
        assert directory.joining == ()

    def test_retire_bumps_epoch_and_removes(self):
        directory = MembershipDirectory(THREE_DCS)
        assert directory.retire("us-east", now=5.0) == 1
        assert directory.active == ("us-west", "eu-west")

    def test_abort_join_leaves_epoch_untouched(self):
        directory = MembershipDirectory(THREE_DCS)
        directory.begin_join("ap-southeast")
        directory.abort_join("ap-southeast")
        assert directory.epoch == 0
        assert directory.joining == ()

    def test_invalid_transitions_rejected(self):
        directory = MembershipDirectory(THREE_DCS)
        with pytest.raises(MembershipError):
            directory.begin_join("us-west")  # already active
        with pytest.raises(MembershipError):
            directory.admit("ap-southeast")  # never began joining
        with pytest.raises(MembershipError):
            directory.retire("ap-southeast")  # not a member
        directory.begin_join("ap-southeast")
        with pytest.raises(MembershipError):
            directory.begin_join("ap-southeast")  # double join

    def test_cannot_retire_last_dc(self):
        directory = MembershipDirectory(("solo",))
        with pytest.raises(MembershipError):
            directory.retire("solo")

    def test_history_records_transitions(self):
        directory = MembershipDirectory(THREE_DCS)
        directory.begin_join("ap-southeast", now=1.0)
        directory.admit("ap-southeast", now=2.0)
        directory.retire("us-east", now=3.0)
        events = [(entry["event"], entry["dc"]) for entry in directory.history]
        assert events == [
            ("join-started", "ap-southeast"),
            ("admitted", "ap-southeast"),
            ("retired", "us-east"),
        ]


class TestElasticReplicaMap:
    def make_map(self):
        directory = MembershipDirectory(THREE_DCS)
        placement = ReplicaMap(THREE_DCS, membership=directory)
        return placement, directory

    def test_static_map_reports_epoch_zero(self):
        placement = ReplicaMap(THREE_DCS)
        assert placement.epoch == 0
        assert not placement.is_elastic
        assert placement.joining_datacenters == ()

    def test_datacenters_track_directory(self):
        placement, directory = self.make_map()
        record = RecordId("items", "k")
        assert placement.replication == 3
        directory.begin_join("ap-southeast")
        # Joining DCs replicate but join no quorum.
        assert placement.replication == 3
        assert len(placement.replicas(record)) == 3
        assert len(placement.replicas_for_repair(record)) == 4
        directory.admit("ap-southeast")
        assert placement.replication == 4
        assert placement.epoch == 1
        assert "store-ap-southeast-p0" in placement.replicas(record)

    def test_quorums_resize_with_epoch(self):
        placement, directory = self.make_map()
        assert placement.quorums().as_dict() == {"n": 3, "classic": 2, "fast": 3}
        directory.begin_join("ap-southeast")
        directory.admit("ap-southeast")
        assert placement.quorums().as_dict() == {"n": 4, "classic": 3, "fast": 3}
        # A map attached after the bump starts from the directory's state.
        late = ReplicaMap(directory.active, membership=directory)
        assert (late.epoch, late.quorums().n) == (1, 4)
        directory.retire("us-east")
        directory.retire("eu-west")
        assert placement.quorums().as_dict() == {"n": 2, "classic": 2, "fast": 2}

    def test_hash_mastership_rehashes_on_epoch_bump(self):
        placement, directory = self.make_map()
        records = [RecordId("items", f"k{i}") for i in range(64)]
        before = {record: placement.master_dc(record) for record in records}
        directory.retire("us-east")
        after = {record: placement.master_dc(record) for record in records}
        assert all(dc != "us-east" for dc in after.values())
        assert any(before[r] != after[r] for r in records)

    def test_mismatched_directory_rejected(self):
        directory = MembershipDirectory(("us-west",))
        with pytest.raises(ValueError):
            ReplicaMap(THREE_DCS, membership=directory)


class TestBuildClusterElastic:
    def test_elastic_requires_mdcc_variant(self):
        with pytest.raises(ValueError):
            build_cluster(ClusterSpec(protocol="2pc", elastic=True))

    def test_elastic_cluster_exposes_manager(self):
        cluster = make_cluster()
        assert cluster.reconfig is not None
        assert cluster.membership.epoch == 0
        assert cluster.placement.is_elastic

    def test_static_cluster_has_no_manager(self):
        cluster = build_cluster(ClusterSpec(partitions_per_table=1, seed=0))
        assert cluster.reconfig is None
        assert cluster.membership is None


class TestEpochFencing:
    def test_stale_fast_reply_dropped_and_tally_reset(self):
        cluster = make_cluster()
        cluster.load_record("items", "k", {"stock": 5})
        client = cluster.add_client("us-west")
        tx = cluster.begin(client)
        run_fut(cluster, tx.read("items", "k"))
        tx.write("items", "k", {"stock": 4})
        commit_future = tx.commit()
        # Bump the epoch while the fast round is in flight: every vote
        # cast under epoch 0 must be fenced out of the tally.
        cluster.membership.begin_join("ap-southeast")
        cluster.membership.admit("ap-southeast")
        # The new DC has no storage nodes in this synthetic bump, so the
        # proposal can never reach its (now 3-of-4) fast quorum via the
        # old votes; the learn timeout escalates to the master, which
        # runs a classic round at the new epoch over the live replicas.
        outcome = run_fut(cluster, commit_future)
        assert outcome.committed in (True, False)  # decided, not wedged
        assert cluster.counters.get("reconfig.stale_epoch_dropped") > 0

    def test_stale_epoch_message_counted(self):
        cluster = make_cluster()
        cluster.load_record("items", "k", {"stock": 5})
        client = cluster.add_client("us-west")
        cluster.membership.begin_join("ap-southeast")
        cluster.membership.admit("ap-southeast")
        before = cluster.counters.get("reconfig.stale_epoch_dropped")
        # The fence runs after the tx lookup, so a live transaction is
        # needed for a hand-crafted stale vote to reach it.
        tx = cluster.begin(client)
        run_fut(cluster, tx.read("items", "k"))
        tx.write("items", "k", {"stock": 4})
        tx.commit(txid="tx-fence")
        stale = FastReply(
            option_id="tx-fence:items/k",
            txid="tx-fence",
            status=OptionStatus.ACCEPTED,
            epoch=0,
        )
        client.handle_fast_reply(stale, "store-us-west-p0")
        assert cluster.counters.get("reconfig.stale_epoch_dropped") > before

    def test_static_cluster_never_fences(self):
        cluster = build_cluster(
            ClusterSpec(datacenters=THREE_DCS, partitions_per_table=1, seed=0)
        )
        cluster.register_table(ITEMS)
        cluster.load_record("items", "k", {"stock": 5})
        client = cluster.add_client("us-west")
        outcome = commit_write(cluster, client, "k", {"stock": 4})
        assert outcome.committed
        assert cluster.counters.get("reconfig.stale_epoch_dropped") == 0


@pytest.mark.parametrize("protocol", ["mdcc", "fast", "multi"])
class TestJoin:
    def test_join_streams_state_and_admits(self, protocol):
        cluster = make_cluster(protocol)
        for i in range(12):
            cluster.load_record("items", f"i{i}", {"stock": 10})
        client = cluster.add_client("us-west")
        for i in range(3):
            assert commit_write(cluster, client, f"i{i}", {"stock": 9}).committed
        report = run_fut(cluster, cluster.reconfig.join("ap-southeast"))
        assert report["ok"] is True
        assert report["epoch"] == 1
        assert report["records_streamed"] == 12
        assert cluster.membership.active[-1] == "ap-southeast"
        assert cluster.placement.quorums().n == 4
        # The new DC holds every record, including the updated ones.
        for i in range(12):
            snap = cluster.read_committed("items", f"i{i}", dc="ap-southeast")
            expected = 9 if i < 3 else 10
            assert snap.value == {"stock": expected}

    def test_post_join_commits_reach_new_dc(self, protocol):
        cluster = make_cluster(protocol)
        cluster.load_record("items", "k", {"stock": 10})
        client = cluster.add_client("eu-west")
        run_fut(cluster, cluster.reconfig.join("ap-southeast"))
        outcome = commit_write(cluster, client, "k", {"stock": 3})
        assert outcome.committed
        drain(cluster)
        snapshots = cluster.committed_snapshots("items", "k")
        assert len(snapshots) == 4
        assert all(s.value == {"stock": 3} for s in snapshots.values())

    def test_join_transfers_tombstones(self, protocol):
        cluster = make_cluster(protocol)
        cluster.load_record("items", "doomed", {"stock": 1})
        client = cluster.add_client("us-west")
        tx = cluster.begin(client)
        run_fut(cluster, tx.read("items", "doomed"))
        tx.delete("items", "doomed")
        assert run_fut(cluster, tx.commit()).committed
        drain(cluster)
        run_fut(cluster, cluster.reconfig.join("ap-southeast"))
        snap = cluster.read_committed("items", "doomed", dc="ap-southeast")
        assert snap.exists is False
        assert snap.version == 2  # the delete, not a never-existed record


class TestJoinEdgeCases:
    def test_duplicate_join_returns_same_future(self):
        cluster = make_cluster()
        first = cluster.reconfig.join("ap-southeast")
        second = cluster.reconfig.join("ap-southeast")
        assert first is second
        run_fut(cluster, first)

    def test_join_brand_new_dc_clones_template_links(self):
        cluster = make_cluster()
        cluster.load_record("items", "k", {"stock": 2})
        report = run_fut(
            cluster, cluster.reconfig.join("us-east-2", like="us-east")
        )
        assert report["ok"] is True
        assert cluster.network.latency.knows_datacenter("us-east-2")
        # The clone inherits us-east's link profile.
        assert (
            cluster.network.latency.base_rtt("us-east-2", "us-west")
            == cluster.network.latency.base_rtt("us-east", "us-west")
        )
        snap = cluster.read_committed("items", "k", dc="us-east-2")
        assert snap.value == {"stock": 2}

    def test_join_aborts_when_joiner_unreachable_during_catchup(self):
        """A joiner that goes dark after its snapshot landed must NOT be
        admitted: a dark quorum member silently shrinks availability."""
        cluster = make_cluster()
        for i in range(6):
            cluster.load_record("items", f"i{i}", {"stock": 10})
        future = cluster.reconfig.join("ap-southeast")
        op = cluster.reconfig._joins["ap-southeast"]
        while not op.bootstrapped:
            cluster.sim.run(until=cluster.sim.now + 10)
        cluster.network.fail_datacenter("ap-southeast")
        report = run_fut(cluster, future)
        assert report["ok"] is False
        assert report["aborted"] == "catchup-unreachable"
        assert cluster.membership.epoch == 0  # never entered any quorum
        assert cluster.membership.joining == ()
        assert "store-ap-southeast-p0" not in cluster.storage_nodes

    def test_clean_join_reports_caught_up(self):
        cluster = make_cluster()
        cluster.load_record("items", "k", {"stock": 2})
        report = run_fut(cluster, cluster.reconfig.join("ap-southeast"))
        assert report["ok"] is True
        assert report["caught_up"] is True

    def test_join_of_active_member_rejected_without_side_effects(self):
        """Validation precedes mutation: a bogus join of an active DC
        must not heal that DC's standing faults on the way to the error."""
        from repro.reconfig.directory import MembershipError

        cluster = make_cluster()
        cluster.network.fail_datacenter("us-east")
        with pytest.raises(MembershipError):
            cluster.reconfig.join("us-east")
        assert cluster.network.is_failed("us-east")  # fault untouched
        assert cluster.membership.epoch == 0

    def test_mis_scripted_membership_events_do_not_crash_scenarios(self):
        """The chaos controller survives a schedule that joins an active
        member or decommissions a non-member, recording failures."""
        from repro.faults.controller import ChaosController
        from repro.faults.schedule import FaultSchedule

        cluster = make_cluster()
        schedule = FaultSchedule("bogus-membership")
        schedule.join_dc(100.0, "us-east")          # already active
        schedule.decommission_dc(200.0, "mars")      # never a member
        # Passes membership validation but dies wiring the network: the
        # `like` template is unknown, so the RTT clone covers no links
        # (a SimulationError, not a MembershipError).
        schedule.join_dc(300.0, "new-dc", like="no-such-dc")
        controller = ChaosController(cluster, schedule)
        controller.install()
        cluster.sim.run(until=1_000.0)
        failures = [e for e in controller.log if e["event"] == "join-failed"]
        assert {f["dc"] for f in failures} == {"us-east", "new-dc"}
        events = {entry["event"] for entry in controller.log}
        assert "decommission-failed" in events
        assert cluster.membership.epoch == 0
        assert not cluster.network.latency.knows_datacenter("new-dc")

    def test_rejoin_after_decommission_of_same_name(self):
        """Scale-in then scale-out of the same region: the rejoined DC is
        new hardware and must not inherit its dead predecessor's outage."""
        cluster = make_cluster()
        for i in range(5):
            cluster.load_record("items", f"i{i}", {"stock": 10})
        cluster.network.fail_datacenter("eu-west")
        run_fut(cluster, cluster.reconfig.decommission("eu-west"))
        report = run_fut(cluster, cluster.reconfig.join("eu-west"))
        assert report["ok"] is True, report
        assert cluster.membership.epoch == 2
        assert cluster.membership.active == ("us-west", "us-east", "eu-west")
        assert not cluster.network.is_failed("eu-west")
        snap = cluster.read_committed("items", "i2", dc="eu-west")
        assert snap.value == {"stock": 10}

    def test_rejoin_racing_own_decommission_rejected_cleanly(self):
        """A join of a DC whose decommission hasn't dropped its replicas
        yet must fail with MembershipError *before* mutating anything —
        previously it got as far as node construction, crashed on the
        duplicate node ids, and left the DC stuck in `joining` forever
        (poisoning replicas_for_repair and blocking every later rejoin)."""
        from repro.reconfig.directory import MembershipError

        cluster = make_cluster()
        for i in range(5):
            cluster.load_record("items", f"i{i}", {"stock": 10})
        future = cluster.reconfig.decommission("eu-west")
        # Evacuations are still in flight: the old replicas are registered.
        with pytest.raises(MembershipError, match="registered replicas"):
            cluster.reconfig.join("eu-west")
        assert not cluster.membership.is_joining("eu-west")
        run_fut(cluster, future)
        # Once the decommission finished dropping nodes, the rejoin works.
        report = run_fut(cluster, cluster.reconfig.join("eu-west"))
        assert report["ok"] is True, report
        assert cluster.membership.epoch == 2

    def test_join_rotates_donor_when_donor_dark(self):
        cluster = make_cluster()
        cluster.load_record("items", "k", {"stock": 2})
        cluster.network.fail_datacenter("us-east")
        future = cluster.reconfig.join("ap-southeast", donor_dc="us-east")
        report = run_fut(cluster, future)
        assert report["ok"] is True
        assert report["bootstrap_retries"] > 0
        snap = cluster.read_committed("items", "k", dc="ap-southeast")
        assert snap.value == {"stock": 2}


@pytest.mark.parametrize("protocol", ["mdcc", "fast", "multi"])
class TestDecommission:
    def test_decommission_evacuates_and_drops(self, protocol):
        cluster = make_cluster(protocol)
        for i in range(10):
            cluster.load_record("items", f"i{i}", {"stock": 10})
        client = cluster.add_client("us-west")
        assert commit_write(cluster, client, "i0", {"stock": 9}).committed
        report = run_fut(cluster, cluster.reconfig.decommission("us-east"))
        assert report["ok"] is True
        assert report["masterships_unacked"] == 0
        assert report["dropped_nodes"] == ["store-us-east-p0"]
        assert cluster.membership.active == ("us-west", "eu-west")
        assert cluster.placement.quorums().as_dict() == {
            "n": 2,
            "classic": 2,
            "fast": 2,
        }
        # No record routes its mastership at the departed DC any more.
        for i in range(10):
            record = RecordId("items", f"i{i}")
            assert cluster.placement.master_dc(record) != "us-east"
        # And the cluster still commits at the shrunken quorum size.
        outcome = commit_write(cluster, client, "i5", {"stock": 4})
        assert outcome.committed

    def test_decommission_of_dark_dc(self, protocol):
        """The disaster case: the DC is unreachable when it leaves."""
        cluster = make_cluster(protocol)
        for i in range(6):
            cluster.load_record("items", f"i{i}", {"stock": 10})
        cluster.network.fail_datacenter("us-east")
        client = cluster.add_client("us-west")
        report = run_fut(cluster, cluster.reconfig.decommission("us-east"))
        assert report["ok"] is True
        assert cluster.membership.epoch == 1
        outcome = commit_write(cluster, client, "i1", {"stock": 7})
        assert outcome.committed
        drain(cluster)
        snapshots = cluster.committed_snapshots("items", "i1")
        assert len(snapshots) == 2  # the dark DC's replica is gone
        assert all(s.value == {"stock": 7} for s in snapshots.values())


class TestReplaceLifecycle:
    def test_outage_decommission_replacement_join(self):
        """The dc-replace arc without the chaos harness: a 3-DC cluster
        loses one DC, retires it, and admits a bootstrapped replacement;
        quorums end where they started, now including the new DC."""
        cluster = make_cluster(seed=5)
        for i in range(8):
            cluster.load_record("items", f"i{i}", {"stock": 10})
        client = cluster.add_client("us-west")
        cluster.network.fail_datacenter("us-east")
        run_fut(cluster, cluster.reconfig.decommission("us-east"))
        assert commit_write(cluster, client, "i0", {"stock": 8}).committed
        report = run_fut(
            cluster, cluster.reconfig.join("us-east-2", like="us-east")
        )
        assert report["ok"] is True
        assert cluster.membership.epoch == 2
        assert cluster.membership.active == ("us-west", "eu-west", "us-east-2")
        assert cluster.placement.quorums().n == 3
        outcome = commit_write(cluster, client, "i1", {"stock": 6})
        assert outcome.committed
        drain(cluster)
        for key, expected in (("i0", 8), ("i1", 6), ("i7", 10)):
            snapshots = cluster.committed_snapshots("items", key)
            assert set(snapshots) == {
                "store-us-west-p0",
                "store-eu-west-p0",
                "store-us-east-2-p0",
            }
            assert all(
                s.value == {"stock": expected} for s in snapshots.values()
            ), (key, {k: s.value for k, s in snapshots.items()})
