"""The protocol abstraction layer: registry contract + enforcement.

Two halves.  The first pins the registry itself: which protocols exist,
in what order, with which capability flags, vocabularies and role
factories — the comparison surface of §5.2 as a golden table.  The
second enforces the refactor that motivated the registry: neither the
cluster builder nor the spec layer may special-case a protocol by name
or class again.  The enforcement test scans their source for the
tokens the old special-casing used (``_VARIANTS`` tables, engine class
names, quoted protocol names) so a regression fails loudly with the
offending line.
"""

import inspect
import pathlib
import re

import pytest

import repro.api
import repro.db.cluster
import repro.protocols
from repro.core.config import MDCCConfig, ProtocolVariant
from repro.db.cluster import ClusterSpec, build_cluster
from repro.protocols.base import (
    CAPABILITY_FLAGS,
    PROTOCOLS,
    Protocol,
    get_protocol,
    protocols_supporting,
    register_protocol,
)

#: role classes each protocol's factories must build (client, storage).
EXPECTED_ROLES = {
    "mdcc": ("MDCCCoordinator", "MDCCStorageNode"),
    "fast": ("MDCCCoordinator", "MDCCStorageNode"),
    "multi": ("MDCCCoordinator", "MDCCStorageNode"),
    "repcommit": ("ReplicatedCommitClient", "ReplicatedCommitStorageNode"),
    "2pc": ("TwoPCCoordinator", "TwoPCStorageNode"),
    "qw3": ("QuorumWriteClient", "QuorumWriteStorageNode"),
    "qw4": ("QuorumWriteClient", "QuorumWriteStorageNode"),
    "megastore": ("MegastoreClient", "MegastoreStorageNode"),
}


class TestRegistry:
    def test_registry_order_is_the_presentation_order(self):
        assert PROTOCOLS == (
            "mdcc", "fast", "multi", "repcommit", "2pc", "qw3", "qw4", "megastore"
        )

    def test_every_descriptor_is_complete(self):
        for name in PROTOCOLS:
            descriptor = get_protocol(name)
            assert descriptor.name == name
            assert descriptor.summary
            assert descriptor.client_factory is not None
            assert descriptor.storage_factory is not None

    def test_capability_matrix_golden(self):
        matrix = {
            name: tuple(
                flag for flag in CAPABILITY_FLAGS if getattr(get_protocol(name), flag)
            )
            for name in PROTOCOLS
        }
        all_flags = CAPABILITY_FLAGS
        assert matrix == {
            "mdcc": all_flags,
            "fast": all_flags,
            "multi": all_flags,
            "repcommit": (
                "supports_tracing",
                "supports_serializable",
                "supports_tcp",
            ),
            "2pc": ("supports_serializable",),
            "qw3": (),
            "qw4": (),
            "megastore": (),
        }

    def test_protocols_supporting(self):
        assert protocols_supporting("supports_placement") == ("mdcc", "fast", "multi")
        assert protocols_supporting("supports_tcp") == (
            "mdcc", "fast", "multi", "repcommit"
        )
        assert protocols_supporting("supports_serializable") == (
            "mdcc", "fast", "multi", "repcommit", "2pc"
        )
        with pytest.raises(ValueError, match="unknown capability flag"):
            protocols_supporting("supports_levitation")

    def test_unknown_protocol_rejected(self):
        with pytest.raises(ValueError, match="unknown protocol 'paxos2'"):
            get_protocol("paxos2")

    def test_duplicate_registration_rejected(self):
        with pytest.raises(ValueError, match="already registered"):
            register_protocol(Protocol(name="mdcc", summary="impostor"))

    def test_vocabularies(self):
        assert get_protocol("repcommit").trace_span_kinds == (
            "rc-local-prepare", "rc-paxos-vote", "rc-commit-apply"
        )
        assert "minority" in get_protocol("repcommit").abort_reasons
        assert get_protocol("megastore").abort_reasons == ("log-position-conflict",)
        # QW never aborts: empty vocabulary is a statement, not an omission.
        assert get_protocol("qw3").abort_reasons == ()
        assert get_protocol("qw4").chaos_schedules == ()
        # Network-level schedules only: repcommit has no recovery agent.
        assert get_protocol("repcommit").chaos_schedules == (
            "dc-outage", "rolling-partitions", "flaky-wan"
        )

    def test_megastore_placement_quirks(self):
        descriptor = get_protocol("megastore")
        assert descriptor.single_entity_group
        assert descriptor.preferred_client_dc == "us-west"
        assert not any(
            get_protocol(name).single_entity_group
            for name in PROTOCOLS
            if name != "megastore"
        )


class TestConfigDerivation:
    def test_engine_protocols_parameterize_the_engine(self):
        for name, variant in (
            ("mdcc", ProtocolVariant.MDCC),
            ("fast", ProtocolVariant.FAST),
            ("multi", ProtocolVariant.MULTI),
        ):
            config = get_protocol(name).make_config(gamma=7)
            assert isinstance(config, MDCCConfig)
            assert config.variant is variant
            assert config.gamma == 7

    def test_non_engine_protocols_make_no_config(self):
        """The engine tunables configure nothing outside the engine: those
        protocols get the neutral config whatever the tunables say."""
        for name in ("repcommit", "2pc", "qw3", "qw4", "megastore"):
            config = get_protocol(name).make_config(
                gamma=7, gamma_policy="adaptive", visibility_batch_ms=5.0
            )
            assert config == MDCCConfig()

    def test_default_config_always_exists(self):
        """Every protocol's roles take a config; quorum sizes come from
        the replica map, not from it."""
        for name in PROTOCOLS:
            cluster = build_cluster(ClusterSpec(protocol=name, seed=1))
            assert isinstance(cluster.config, MDCCConfig)
            assert cluster.placement.quorums().classic_size == 3


class TestRoleConstruction:
    @pytest.mark.parametrize("protocol", PROTOCOLS)
    def test_cluster_roles_come_from_the_descriptor(self, protocol):
        cluster = build_cluster(ClusterSpec(protocol=protocol, partitions_per_table=1, seed=1))
        client_cls, storage_cls = EXPECTED_ROLES[protocol]
        assert {type(node).__name__ for node in cluster.storage_nodes.values()} == {
            storage_cls
        }
        assert type(cluster.add_client("us-west")).__name__ == client_cls
        assert cluster.descriptor is get_protocol(protocol)


class TestNoSpecialCasing:
    """The refactor's ratchet: protocol dispatch lives ONLY in the
    registry.  The cluster builder and the spec layer must not name a
    protocol or an engine class — they ask the descriptor."""

    #: tokens of the pre-registry dispatch style.
    FORBIDDEN = (
        "ProtocolVariant",
        "_VARIANTS",
        "MDCCCoordinator",
        "MDCCStorageNode",
        "TwoPCCoordinator",
        "TwoPCStorageNode",
        "QuorumWriteClient",
        "QuorumWriteStorageNode",
        "MegastoreClient",
        "MegastoreStorageNode",
        "ReplicatedCommitClient",
        "ReplicatedCommitStorageNode",
    )

    @pytest.mark.parametrize("module", [repro.db.cluster, repro.api])
    def test_no_engine_tokens(self, module):
        source = inspect.getsource(module)
        for token in self.FORBIDDEN:
            offending = [
                line.strip()
                for line in source.splitlines()
                if token in line
            ]
            assert not offending, (
                f"{module.__name__} special-cases via {token!r}: {offending}"
            )

    @pytest.mark.parametrize("module", [repro.db.cluster, repro.api])
    def test_no_quoted_protocol_names(self, module):
        """The only quoted protocol name allowed is the ``"mdcc"``
        default value — never a comparison or a branch."""
        source = inspect.getsource(module)
        for name in PROTOCOLS:
            for line in source.splitlines():
                if f'"{name}"' not in line and f"'{name}'" not in line:
                    continue
                assert name == "mdcc" and 'protocol: str = "mdcc"' in line, (
                    f"{module.__name__} names protocol {name!r} outside the "
                    f"registry: {line.strip()!r}"
                )

    def test_update_type_dispatch_only_in_the_participant_kernel(self):
        """Validating and applying an update is stated once, in
        ``protocols/participant.py``; quorum writes keep their own
        last-writer-wins apply (it is the point of that baseline).  No
        other protocol module may branch on the update's type again."""
        package = pathlib.Path(repro.protocols.__file__).parent
        ladder = re.compile(
            r"isinstance\(\s*update,\s*\(?\s*"
            r"(PhysicalUpdate|CommutativeUpdate|ReadValidation)"
        )
        offending = [
            f"{path.name}:{number}: {line.strip()}"
            for path in sorted(package.glob("*.py"))
            if path.name not in ("participant.py", "quorumwrites.py")
            for number, line in enumerate(path.read_text().splitlines(), 1)
            if ladder.search(line)
        ]
        assert not offending, offending
