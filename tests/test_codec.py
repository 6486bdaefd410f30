"""Wire-codec round-trips for every protocol message type.

The TCP backend must carry exactly what the simulator delivers by
reference, so every registered wire type gets a handcrafted worst-case
sample here and must survive encode → bytes → decode without loss.

Registry *completeness* is no longer asserted by hand-maintained diffs:
the WIRE-codec rule of ``repro.analysis`` is the single source of truth
(every wire-reachable message dataclass must be frozen, ``__slots__``
and registered), and the tripwire tests below assert through it.
"""

import dataclasses
import inspect
import pathlib
import re

import pytest

from repro.analysis.engine import Project, SourceFile
from repro.analysis.rules_wire import WIRE_CODEC
from repro.core import messages
from repro.protocols import megastore, quorumwrites, twopc
from repro.core.options import (
    CommutativeUpdate,
    Option,
    OptionStatus,
    PhysicalUpdate,
    ReadValidation,
    RecordId,
)
from repro.paxos.ballot import Ballot, BallotRange
from repro.paxos.cstruct import CStruct
from repro.transport import codec
from repro.transport.codec import (
    CodecError,
    JsonCodec,
    decode,
    decode_frame_payload,
    encode,
    encode_frame_payload,
    resolve_codec,
)

RECORD = RecordId("items", "item:000042")
BALLOT = Ballot(round=3, fast=True, proposer="master-us-east")
CLASSIC = Ballot(round=4, fast=False, proposer="store-eu-west-p0")
GRANT = BallotRange(start_instance=7, end_instance=None, ballot=BALLOT)
COMMUTATIVE = Option(
    txid="tx-17",
    record=RECORD,
    update=CommutativeUpdate(deltas=(("stock", -3.0), ("reserved", 1.5))),
    writeset=(RECORD, RecordId("items", "item:000007")),
    status=OptionStatus.PENDING,
)
PHYSICAL = Option(
    txid="tx-18",
    record=RECORD,
    update=PhysicalUpdate(vread=9, new_value={"stock": 11, "name": "bolt"}, is_delete=False),
    writeset=(RECORD,),
    status=OptionStatus.ACCEPTED,
)
VALIDATION = Option(
    txid="tx-19",
    record=RECORD,
    update=ReadValidation(vread=4),
    writeset=(),
    status=OptionStatus.REJECTED,
)
CSTRUCT = CStruct((COMMUTATIVE, PHYSICAL, VALIDATION))

#: one worst-case instance per wire type — nested values, Nones, empty
#: and populated tuples, dict payloads.
SAMPLES = {
    "CatchUp": messages.CatchUp(
        record=RECORD,
        version=12,
        value={"stock": 140},
        exists=True,
        applied_ids=("opt-1", "opt-2"),
    ),
    "FastReply": messages.FastReply(
        option_id="opt-9", txid="tx-17", status=OptionStatus.ACCEPTED, epoch=2
    ),
    # Fast-path batches: one transaction's options for one replica set —
    # every Update kind and status, and the votes on them.
    "FastReplyBatch": messages.FastReplyBatch(
        replies=(
            messages.FastReply(
                option_id=COMMUTATIVE.option_id,
                txid="tx-17",
                status=OptionStatus.ACCEPTED,
                epoch=2,
            ),
            messages.FastReply(
                option_id="tx-17:items/item:000007",
                txid="tx-17",
                status=OptionStatus.REJECTED,
                epoch=2,
            ),
        )
    ),
    "MPhase1a": messages.MPhase1a(record=RECORD, ballot=CLASSIC, grant=GRANT, epoch=1),
    "MPhase1b": messages.MPhase1b(
        record=RECORD,
        ballot=CLASSIC,
        granted=True,
        promised=CLASSIC,
        accepted_ballot=BALLOT,
        cstruct=CSTRUCT,
        committed_version=6,
        committed_value={"stock": 99},
        applied_ids=("opt-3",),
        epoch=1,
    ),
    "MPhase2a": messages.MPhase2a(
        record=RECORD,
        ballot=CLASSIC,
        cstruct=CSTRUCT,
        post_grant=GRANT,
        new_base={"stock": 120.0},
        epoch=1,
        committed_version=9,
    ),
    "MPhase2b": messages.MPhase2b(
        record=RECORD,
        ballot=CLASSIC,
        accepted=False,
        cstruct=None,
        committed_version=6,
        promised=Ballot(round=5, fast=False, proposer="other"),
        epoch=1,
    ),
    "MastershipTaken": messages.MastershipTaken(
        record=RECORD, master_dc="eu-west", node_id="store-eu-west-p0"
    ),
    "OptionOutcome": messages.OptionOutcome(
        option_id="opt-9", txid="tx-17", record=RECORD, status=OptionStatus.REJECTED
    ),
    "ProposeClassic": messages.ProposeClassic(option=PHYSICAL, reply_to="app-us-west-1"),
    "ProposeFast": messages.ProposeFast(
        option=COMMUTATIVE, reply_to="app-us-west-1", epoch=3
    ),
    "ProposeFastBatch": messages.ProposeFastBatch(
        options=(
            COMMUTATIVE,
            Option(
                txid="tx-17",
                record=RecordId("items", "item:000007"),
                update=PhysicalUpdate(vread=0, new_value=None, is_delete=True),
                writeset=(RECORD, RecordId("items", "item:000007")),
                status=OptionStatus.PENDING,
            ),
            Option(
                txid="tx-17",
                record=RecordId("orders", "o-77"),
                update=ReadValidation(vread=4),
                writeset=(),
                status=OptionStatus.PENDING,
            ),
        ),
        reply_to="app-us-west-1",
        epoch=3,
    ),
    # Replicated Commit: write-sets nest every Update kind inside the
    # Tuple[Tuple[RecordId, Update], ...] shape — the worst case for
    # tuple-ness preservation.
    "RcApply": messages.RcApply(
        txid="tx-20",
        updates=(
            (RECORD, PhysicalUpdate(vread=3, new_value=None, is_delete=True)),
            (
                RecordId("items", "item:000007"),
                CommutativeUpdate(deltas=(("stock", -3.0), ("reserved", 1.5))),
            ),
            (RecordId("orders", "o-77"), ReadValidation(vread=4)),
        ),
        commit=False,
    ),
    "RcCommitRequest": messages.RcCommitRequest(
        txid="tx-20",
        updates=(
            (RECORD, PhysicalUpdate(vread=9, new_value={"stock": 11})),
            (
                RecordId("items", "item:000007"),
                CommutativeUpdate(deltas=(("stock", -3.0),)),
            ),
            (RecordId("orders", "o-77"), ReadValidation(vread=4)),
        ),
        reply_to="app-us-west-1",
    ),
    "RcDecision": messages.RcDecision(
        txid="tx-20",
        commit=True,
        updates=((RECORD, ReadValidation(vread=4)),),
    ),
    "RcPrepare": messages.RcPrepare(
        txid="tx-20",
        updates=(
            (RECORD, CommutativeUpdate(deltas=(("stock", -3.0), ("reserved", 1.5)))),
            (
                RecordId("items", "item:000007"),
                PhysicalUpdate(vread=9, new_value={"stock": 11, "tags": ["a", "b"]}),
            ),
            (RecordId("orders", "o-77"), ReadValidation(vread=0)),
        ),
        reply_to="store-us-west-p0",
    ),
    "RcPrepareReply": messages.RcPrepareReply(
        txid="tx-20",
        records=(RECORD, RecordId("items", "item:000007"), RecordId("orders", "o-77")),
        vote=False,
        reason="lock-conflict",
    ),
    "RcVote": messages.RcVote(
        txid="tx-20", dc="eu-west", accept=True, voter="store-eu-west-p0"
    ),
    "ReadReply": messages.ReadReply(
        request_id=41,
        table="items",
        key="item:000042",
        exists=True,
        value={"stock": 140, "name": "bolt"},
        version=12,
        is_fast_era=False,
        master_hint="us-west",
    ),
    "ReadRequest": messages.ReadRequest(table="items", key="item:000042", request_id=41),
    "RepairProbe": messages.RepairProbe(record=RECORD, request_id=7),
    "RepairReply": messages.RepairReply(
        request_id=7,
        record=RECORD,
        exists=False,
        value=None,
        version=0,
        applied_ids=(),
        unsettled=(COMMUTATIVE, VALIDATION),
    ),
    "SnapshotAck": messages.SnapshotAck(
        request_id=2, node_id="store-ap-south-p0", records_adopted=40, wal_cut=17
    ),
    "SnapshotChunk": messages.SnapshotChunk(
        request_id=2,
        seq=1,
        records=(
            ("items", "item:000001", 3, {"stock": 101}, ("opt-1",)),
            ("items", "item:000002", 0, None, ()),
        ),
        last=True,
        wal_cut=17,
        reply_to="store-us-west-p0",
    ),
    "SnapshotRequest": messages.SnapshotRequest(
        request_id=2, target="store-ap-south-p0", reply_to="store-ap-south-p0"
    ),
    "StartRecovery": messages.StartRecovery(
        record=RECORD, reason="learn-timeout", option=PHYSICAL, reply_to="app-us-west-1"
    ),
    "StatusReply": messages.StatusReply(
        request_id=5,
        txid="tx-17",
        record=RECORD,
        known=True,
        status=OptionStatus.PENDING,
        executed=False,
        option=COMMUTATIVE,
    ),
    "StatusRequest": messages.StatusRequest(txid="tx-17", record=RECORD, request_id=5),
    "Visibility": messages.Visibility(option=PHYSICAL, committed=True),
    "VisibilityBatch": messages.VisibilityBatch(
        visibilities=(
            messages.Visibility(option=COMMUTATIVE, committed=True),
            messages.Visibility(option=VALIDATION, committed=False),
        )
    ),
    # Protocol-local messages (the §5.2 baseline protocols).
    # The baselines send one message per (transaction, storage node): a
    # slice of every Update kind, replies naming every record it covers.
    "PrepareRequest": twopc.PrepareRequest(
        txid="tx-30",
        updates=(
            (RECORD, PhysicalUpdate(vread=2, new_value={"stock": 7}, is_delete=False)),
            (RecordId("items", "item:000007"), CommutativeUpdate(deltas=(("stock", -1.0),))),
            (RecordId("orders", "o-77"), ReadValidation(vread=4)),
            (RecordId("orders", "o-78"), PhysicalUpdate(vread=5, new_value=None, is_delete=True)),
        ),
    ),
    "PrepareReply": twopc.PrepareReply(
        txid="tx-30", records=(RECORD, RecordId("items", "item:000007")), ok=True
    ),
    "DecisionMessage": twopc.DecisionMessage(
        txid="tx-30",
        updates=(
            (RECORD, CommutativeUpdate(deltas=(("stock", -1.0),))),
            (RecordId("orders", "o-77"), PhysicalUpdate(vread=0, new_value={"qty": 2})),
        ),
        commit=True,
    ),
    "DecisionAck": twopc.DecisionAck(
        txid="tx-30", records=(RECORD, RecordId("orders", "o-77"))
    ),
    "QWWrite": quorumwrites.QWWrite(
        txid="tx-31",
        updates=(
            (RECORD, PhysicalUpdate(vread=0, new_value={"stock": 1})),
            (RecordId("items", "item:000007"), CommutativeUpdate(deltas=(("stock", 2.5),))),
            (RecordId("orders", "o-78"), PhysicalUpdate(vread=3, new_value=None, is_delete=True)),
        ),
        timestamp=12.5,
        writer="app-us-west-1",
    ),
    "QWAck": quorumwrites.QWAck(
        txid="tx-31",
        records=(RECORD, RecordId("items", "item:000007"), RecordId("orders", "o-78")),
    ),
    "MsCommitRequest": megastore.MsCommitRequest(
        txid="tx-32",
        updates=(
            (RECORD, PhysicalUpdate(vread=1, new_value={"stock": 5})),
            (RecordId("orders", "o-88"), ReadValidation(vread=2)),
        ),
        reply_to="app-us-west-1",
    ),
    "MsCommitResult": megastore.MsCommitResult(txid="tx-32", committed=True),
    "MsLogAppend": megastore.MsLogAppend(
        position=3,
        entries=(("tx-32", ((RECORD, ReadValidation(vread=1)),)), ("tx-33", ())),
    ),
    "MsLogAck": megastore.MsLogAck(position=3),
}


def _equal(a, b):
    """Structural equality that sees through CStruct (identity-equality
    value object) and nested dataclass fields."""
    if isinstance(a, CStruct) or isinstance(b, CStruct):
        return (
            isinstance(a, CStruct)
            and isinstance(b, CStruct)
            and len(a.commands) == len(b.commands)
            and all(_equal(x, y) for x, y in zip(a.commands, b.commands))
        )
    if dataclasses.is_dataclass(a) and not isinstance(a, type):
        return type(a) is type(b) and all(
            _equal(getattr(a, f.name), getattr(b, f.name))
            for f in dataclasses.fields(a)
        )
    if isinstance(a, (tuple, list)):
        return (
            isinstance(b, (tuple, list))
            and type(a) is type(b)
            and len(a) == len(b)
            and all(_equal(x, y) for x, y in zip(a, b))
        )
    if isinstance(a, dict):
        return (
            isinstance(b, dict)
            and a.keys() == b.keys()
            and all(_equal(v, b[k]) for k, v in a.items())
        )
    return a == b


def _message_classes():
    return [
        cls
        for name in dir(messages)
        if inspect.isclass(cls := getattr(messages, name))
        and dataclasses.is_dataclass(cls)
        and cls.__module__ == "repro.core.messages"
    ]


REPO_ROOT = pathlib.Path(__file__).resolve().parents[1]


def test_registry_covers_every_message_type():
    """Single source of truth: the WIRE-codec static rule must be clean
    on the committed tree — a new wire-reachable message type without a
    frozen/slots/codec entry fails here (and in ``repro analyze``)."""
    findings = list(WIRE_CODEC.check(Project(REPO_ROOT)))
    assert not findings, "\n".join(
        f"{f.location()}: {f.message}" for f in findings
    )


def test_core_messages_all_registered():
    """Every class in core/messages.py has a codec entry (the analyzer
    only requires this for *reachable* classes; the core module is all
    wire types by definition)."""
    expected = {cls.__name__ for cls in _message_classes()}
    registered = {cls.__name__ for cls in codec.MESSAGE_TYPES}
    assert expected <= registered, (
        f"codec registry missing {sorted(expected - registered)}"
    )


def test_tripwire_fires_without_rc_codec_entries():
    """Re-enact the hazard the rule guards against: strip the six Rc*
    registry entries from transport/codec.py (in memory only) and the
    analyzer must name every stripped message type."""
    project = Project(REPO_ROOT)
    files = []
    for file in project.files:
        if file.path == "src/repro/transport/codec.py":
            source = "\n".join(
                line
                for line in file.source.splitlines()
                if not line.strip().startswith("_messages.Rc")
            )
            files.append(SourceFile(file.path, source))
        else:
            files.append(file)
    findings = list(WIRE_CODEC.check(Project(REPO_ROOT, files=files)))
    flagged = {
        finding.message.split()[2]
        for finding in findings
        if "not registered" in finding.message
    }
    assert flagged == {
        "RcApply",
        "RcCommitRequest",
        "RcDecision",
        "RcPrepare",
        "RcPrepareReply",
        "RcVote",
    }
    assert all(f.path == "src/repro/core/messages.py" for f in findings)


def test_every_message_type_has_a_sample():
    expected = {cls.__name__ for cls in codec.MESSAGE_TYPES}
    assert set(SAMPLES) == expected, (
        "add a round-trip sample for new message types: "
        f"{sorted(expected - set(SAMPLES))}; "
        f"drop stale samples: {sorted(set(SAMPLES) - expected)}"
    )


def test_every_registered_type_declares_slots():
    """Messages are the simulator's hot allocation path: a type without
    ``__slots__`` grows a per-instance ``__dict__`` and silently gives
    back the memory/speed the slotted dataclasses bought."""
    for cls in (*codec.MESSAGE_TYPES, *codec.VALUE_TYPES):
        assert "__slots__" in cls.__dict__, (
            f"{cls.__name__} must declare __slots__ "
            "(dataclass(frozen=True, slots=True) or an explicit tuple)"
        )
    # Declaring __slots__ is not enough — a base class without them still
    # reintroduces the per-instance dict, so check real instances too.
    for name, sample in SAMPLES.items():
        assert not hasattr(sample, "__dict__"), (
            f"{name} instances carry a __dict__ — a base class without "
            "__slots__ crept into its MRO"
        )


@pytest.mark.parametrize("name", sorted(SAMPLES))
def test_round_trip_lossless(name):
    original = SAMPLES[name]
    restored = decode(encode(original))
    assert _equal(restored, original)
    assert type(restored) is type(original)


@pytest.mark.parametrize("name", sorted(SAMPLES))
def test_round_trip_through_json_frames(name):
    original = SAMPLES[name]
    envelope = {"src": "a", "src_dc": "us-west", "dst": "b", "msg": encode(original)}
    payload = encode_frame_payload(envelope, JsonCodec())
    back = decode_frame_payload(payload)
    assert _equal(decode(back["msg"]), original)


def test_tuples_survive_the_wire():
    restored = decode(encode(SAMPLES["CatchUp"]))
    assert isinstance(restored.applied_ids, tuple)
    chunk = decode(encode(SAMPLES["SnapshotChunk"]))
    assert isinstance(chunk.records, tuple)
    assert isinstance(chunk.records[0], tuple)
    assert chunk.records[1][3] is None


def test_cstruct_and_status_round_trip():
    msg = decode(encode(SAMPLES["MPhase1b"]))
    assert isinstance(msg.cstruct, CStruct)
    assert _equal(msg.cstruct, CSTRUCT)
    assert msg.cstruct.commands[0].status is OptionStatus.PENDING


# ----------------------------------------------------------------------
# Differential oracle: the generic transform the compiled codec replaced
# ----------------------------------------------------------------------
_ORACLE_REGISTRY = {cls.__name__: cls for cls in (*codec.MESSAGE_TYPES, *codec.VALUE_TYPES)}


def oracle_encode(obj):
    """The reflective codec of the parent commit: an ``isinstance`` ladder
    and ``dataclasses.fields`` per value, fields by name.  Kept as the
    model the per-class encoders are checked against."""
    if obj is None or isinstance(obj, (bool, int, float, str)):
        return obj
    if isinstance(obj, OptionStatus):
        return {"__e": obj.value}
    if isinstance(obj, CStruct):
        return {"__c": [oracle_encode(command) for command in obj.commands]}
    if isinstance(obj, tuple):
        return {"__t": [oracle_encode(item) for item in obj]}
    if isinstance(obj, list):
        return [oracle_encode(item) for item in obj]
    if isinstance(obj, dict):
        return {key: oracle_encode(value) for key, value in obj.items()}
    assert type(obj) is _ORACLE_REGISTRY[type(obj).__name__]
    fields = {
        field.name: oracle_encode(getattr(obj, field.name))
        for field in dataclasses.fields(obj)
        if field.init
    }
    return {"__k": type(obj).__name__, "f": fields}


def oracle_decode(data):
    if isinstance(data, list):
        return [oracle_decode(item) for item in data]
    if isinstance(data, dict):
        if "__e" in data:
            return OptionStatus(data["__e"])
        if "__c" in data:
            return CStruct(tuple(oracle_decode(item) for item in data["__c"]))
        if "__t" in data:
            return tuple(oracle_decode(item) for item in data["__t"])
        if "__k" in data:
            fields = {key: oracle_decode(value) for key, value in data["f"].items()}
            return _ORACLE_REGISTRY[data["__k"]](**fields)
        return {key: oracle_decode(value) for key, value in data.items()}
    return data


@pytest.mark.parametrize("name", sorted(SAMPLES))
def test_compiled_codec_agrees_with_the_generic_oracle(name):
    """Field for field — ``_equal`` walks every dataclass field, the
    ``__post_init__``-derived ones included — after a trip through JSON."""
    original = SAMPLES[name]
    compiled = decode(JsonCodec.loads(JsonCodec.dumps(encode(original))))
    modelled = oracle_decode(JsonCodec.loads(JsonCodec.dumps(oracle_encode(original))))
    assert _equal(compiled, modelled)
    assert _equal(modelled, original)
    assert len(JsonCodec.dumps(encode(original))) < len(JsonCodec.dumps(oracle_encode(original)))


def test_derived_fields_are_rebuilt_by_the_real_constructor():
    option = decode(encode(COMMUTATIVE))
    assert option.option_id == COMMUTATIVE.option_id == "tx-17:items/item:000042"
    assert str(option.record) == "items/item:000042"
    assert hash(option.record) == hash(RECORD)
    assert "option_id" not in JsonCodec.dumps(encode(COMMUTATIVE)).decode()


def test_fields_are_enumerated_when_the_tables_are_built_not_per_message(monkeypatch):
    def refuse(_cls):
        raise AssertionError("dataclasses.fields called on the message path")

    monkeypatch.setattr(dataclasses, "fields", refuse)
    assert decode(encode(SAMPLES["MPhase1b"])).epoch == 1


def test_lists_and_string_keyed_dicts_pass_through():
    value = {"rows": [1, "a", None, (2.5, [True])], "nested": {"empty": [], "unit": ()}}
    assert decode(encode(value)) == value
    assert isinstance(decode(encode(value))["rows"][3], tuple)


@pytest.mark.parametrize(
    "value",
    [
        {"__t": [1]},
        {"__k": "Ballot", "f": {"round": 1}},
        {"__e": "accepted"},
        {"__c": []},
        {"Ballot": [1, True, "x"]},
        ["Ballot", 1, True, "x"],
        [0, 1, 2],
    ],
)
def test_no_user_value_collides_with_a_tag(value):
    """The parent's tags lived in dict keys, so ``{"__t": [1]}`` came back
    as the tuple ``(1,)``.  Tags now lead lists, every list the encoder
    emits is tagged, and dicts carry none — user data comes back as sent."""
    restored = decode(JsonCodec.loads(JsonCodec.dumps(encode(value))))
    assert restored == value and type(restored) is type(value)


# ----------------------------------------------------------------------
# Back-references: a value shared within a message crosses the wire once
# ----------------------------------------------------------------------
def _batch(size):
    """One transaction's options for one replica set, built the way the
    coordinator builds them: every option carries the one write-set tuple,
    and its record is one of that tuple's ids (§3.2.3)."""
    writeset = tuple(RecordId("items", f"item:{index:06d}") for index in range(size))
    return messages.ProposeFastBatch(
        options=tuple(
            Option(
                txid="tx-40",
                record=record,
                update=CommutativeUpdate(deltas=(("stock", -1.0),)),
                writeset=writeset,
            )
            for record in writeset
        ),
        reply_to="app-us-west-1",
        epoch=0,
    )


#: a back-reference and the comma before it
_REFERENCE = re.compile(r",\[4,\d+\]")


def test_a_batch_names_each_record_once_and_decodes_to_shared_ids():
    batch = _batch(3)
    text = JsonCodec.dumps(encode(batch)).decode()
    assert text.count('"RecordId"') == 3
    for record in batch.options[0].writeset:
        assert text.count(f'"{record.key}"') == 1
    restored = decode(JsonCodec.loads(text.encode()))
    assert restored == batch
    records = restored.options[0].writeset
    for option, record in zip(restored.options, records):
        assert option.record is record
        assert all(mine is first for mine, first in zip(option.writeset, records))


def test_only_a_reference_per_option_and_key_grows_with_the_square():
    """A batch of k options used to spell k·(k+1) record ids.  Now it
    spells k; the k² remaining (option, key) pairs are a reference each,
    shorter than any spelled id, and everything else grows linearly."""
    spelled = len(JsonCodec.dumps(encode(RecordId("items", "item:000000"))))
    rest = []
    for size in range(1, 9):
        text = JsonCodec.dumps(encode(_batch(size))).decode()
        references = _REFERENCE.findall(text)
        assert text.count('"RecordId"') == size
        assert len(references) == size * size
        assert max(map(len, references)) < spelled / 4
        rest.append(len(text) - sum(map(len, references)))
    assert len({later - earlier for earlier, later in zip(rest, rest[1:])}) == 1


def test_sharing_is_by_identity_and_messages_without_it_carry_no_reference():
    twins = (RecordId("items", "item:000001"), RecordId("items", "item:000001"))
    assert encode(twins) == [0, *(["RecordId", "items", "item:000001"],) * 2]
    shared = (twins[0], twins[0])
    assert encode(shared) == [0, ["RecordId", "items", "item:000001"], [4, 0]]
    restored = decode(encode(shared))
    assert restored == shared and restored[0] is restored[1]
    for name in ("ReadRequest", "ReadReply", "FastReply"):
        assert _REFERENCE.search(JsonCodec.dumps(encode(SAMPLES[name])).decode()) is None


_SPELLED = ["RecordId", "items", "item:000001"]


@pytest.mark.parametrize(
    "value",
    [
        [4, 0],  # nothing is built yet
        # a forward reference: the record the option names comes later
        ["Option", "tx", [4, 0], ["ReadValidation", 1], [0, _SPELLED], [2, "pending"]],
        [0, _SPELLED, [4, 1]],  # out of range: one value is built
        [0, _SPELLED, [4, -1]],  # seen[-1] would have named the last one
        [0, _SPELLED, [4, True]],
        [0, _SPELLED, [4, 0.0]],
        [0, _SPELLED, [4, "0"]],
        [0, _SPELLED, [4]],
        [0, _SPELLED, [4, 0, 0]],
    ],
)
def test_every_malformed_reference_is_a_codec_error(value):
    assert decode([0, _SPELLED, [4, 0]])[1].key == "item:000001"
    with pytest.raises(CodecError):
        decode(JsonCodec.loads(JsonCodec.dumps(value)))


def test_the_memo_keeps_what_it_numbers_alive(monkeypatch):
    """Record ids built on the spot and dropped once encoded: a memo that
    kept only their ``id()`` would see a later one at a freed address and
    send a reference to the wrong record."""

    class Fresh:
        pass

    def encode_fresh(_obj, memo):
        fresh = (RecordId("items", f"item:{index:06d}") for index in range(64))
        data = codec._encode_items(fresh, memo, 1)
        assert all(key == id(value) for key, (_index, value) in memo.items())
        return data

    monkeypatch.setitem(codec._ENCODERS, Fresh, encode_fresh)
    assert decode(encode(Fresh())) == [RecordId("items", f"item:{i:06d}") for i in range(64)]


def test_unregistered_type_is_a_loud_error():
    @dataclasses.dataclass(frozen=True)
    class Rogue:
        x: int

    with pytest.raises(CodecError, match="no codec entry"):
        encode(Rogue(x=1))
    with pytest.raises(CodecError, match="no codec entry"):
        encode(messages.Visibility(option=Rogue(x=1), committed=True))


def test_non_string_dict_keys_rejected():
    with pytest.raises(CodecError, match="non-string dict key"):
        encode({1: "a"})


@pytest.mark.parametrize(
    "value",
    [
        ["Ballot", 1],  # too few fields
        ["Ballot", 1, True, "x", "extra"],
        ["NoSuchType", 1],
        [],  # no tag
        [[1], 2],  # unhashable tag
        [7, 1],  # unknown built-in tag
        [2, "no-such-status"],
        ["ReadValidation", -1],  # the constructor refuses it
        ["CommutativeUpdate", 5],  # __post_init__ trips over it
        {"key": ["NoSuchType"]},
        b"bytes",
    ],
)
def test_every_decode_failure_is_a_codec_error(value):
    with pytest.raises(CodecError):
        decode(value)


@pytest.mark.parametrize(
    "payload",
    [
        b"",
        b"J{not json",
        b"J\xff\xfe",
        b"J[1,2]",  # JSON, but not an envelope
        b'J{"src":"a","dst":"b"}',  # no message
        b"Xwhatever",
    ],
)
def test_every_malformed_frame_payload_is_a_codec_error(payload):
    with pytest.raises(CodecError):
        decode_frame_payload(payload)


@pytest.mark.parametrize("trace", [None, ["trace-1", "span-2"]])
def test_split_frame_payload_splices_to_the_whole_envelope(trace):
    byte_codec = JsonCodec()
    envelope = {"src": "app-1", "src_dc": "us-west", "dst": "store-1", "msg": codec.BODY}
    if trace:
        envelope["trace"] = trace
    prefix, suffix = codec.split_frame_payload(envelope, byte_codec)
    body = encode(SAMPLES["ProposeFast"])
    whole = encode_frame_payload({**envelope, "msg": body}, byte_codec)
    assert prefix + byte_codec.dumps(body) + suffix == whole
    assert decode_frame_payload(whole).get("trace") == trace


def test_resolve_codec_json_default():
    byte_codec, warning = resolve_codec("json")
    assert byte_codec.name == "json"
    assert warning is None


def test_resolve_codec_msgpack_degrades_without_package():
    byte_codec, warning = resolve_codec("msgpack")
    try:
        import msgpack  # noqa: F401
    except ImportError:
        assert byte_codec.name == "json"
        assert "repro[transport]" in warning
    else:
        assert byte_codec.name == "msgpack"
        assert warning is None


def test_msgpack_round_trip_if_available():
    msgpack_mod = pytest.importorskip("msgpack")
    assert msgpack_mod is not None
    byte_codec, _ = resolve_codec("msgpack")
    envelope = {"src": "a", "src_dc": "us-west", "dst": "b", "msg": encode(CSTRUCT)}
    back = decode(decode_frame_payload(encode_frame_payload(envelope, byte_codec))["msg"])
    assert _equal(back, CSTRUCT)
    prefix, suffix = codec.split_frame_payload({**envelope, "msg": codec.BODY}, byte_codec)
    assert prefix + byte_codec.dumps(envelope["msg"]) + suffix == encode_frame_payload(
        envelope, byte_codec
    )
    with pytest.raises(CodecError):
        decode_frame_payload(b"M\xc1")


def test_unknown_codec_rejected():
    with pytest.raises(CodecError, match="unknown codec"):
        resolve_codec("protobuf")
