"""Wire codec for the protocol message dataclasses.

The TCP backend ships the same frozen dataclasses the simulator delivers
by reference.  Encoding maps them to plain JSON/msgpack-compatible
values in which every list is tagged by its first element:

* a registered dataclass ``T(f1=..., f2=...)`` becomes ``["T", f1, f2]``
  — its init fields, positional, in declaration order (non-init fields
  are caches ``__post_init__`` derives again on the other side);
* a tuple becomes ``[0, ...]`` (tuple-ness must survive the trip — frozen
  dataclasses hash their tuple fields) and a list ``[1, ...]``;
* an :class:`~repro.core.options.OptionStatus` becomes ``[2, value]``;
* a :class:`~repro.paxos.cstruct.CStruct` becomes ``[3, commands...]``;
* ``None``/``bool``/``int``/``float``/``str`` pass through; dicts (string
  keys only) map value-wise — no tag lives in a dict key, so no key a
  user's dict may carry collides with one;
* a value of a :data:`VALUE_TYPES` class (record ids, options, updates,
  ballots) that this ``encode`` call has already emitted — the *same
  object*, by identity — becomes a back-reference ``[4, index]``.

**Each value once per message.**  MDCC puts the whole write-set into
every option (§3.2.3), so a batch of k options holds k·(k+1) record ids
of which only k are distinct objects.  The encoder numbers the values of
:data:`VALUE_TYPES` in post-order — a value gets the next index once its
fields are encoded — and the decoder appends each such value to a
per-call list as its constructor returns, so both count the same way and
a reference can only name a value already built: every distinct value is
still built and validated exactly once, by its real constructor.  The
encode memo holds each object it numbers, so an ``id`` cannot be reused
by a temporary while the call runs.  Sharing is by identity only: equal
but distinct objects are spelled twice, as the sender holds them.
Lists and dicts stay inline because they are mutable — an alias decoded
from one would tie together two fields the receiver treats as
independent.  Tuples and strings stay inline too: they are in almost
every message and cheap to spell, and numbering them would charge a memo
entry to messages that share nothing (``ReadRequest``, ``ReadReply``, a
single ``FastReply`` hold no shared value and pay only an empty memo).

**Built once.**  One encoder and one decoder per registered class are
made at import from ``dataclasses.fields(cls)``; a value dispatches on
its exact class (encoding) or its tag (decoding), and decoders call the
real constructor, so validation and derived fields run as they would
locally.  Field *names* are not on the wire, so the shape is only as
stable as the class definitions: every process of a cluster runs from
one source tree — mixed-version clusters are not a supported deployment,
and the shape is not versioned (the tag byte still fails mixed *byte
codecs* loudly).

**Registration is explicit.**  :data:`MESSAGE_TYPES` must list every
wire-reachable message dataclass — all of :mod:`repro.core.messages`
plus the protocol-local messages under :mod:`repro.protocols`.  The
WIRE-codec rule of :mod:`repro.analysis` statically fails the build when
a message lands without frozen/``__slots__``/codec entry, and the codec
round-trip tests require a worst-case sample per registered type.

Two byte codecs wrap the transform: JSON (always available) and msgpack
(the optional ``repro[transport]`` extra).  Frames on the wire are
``4-byte big-endian length | 1 codec tag byte | payload``, the payload
an envelope ``{"src", "src_dc", "dst", "msg"[, "trace"]}``.
"""

from __future__ import annotations

import dataclasses
import json
from typing import Any, Callable, Dict, List, Optional, Protocol, Tuple, Type

from repro.core import messages as _messages
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
from repro.protocols.megastore import (
    MsCommitRequest,
    MsCommitResult,
    MsLogAck,
    MsLogAppend,
)
from repro.protocols.quorumwrites import QWAck, QWWrite
from repro.protocols.twopc import (
    DecisionAck,
    DecisionMessage,
    PrepareReply,
    PrepareRequest,
)
from repro.transport.base import TransportError

__all__ = [
    "BODY",
    "ByteCodec",
    "CodecError",
    "MESSAGE_TYPES",
    "VALUE_TYPES",
    "decode",
    "decode_frame_payload",
    "encode",
    "encode_frame_payload",
    "resolve_codec",
    "split_frame_payload",
]


class CodecError(TransportError):
    """An object cannot be encoded, or a payload cannot be decoded."""


#: every message class that may cross the wire (core + protocol-local);
#: the WIRE-codec analyzer rule enforces the pairing.
MESSAGE_TYPES: Tuple[type, ...] = (
    _messages.CatchUp,
    _messages.FastReply,
    _messages.FastReplyBatch,
    _messages.MPhase1a,
    _messages.MPhase1b,
    _messages.MPhase2a,
    _messages.MPhase2b,
    _messages.MastershipTaken,
    _messages.OptionOutcome,
    _messages.ProposeClassic,
    _messages.ProposeFast,
    _messages.ProposeFastBatch,
    _messages.RcApply,
    _messages.RcCommitRequest,
    _messages.RcDecision,
    _messages.RcPrepare,
    _messages.RcPrepareReply,
    _messages.RcVote,
    _messages.ReadReply,
    _messages.ReadRequest,
    _messages.RepairProbe,
    _messages.RepairReply,
    _messages.SnapshotAck,
    _messages.SnapshotChunk,
    _messages.SnapshotRequest,
    _messages.StartRecovery,
    _messages.StatusReply,
    _messages.StatusRequest,
    _messages.Visibility,
    _messages.VisibilityBatch,
    # protocol-local messages (baseline protocols from §5.2)
    DecisionAck,
    DecisionMessage,
    MsCommitRequest,
    MsCommitResult,
    MsLogAck,
    MsLogAppend,
    PrepareReply,
    PrepareRequest,
    QWAck,
    QWWrite,
)

#: value dataclasses nested inside messages.
VALUE_TYPES: Tuple[type, ...] = (
    Ballot,
    BallotRange,
    CommutativeUpdate,
    Option,
    PhysicalUpdate,
    ReadValidation,
    RecordId,
)

_PLAIN = frozenset({type(None), bool, int, float, str})
#: list tags of the built-in shapes; a registered class's tag is its name
_TUPLE, _LIST, _STATUS, _CSTRUCT, _REF = 0, 1, 2, 3, 4
_STATUSES = {status.value: status for status in OptionStatus}

#: ``id(value) -> (index, value)`` of the shared values one ``encode``
#: call has emitted; holding ``value`` keeps its ``id`` from being reused
_Memo = Dict[int, Tuple[int, Any]]


def _encode_items(items: Any, memo: _Memo, tag: int = _TUPLE) -> List[Any]:
    data = [tag]
    for value in items:
        data.append(value if value.__class__ in _PLAIN else _ENCODERS[value.__class__](value, memo))
    return data


def _encode_dict(obj: Dict[Any, Any], memo: _Memo) -> Dict[str, Any]:
    if any(key.__class__ is not str for key in obj):
        raise CodecError(f"non-string dict key in {obj!r} is not encodable")
    return {
        key: value if value.__class__ in _PLAIN else _ENCODERS[value.__class__](value, memo)
        for key, value in obj.items()
    }


def _decode_value(data: Any, seen: List[Any]) -> Any:
    cls = data.__class__
    if cls is list:
        return _DECODERS[data[0]](data, seen)
    if cls in _PLAIN:
        return data
    if cls is dict:
        return {
            key: value if value.__class__ in _PLAIN else _decode_value(value, seen)
            for key, value in data.items()
        }
    raise CodecError(f"cannot decode {cls.__name__}: {data!r}")


def _decode_items(data: List[Any], seen: List[Any]) -> List[Any]:
    items = []
    for value in data[1:]:
        items.append(
            value if value.__class__ in _PLAIN
            else _DECODERS[value[0]](value, seen) if value.__class__ is list
            else _decode_value(value, seen)
        )
    return items


def _decode_ref(data: List[Any], seen: List[Any]) -> Any:
    _tag, index = data
    if index.__class__ is not int or not 0 <= index < len(seen):
        raise CodecError(f"reference {index!r} names none of the {len(seen)} values built so far")
    return seen[index]


_ENCODERS: Dict[type, Callable[[Any, _Memo], Any]] = {
    tuple: _encode_items,
    list: lambda items, memo: _encode_items(items, memo, _LIST),
    dict: _encode_dict,
    OptionStatus: lambda status, memo: [_STATUS, status.value],
    CStruct: lambda cstruct, memo: _encode_items(cstruct.commands, memo, _CSTRUCT),
}
_DECODERS: Dict[Any, Callable[[List[Any], List[Any]], Any]] = {
    _TUPLE: lambda data, seen: tuple(_decode_items(data, seen)),
    _LIST: _decode_items,
    _STATUS: lambda data, seen: _STATUSES[data[1]],
    _CSTRUCT: lambda data, seen: CStruct(_decode_items(data, seen)),
    _REF: _decode_ref,
}

#: one field on its way through: plain values as they are, the rest
#: dispatched on their class (encoding) or their tag (decoding)
_ENCODED = "{0} if {0}.__class__ in _PLAIN else _ENCODERS[{0}.__class__]({0}, memo)"
_DECODED = (
    "{0} if {0}.__class__ in _PLAIN else _DECODERS[{0}[0]]({0}, seen)"
    " if {0}.__class__ is list else _decode_value({0}, seen)"
)


def _register(cls: Type[Any], shared: bool) -> None:
    """Compile ``cls``'s encoder and decoder (as ``dataclasses`` compiles
    ``__init__``): init fields only, positional, in declaration order;
    the decoder unpacks exactly that many and calls the constructor.  A
    ``shared`` class's encoder emits a reference for an object this call
    has already emitted, and its decoder records every value it builds."""
    names = [field.name for field in dataclasses.fields(cls) if field.init]
    slots = [f"v{i}" for i in range(len(names))]
    encoded = (_ENCODED.format(v) for v in slots)
    decoded = (_DECODED.format(v) for v in slots)
    unpack = f"    {', '.join(slots)}, = {', '.join('obj.' + name for name in names)},\n"
    fields = f"[tag, {', '.join(encoded)}]"
    built = f"cls({', '.join(decoded)})"
    if shared:
        encoder = (
            "    key = id(obj)\n"
            "    if key in memo:\n"
            "        return [_REF, memo[key][0]]\n"
            f"{unpack}"
            f"    data = {fields}\n"
            "    memo[key] = (len(memo), obj)\n"
            "    return data\n"
        )
        decoder = f"    value = {built}\n    seen.append(value)\n    return value\n"
    else:
        encoder = f"{unpack}    return {fields}\n"
        decoder = f"    return {built}\n"
    source = (
        f"def encode(obj, memo, tag=tag):\n{encoder}"
        f"def decode(data, seen, cls=cls):\n    _tag, {', '.join(slots)}, = data\n{decoder}"
    )
    # Module globals, so the helpers resolve; the two per-class names are
    # bound as defaults when the ``def``s run.
    compiled: Dict[str, Any] = {"cls": cls, "tag": cls.__name__}
    exec(source, globals(), compiled)  # noqa: S102 - built from our own field names
    _ENCODERS[cls] = compiled["encode"]
    _DECODERS[cls.__name__] = compiled["decode"]


for _cls in MESSAGE_TYPES:
    _register(_cls, shared=False)
for _cls in VALUE_TYPES:
    _register(_cls, shared=True)


def encode(obj: Any) -> Any:
    """Transform ``obj`` into JSON/msgpack-compatible values."""
    try:
        return obj if obj.__class__ in _PLAIN else _ENCODERS[obj.__class__](obj, {})
    except KeyError as exc:
        cls = exc.args[0]
        raise CodecError(
            f"{cls.__module__}.{cls.__name__} has no codec entry; add it to "
            "repro.transport.codec.MESSAGE_TYPES or VALUE_TYPES"
        ) from None


def decode(data: Any) -> Any:
    """Inverse of :func:`encode`; anything it cannot rebuild — unknown tag,
    wrong field count, a value the constructor refuses — is a
    :class:`CodecError`."""
    try:
        return _decode_value(data, [])
    except (KeyError, IndexError, TypeError, ValueError) as exc:
        raise CodecError(f"cannot decode {data!r}: {exc!r}") from exc


# ----------------------------------------------------------------------
# Byte codecs
# ----------------------------------------------------------------------
class ByteCodec(Protocol):
    """The structural contract both byte codecs satisfy."""

    name: str
    tag: bytes

    def dumps(self, obj: Any) -> bytes: ...

    def loads(self, payload: bytes) -> Any: ...


class JsonCodec:
    name = "json"
    tag = b"J"
    _encode = json.JSONEncoder(separators=(",", ":"), check_circular=False).encode
    _decode = json.JSONDecoder().decode

    @staticmethod
    def dumps(obj: Any) -> bytes:
        return JsonCodec._encode(obj).encode("utf-8")

    @staticmethod
    def loads(payload: bytes) -> Any:
        return JsonCodec._decode(payload.decode("utf-8"))


class MsgpackCodec:
    name = "msgpack"
    tag = b"M"

    def __init__(self) -> None:
        import msgpack  # deferred: the optional [transport] extra

        self._msgpack: Any = msgpack

    def dumps(self, obj: Any) -> bytes:
        return self._msgpack.packb(obj, use_bin_type=True)

    def loads(self, payload: bytes) -> Any:
        return self._msgpack.unpackb(payload, raw=False, strict_map_key=False)


def resolve_codec(preferred: str = "json") -> Tuple[ByteCodec, Optional[str]]:
    """Return ``(codec, warning_or_None)`` for the requested byte codec.

    ``msgpack`` degrades to JSON frames with an explanatory warning when
    the package is absent (install the ``repro[transport]`` extra for the
    binary codec).
    """
    if preferred == "json":
        return JsonCodec(), None
    if preferred == "msgpack":
        try:
            return MsgpackCodec(), None
        except ImportError:
            return JsonCodec(), (
                "msgpack is not installed; falling back to JSON frames. "
                "Install the optional dependency group for binary framing: "
                "pip install 'repro[transport]'"
            )
    raise CodecError(f"unknown codec {preferred!r}; choose json or msgpack")


_CODECS_BY_TAG: Dict[bytes, ByteCodec] = {b"J": JsonCodec()}


#: stands where the message body goes in an envelope handed to
#: :func:`split_frame_payload`
BODY = "\x00body\x00"


def encode_frame_payload(envelope: Dict[str, Any], codec: ByteCodec) -> bytes:
    """``codec tag byte + serialized envelope`` (length prefix added by
    the framing layer)."""
    return codec.tag + codec.dumps(envelope)


def split_frame_payload(envelope: Dict[str, Any], codec: ByteCodec) -> Tuple[bytes, bytes]:
    """The frame payload of an envelope whose ``"msg"`` is :data:`BODY`,
    cut around it: ``prefix + codec.dumps(msg) + suffix`` is the payload
    of the same envelope around ``msg`` — one serialised message body can
    go to many destinations, each splicing its own header on."""
    prefix, suffix = encode_frame_payload(envelope, codec).split(codec.dumps(BODY))
    return prefix, suffix


def decode_frame_payload(payload: bytes) -> Dict[str, Any]:
    """Inverse of :func:`encode_frame_payload`; the tag byte selects the
    codec so mixed-codec peers fail loudly instead of garbling.  Bytes
    that are not an envelope carrying a ``"msg"`` are a
    :class:`CodecError`."""
    if not payload:
        raise CodecError("empty frame")
    tag = payload[:1]
    codec = _CODECS_BY_TAG.get(tag)
    if codec is None:
        if tag == b"M":
            try:
                codec = _CODECS_BY_TAG.setdefault(b"M", MsgpackCodec())
            except ImportError:
                raise CodecError(
                    "received a msgpack frame but msgpack is not installed; "
                    "install 'repro[transport]' or run the cluster with "
                    "--codec json"
                ) from None
        else:
            raise CodecError(f"unknown codec tag {tag!r}")
    try:
        envelope = codec.loads(payload[1:])
    except ValueError as exc:  # malformed JSON/msgpack, invalid UTF-8
        raise CodecError(f"malformed {codec.name} frame: {exc}") from exc
    if envelope.__class__ is not dict or "msg" not in envelope:
        raise CodecError(f"frame is not an envelope: {envelope!r}")
    return envelope
