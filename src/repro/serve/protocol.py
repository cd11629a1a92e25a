"""Wire protocol of the serving daemon: framing and request mapping.

Frames are length-prefixed JSON objects: a 4-byte big-endian unsigned
payload length followed by that many bytes of UTF-8 JSON encoding a
single object. Length-prefixing (rather than newline-delimiting) keeps
the stream binary-safe and lets a reader reject an oversized or
malformed frame *before* buffering it — a garbage prefix surfaces as a
typed :class:`ProtocolError` subclass, never a hung client waiting for
a newline that will not come.

Error taxonomy (every subclass carries a stable ``code`` string that
travels inside error frames):

- :class:`FrameTooLarge` — declared length exceeds the negotiated cap.
- :class:`FrameTruncated` — the stream ended mid-frame.
- :class:`FrameGarbage` — the payload is not valid UTF-8 JSON, or not a
  JSON object.
- :class:`BadRequest` — the frame parsed but does not describe a
  runnable simulation request.

:func:`wire_to_request` maps the JSON ``request`` body onto the
runner's :class:`~repro.experiments.runner.RunRequest` — the *same*
cacheable unit the experiment harnesses use, which is what makes served
results bit-identical to direct runs and repeat requests servable from
the disk run cache.
"""

import asyncio
import json
import struct

from repro.experiments import common, runner
from repro.sim.config import KNOWN_POLICIES
from repro.workloads.profiles import APP_PROFILES

#: Default cap on one frame's JSON payload (32 MiB — a full app-run
#: summary is ~100 KiB, so this is generous without letting a garbage
#: length prefix allocate unbounded memory).
MAX_FRAME = 32 * 1024 * 1024

_HEADER = struct.Struct(">I")

#: Override values must stay hashable scalars: ``RunRequest.overrides``
#: is a sorted tuple of pairs that doubles as a memo key.
_SCALAR_TYPES = (bool, int, float, str, type(None))


class ProtocolError(Exception):
    """Base of every typed wire-protocol failure."""

    code = "protocol_error"


class FrameTooLarge(ProtocolError):
    code = "frame_too_large"


class FrameTruncated(ProtocolError):
    code = "frame_truncated"


class FrameGarbage(ProtocolError):
    code = "frame_garbage"


class BadRequest(ProtocolError):
    code = "bad_request"


def error_body(exc):
    """The JSON body of an error frame for ``exc``."""
    code = exc.code if isinstance(exc, ProtocolError) else "internal"
    return {"code": code, "type": type(exc).__name__, "message": str(exc)}


# -- framing -------------------------------------------------------------------


def encode_frame(obj, max_frame=MAX_FRAME):
    """``obj`` (a JSON-serializable object) -> one wire frame."""
    payload = json.dumps(obj, sort_keys=True,
                         separators=(",", ":")).encode("utf-8")
    if len(payload) > max_frame:
        raise FrameTooLarge("frame payload is %d bytes (cap %d)"
                            % (len(payload), max_frame))
    return _HEADER.pack(len(payload)) + payload


def decode_payload(payload):
    """Frame payload bytes -> the decoded object (must be a JSON dict)."""
    try:
        obj = json.loads(payload.decode("utf-8"))
    except (ValueError, UnicodeDecodeError) as exc:
        raise FrameGarbage("frame payload is not valid JSON: %s" % exc)
    if not isinstance(obj, dict):
        raise FrameGarbage("frame payload is %s, expected a JSON object"
                           % type(obj).__name__)
    return obj


class FrameDecoder:
    """Incremental frame decoder over an arbitrary byte stream.

    Feed chunks with :meth:`feed`; completed frames come back from
    :meth:`frames`. Oversized and garbage frames raise immediately — the
    connection is then unrecoverable (framing is lost) and should be
    closed. :meth:`at_boundary` distinguishes a clean EOF (buffer empty)
    from a truncated one (bytes of an unfinished frame still pending).
    """

    def __init__(self, max_frame=MAX_FRAME):
        self.max_frame = max_frame
        self._buffer = bytearray()

    def feed(self, data):
        self._buffer.extend(data)

    def at_boundary(self):
        return not self._buffer

    def frames(self):
        """Yield every frame completed so far (consumes the buffer)."""
        while True:
            if len(self._buffer) < _HEADER.size:
                return
            (length,) = _HEADER.unpack(bytes(self._buffer[:_HEADER.size]))
            if length > self.max_frame:
                raise FrameTooLarge("declared frame length %d exceeds cap %d"
                                    % (length, self.max_frame))
            if len(self._buffer) < _HEADER.size + length:
                return
            payload = bytes(self._buffer[_HEADER.size:_HEADER.size + length])
            del self._buffer[:_HEADER.size + length]
            yield decode_payload(payload)


async def read_frame(reader, max_frame=MAX_FRAME):
    """Read one frame from an asyncio stream reader.

    Returns the decoded dict, or None on a clean EOF at a frame
    boundary. EOF mid-frame raises :class:`FrameTruncated`; a declared
    length beyond ``max_frame`` raises :class:`FrameTooLarge` without
    reading the payload.
    """
    try:
        header = await reader.readexactly(_HEADER.size)
    except asyncio.IncompleteReadError as exc:
        if not exc.partial:
            return None
        raise FrameTruncated("stream ended inside a frame header "
                             "(%d of %d bytes)"
                             % (len(exc.partial), _HEADER.size))
    (length,) = _HEADER.unpack(header)
    if length > max_frame:
        raise FrameTooLarge("declared frame length %d exceeds cap %d"
                            % (length, max_frame))
    try:
        payload = await reader.readexactly(length)
    except asyncio.IncompleteReadError as exc:
        raise FrameTruncated("stream ended inside a frame payload "
                             "(%d of %d bytes)" % (len(exc.partial), length))
    return decode_payload(payload)


async def write_frame(writer, obj, max_frame=MAX_FRAME):
    writer.write(encode_frame(obj, max_frame=max_frame))
    await writer.drain()


# -- request mapping -----------------------------------------------------------


def request_to_wire(request):
    """:class:`~repro.experiments.runner.RunRequest` -> JSON body."""
    return {
        "kind": request.kind,
        "app": request.app,
        "config_name": request.config_name,
        "overrides": dict(request.overrides),
        "cores": request.cores,
        "scale": request.scale,
        "containers_per_core": request.containers_per_core,
        "dense": request.dense,
    }


def wire_to_request(data):
    """JSON ``request`` body -> a validated ``RunRequest``.

    Raises :class:`BadRequest` with a message naming the offending field
    for anything that cannot become a runnable, cacheable request.
    """
    if not isinstance(data, dict):
        raise BadRequest("request body must be a JSON object, got %s"
                         % type(data).__name__)
    kind = data.get("kind", "app")
    if kind not in ("app", "functions"):
        raise BadRequest("unknown request kind %r (expected 'app' or "
                         "'functions')" % (kind,))
    app = data.get("app")
    if kind == "app":
        if not isinstance(app, str) or app not in APP_PROFILES:
            raise BadRequest("unknown app %r (known: %s)"
                             % (app, ", ".join(sorted(APP_PROFILES))))
    else:
        app = None
    overrides = data.get("overrides") or {}
    if not isinstance(overrides, dict):
        raise BadRequest("overrides must be a JSON object")
    for field, value in overrides.items():
        if not isinstance(value, _SCALAR_TYPES):
            raise BadRequest("override %r must be a scalar, got %s"
                             % (field, type(value).__name__))
    policy = overrides.get("policy")
    if policy is not None and policy not in KNOWN_POLICIES:
        # Reject by name rather than letting anything downstream guess:
        # an unknown policy must never default to the conventional path.
        raise BadRequest("unknown policy %r for field 'policy' (known: %s)"
                         % (policy, ", ".join(KNOWN_POLICIES)))
    config_name = data.get("config_name", "Baseline")
    try:
        common.config_by_name(config_name, **overrides)
    except KeyError:
        raise BadRequest("unknown config %r" % (config_name,))
    except TypeError as exc:
        raise BadRequest("bad overrides for config %r: %s"
                         % (config_name, exc))
    except ValueError as exc:
        # SimConfig validation errors name the offending field
        # (e.g. an unknown 'policy').
        raise BadRequest("bad overrides for config %r: %s"
                         % (config_name, exc))
    cores = data.get("cores", 8)
    if not isinstance(cores, int) or isinstance(cores, bool) or cores < 1:
        raise BadRequest("cores must be a positive integer, got %r"
                         % (cores,))
    scale = data.get("scale", 1.0)
    if not isinstance(scale, (int, float)) or isinstance(scale, bool) \
            or scale <= 0:
        raise BadRequest("scale must be a positive number, got %r"
                         % (scale,))
    per_core = data.get("containers_per_core")
    if per_core is not None and (not isinstance(per_core, int)
                                 or isinstance(per_core, bool)
                                 or per_core < 1):
        raise BadRequest("containers_per_core must be a positive integer "
                         "or null, got %r" % (per_core,))
    dense = data.get("dense", True)
    if not isinstance(dense, bool):
        raise BadRequest("dense must be a boolean, got %r" % (dense,))
    return runner.RunRequest(
        kind=kind, app=app, config_name=config_name,
        overrides=runner.request_overrides(**overrides),
        cores=cores, scale=float(scale), containers_per_core=per_core,
        dense=dense)
