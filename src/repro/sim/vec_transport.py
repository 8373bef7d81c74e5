"""Zero-pickle wire format for the process VectorEnv backend.

The process backend moves four kinds of payload between the parent and
its worker processes every lockstep round: action batches going down,
and observation/reward/done/info batches coming back. Shipping those
through ``Connection.send`` would pickle every ``Alert``,
``Observation`` and info dict per lane per step — measurable pure
overhead on the training hot path. This module is the one protocol
instead: an explicit binary record format (``struct``-packed,
little-endian) that both sides encode and decode directly, for every
frame from the worker's hello to its last reply:

* commands (parent -> worker): one opcode byte, then a fixed layout per
  command; an action is ``None``, an integer index, or a list of
  ``DefenderAction``s — exactly what ``InasimEnv.step`` accepts;
* replies (worker -> parent): a status byte, then per-lane observation
  blocks and a *structured info record* — step tallies, reward
  breakdown, launched/completed action lists, attacker phase, optional
  ground-truth conditions and ``final_observation`` slot — plus only
  the ``reset_infos`` entries that actually changed this step.

Records reconstruct the exact objects the sync backend returns
(``Observation`` / ``Alert`` / ``ScanResult`` / ``DefenderAction`` /
``RewardBreakdown``), field for field, so backend parity stays
bit-exact; floats round-trip through fixed-width IEEE doubles, never
text. Anything the format cannot express raises :class:`EncodeError`
(a :class:`TypeError`): on the parent side before any command is sent,
on the worker side as an ``ST_ERR`` reply naming the offending value.

The byte layout is deliberately self-contained: the only shared context
is a :class:`Dims` tuple (action/node/PLC/condition counts) carried by
the worker's hello and by every relane reply, so a live pool can even
be re-laned onto a different network preset.
"""

from __future__ import annotations

import numbers
import struct
import zlib
from typing import Any, NamedTuple

import numpy as np

from repro.sim.observations import Alert, AlertSource, Observation, ScanResult
from repro.sim.orchestrator import DefenderAction, DefenderActionType
from repro.sim.reward import RewardBreakdown

__all__ = [
    "Dims",
    "EncodeError",
    "FrameError",
    "OP_STEP",
    "OP_MASKS",
    "OP_RESET",
    "OP_RESET_ENV",
    "OP_AUTO_RESET",
    "OP_RELANE",
    "OP_CLOSE",
    "OP_RESTORE",
    "ST_OK",
    "ST_ERR",
    "RESTORE_VIRGIN",
    "RESTORE_RESET",
    "RESTORE_REBUILT",
    "INFO_SCALAR_FIELDS",
    "BREAKDOWN_FIELDS",
    "dims_of",
    "seal_frame",
    "open_frame",
    "encode_restore_cmd",
    "decode_restore_cmd",
    "encode_step_cmd",
    "decode_step_cmd",
    "encode_step_reply",
    "decode_step_reply",
    "encode_masks_reply",
    "decode_masks_reply",
    "encode_reset_cmd",
    "decode_reset_cmd",
    "encode_reset_reply",
    "decode_reset_reply",
    "encode_reset_env_cmd",
    "decode_reset_env_cmd",
    "encode_reset_env_reply",
    "decode_reset_env_reply",
    "encode_relane_reply",
    "decode_relane_reply",
    "encode_error",
    "decode_error",
]

# command opcodes (parent -> worker)
OP_STEP = 0x90
OP_MASKS = 0x91
OP_RESET = 0x92
OP_RESET_ENV = 0x93
OP_AUTO_RESET = 0x94
OP_RELANE = 0x95
OP_CLOSE = 0x96
OP_RESTORE = 0x97  # deterministic lane recovery after a worker respawn

# reply status bytes (worker -> parent)
ST_OK = 0xA0  # payload follows inline
ST_ERR = 0xA1  # utf-8 error message follows

_SOURCES = tuple(AlertSource)
_SOURCE_INDEX = {source: i for i, source in enumerate(_SOURCES)}
_ATYPES = tuple(DefenderActionType)
_ATYPE_INDEX = {atype: i for i, atype in enumerate(_ATYPES)}

_U32 = struct.Struct("<I")
_I64 = struct.Struct("<q")
_F64 = struct.Struct("<d")
_ALERT = struct.Struct("<qqqBB")  # t, node_id, device_id, severity, source
_SCAN = struct.Struct("<qqBb")  # t, node_id, detected, action_type
_ACTION = struct.Struct("<bq")  # atype index, target (-1 = None)
_INFO_FIXED = struct.Struct("<qd6q5d")  # t, it_cost, tallies, breakdown

#: the scalar step-info fields of ``_INFO_FIXED``, in pack order
#: (``t`` is ``<q``, ``it_cost`` ``<d``, the six tallies ``<q``). The
#: trace store (:mod:`repro.validation.tracestore`) builds its columnar
#: record schema from these names, so the wire format and the on-disk
#: log cannot drift apart independently of this module.
INFO_SCALAR_FIELDS = (
    "t",
    "it_cost",
    "n_compromised",
    "n_ws_compromised",
    "n_srv_compromised",
    "n_plcs_offline",
    "n_plcs_disrupted",
    "n_plcs_destroyed",
)

#: :class:`~repro.sim.reward.RewardBreakdown` fields in ``_INFO_FIXED``
#: pack order (five ``<d`` doubles); same dual use as above
BREAKDOWN_FIELDS = ("r_plc", "r_it", "r_term", "total", "it_cost")
_RESET_INFO = struct.Struct("<4q")  # t, n_compromised, n_ws, n_srv
_DIMS = struct.Struct("<4I")

#: exactly the keys the engine / VectorEnv auto-reset put in a step info
_INFO_KEYS = frozenset(
    (
        "t",
        "reward_breakdown",
        "it_cost",
        "n_compromised",
        "n_ws_compromised",
        "n_srv_compromised",
        "n_plcs_offline",
        "n_plcs_disrupted",
        "n_plcs_destroyed",
        "launched",
        "completed",
        "apt_phase",
        "conditions",
        "final_observation",
    )
)


class EncodeError(TypeError):
    """The payload cannot be expressed in the binary wire format.

    The format covers everything the engine produces and every action
    ``InasimEnv`` accepts, so this marks a caller error (a float or a
    list of ints as an action) or a wrapper smuggling foreign objects
    into step infos.
    """


class Dims(NamedTuple):
    """Static per-pool geometry both codec ends must agree on."""

    n_actions: int
    n_nodes: int
    n_plcs: int
    n_conditions: int

    def pack(self) -> bytes:
        return _DIMS.pack(*self)

    @classmethod
    def unpack_from(cls, buf, offset: int = 0) -> "Dims":
        return cls(*_DIMS.unpack_from(buf, offset))


def dims_of(env) -> Dims:
    """Derive the codec geometry from a live environment."""
    state = env.sim.state
    return Dims(
        n_actions=env.n_actions,
        n_nodes=len(state.node_busy_until),
        n_plcs=len(state.plc_busy_until),
        n_conditions=state.conditions.shape[1],
    )


# ----------------------------------------------------------------------
# observations
# ----------------------------------------------------------------------
def _encode_observation(out: bytearray, obs: Observation | None) -> None:
    if obs is None:  # a masked lane that was never reset
        out.append(0)
        return
    out.append(1)
    out += _I64.pack(obs.t)
    alerts = obs.alerts
    out += _U32.pack(len(alerts))
    pack_alert = _ALERT.pack
    for a in alerts:
        try:
            out += pack_alert(
                a.t,
                -1 if a.node_id is None else a.node_id,
                -1 if a.device_id is None else a.device_id,
                a.severity,
                _SOURCE_INDEX[a.source],
            )
        except (KeyError, struct.error, TypeError) as exc:
            raise EncodeError(f"unencodable alert {a!r}") from exc
    scans = obs.scan_results
    out += _U32.pack(len(scans))
    for s in scans:
        atype = s.action_type
        try:
            out += _SCAN.pack(
                s.t,
                s.node_id,
                bool(s.detected),
                -1 if atype is None else _ATYPE_INDEX[atype],
            )
        except (KeyError, struct.error, TypeError) as exc:
            raise EncodeError(f"unencodable scan result {s!r}") from exc
    for vector in (obs.plc_disrupted, obs.plc_destroyed, obs.plc_busy):
        out += np.ascontiguousarray(vector, dtype=np.uint8).tobytes()
    for vector in (obs.node_busy, obs.quarantined):
        out += np.ascontiguousarray(vector, dtype=np.uint8).tobytes()
    _encode_actions_list(out, obs.completed_actions)


def _decode_observation(buf, pos: int, dims: Dims) -> tuple[Observation | None, int]:
    if buf[pos] == 0:
        return None, pos + 1
    pos += 1
    (t,) = _I64.unpack_from(buf, pos)
    pos += 8
    (n_alerts,) = _U32.unpack_from(buf, pos)
    pos += 4
    alerts = []
    unpack_alert = _ALERT.unpack_from
    for _ in range(n_alerts):
        at, node, dev, sev, src = unpack_alert(buf, pos)
        pos += _ALERT.size
        alerts.append(
            Alert(
                at,
                sev,
                None if node < 0 else node,
                None if dev < 0 else dev,
                _SOURCES[src],
            )
        )
    (n_scans,) = _U32.unpack_from(buf, pos)
    pos += 4
    scans = []
    for _ in range(n_scans):
        st, node, detected, atype = _SCAN.unpack_from(buf, pos)
        pos += _SCAN.size
        scans.append(
            ScanResult(st, node, bool(detected),
                       None if atype < 0 else _ATYPES[atype])
        )
    vectors = []
    for count in (dims.n_plcs, dims.n_plcs, dims.n_plcs,
                  dims.n_nodes, dims.n_nodes):
        vectors.append(
            np.frombuffer(buf, dtype=np.uint8, count=count,
                          offset=pos).astype(bool)
        )
        pos += count
    completed, pos = _decode_actions_list(buf, pos)
    return (
        Observation(
            t=t,
            alerts=alerts,
            scan_results=scans,
            plc_disrupted=vectors[0],
            plc_destroyed=vectors[1],
            plc_busy=vectors[2],
            node_busy=vectors[3],
            quarantined=vectors[4],
            completed_actions=completed,
        ),
        pos,
    )


# ----------------------------------------------------------------------
# defender-action lists (launched / completed / commands)
# ----------------------------------------------------------------------
def _encode_actions_list(out: bytearray, actions) -> None:
    out += _U32.pack(len(actions))
    for action in actions:
        try:
            out += _ACTION.pack(
                _ATYPE_INDEX[action.atype],
                -1 if action.target is None else action.target,
            )
        except (KeyError, AttributeError, struct.error, TypeError) as exc:
            raise EncodeError(f"unencodable defender action {action!r}") from exc


def _decode_actions_list(buf, pos: int) -> tuple[list[DefenderAction], int]:
    (count,) = _U32.unpack_from(buf, pos)
    pos += 4
    actions = []
    for _ in range(count):
        atype, target = _ACTION.unpack_from(buf, pos)
        pos += _ACTION.size
        actions.append(
            DefenderAction(_ATYPES[atype], None if target < 0 else target)
        )
    return actions, pos


# ----------------------------------------------------------------------
# step infos
# ----------------------------------------------------------------------
_REQUIRED_INFO_KEYS = _INFO_KEYS - {"conditions", "final_observation"}


def _encode_info(out: bytearray, info: dict[str, Any],
                 auto_reset: bool = True) -> None:
    if not info:  # masked lanes report an empty dict
        out.append(0)
        return
    extra = info.keys() - _INFO_KEYS
    if extra:
        raise EncodeError(f"info carries unknown keys {sorted(extra)}")
    missing = _REQUIRED_INFO_KEYS - info.keys()
    if missing:  # e.g. a wrapper that rebuilds infos
        raise EncodeError(f"info is missing keys {sorted(missing)}")
    out.append(1)
    try:
        breakdown = info["reward_breakdown"]
        out += _INFO_FIXED.pack(
            info["t"],
            info["it_cost"],
            info["n_compromised"],
            info["n_ws_compromised"],
            info["n_srv_compromised"],
            info["n_plcs_offline"],
            info["n_plcs_disrupted"],
            info["n_plcs_destroyed"],
            breakdown.r_plc,
            breakdown.r_it,
            breakdown.r_term,
            breakdown.total,
            breakdown.it_cost,
        )
        _encode_actions_list(out, info["launched"])
        _encode_actions_list(out, info["completed"])
    except (KeyError, AttributeError, struct.error, TypeError) as exc:
        raise EncodeError(f"unencodable step info: {exc}") from exc
    phase = info["apt_phase"]
    if phase is None:
        out.append(0)
    elif isinstance(phase, str):
        encoded = phase.encode("utf-8")
        out.append(1)
        out += _U32.pack(len(encoded))
        out += encoded
    else:
        raise EncodeError(f"apt_phase must be str or None, got {type(phase)}")
    conditions = info.get("conditions")
    if conditions is None:
        out.append(0)
    else:
        out.append(1)
        out += np.ascontiguousarray(conditions, dtype=np.uint8).tobytes()
    final = info.get("final_observation")
    if final is None or not auto_reset:
        # with auto-reset disabled no lane legitimately produces a
        # final observation this step; a present one is stale (e.g. a
        # wrapper echoing a previous episode's info) and must not ship
        out.append(0)
    else:
        out.append(1)
        _encode_observation(out, final)


def _decode_info(buf, pos: int, dims: Dims) -> tuple[dict[str, Any], int]:
    if buf[pos] == 0:
        return {}, pos + 1
    pos += 1
    fixed = _INFO_FIXED.unpack_from(buf, pos)
    pos += _INFO_FIXED.size
    launched, pos = _decode_actions_list(buf, pos)
    completed, pos = _decode_actions_list(buf, pos)
    phase = None
    flag = buf[pos]
    pos += 1
    if flag:
        (length,) = _U32.unpack_from(buf, pos)
        pos += 4
        phase = bytes(buf[pos:pos + length]).decode("utf-8")
        pos += length
    info: dict[str, Any] = {
        "t": fixed[0],
        "reward_breakdown": RewardBreakdown(*fixed[8:13]),
        "it_cost": fixed[1],
        "n_compromised": fixed[2],
        "n_ws_compromised": fixed[3],
        "n_srv_compromised": fixed[4],
        "n_plcs_offline": fixed[5],
        "n_plcs_disrupted": fixed[6],
        "n_plcs_destroyed": fixed[7],
        "launched": launched,
        "completed": completed,
        "apt_phase": phase,
    }
    flag = buf[pos]
    pos += 1
    if flag:
        count = dims.n_nodes * dims.n_conditions
        info["conditions"] = (
            np.frombuffer(buf, dtype=np.uint8, count=count, offset=pos)
            .astype(bool)
            .reshape(dims.n_nodes, dims.n_conditions)
        )
        pos += count
    flag = buf[pos]
    pos += 1
    if flag:
        info["final_observation"], pos = _decode_observation(buf, pos, dims)
    return info, pos


def _encode_reset_info(out: bytearray, info: dict[str, Any]) -> None:
    try:
        out += _RESET_INFO.pack(
            info["t"],
            info["n_compromised"],
            info["n_ws_compromised"],
            info["n_srv_compromised"],
        )
    except (KeyError, struct.error, TypeError) as exc:
        raise EncodeError(f"unencodable reset info {info!r}") from exc


def _decode_reset_info(buf, pos: int) -> tuple[dict[str, Any], int]:
    t, n_comp, n_ws, n_srv = _RESET_INFO.unpack_from(buf, pos)
    return (
        {
            "t": t,
            "n_compromised": n_comp,
            "n_ws_compromised": n_ws,
            "n_srv_compromised": n_srv,
        },
        pos + _RESET_INFO.size,
    )


# ----------------------------------------------------------------------
# step command (parent -> worker)
# ----------------------------------------------------------------------
_ACT_NONE = 0
_ACT_INT = 1
_ACT_LIST = 2


def _encode_action_entry(out: bytearray, action) -> None:
    """Pack one per-lane action: ``None``, an integer action index (any
    :class:`numbers.Integral`, numpy scalars included), a single
    :class:`DefenderAction`, or an iterable of them — exactly the forms
    ``InasimEnv._coerce`` accepts. Anything else raises
    :class:`EncodeError`."""
    if action is None:
        out.append(_ACT_NONE)
    elif isinstance(action, (int, np.integer, numbers.Integral)):
        out.append(_ACT_INT)
        out += _I64.pack(int(action))
    elif isinstance(action, DefenderAction):
        out.append(_ACT_LIST)
        _encode_actions_list(out, (action,))
    else:
        try:
            actions = list(action)
        except TypeError:
            raise EncodeError(
                f"unencodable action of type {type(action).__name__}"
            ) from None
        out.append(_ACT_LIST)
        _encode_actions_list(out, actions)


def _decode_action_entry(buf, pos: int):
    kind = buf[pos]
    pos += 1
    if kind == _ACT_NONE:
        return None, pos
    if kind == _ACT_INT:
        (value,) = _I64.unpack_from(buf, pos)
        return value, pos + 8
    return _decode_actions_list(buf, pos)


def encode_step_cmd(actions, mask) -> bytearray:
    """Pack a lane group's actions (+ optional step mask) for a worker.

    An unencodable action raises :class:`EncodeError`.
    """
    out = bytearray((OP_STEP,))
    if mask is None:
        out.append(0)
    else:
        out.append(1)
        out += bytes(bytearray(bool(m) for m in mask))
    for action in actions:
        _encode_action_entry(out, action)
    return out


def decode_step_cmd(buf, k: int):
    """Inverse of :func:`encode_step_cmd` for a group of ``k`` lanes."""
    pos = 1
    mask = None
    if buf[pos]:
        mask = [bool(b) for b in buf[pos + 1:pos + 1 + k]]
        pos += 1 + k
    else:
        pos += 1
    actions: list = []
    for _ in range(k):
        action, pos = _decode_action_entry(buf, pos)
        actions.append(action)
    return actions, mask


# ----------------------------------------------------------------------
# restore command (parent -> respawned worker)
# ----------------------------------------------------------------------
# Per-lane journal kinds: how the parent last (re)initialised the lane.
RESTORE_VIRGIN = 0  # as built from the payload; only actions to replay
RESTORE_RESET = 1  # last reset with a known seed on the lane schedule
RESTORE_REBUILT = 2  # rebuilt from a (possibly new) spec with a seed


def encode_restore_cmd(states) -> bytearray:
    """Pack one ``(kind, seed, episode_count, actions)`` tuple per lane
    of a respawned worker's slice. ``seed`` must be a concrete integer
    for the RESET/REBUILT kinds — the parent only attempts recovery
    when every lane's seed is known."""
    out = bytearray((OP_RESTORE,))
    for kind, seed, episode_count, actions in states:
        out.append(kind)
        if kind != RESTORE_VIRGIN:
            out += _I64.pack(seed)
        out += _I64.pack(episode_count)
        out += _U32.pack(len(actions))
        for action in actions:
            _encode_action_entry(out, action)
    return out


def decode_restore_cmd(buf, k: int):
    """Inverse of :func:`encode_restore_cmd` for ``k`` lanes."""
    pos = 1
    states = []
    for _ in range(k):
        kind = buf[pos]
        pos += 1
        seed = None
        if kind != RESTORE_VIRGIN:
            (seed,) = _I64.unpack_from(buf, pos)
            pos += 8
        (episode_count,) = _I64.unpack_from(buf, pos)
        pos += 8
        (n_actions,) = _U32.unpack_from(buf, pos)
        pos += 4
        actions = []
        for _ in range(n_actions):
            action, pos = _decode_action_entry(buf, pos)
            actions.append(action)
        states.append((kind, seed, episode_count, actions))
    return states


# ----------------------------------------------------------------------
# frame integrity (chaos-mode CRC sealing)
# ----------------------------------------------------------------------
class FrameError(Exception):
    """A reply frame failed its CRC32 integrity check.

    Only raised when frame checking is armed (``REPRO_FRAME_CHECK``);
    the supervisor treats it as a worker fault — the sender is killed
    and its lanes recovered, exactly like a crash."""


def seal_frame(record):
    """Append a little-endian CRC32 of ``record`` to it.

    Bytearrays are extended in place (the hot reply path); other buffer
    types round-trip through ``bytes``."""
    crc = zlib.crc32(record) & 0xFFFFFFFF
    if isinstance(record, bytearray):
        record += _U32.pack(crc)
        return record
    return bytes(record) + _U32.pack(crc)


def open_frame(buf):
    """Verify and strip the CRC32 trailer added by :func:`seal_frame`."""
    if len(buf) < 5:
        raise FrameError("frame too short to carry a checksum")
    body = buf[:-4]
    (expected,) = _U32.unpack_from(buf, len(buf) - 4)
    if (zlib.crc32(body) & 0xFFFFFFFF) != expected:
        raise FrameError("frame checksum mismatch (corrupt reply)")
    return body


# ----------------------------------------------------------------------
# step reply (worker -> parent)
# ----------------------------------------------------------------------
def encode_step_reply(observations, rewards, dones, infos,
                      changed_reset_infos, *,
                      auto_reset: bool = True) -> bytearray:
    """Pack one lane group's step results.

    ``changed_reset_infos`` lists ``(local_index, reset_info)`` pairs
    for lanes that auto-reset this step — the only ones whose parent
    bookkeeping can have gone stale, so the only ones shipped. With
    ``auto_reset=False`` any ``final_observation`` in an info dict is
    dropped at the wire: only an auto-reset produces a legitimate final.
    """
    out = bytearray((ST_OK,))
    out += np.ascontiguousarray(rewards, dtype=np.float64).tobytes()
    out += np.ascontiguousarray(dones, dtype=np.uint8).tobytes()
    for obs in observations:
        _encode_observation(out, obs)
    for info in infos:
        _encode_info(out, info, auto_reset=auto_reset)
    out += _U32.pack(len(changed_reset_infos))
    for local_i, reset_info in changed_reset_infos:
        out += _U32.pack(local_i)
        _encode_reset_info(out, reset_info)
    return out


def decode_step_reply(buf, k: int, dims: Dims):
    """Inverse of :func:`encode_step_reply`; returns
    ``(observations, rewards, dones, infos, changed_reset_infos)``."""
    pos = 1
    rewards = np.frombuffer(buf, dtype=np.float64, count=k, offset=pos).copy()
    pos += 8 * k
    dones = np.frombuffer(buf, dtype=np.uint8, count=k,
                          offset=pos).astype(bool)
    pos += k
    observations = []
    for _ in range(k):
        obs, pos = _decode_observation(buf, pos, dims)
        observations.append(obs)
    infos = []
    for _ in range(k):
        info, pos = _decode_info(buf, pos, dims)
        infos.append(info)
    (n_changed,) = _U32.unpack_from(buf, pos)
    pos += 4
    changed = []
    for _ in range(n_changed):
        (local_i,) = _U32.unpack_from(buf, pos)
        pos += 4
        reset_info, pos = _decode_reset_info(buf, pos)
        changed.append((local_i, reset_info))
    return observations, rewards, dones, infos, changed


# ----------------------------------------------------------------------
# the small fry: masks, resets, errors
# ----------------------------------------------------------------------
def encode_masks_reply(masks: np.ndarray) -> bytearray:
    out = bytearray((ST_OK,))
    out += np.ascontiguousarray(masks, dtype=np.uint8).tobytes()
    return out


def decode_masks_reply(buf, k: int, dims: Dims) -> np.ndarray:
    return (
        np.frombuffer(buf, dtype=np.uint8, count=k * dims.n_actions, offset=1)
        .astype(bool)
        .reshape(k, dims.n_actions)
    )


def _pack_optional_seed(out: bytearray, seed) -> None:
    if seed is None:
        out += b"\x00" + _I64.pack(0)
    else:
        out += b"\x01" + _I64.pack(seed)


def _unpack_optional_seed(buf, pos: int):
    seed = None
    if buf[pos]:
        (seed,) = _I64.unpack_from(buf, pos + 1)
    return seed, pos + 9


def encode_reset_cmd(has_seed: bool, seed) -> bytearray:
    out = bytearray((OP_RESET, 1 if has_seed else 0))
    _pack_optional_seed(out, seed)
    return out


def decode_reset_cmd(buf):
    has_seed = bool(buf[1])
    seed, _ = _unpack_optional_seed(buf, 2)
    return has_seed, seed


def encode_reset_reply(observations, reset_infos) -> bytearray:
    out = bytearray((ST_OK,))
    for obs in observations:
        _encode_observation(out, obs)
    for info in reset_infos:
        _encode_reset_info(out, info)
    return out


def decode_reset_reply(buf, k: int, dims: Dims):
    pos = 1
    observations = []
    for _ in range(k):
        obs, pos = _decode_observation(buf, pos, dims)
        observations.append(obs)
    reset_infos = []
    for _ in range(k):
        info, pos = _decode_reset_info(buf, pos)
        reset_infos.append(info)
    return observations, reset_infos


def encode_reset_env_cmd(local_i: int, seed) -> bytearray:
    out = bytearray((OP_RESET_ENV,))
    out += _U32.pack(local_i)
    _pack_optional_seed(out, seed)
    return out


def decode_reset_env_cmd(buf):
    (local_i,) = _U32.unpack_from(buf, 1)
    seed, _ = _unpack_optional_seed(buf, 5)
    return local_i, seed


def encode_reset_env_reply(obs, reset_info) -> bytearray:
    out = bytearray((ST_OK,))
    _encode_observation(out, obs)
    _encode_reset_info(out, reset_info)
    return out


def decode_reset_env_reply(buf, dims: Dims):
    obs, pos = _decode_observation(buf, 1, dims)
    reset_info, _ = _decode_reset_info(buf, pos)
    return obs, reset_info


def encode_relane_reply(dims: Dims, reset_infos) -> bytearray:
    """The worker's hello, and its acknowledgement of a
    ``rebuild_lane``/relane command: the (possibly changed) codec
    geometry plus the slice's fresh per-lane reset infos."""
    out = bytearray((ST_OK,))
    out += dims.pack()
    for info in reset_infos:
        _encode_reset_info(out, info)
    return out


def decode_relane_reply(buf, k: int):
    dims = Dims.unpack_from(buf, 1)
    pos = 1 + _DIMS.size
    reset_infos = []
    for _ in range(k):
        info, pos = _decode_reset_info(buf, pos)
        reset_infos.append(info)
    return dims, reset_infos


def encode_error(message: str) -> bytes:
    return bytes((ST_ERR,)) + message.encode("utf-8", "replace")


def decode_error(buf) -> str:
    return bytes(buf[1:]).decode("utf-8", "replace")
