"""Lockstep dual-team wire protocol: JSON lines, observations as binary frames.

A server owns one environment and two team slots.  External processes
claim a slot with ``hello``, receive an ``assign`` describing the scenario
and tensor shapes, then answer every ``obs`` with an ``act``; the world
only advances once both teams have acted.  Episodes restart automatically;
terminal ``obs`` messages are acknowledged with ``reset_ack``.  With an act
deadline set, a side that misses it, for an ``act`` or a ``reset_ack``,
forfeits and the session ends.  The centralized training state never
crosses the wire.

Each message is one JSON object on one line of ASCII text, ended by
``\n``.  Messages (every one carries ``type``):
  hello      {v, team: "red"|"blue"|"any", name}
  assign     {v, team, scenario, n_agents, obs_len, n_actions, episodes}
             scenario is the ``scenario.scenario_config`` text of the
             served scenario; ``parse_scenario_config`` reads it back
  obs        {episode, step, data, reward, terminated, outcome}
  act        {actions}: one plain integer action code per agent
  reset_ack  {}
  error      {code, message}
  bye        {reason}

An ``obs`` line is followed by a binary payload: ``data`` is its length,
an integer from 0 to 2**24, and exactly that many bytes follow the
``\n``.  The payload takes its shapes from ``assign`` (``N = n_agents``,
``L = obs_len``, ``A = n_actions``) and holds, in order:
  masks    the N x A action mask, row-major, one bit per entry (1 means
           available), packed eight to a byte with the first entry in
           the most significant bit (``numpy.packbits`` order); the last
           byte is padded with zero bits: ceil(N * A / 8) bytes.
  bitmaps  one per agent, ceil(L / 8) bytes each, packed the same way
           with zero padding: bit j of agent i's bitmap is set where
           observation cell (i, j) is not all zero bits, so -0.0 is set.
  values   the set cells' values in row-major order (agent by agent),
           each an IEEE 754 binary64 number in 8 little-endian bytes.
The payload is therefore ceil(N * A / 8) + N * ceil(L / 8) + 8 * K bytes
for K set bits, and the unset cells read +0.0; decoding yields the
server's numbers bit for bit.  The bitmaps and values are
``learners.pack_rows`` of the N x L rows.
:func:`encode_obs` writes the payload and :func:`decode_obs` reads it.

While the server waits for an ``act``, a line that is not a JSON object
with a ``type``, any other message type, or a malformed ``act`` gets an
``error`` reply with code ``MalformedMessage``; an ``act`` naming an
unavailable action gets ``UnavailableAction``.  Either way the server
keeps waiting for an ``act`` for the same step.  A hang-up still ends the
session with :class:`ConnectionLost`.  A client that cannot read a
server message, or decode an ``obs`` to the assigned shapes, raises
:class:`ProtocolViolation`.
"""

from __future__ import annotations

import json
import socket
from dataclasses import dataclass, field

import numpy as np

from .engine import EngineConfig, Team
from .env import BattleEnv, RewardConfig
from .learners import Learner, ScriptedBot, pack_rows, unpack_rows
from .scenario import ScenarioSpec, parse_scenario_config, scenario_config
from .seeding import episode_seed

PROTOCOL_VERSION = 4
MAX_DATA = 1 << 24  # largest obs payload a peer reads, in bytes


class ProtocolError(RuntimeError):
    pass


class HandshakeVersionMismatch(ProtocolError):
    pass


class TeamSlotTaken(ProtocolError):
    pass


class MalformedMessage(ProtocolError):
    pass


class ActTimeout(ProtocolError):
    def __init__(self, message: str, offender: Team):
        super().__init__(message)
        self.offender = offender


class ConnectionLost(ProtocolError):
    pass


class ProtocolViolation(ProtocolError):
    pass


def _send(fh, message: dict) -> None:
    """Write ``message`` as one line; a bytes ``data`` goes as its length, its bytes right after the line.

    Line and payload go in one ``write``: two small writes in a row stall
    on Nagle's algorithm and the peer's delayed ACK.
    """
    payload = message.get("data")
    if isinstance(payload, bytes):
        message = {**message, "data": len(payload)}
    else:
        payload = b""
    fh.write(json.dumps(message, separators=(",", ":")).encode("ascii") + b"\n" + payload)
    fh.flush()


def _recv(fh) -> dict:
    """The next message; an ``obs`` message's ``data`` holds its payload."""
    line = fh.readline()
    if not line:
        raise ConnectionLost("peer closed the connection")
    try:
        message = json.loads(line)
    except ValueError as exc:  # a JSONDecodeError, or a UnicodeDecodeError for bytes that are not text
        raise MalformedMessage(str(exc)) from exc
    if not isinstance(message, dict) or "type" not in message:
        raise MalformedMessage("messages must be objects with a 'type' field")
    if message["type"] == "obs":
        size = message.get("data")
        if type(size) is not int or not 0 <= size <= MAX_DATA:
            raise MalformedMessage(f"an obs 'data' must be a byte count from 0 to {MAX_DATA}")
        message["data"] = fh.read(size)
        if len(message["data"]) < size:
            raise ConnectionLost("peer closed the connection inside a payload")
    return message


def encode_obs(observations: np.ndarray, masks: np.ndarray) -> dict[str, bytes]:
    """The ``data`` field of an ``obs`` message: its payload (see the module docstring)."""
    bits, values = pack_rows(np.asarray(observations, dtype="<f8"))
    return {"data": b"".join((np.packbits(masks, axis=None), bits, values))}


def decode_obs(message: dict, assign: dict) -> tuple[np.ndarray, np.ndarray]:
    """Writable float64 observations and bool masks of an ``obs`` message, shaped by ``assign``.

    A payload whose length or bitmap padding does not fit the assigned
    shapes is a :class:`ProtocolViolation`.
    """
    n, obs_len, n_actions = assign["n_agents"], assign["obs_len"], assign["n_actions"]
    payload = np.frombuffer(message["data"], dtype=np.uint8)
    mask_end = -(-n * n_actions // 8)
    values_start = mask_end + n * -(-obs_len // 8)
    if len(payload) < values_start:
        raise ProtocolViolation(f"payload of {len(payload)} bytes is shorter than the masks and bitmaps")
    bits = payload[mask_end:values_start].reshape(n, -1)
    if (bits[:, -1] & (1 << -obs_len % 8) - 1).any():  # the low bits of a row's last byte pad it
        raise ProtocolViolation("a bitmap has a padding bit set")
    if len(payload) != values_start + 8 * int(np.bitwise_count(bits).sum()):
        raise ProtocolViolation(f"payload of {len(payload)} bytes does not hold one float64 per set bitmap bit")
    obs = np.zeros((n, obs_len))
    unpack_rows(bits, payload[values_start:].view("<f8"), obs)
    masks = np.unpackbits(payload[:mask_end], count=n * n_actions).astype(bool).reshape(n, n_actions)
    return obs, masks


def _close(*handles) -> None:
    """Close a connection's file objects and socket; the peer sees EOF only once all are closed."""
    for handle in handles:
        try:
            handle.close()
        except OSError:
            pass


class _Slot:
    def __init__(self, team: Team, conn: socket.socket, name: str, rfile, wfile):
        self.team = team
        self.name = name
        self.conn = conn
        self.rfile = rfile
        self.wfile = wfile

    def close(self) -> None:
        _close(self.rfile, self.wfile, self.conn)


@dataclass
class ServedEpisode:
    outcome: str
    rewards: dict[str, list[float]] = field(default_factory=dict)
    length: int = 0


class BattleServer:
    """One listening endpoint, one session, up to two external teams.

    With ``bot_team`` set, that side is played in-process by the scripted
    bot and only the other slot accepts a client.
    """

    def __init__(
        self,
        scenario: ScenarioSpec,
        *,
        host: str = "127.0.0.1",
        port: int = 0,
        seed: int = 0,
        episodes: int = 100,
        engine_config: EngineConfig | None = None,
        reward_config: RewardConfig | None = None,
        bot_team: Team | None = None,
        act_timeout: float | None = None,
    ):
        self.scenario = scenario
        self.seed = seed
        self.episodes = episodes
        self.env = BattleEnv(scenario, engine_config, reward_config)
        self.bot_team = bot_team
        self.act_timeout = act_timeout
        self._bot = ScriptedBot(scenario, bot_team) if bot_team is not None else None
        self._listener = socket.create_server((host, port))
        self.address = self._listener.getsockname()
        self.served: list[ServedEpisode] = []

    # -- handshake ----------------------------------------------------------

    def _accept_slots(self) -> dict[Team, _Slot]:
        wanted = [t for t in (Team.RED, Team.BLUE) if t is not self.bot_team]
        slots: dict[Team, _Slot] = {}
        while len(slots) < len(wanted):
            conn, _ = self._listener.accept()
            rfile, wfile = conn.makefile("rb"), conn.makefile("wb")
            try:
                hello = _recv(rfile)
            except ProtocolError:
                _close(rfile, wfile, conn)
                continue
            if hello.get("type") != "hello" or hello.get("v") != PROTOCOL_VERSION:
                _send(wfile, {"type": "error", "code": "HandshakeVersionMismatch",
                              "message": f"server speaks v{PROTOCOL_VERSION}"})
                _close(rfile, wfile, conn)
                continue
            req = hello.get("team", "any")
            free = [t for t in wanted if t not in slots]
            if req in ("red", "blue"):
                team = Team[req.upper()]
                if team not in free:
                    _send(wfile, {"type": "error", "code": "TeamSlotTaken",
                                  "message": f"{req} is not available"})
                    _close(rfile, wfile, conn)
                    continue
            else:
                team = free[0]
            slots[team] = _Slot(team, conn, hello.get("name", "anonymous"), rfile, wfile)
            view = self.env.team_spec(team)
            _send(wfile, {
                "type": "assign",
                "v": PROTOCOL_VERSION,
                "team": team.name.lower(),
                "scenario": scenario_config(self.scenario),
                "n_agents": view.n_agents,
                "obs_len": view.obs_len,
                "n_actions": view.n_actions,
                "episodes": self.episodes,
            })
        return slots

    # -- session ------------------------------------------------------------

    def run(self) -> list[ServedEpisode]:
        try:
            slots = self._accept_slots()
        except Exception:
            self._listener.close()
            raise
        try:
            for slot in slots.values():
                if self.act_timeout is not None:
                    slot.conn.settimeout(self.act_timeout)
            for ep in range(self.episodes):
                try:
                    record = self._run_episode(ep, slots)
                except ActTimeout as exc:
                    # The slow side forfeits; a broken client ends the session.
                    winner = exc.offender.other
                    self.served.append(ServedEpisode(outcome=f"{winner.name.lower()}_win_forfeit"))
                    for slot in slots.values():
                        _send(slot.wfile, {"type": "bye", "reason": "act timeout forfeit"})
                    return self.served
                self.served.append(record)
            for slot in slots.values():
                _send(slot.wfile, {"type": "bye", "reason": "session complete"})
        finally:
            for slot in slots.values():
                slot.close()
            self._listener.close()
        return self.served

    def _send_obs(self, slots, results, episode: int, step: int) -> None:
        for team, result in zip(Team, results):
            if team is self.bot_team:
                continue
            slot = slots[team]
            _send(slot.wfile, {
                "type": "obs",
                "episode": episode,
                "step": step,
                **encode_obs(result.observations, result.masks),
                "reward": result.reward,
                "terminated": result.terminated,
                "outcome": result.outcome.value if result.outcome is not None else None,
            })

    def _recv_in_time(self, slot: _Slot) -> dict:
        """Next message from ``slot``; missing the act deadline is an :class:`ActTimeout`."""
        try:
            return _recv(slot.rfile)
        except socket.timeout as exc:
            raise ActTimeout(
                f"{slot.team.name.lower()} missed the {self.act_timeout}s deadline", slot.team
            ) from exc

    def _read_act(self, slot: _Slot, episode: int, step: int) -> np.ndarray:
        """Blocks until this team sends a mask-consistent act."""
        view = self.env.team_spec(slot.team)
        while True:
            try:
                message = self._recv_in_time(slot)
                if message["type"] != "act":
                    raise MalformedMessage(f"expected act, got {message['type']!r}")
                actions = message.get("actions")
                if (not isinstance(actions, list) or len(actions) != view.n_agents
                        or not all(type(a) is int for a in actions)):  # bool is an int subclass: refused
                    raise MalformedMessage(f"actions must be a list of {view.n_agents} integer codes")
            except MalformedMessage as exc:
                _send(slot.wfile, {"type": "error", "code": "MalformedMessage", "message": str(exc)})
                continue
            mask = self.env.available_actions(slot.team)
            bad = [a for a, code in enumerate(actions) if not 0 <= code < view.n_actions or not mask[a, code]]
            if bad:
                _send(slot.wfile, {"type": "error", "code": "UnavailableAction",
                                   "message": f"agent {bad[0]} cannot take action {actions[bad[0]]}"})
                continue
            return np.asarray(actions, dtype=np.int64)

    def _run_episode(self, episode: int, slots) -> ServedEpisode:
        if self._bot is not None:
            self._bot.begin_episode()
        results = self.env.reset(episode_seed(self.seed, episode))
        self._send_obs(slots, results, episode, 0)
        rewards: dict[str, list[float]] = {"red": [], "blue": []}
        step = 0
        while not self.env.terminated:
            acts: dict[Team, np.ndarray] = {}
            for team in Team:
                if team is self.bot_team:
                    result = results[int(team)]
                    acts[team] = self._bot.act(result.observations, result.masks)
                else:
                    acts[team] = self._read_act(slots[team], episode, step)
            results = self.env.step(acts[Team.RED], acts[Team.BLUE])
            step += 1
            rewards["red"].append(results[0].reward)
            rewards["blue"].append(results[1].reward)
            self._send_obs(slots, results, episode, step)
        for slot in slots.values():
            message = self._recv_in_time(slot)
            if message["type"] != "reset_ack":
                raise ProtocolViolation(f"expected reset_ack, got {message['type']!r}")
        return ServedEpisode(outcome=results[0].outcome.value, rewards=rewards, length=step)


@dataclass
class ClientEpisode:
    outcome: str
    rewards: list[float]
    length: int


def client_loop(
    policy,
    address: tuple[str, int],
    *,
    team: str = "any",
    name: str = "client",
) -> list[ClientEpisode]:
    """Reference client: answer every obs with the policy's actions.

    ``policy`` is a Learner or a callable ``assign_message -> Learner`` for
    policies that need the scenario (the scripted bot, say).
    """
    conn = socket.create_connection(address)
    rfile, wfile = conn.makefile("rb"), conn.makefile("wb")
    episodes: list[ClientEpisode] = []
    try:
        _send(wfile, {"type": "hello", "v": PROTOCOL_VERSION, "team": team, "name": name})
        assign = _recv(rfile)
        if assign.get("type") == "error":
            code = assign.get("code", "error")
            exc = {"HandshakeVersionMismatch": HandshakeVersionMismatch, "TeamSlotTaken": TeamSlotTaken}.get(
                code, ProtocolViolation
            )
            raise exc(assign.get("message", code))
        if assign.get("type") != "assign":
            raise ProtocolViolation(f"expected assign, got {assign.get('type')!r}")
        if not all(type(assign.get(k)) is int and assign[k] > 0 for k in ("n_agents", "obs_len", "n_actions")):
            raise ProtocolViolation("assign must give n_agents, obs_len and n_actions as positive integers")
        if callable(policy) and not isinstance(policy, Learner):
            policy = policy(assign)
        rewards: list[float] = []
        steps = 0
        policy.begin_episode()
        while True:
            message = _recv(rfile)
            kind = message["type"]
            if kind == "bye":
                break
            if kind == "error":
                raise ProtocolViolation(f"server error {message.get('code')}: {message.get('message')}")
            if kind != "obs":
                raise ProtocolViolation(f"expected obs, got {kind!r}")
            if message["step"] == 0:
                rewards = []
                steps = 0
                policy.begin_episode()
            else:
                rewards.append(message["reward"])
                steps += 1
            if message["terminated"]:
                episodes.append(ClientEpisode(message["outcome"], rewards, steps))
                _send(wfile, {"type": "reset_ack"})
                continue
            obs, masks = decode_obs(message, assign)
            actions = policy.act(obs, masks, 0.0, None)
            _send(wfile, {"type": "act", "actions": [int(a) for a in actions]})
    except MalformedMessage as exc:
        raise ProtocolViolation(f"unreadable server message: {exc}") from exc
    finally:
        _close(rfile, wfile, conn)
    return episodes


def bot_client(assign: dict) -> ScriptedBot:
    """Client-side factory: rebuild the scripted bot from the assign message."""
    return ScriptedBot(parse_scenario_config(assign["scenario"]), Team[assign["team"].upper()])
