"""Lockstep dual-team wire protocol over newline-delimited JSON.

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
  obs        {episode, step, obs, masks, reward, terminated, outcome}
  act        {actions}: one plain integer action code per agent
  reset_ack  {}
  error      {code, message}
  bye        {reason}

The two array fields of ``obs`` are binary and take their shapes from
``assign`` (``N = n_agents``, ``L = obs_len``, ``A = n_actions``):
  obs    the team's observations, an N x L array of IEEE 754 binary64
         numbers laid out row-major (agent by agent), each stored as 8
         little-endian bytes: N * L * 8 bytes, compressed as one zlib
         stream (RFC 1950) at level 1, then encoded as standard base64
         (RFC 4648 section 4: ``A-Z a-z 0-9 + /``, ``=`` padding, no line
         breaks).  Decoding yields the server's numbers bit for bit.
  masks  the N x A action mask, row-major, one bit per entry (1 means
         available), packed eight to a byte with the first entry in the
         most significant bit (``numpy.packbits`` order); the last byte
         is padded with zero bits, giving ceil(N * A / 8) bytes, then
         encoded as standard base64 without compression.
:func:`encode_obs` writes the two fields and :func:`decode_obs` reads them.

While the server waits for an ``act``, a line that is not a JSON object
with a ``type``, any other message type, or a malformed ``act`` gets an
``error`` reply with code ``MalformedMessage``; an ``act`` naming an
unavailable action gets ``UnavailableAction``.  Either way the server
keeps waiting for an ``act`` for the same step.  A hang-up still ends the
session with :class:`ConnectionLost`.  A client that cannot decode an
``obs`` to the assigned shapes raises :class:`ProtocolViolation`.
"""

from __future__ import annotations

import base64
import json
import socket
import zlib
from dataclasses import dataclass, field

import numpy as np

from .engine import EngineConfig, Team
from .env import BattleEnv, RewardConfig
from .learners import Learner, ScriptedBot
from .scenario import ScenarioSpec, parse_scenario_config, scenario_config
from .seeding import episode_seed

PROTOCOL_VERSION = 3


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
    fh.write(json.dumps(message, separators=(",", ":")) + "\n")
    fh.flush()


def _recv(fh) -> dict:
    line = fh.readline()
    if not line:
        raise ConnectionLost("peer closed the connection")
    try:
        message = json.loads(line)
    except json.JSONDecodeError as exc:
        raise MalformedMessage(str(exc)) from exc
    if not isinstance(message, dict) or "type" not in message:
        raise MalformedMessage("messages must be objects with a 'type' field")
    return message


def encode_obs(observations: np.ndarray, masks: np.ndarray) -> dict[str, str]:
    """The ``obs`` and ``masks`` fields of an ``obs`` message (see the module docstring)."""
    raw = np.ascontiguousarray(observations, dtype="<f8")
    return {
        "obs": base64.b64encode(zlib.compress(raw, 1)).decode("ascii"),
        "masks": base64.b64encode(np.packbits(masks, axis=None)).decode("ascii"),
    }


def decode_obs(message: dict, assign: dict) -> tuple[np.ndarray, np.ndarray]:
    """Writable float64 observations and bool masks of an ``obs`` message, shaped by ``assign``.

    Anything that does not decode to exactly the assigned shapes is a
    :class:`ProtocolViolation`.
    """
    n, obs_len, n_actions = assign["n_agents"], assign["obs_len"], assign["n_actions"]
    n_bytes, n_bits = n * obs_len * 8, n * n_actions
    try:
        inflate = zlib.decompressobj()
        raw = inflate.decompress(base64.b64decode(message["obs"], validate=True), n_bytes + 1)
        bits = base64.b64decode(message["masks"], validate=True)
    except (KeyError, TypeError, ValueError, zlib.error) as exc:  # binascii.Error is a ValueError
        raise ProtocolViolation(f"undecodable obs: {exc}") from exc
    if len(raw) != n_bytes or not inflate.eof or inflate.unused_data:
        raise ProtocolViolation(f"obs does not decode to {n} x {obs_len} float64 values")
    if len(bits) != -(-n_bits // 8):
        raise ProtocolViolation(f"masks do not decode to {n} x {n_actions} bits")
    obs = np.frombuffer(raw, dtype="<f8").astype(np.float64).reshape(n, obs_len)
    masks = np.unpackbits(np.frombuffer(bits, dtype=np.uint8), count=n_bits).astype(bool).reshape(n, n_actions)
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
            rfile = conn.makefile("r", encoding="utf-8")
            wfile = conn.makefile("w", encoding="utf-8")
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
    rfile = conn.makefile("r", encoding="utf-8")
    wfile = conn.makefile("w", encoding="utf-8")
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
    finally:
        _close(rfile, wfile, conn)
    return episodes


def bot_client(assign: dict) -> ScriptedBot:
    """Client-side factory: rebuild the scripted bot from the assign message."""
    return ScriptedBot(parse_scenario_config(assign["scenario"]), Team[assign["team"].upper()])
