"""Lockstep protocol over loopback: served play, handshake errors, forfeits."""

import contextlib
import dataclasses
import io
import json
import socket
import threading

import numpy as np
import pytest

from skirmish import protocol
from skirmish.env import BattleEnv
from skirmish.engine import Team
from skirmish.learners import ScriptedBot
from skirmish.protocol import (
    MAX_DATA,
    PROTOCOL_VERSION,
    BattleServer,
    ConnectionLost,
    HandshakeVersionMismatch,
    ProtocolViolation,
    ServedEpisode,
    TeamSlotTaken,
    bot_client,
    client_loop,
    decode_obs,
    encode_obs,
)
from skirmish.scenario import builtin_scenarios, get_scenario
from skirmish.seeding import episode_seed
from skirmish.training import run_episode

JOIN_S = 30
NOT_UTF8 = b'\xff\xfe{"type":"act"}\n'


def start(target, *args, **kwargs):
    """Run ``target`` in a daemon thread; the returned box gets its result or error."""
    box = {}

    def body():
        try:
            box["result"] = target(*args, **kwargs)
        except Exception as exc:  # reported by the test thread
            box["error"] = exc

    thread = threading.Thread(target=body, daemon=True)
    thread.start()
    return thread, box


def finish(thread, box):
    thread.join(JOIN_S)
    assert not thread.is_alive(), "thread did not finish"
    if "error" in box:
        raise box["error"]
    return box["result"]


def raw_client(address):
    conn = socket.create_connection(address, timeout=JOIN_S)
    return conn, conn.makefile("rb"), conn.makefile("wb")


def serve_bot_vs_bot_and_check(scenario, seed, episodes):
    """Serve bot vs bot, red through ``client_loop``; both records must equal in-process play."""
    server = BattleServer(scenario, seed=seed, episodes=episodes, bot_team=Team.BLUE)
    client = start(client_loop, bot_client, server.address, team="red")
    served = finish(*start(server.run))
    seen = finish(*client)

    env = BattleEnv(scenario)
    red, blue = ScriptedBot(scenario, Team.RED), ScriptedBot(scenario, Team.BLUE)
    assert len(served) == len(seen) == episodes
    for i, (rec, got) in enumerate(zip(served, seen)):
        ep = run_episode(env, red, blue, seed=episode_seed(seed, i), collect_red=True, collect_blue=True)
        assert rec.outcome == got.outcome == ep.outcome.value
        assert rec.length == got.length == ep.length
        assert rec.rewards["red"] == got.rewards == [float(r) for r in ep.red_episode.rewards]
        assert rec.rewards["blue"] == [float(r) for r in ep.blue_episode.rewards]


def test_bot_client_matches_in_process_play():
    serve_bot_vs_bot_and_check(get_scenario("3m"), seed=5, episodes=3)


class WriteCounter:
    """A file with only ``write`` and ``flush``, as perfbench's traced run hands to ``protocol._send``."""

    def __init__(self, fh):
        self.fh = fh
        self.writes = 0

    def write(self, data):
        self.writes += 1
        return self.fh.write(data)

    def flush(self):
        self.fh.flush()


def test_each_message_is_one_write_through_a_wrapped_send(monkeypatch):
    # A line and its payload in two writes stall each step on Nagle's algorithm and delayed ACKs.
    writes = []
    send = protocol._send

    def counting_send(fh, message):
        proxy = WriteCounter(fh)
        send(proxy, message)
        writes.append((message["type"], proxy.writes))

    monkeypatch.setattr(protocol, "_send", counting_send)
    serve_bot_vs_bot_and_check(get_scenario("3m"), seed=7, episodes=3)
    assert {kind for kind, _ in writes} == {"hello", "assign", "obs", "act", "reset_ack", "bye"}
    assert all(n == 1 for _, n in writes)


def test_version_mismatch():
    server = BattleServer(get_scenario("3m"), episodes=1, bot_team=Team.BLUE)
    session = start(server.run)
    conn, rfile, wfile = raw_client(server.address)
    wfile.write(NOT_UTF8)  # a hello that is not even text: the server hangs up and keeps listening
    wfile.flush()
    assert rfile.readline() == b""
    protocol._close(rfile, wfile, conn)

    conn, rfile, wfile = raw_client(server.address)
    protocol._send(wfile, {"type": "hello", "v": PROTOCOL_VERSION + 1, "team": "red"})
    refusal = protocol._recv(rfile)
    assert refusal["code"] == "HandshakeVersionMismatch"
    assert rfile.readline() == b""  # the server hung up
    protocol._close(rfile, wfile, conn)

    # The server keeps listening: a client that speaks its version plays the session.
    assert len(finish(*start(client_loop, bot_client, server.address, team="red"))) == 1
    assert len(finish(*session)) == 1

    # And the client turns the server's refusal into the matching exception.
    stub = socket.create_server(("127.0.0.1", 0))

    def refuse():
        peer, _ = stub.accept()
        with peer, peer.makefile("rb") as r, peer.makefile("wb") as w:
            protocol._recv(r)
            protocol._send(w, refusal)

    stub_session = start(refuse)
    with pytest.raises(HandshakeVersionMismatch):
        finish(*start(client_loop, bot_client, stub.getsockname(), team="red"))
    finish(*stub_session)
    stub.close()


def refuse_an_older_hello(version):
    server = BattleServer(get_scenario("3m"), episodes=1, bot_team=Team.BLUE)
    session = start(server.run)
    conn, rfile, wfile = raw_client(server.address)
    protocol._send(wfile, {"type": "hello", "v": version, "team": "red"})
    refusal = protocol._recv(rfile)
    assert (refusal["type"], refusal["code"]) == ("error", "HandshakeVersionMismatch")
    protocol._close(rfile, wfile, conn)
    assert len(finish(*start(client_loop, bot_client, server.address, team="red"))) == 1
    assert len(finish(*session)) == 1


def test_v2_hello_is_refused():
    refuse_an_older_hello(2)


def test_v3_hello_is_refused():
    refuse_an_older_hello(3)


@pytest.mark.parametrize("name", sorted(builtin_scenarios()))
def test_obs_round_trips_bit_exactly(name):
    env = BattleEnv(get_scenario(name))
    rng = np.random.default_rng(3)
    results = env.reset(episode_seed(3, 0))
    for step in range(12):
        if step in (0, 4, 11):
            for team, result in zip(Team, results):
                spec = env.team_spec(team)
                assign = {"n_agents": spec.n_agents, "obs_len": spec.obs_len, "n_actions": spec.n_actions}
                signed = result.observations.copy()
                signed[:, ::5] = -0.0  # zero by value, not by bits: must arrive as -0.0
                for observations in (result.observations, signed, np.zeros_like(signed)):
                    obs, masks = decode_obs(encode_obs(observations, result.masks), assign)
                    assert obs.dtype == np.float64 and masks.dtype == bool
                    assert obs.flags.writeable and masks.flags.writeable
                    assert obs.tobytes() == np.ascontiguousarray(observations, dtype=np.float64).tobytes()
                    assert masks.tobytes() == np.ascontiguousarray(result.masks, dtype=bool).tobytes()
        if env.terminated:
            break
        acts = [np.array([rng.choice(np.flatnonzero(m)) for m in r.masks]) for r in results]
        results = env.step(*acts)


def obs_line(data) -> bytes:
    """An ``obs`` message as ``_send`` writes it; ``data`` is the payload, or a bare byte count."""
    out = io.BytesIO()
    protocol._send(out, {"type": "obs", "episode": 0, "step": 0, "data": data, "reward": 0.0,
                         "terminated": False, "outcome": None})
    return out.getvalue()


def run_client_against_stub(n_agents, sent: bytes):
    """``client_loop`` against a server that assigns ``n_agents`` x 5 observations and 9 actions, then sends ``sent``."""
    stub = socket.create_server(("127.0.0.1", 0))

    def serve():
        peer, _ = stub.accept()
        # A client that refuses the assign may hang up before the rest is sent.
        with contextlib.suppress(OSError), peer, peer.makefile("rb") as r, peer.makefile("wb") as w:
            protocol._recv(r)
            protocol._send(w, {"type": "assign", "v": PROTOCOL_VERSION, "team": "red",
                               "scenario": "", "n_agents": n_agents, "obs_len": 5, "n_actions": 9, "episodes": 1})
            w.write(sent)
            w.flush()
            peer.shutdown(socket.SHUT_WR)
            r.readline()  # wait for the client to hang up

    stub_session = start(serve)
    try:
        finish(*start(client_loop, ScriptedBot(get_scenario("3m"), Team.RED), stub.getsockname(), team="red"))
    finally:
        finish(*stub_session)
        stub.close()


MASKS = np.ones((3, 9), dtype=bool)
GOOD = encode_obs(np.zeros((3, 5)), MASKS)["data"]  # 4 mask bytes, then 3 one-byte bitmaps and no values
ONE_CELL = encode_obs(np.eye(3, 5), MASKS)["data"]


def obs_line_without(name) -> bytes:
    """``obs_line(GOOD)`` less its field ``name``."""
    line, payload = obs_line(GOOD).split(b"\n", 1)
    message = json.loads(line)
    del message[name]
    return json.dumps(message).encode("ascii") + b"\n" + payload


@pytest.mark.parametrize(
    "n_agents, sent",
    [
        (3, obs_line(encode_obs(np.zeros((3, 9)), MASKS)["data"])),
        (3, obs_line(encode_obs(np.zeros((3, 5)), np.ones((4, 9), dtype=bool))["data"])),
        ("3", obs_line(GOOD)),
        (3, obs_line(GOOD[:-1])),
        (3, obs_line(ONE_CELL[:-8])),
        (3, obs_line(GOOD + bytes(8))),
        (3, obs_line(GOOD[:4] + b"\x01" + GOOD[5:] + bytes(8))),  # the first bitmap's last padding bit
        (3, obs_line(GOOD[:3] + bytes([GOOD[3] | 1]) + GOOD[4:])),  # 27 mask bits: the last byte's last padding bit
        (3, obs_line(MAX_DATA + 1)),
        (3, obs_line("7")),
        *[(3, obs_line_without(name)) for name in ("step", "terminated", "reward", "outcome")],
    ],
    ids=["obs shape", "masks shape", "assign shape", "short of the bitmaps", "a value short", "a value over",
         "padding bit", "mask padding bit", "data over the cap", "data not an int",
         "no step", "no terminated", "no reward", "no outcome"],
)
def test_client_rejects_a_malformed_obs(n_agents, sent):
    with pytest.raises(ProtocolViolation):
        run_client_against_stub(n_agents, sent)


def test_a_hang_up_inside_a_payload_is_a_lost_connection():
    with pytest.raises(ConnectionLost):
        run_client_against_stub(3, obs_line(100) + bytes(10))


def test_missing_reset_ack_forfeits():
    scenario = dataclasses.replace(get_scenario("3m"), episode_step_limit=3)
    server = BattleServer(scenario, episodes=2, bot_team=Team.BLUE, act_timeout=0.5)
    session = start(server.run)
    conn, rfile, wfile = raw_client(server.address)
    protocol._send(wfile, {"type": "hello", "v": PROTOCOL_VERSION, "team": "red"})
    assign = protocol._recv(rfile)
    assert assign["type"] == "assign"
    while True:
        message = protocol._recv(rfile)
        if message["type"] == "bye":
            break
        if not message["terminated"]:  # act at once, but never acknowledge the episode's end
            _, masks = decode_obs(message, assign)
            protocol._send(wfile, {"type": "act", "actions": [int(np.flatnonzero(m)[0]) for m in masks]})
    protocol._close(rfile, wfile, conn)
    assert message["reason"] == "act timeout forfeit"
    assert finish(*session) == [ServedEpisode(outcome="blue_win_forfeit")]


def test_malformed_act_gets_an_error_and_play_goes_on():
    scenario = dataclasses.replace(get_scenario("3m"), episode_step_limit=3)
    server = BattleServer(scenario, episodes=1, bot_team=Team.BLUE)
    session = start(server.run)
    conn, rfile, wfile = raw_client(server.address)
    protocol._send(wfile, {"type": "hello", "v": PROTOCOL_VERSION, "team": "red"})
    assign = protocol._recv(rfile)
    assert assign["type"] == "assign"
    message = protocol._recv(rfile)
    assert message["step"] == 0
    refusals = [
        (["x", "y", "z"], "MalformedMessage"),
        ([True, False, True], "MalformedMessage"),
        ([1.0, 1, 1], "MalformedMessage"),
        ([1, 1], "MalformedMessage"),
        ([2**70, 1, 1], "UnavailableAction"),  # too large for int64: refused, not converted
        ([-1, 1, 1], "UnavailableAction"),
    ]
    for actions, code in refusals:
        protocol._send(wfile, {"type": "act", "actions": actions})
        reply = protocol._recv(rfile)
        assert (reply["type"], reply["code"]) == ("error", code)

    steps = []
    while message["type"] != "bye":
        if message["terminated"]:
            protocol._send(wfile, {"type": "reset_ack"})
        else:
            _, masks = decode_obs(message, assign)
            protocol._send(wfile, {"type": "act", "actions": [int(np.flatnonzero(m)[0]) for m in masks]})
        message = protocol._recv(rfile)
        if message["type"] == "obs":
            steps.append(message["step"])
    protocol._close(rfile, wfile, conn)
    served = finish(*session)
    assert len(served) == 1
    assert steps == list(range(1, served[0].length + 1))


def test_bad_lines_while_waiting_for_an_act_get_errors_and_play_goes_on():
    scenario = dataclasses.replace(get_scenario("3m"), episode_step_limit=3)
    server = BattleServer(scenario, episodes=1, bot_team=Team.BLUE)
    session = start(server.run)
    conn, rfile, wfile = raw_client(server.address)
    protocol._send(wfile, {"type": "hello", "v": PROTOCOL_VERSION, "team": "red"})
    assign = protocol._recv(rfile)
    assert assign["type"] == "assign"
    message = protocol._recv(rfile)
    assert message["step"] == 0
    for line in (b"not json\n", NOT_UTF8):
        wfile.write(line)
        wfile.flush()
        assert protocol._recv(rfile)["code"] == "MalformedMessage"
    protocol._send(wfile, {"type": "hello", "v": PROTOCOL_VERSION, "team": "red"})
    reply = protocol._recv(rfile)
    assert (reply["type"], reply["code"]) == ("error", "MalformedMessage")
    assert "hello" in reply["message"]

    while message["type"] != "bye":
        if message["terminated"]:
            protocol._send(wfile, {"type": "reset_ack"})
        else:
            _, masks = decode_obs(message, assign)
            protocol._send(wfile, {"type": "act", "actions": [int(np.flatnonzero(m)[0]) for m in masks]})
        message = protocol._recv(rfile)
    protocol._close(rfile, wfile, conn)
    assert message["reason"] == "session complete"
    assert len(finish(*session)) == 1


def test_second_client_for_a_taken_slot_is_refused():
    server = BattleServer(get_scenario("3m"), seed=2, episodes=1)
    session = start(server.run)
    red_assigned = threading.Event()

    def red_policy(assign):
        red_assigned.set()
        return bot_client(assign)

    red = start(client_loop, red_policy, server.address, team="red")
    assert red_assigned.wait(JOIN_S)
    with pytest.raises(TeamSlotTaken):
        client_loop(bot_client, server.address, team="red")
    blue = start(client_loop, bot_client, server.address, team="blue")
    assert len(finish(*session)) == 1
    assert len(finish(*red)) == len(finish(*blue)) == 1


def test_missed_act_deadline_forfeits():
    server = BattleServer(get_scenario("3m"), episodes=2, bot_team=Team.BLUE, act_timeout=0.3)
    session = start(server.run)
    conn, rfile, wfile = raw_client(server.address)
    protocol._send(wfile, {"type": "hello", "v": PROTOCOL_VERSION, "team": "red"})
    assert protocol._recv(rfile)["type"] == "assign"
    assert protocol._recv(rfile)["step"] == 0  # then never act
    bye = protocol._recv(rfile)
    protocol._close(rfile, wfile, conn)
    assert (bye["type"], bye["reason"]) == ("bye", "act timeout forfeit")
    assert finish(*session) == [ServedEpisode(outcome="blue_win_forfeit")]
