"""Lockstep protocol over loopback: served play, handshake errors, forfeits."""

import contextlib
import dataclasses
import socket
import threading

import numpy as np
import pytest

from skirmish import protocol
from skirmish.env import BattleEnv
from skirmish.engine import Team
from skirmish.learners import ScriptedBot
from skirmish.protocol import (
    PROTOCOL_VERSION,
    BattleServer,
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
    return conn, conn.makefile("r", encoding="utf-8"), conn.makefile("w", encoding="utf-8")


def test_bot_client_matches_in_process_play():
    scenario = get_scenario("3m")
    server = BattleServer(scenario, seed=5, episodes=3, bot_team=Team.BLUE)
    client = start(client_loop, bot_client, server.address, team="red")
    served = finish(*start(server.run))
    seen = finish(*client)

    env = BattleEnv(scenario)
    red, blue = ScriptedBot(scenario, Team.RED), ScriptedBot(scenario, Team.BLUE)
    assert len(served) == len(seen) == 3
    for i, (rec, got) in enumerate(zip(served, seen)):
        ep = run_episode(env, red, blue, seed=episode_seed(5, i), collect_red=True, collect_blue=True)
        assert rec.outcome == got.outcome == ep.outcome.value
        assert rec.length == got.length == ep.length
        assert rec.rewards["red"] == got.rewards == [float(r) for r in ep.red_episode.rewards]
        assert rec.rewards["blue"] == [float(r) for r in ep.blue_episode.rewards]


def test_version_mismatch():
    server = BattleServer(get_scenario("3m"), episodes=1, bot_team=Team.BLUE)
    session = start(server.run)
    conn, rfile, wfile = raw_client(server.address)
    protocol._send(wfile, {"type": "hello", "v": PROTOCOL_VERSION + 1, "team": "red"})
    refusal = protocol._recv(rfile)
    assert refusal["code"] == "HandshakeVersionMismatch"
    assert rfile.readline() == ""  # the server hung up
    protocol._close(rfile, wfile, conn)

    # The server keeps listening: a client that speaks its version plays the session.
    assert len(finish(*start(client_loop, bot_client, server.address, team="red"))) == 1
    assert len(finish(*session)) == 1

    # And the client turns the server's refusal into the matching exception.
    stub = socket.create_server(("127.0.0.1", 0))

    def refuse():
        peer, _ = stub.accept()
        with peer, peer.makefile("r", encoding="utf-8") as r, peer.makefile("w", encoding="utf-8") as w:
            protocol._recv(r)
            protocol._send(w, refusal)

    stub_session = start(refuse)
    with pytest.raises(HandshakeVersionMismatch):
        finish(*start(client_loop, bot_client, stub.getsockname(), team="red"))
    finish(*stub_session)
    stub.close()


def test_v2_hello_is_refused():
    server = BattleServer(get_scenario("3m"), episodes=1, bot_team=Team.BLUE)
    session = start(server.run)
    conn, rfile, wfile = raw_client(server.address)
    protocol._send(wfile, {"type": "hello", "v": 2, "team": "red"})
    refusal = protocol._recv(rfile)
    assert (refusal["type"], refusal["code"]) == ("error", "HandshakeVersionMismatch")
    protocol._close(rfile, wfile, conn)
    assert len(finish(*start(client_loop, bot_client, server.address, team="red"))) == 1
    assert len(finish(*session)) == 1


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
                obs, masks = decode_obs(encode_obs(result.observations, result.masks), assign)
                assert obs.dtype == np.float64 and masks.dtype == bool
                assert obs.flags.writeable and masks.flags.writeable
                assert obs.tobytes() == np.ascontiguousarray(result.observations, dtype=np.float64).tobytes()
                assert masks.tobytes() == np.ascontiguousarray(result.masks, dtype=bool).tobytes()
        if env.terminated:
            break
        acts = [np.array([rng.choice(np.flatnonzero(m)) for m in r.masks]) for r in results]
        results = env.step(*acts)


GOOD_OBS = encode_obs(np.zeros((3, 5)), np.ones((3, 9), dtype=bool))


@pytest.mark.parametrize(
    "n_agents, fields",
    [
        (3, dict(GOOD_OBS, obs="not base64!")),
        (3, dict(GOOD_OBS, obs="bm90IHpsaWI=")),  # base64 of b"not zlib"
        (3, dict(GOOD_OBS, obs=encode_obs(np.zeros((3, 4)), np.ones((3, 9), dtype=bool))["obs"])),
        (3, dict(GOOD_OBS, masks=encode_obs(np.zeros((3, 5)), np.ones((4, 9), dtype=bool))["masks"])),
        ("3", GOOD_OBS),
    ],
    ids=["base64", "zlib", "obs shape", "masks shape", "assign shape"],
)
def test_client_rejects_a_malformed_obs(n_agents, fields):
    stub = socket.create_server(("127.0.0.1", 0))

    def serve_bad_obs():
        peer, _ = stub.accept()
        # A client that refuses the assign may hang up before the obs is sent.
        with contextlib.suppress(ConnectionError), peer, peer.makefile("r", encoding="utf-8") as r, \
                peer.makefile("w", encoding="utf-8") as w:
            protocol._recv(r)
            protocol._send(w, {"type": "assign", "v": PROTOCOL_VERSION, "team": "red",
                               "scenario": "", "n_agents": n_agents, "obs_len": 5, "n_actions": 9, "episodes": 1})
            protocol._send(w, {"type": "obs", "episode": 0, "step": 0, **fields, "reward": 0.0,
                               "terminated": False, "outcome": None})
            r.readline()  # wait for the client to hang up

    stub_session = start(serve_bad_obs)
    policy = ScriptedBot(get_scenario("3m"), Team.RED)
    with pytest.raises(ProtocolViolation):
        finish(*start(client_loop, policy, stub.getsockname(), team="red"))
    finish(*stub_session)
    stub.close()


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
    wfile.write("not json\n")
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
