"""Tests of the benchmark itself: span arithmetic, digests and output checks.

Run from the repository root with ``python3 -m pytest perfbench``.
"""

from __future__ import annotations

import json
import sys
from contextlib import ExitStack
from pathlib import Path

import numpy as np
import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path[:0] = [str(ROOT / "src"), str(HERE)]

import workloads  # noqa: E402
from skirmish import BattleEnv  # noqa: E402
from spans import Tracer, replace  # noqa: E402
from workloads import Outcome, Window  # noqa: E402


def test_self_time_and_layer_self_time():
    now = [0]
    tr = Tracer(clock=lambda: now[0])

    def tick(n):
        now[0] += n

    leaf = tr.wrap(lambda: tick(5), "nn.leaf")
    other = tr.wrap(lambda: tick(6), "nn.other")

    def inner_body():
        tick(2)
        leaf()
        tick(3)

    inner = tr.wrap(inner_body, "learners.inner")

    def top_body():
        tick(1)
        inner()
        tick(4)
        other()

    tr.wrap(top_body, "learners.top")()
    top, inner_i = tr.named("learners.top")[0], tr.named("learners.inner")[0]
    assert tr.spans[top].duration == 21
    assert tr.self_time(top) == 21 - 10 - 6
    assert tr.self_time(inner_i) == 10 - 5
    # Same-layer children stay in the layer; only nn descendants are removed.
    assert tr.layer_self_time(top) == 21 - 5 - 6
    assert tr.spans[tr.named("nn.leaf")[0]].parent == inner_i
    assert tr.has_ancestor(tr.named("nn.leaf")[0], "learners.top")


def test_failed_span_is_closed_and_marked():
    tr = Tracer()

    def boom():
        raise KeyError("x")

    with pytest.raises(KeyError):
        tr.wrap(boom, "env.boom")()
    assert tr.named("env.boom") == []
    (span,) = [s for s in tr.spans if s.name == "env.boom"]
    assert span.failed and span.end >= span.start
    assert tr.current() is None


def test_replace_restores_instance_class_and_module_attributes():
    env = BattleEnv(workloads.get_scenario("3m"))
    original = BattleEnv.step
    with ExitStack() as stack:
        replace(stack, BattleEnv, "step", lambda fn: "patched")
        replace(stack, env, "reset", lambda fn: "patched")
        replace(stack, workloads.training, "evaluate", lambda fn: "patched")
        assert env.reset == "patched" and BattleEnv.step == "patched"
    assert BattleEnv.step is original
    assert "reset" not in vars(env)
    assert callable(workloads.training.evaluate)


def test_rollout_digest_is_deterministic_and_matches_golden():
    env, red, blue = workloads.rollout_setup()
    golden, records = workloads.rollout_digest(env, red, blue, workloads.ROLLOUT_GOLDEN_SEED,
                                               workloads.ROLLOUT_GOLDEN_EPISODES)
    assert golden == workloads.ROLLOUT_GOLDEN_SHA256
    again, records_again = workloads.rollout_digest(env, red, blue, workloads.ROLLOUT_GOLDEN_SEED,
                                                    workloads.ROLLOUT_GOLDEN_EPISODES)
    assert (again, records_again) == (golden, records)
    other, _ = workloads.rollout_digest(env, red, blue, 1, workloads.ROLLOUT_GOLDEN_EPISODES)
    assert other != golden


def test_rollout_check_fails_on_perturbed_output():
    env, red, blue = workloads.rollout_setup()
    records = [workloads.play_random(env, red, blue, workloads.rollout_plan(5, i)) for i in range(2)]
    clean = Outcome()
    workloads.check_rollout(clean, env, red, blue, 5, records)
    assert clean.correct

    def nudged(fn):
        def step(*args, **kwargs):
            red_res, blue_res = fn(*args, **kwargs)
            red_res.observations[0, 0] = np.nextafter(red_res.observations[0, 0], np.inf)
            return red_res, blue_res
        return step

    with ExitStack() as stack:
        replace(stack, BattleEnv, "step", nudged)
        perturbed = Outcome()
        workloads.check_rollout(perturbed, env, red, blue, 5, records)
    assert not perturbed.correct
    assert [name for name, ok, _ in perturbed.checks if not ok] == ["rollout golden digest"]

    wrong_return = [records[0][:2] + (records[0][2] + 1e-12, records[0][3])] + records[1:]
    mismatch = Outcome()
    workloads.check_rollout(mismatch, env, red, blue, 5, wrong_return)
    assert not mismatch.correct


def test_served_episodes_checked_against_in_process_play():
    served, probe, _ = workloads.serve_session(7, 1)
    assert len(served) == 1 and len(probe.iters) == 0
    assert workloads.served_mismatches(served, 7) == []
    rewards = served[0].rewards["blue"]
    rewards[-1] = float(np.nextafter(rewards[-1], np.inf))
    assert workloads.served_mismatches(served, 7) == [0]


def test_metric_names_and_units_match_benchmark_json():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    e2e = Outcome()
    workloads.end_to_end(e2e, Window(None, [(100, 10**8)], [[400_000, 500_000, 600_000]], 10**8), 0.5)
    assert {k: u for k, (_, u) in e2e.metrics.items()} == {m["name"]: m["unit"] for m in spec["end_to_end"]}
    assert e2e.metrics["env_steps_per_s"][0] == pytest.approx(1000.0)
    assert e2e.metrics["step_us_p50"][0] == pytest.approx(500.0)
    layered = Outcome()
    workloads.layer_metrics(layered, Tracer(), 1, 1.0)
    assert {k: u for k, (_, u) in layered.metrics.items()} == {m["name"]: m["unit"] for m in spec["per_layer"]}


def test_traced_rollout_attributes_engine_time_to_env_steps():
    env, red, blue = workloads.rollout_setup()
    tracer = Tracer()
    with ExitStack() as stack:
        workloads.install_tracing(tracer, stack)
        workloads.play_random(env, red, blue, workloads.rollout_plan(0, 0))
    out = Outcome()
    workloads.layer_metrics(out, tracer, 10**9, 1.0)
    steps = tracer.named("env.step")
    assert steps and all(tracer.spans[tracer.children(i)[0]].name == "engine.step_world_arrays" for i in steps)
    assert out.metrics["engine.step_us_p50"][0] > 0
    assert out.metrics["learners.random_act_us_p50"][0] > 0
    assert out.metrics["nn.forward_rows_per_update"][0] == 0


def test_trace_abba_pairs_each_iteration_with_its_repeats():
    env, red, blue = workloads.rollout_setup()
    first = workloads.rollout_window(env, red, blue, 3, episodes=2)
    repeats = []

    def repeat(n):
        window = workloads.rollout_window(env, red, blue, 3, episodes=n)
        repeats.append(window)
        return window

    out = Outcome()
    workloads.trace_abba(out, first, repeat)
    assert len(repeats) == 4 and out.correct
    ratios = [(t1[1] + t2[1]) / (u1[1] + u2[1]) for u1, t1, t2, u2 in zip(*(w.iters for w in repeats))]
    assert out.metrics["trace_overhead"][0] == pytest.approx(float(np.median(ratios)))
    assert out.metrics["engine.step_us_p50"][0] > 0

    changed = Outcome()
    workloads.trace_abba(changed, first, lambda n: workloads.rollout_window(env, red, blue, 4, episodes=n))
    assert not changed.correct
