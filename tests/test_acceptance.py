"""Acceptance suite: one test per criterion, run at the stated tolerance and
time budget. The conftest terminal hook prints a PASS/FAIL/SKIP line per
criterion at the end of the run."""

import itertools
import json
import math
import os
import random
import time
from fractions import Fraction

import pytest

from rtlforge.bench import emit_report, pass_at_k, run_bench
from rtlforge.checkpoints import (
    CheckRecord,
    CheckTrace,
    earliest_mismatch,
    extract_window,
    parse_trace,
    render_window,
    score,
)
from rtlforge.gateway import (
    CassetteRecorder, HttpBackend, NamespacedBackend, ReplayBackend, SamplingParams,
)
from rtlforge.golden import evaluate_golden
from rtlforge.pipeline import (
    Candidate,
    EngineRuntime,
    RunConfig,
    run_pipeline,
    select_top_k,
)
from rtlforge.agents import AgentTeam, SyntaxUnfixable
from rtlforge.checkpoints import Score
from rtlforge.problems import Problem
from rtlforge.simbridge import ToolchainSimRunner, VerilogSource

from conftest import requires_toolchain
import fixtures as fx
from toolstub import ScriptedBackend, StubSimRunner, StubSyntaxChecker

GOOD_TB = fx.fenced(fx.stub_tb())
CLEAN_RTL = fx.fenced(fx.stub_dut("counter16"))
GLITCH_RTL = fx.fenced(fx.stub_dut("counter16:glitch@9"))
RTL_FAULTY = "VERDICT: rtl_faulty"
TB_FAULTY = "The expected values contradict the spec.\nVERDICT: testbench_faulty"


def test_c01_mismatch_scoring_exact(self=None):
    """Normalized mismatch score: bounds, unit condition, 1-ulp accuracy."""
    rng = random.Random(101)
    start = time.monotonic()
    for _ in range(1000):
        tc = rng.randint(1, 10_000)
        m = rng.randint(0, tc)
        value = score(CheckTrace(records=(), total_checks=tc, mismatches=m)).value
        assert 0.0 <= value <= 1.0
        assert (value == 1.0) == (m == 0)
        assert value == float(1 - Fraction(m, tc))
        assert abs(value - (1 - m / tc)) <= math.ulp(1.0)
    assert time.monotonic() - start < 1.0


def test_c02_pass_at_k_exact():
    """pass@k == brute-force subset enumeration (n<=8) and c/n at k=1 (n<=100)."""
    start = time.monotonic()
    for n in range(1, 9):
        for c in range(n + 1):
            runs = [True] * c + [False] * (n - c)
            for k in range(1, n + 1):
                subsets = list(itertools.combinations(range(n), k))
                hits = sum(1 for s in subsets if any(runs[i] for i in s))
                assert pass_at_k(n, c, k) == float(Fraction(hits, len(subsets)))
    for n in range(1, 101):
        for c in range(n + 1):
            assert pass_at_k(n, c, 1) == c / n
    assert time.monotonic() - start < 5.0


def _random_trace(rng):
    n = rng.randint(1, 50)
    ts = sorted(rng.sample(range(180), n))
    records = []
    for t in ts:
        ok = rng.random() < 0.55
        records.append(
            CheckRecord(
                t=t,
                inputs={"a": str(rng.randint(0, 1))},
                dut_outputs={"y": "1" if ok else "0"},
                expected_outputs={"y": "1"},
            )
        )
    return CheckTrace.from_records(records)


def test_c03_checkpoint_math_vs_bruteforce():
    """Earliest mismatch and window extraction against brute-force oracles."""
    rng = random.Random(303)
    start = time.monotonic()
    for _ in range(1000):
        trace = _random_trace(rng)
        brute_first = min((r.t for r in trace.records if not r.matched), default=None)
        assert earliest_mismatch(trace) == brute_first
        if brute_first is None:
            continue
        anchors = [r.t for r in trace.records if not r.matched]
        anchor = rng.choice(anchors)
        window_len = rng.randint(1, 12)
        window = extract_window(trace, anchor, window_len)
        lo = max(anchor - window_len, 0)
        assert lo >= 0  # lower bound clamps at zero
        brute = [r.t for r in trace.records if lo <= r.t <= anchor]
        assert [r.t for r in window.records] == brute
        assert len(window.records) <= window_len + 1
    assert time.monotonic() - start < 5.0


def test_c04_top_k_selection_vs_subset_argmax():
    """select_top_k == exhaustive size-K subset maximization, 500 pools."""
    rng = random.Random(404)
    start = time.monotonic()
    for _ in range(500):
        n = rng.randint(1, 12)
        k = rng.randint(1, min(5, n))
        exact = [Fraction(rng.randint(0, 20), 20) for _ in range(n)]
        pool = [
            Candidate(
                id=i,
                source=VerilogSource(kind="dut", top_module=f"c{i}", code="module m; endmodule"),
                score=Score(float(f)),
            )
            for i, f in enumerate(exact)
        ]
        chosen = [c.id for c in select_top_k(pool, k)]
        best = max(
            sum(exact[i] for i in subset)
            for subset in itertools.combinations(range(n), min(k, n))
        )
        assert len(chosen) == min(k, n)
        assert sum(exact[i] for i in chosen) == best
    assert time.monotonic() - start < 10.0


def test_c05_debug_round_monotonicity_and_halting(templates, tmp_path):
    """200 adversarial scripted debug sequences: per-lineage selected scores
    never regress, and the run halts exactly at score 1 or the round budget."""
    rng = random.Random(505)
    start = time.monotonic()
    for case in range(200):
        c = rng.randint(2, 5)
        k = rng.randint(1, min(3, c))
        rounds = rng.randint(0, 3)
        sample_m = [rng.randint(0, 10) for _ in range(c)]
        script = {
            "testbench_gen/gen0": GOOD_TB,
            "rtl_gen/init0": GLITCH_RTL,
            "judge/e0": RTL_FAULTY,
            "rtl_gen/sample/e0": [
                fx.fenced(fx.stub_dut(f"score:{m}:10", name=f"cand{i}_{m}"))
                for i, m in enumerate(sample_m)
            ],
        }
        order = sorted(range(c), key=lambda i: (sample_m[i], i))
        roots = [i + 1 for i in order[:k]]
        trial_m = {}
        for round_index in range(1, rounds + 1):
            for root in roots:
                m = rng.randint(0, 10)  # trials regress, stagnate, or improve
                trial_m[(round_index, root)] = m
                script[f"debug/r{round_index}/c{root}"] = fx.fenced(
                    fx.stub_dut(f"score:{m}:10", name=f"t{round_index}_{root}_{m}")
                )
        runtime = EngineRuntime(
            backend=ScriptedBackend(script),
            sim_runner=StubSimRunner(),
            syntax_checker=StubSyntaxChecker(),
            templates=templates,
            transcript_dir=tmp_path / f"case{case}",
        )
        config = RunConfig(pool_size=c, top_k=k, max_debug_rounds=rounds)
        outcome = run_pipeline(fx.stub_counter_problem(), config, runtime)

        expected = [[float(1 - Fraction(sample_m[i], 10)) for i in order[:k]]]
        halted = any(v == 1.0 for v in expected[0])
        for round_index in range(1, rounds + 1):
            if halted:
                break
            nxt = [
                max(prev, float(1 - Fraction(trial_m[(round_index, root)], 10)))
                for prev, root in zip(expected[-1], roots)
            ]
            expected.append(nxt)
            halted = any(v == 1.0 for v in nxt)

        got = [scores for _, scores in outcome.score_history]
        assert got == expected
        for j in range(k):
            series = [scores[j] for scores in got]
            assert series == sorted(series)
        if any(v == 1.0 for v in got[-1]):
            assert outcome.status == "solved"
            assert len(got) - 1 <= rounds
        else:
            assert outcome.status == "budget_exhausted"
            assert len(got) - 1 == rounds  # ran every budgeted round, no more
    assert time.monotonic() - start < 10.0


def test_c06_syntax_fix_cap_exactly_five(templates):
    """An always-broken repair loop stops after exactly 5 ask iterations."""
    script = {f"t/fix{k}": fx.fenced(fx.stub_dut("score:0:4", err_line=k)) for k in range(1, 9)}
    backend = ScriptedBackend(script)
    checker = StubSyntaxChecker()
    team = AgentTeam(
        backend=backend,
        templates=templates,
        syntax_checker=checker,
        params=SamplingParams(temperature=0.0, top_p=0.01),
        mode="multi",
    )
    broken = VerilogSource(
        kind="dut", top_module="counter4", code=fx.stub_dut("score:0:4", err_line=1)
    )
    with pytest.raises(SyntaxUnfixable):
        team.fix_syntax(broken, team.conversation("rtl_gen"), "t")
    fix_calls = [r for r in backend.requests if "/fix" in r.tag]
    assert len(fix_calls) == 5  # never 4, never 6
    assert checker.calls == 6  # initial compile + one per ask


def test_c07_judge_routing_and_regen_bound(templates, tmp_path):
    """testbench_faulty: one regeneration, pool invalidation, step-2 re-entry;
    then exhaustion at max_tb_regens=2."""
    # one regeneration then success
    script = {
        "testbench_gen/gen0": GOOD_TB,
        "rtl_gen/init0": GLITCH_RTL,
        "judge/e0": TB_FAULTY,
        "testbench_gen/gen1": fx.fenced(fx.stub_tb(name="counter4_tb2")),
        "rtl_gen/init1": CLEAN_RTL,
    }
    runtime = EngineRuntime(
        backend=ScriptedBackend(script),
        sim_runner=StubSimRunner(),
        syntax_checker=StubSyntaxChecker(),
        templates=templates,
        transcript_dir=tmp_path / "one_regen",
    )
    outcome = run_pipeline(fx.stub_counter_problem(), RunConfig(max_tb_regens=2), runtime)
    assert outcome.status == "solved"
    events = [
        json.loads(line)
        for line in (tmp_path / "one_regen" / "events.jsonl").read_text().splitlines()
    ]
    assert len([e for e in events if e["event"] == "tb_regen"]) == 1
    assert len([e for e in events if e["event"] == "pool_invalidated"]) == 1
    step2_epochs = [e["epoch"] for e in events if e["event"] == "step" and e["step"] == 2]
    assert step2_epochs == [0, 1]  # re-entry at step 2 after regeneration

    # permanent testbench_faulty exhausts the budget
    script = {}
    for epoch in range(3):
        script[f"testbench_gen/gen{epoch}"] = GOOD_TB
        script[f"rtl_gen/init{epoch}"] = GLITCH_RTL
        script[f"judge/e{epoch}"] = TB_FAULTY
    runtime = EngineRuntime(
        backend=ScriptedBackend(script),
        sim_runner=StubSimRunner(),
        syntax_checker=StubSyntaxChecker(),
        templates=templates,
        transcript_dir=tmp_path / "exhaust",
    )
    outcome = run_pipeline(fx.stub_counter_problem(), RunConfig(max_tb_regens=2), runtime)
    assert outcome.status == "tb_regen_exhausted"


def _c08_script():
    return {
        "testbench_gen/gen0": GOOD_TB,
        "rtl_gen/init0": GLITCH_RTL,  # 1 mismatch in 16 checks -> 0.9375
        "judge/e0": RTL_FAULTY,
        "rtl_gen/sample/e0": [
            fx.fenced(fx.stub_dut("counter16:glitch@9", name="cand0")),
            fx.fenced(fx.stub_dut("counter16:glitch@9\n// variant", name="cand1")),
        ],
        "debug/r1/c1": fx.fenced(fx.stub_dut("counter16", name="fixed")),
    }


def test_c08_end_to_end_replay_counter(templates, tmp_path):
    """Cassette-driven counter run: 0.9375 initial, debug fixes it in round 1;
    the debug prompt carries the rendered first-mismatch row; deterministic."""
    start = time.monotonic()
    config = RunConfig(pool_size=2, top_k=1, max_debug_rounds=3)
    cassette = tmp_path / "counter.jsonl"
    recorder = CassetteRecorder(ScriptedBackend(_c08_script()), cassette)
    record_runtime = EngineRuntime(
        backend=recorder,
        sim_runner=StubSimRunner(),
        syntax_checker=StubSyntaxChecker(),
        templates=templates,
        transcript_dir=tmp_path / "rec",
    )
    recorded = run_pipeline(fx.stub_counter_problem(), config, record_runtime)
    recorder.close()
    assert recorded.status == "solved"

    outcomes = []
    request_logs = []
    for name in ("r1", "r2"):
        replay = ReplayBackend(cassette)

        class Spy:
            def __init__(self, inner):
                self.inner = inner
                self.requests = []

            def complete(self, request):
                self.requests.append(request)
                return self.inner.complete(request)

        spy = Spy(replay)
        runtime = EngineRuntime(
            backend=spy,
            sim_runner=StubSimRunner(),
            syntax_checker=StubSyntaxChecker(),
            templates=templates,
            transcript_dir=tmp_path / name,
        )
        outcomes.append(run_pipeline(fx.stub_counter_problem(), config, runtime))
        request_logs.append(spy.requests)

    for outcome in outcomes:
        assert outcome.status == "solved"
        assert outcome.score_history == [(0, [0.9375]), (1, [1.0])]
        assert outcome.best.score.value == 1.0
        assert outcome.best.round == 1
        assert outcome.best.lineage == 1

    # the debug prompt contains the rendered first-mismatch row
    debug_requests = [r for r in request_logs[0] if r.tag.startswith("debug/")]
    assert len(debug_requests) == 1
    prompt = debug_requests[0].messages[-1].content
    from toolstub import synth_counter_trace

    trace = parse_trace(synth_counter_trace(glitch_at=9))
    window = extract_window(trace, 9, config.window_len)
    rendered = render_window(window)
    assert rendered in prompt
    assert "4'b1000" in rendered.splitlines()[-1] and "4'b1001" in rendered.splitlines()[-1]

    # deterministic across replay runs
    assert (tmp_path / "r1" / "events.jsonl").read_bytes() == (
        tmp_path / "r2" / "events.jsonl"
    ).read_bytes()
    assert outcomes[0].best.source.code == outcomes[1].best.source.code
    assert time.monotonic() - start < 10.0


@requires_toolchain
def test_c08_end_to_end_replay_counter_real_toolchain(templates, tmp_path):
    """Same scenario through the real compiler and simulator; < 60s."""
    start = time.monotonic()
    script = {
        "testbench_gen/gen0": fx.fenced(fx.REAL_COUNTER_TB),
        "rtl_gen/init0": fx.fenced(fx.REAL_COUNTER_GLITCH9),
        "judge/e0": RTL_FAULTY,
        "rtl_gen/sample/e0": [
            fx.fenced(fx.REAL_COUNTER_GLITCH9),
            fx.fenced("// candidate variant\n" + fx.REAL_COUNTER_GLITCH9),
        ],
        "debug/r1/c1": fx.fenced(fx.REAL_COUNTER_DUT),
    }
    from rtlforge.simbridge import ToolchainConfig, ToolchainSyntaxChecker

    toolchain = ToolchainConfig(sim_timeout=20.0)
    checker = ToolchainSyntaxChecker(toolchain)
    runtime = EngineRuntime(
        backend=ScriptedBackend(script),
        sim_runner=ToolchainSimRunner(toolchain),
        syntax_checker=lambda source, workdir: checker(source, workdir),
        templates=templates,
        transcript_dir=tmp_path / "real",
    )
    config = RunConfig(pool_size=2, top_k=1, max_debug_rounds=3, sim_timeout=20.0)
    outcome = run_pipeline(fx.stub_counter_problem(), config, runtime)
    assert outcome.status == "solved"
    assert outcome.score_history[0] == (0, [0.9375])
    assert outcome.best.score.value == 1.0
    assert time.monotonic() - start < 60.0


@requires_toolchain
def test_c09_toolchain_fixture_problems(tmp_path):
    """Three fixture designs score 1.0 and pass golden; the inverted-carry
    counter scores < 1 with its first mismatch at the hand-computed edge."""
    runner = ToolchainSimRunner()
    cases = [
        ("mux2", fx.REAL_MUX_DUT, fx.REAL_MUX_TB, fx.REAL_MUX_GOLDEN_TB, "mux2_tb"),
        ("dff", fx.REAL_DFF_DUT, fx.REAL_DFF_TB, fx.REAL_DFF_GOLDEN_TB, "dff_tb"),
        (
            "counter4",
            fx.REAL_COUNTER_DUT,
            fx.REAL_COUNTER_TB,
            fx.REAL_COUNTER_GOLDEN_TB,
            "counter4_tb",
        ),
    ]
    for name, dut_code, tb_code, golden_code, tb_top in cases:
        dut = VerilogSource(kind="dut", top_module=name, code=dut_code)
        tb = VerilogSource(kind="testbench", top_module=tb_top, code=tb_code)
        sim = runner.run([dut, tb], tmp_path / name / "engine")
        assert sim.status == "ok", sim.diagnostics
        trace = parse_trace(sim.stdout)
        assert score(trace).value == 1.0
        result = evaluate_golden(dut, golden_code, runner, tmp_path / name / "golden")
        assert result.passed, result.reason

    mutant = VerilogSource(kind="dut", top_module="counter4", code=fx.REAL_COUNTER_BADCARRY)
    tb = VerilogSource(kind="testbench", top_module="counter4_tb", code=fx.REAL_COUNTER_TB)
    sim = runner.run([mutant, tb], tmp_path / "mutant")
    assert sim.status == "ok"
    trace = parse_trace(sim.stdout)
    assert score(trace).value < 1.0
    # hand simulation: 0000 -> {q3^~(q2&q1&q0)=1, 0, 0, ~0=1} = 1001, so the
    # first post-reset check (ordinal 1) already mismatches
    assert earliest_mismatch(trace) == 1


def test_c10_bench_replay_byte_identical(templates, tmp_path, stub_toolchain):
    """Two replay-mode bench runs emit byte-identical CSV reports."""
    from test_cli import (
        BENCH_CONFIG,
        BENCH_FLAGS,
        _bench_dataset,
        _bench_script,
        record_bench_cassette,
    )
    from rtlforge.cli import main as cli_main

    dataset, problems = _bench_dataset(tmp_path)
    cassette = tmp_path / "bench.jsonl"
    record_bench_cassette(
        cassette, _bench_script, RunConfig(**BENCH_CONFIG), problems, templates
    )
    compiler, vvp = stub_toolchain
    outputs = []
    for name in ("d1", "d2"):
        out = tmp_path / name
        code = cli_main(
            ["bench", str(dataset), "--out", str(out), "--backend", "replay",
             "--cassette", str(cassette), "--compiler-path", compiler,
             "--vvp-path", vvp] + BENCH_FLAGS
        )
        assert code == 0
        outputs.append(out)
    for filename in ("report.csv", "scores_by_round.csv", "report.json"):
        assert (outputs[0] / filename).read_bytes() == (
            outputs[1] / filename
        ).read_bytes(), filename


LIVE_FLAG = "RTLFORGE_LIVE_BENCH"


@pytest.mark.skipif(
    not os.environ.get(LIVE_FLAG), reason=f"set {LIVE_FLAG}=1 with credentials for live smoke"
)
def test_c11_live_smoke_records_and_replays(templates, tmp_path):
    """Optional live smoke: 3 problems complete, reports emit, and the
    recorded cassette replays to identical control-flow decisions."""
    auth_env = os.environ.get("RTLFORGE_LIVE_AUTH_ENV", "RTLFORGE_API_KEY")
    base_url = os.environ.get("RTLFORGE_LIVE_BASE_URL", "https://api.openai.com/v1")
    model = os.environ.get("RTLFORGE_LIVE_MODEL", "gpt-4o-mini")
    from rtlforge.simbridge import toolchain_available, ToolchainConfig, ToolchainSyntaxChecker

    problems = [
        Problem(task_id="smoke_counter", spec=fx.COUNTER_SPEC, module_interface=fx.COUNTER_INTERFACE),
        Problem(task_id="smoke_mux", spec=fx.MUX_SPEC, module_interface=fx.MUX_INTERFACE),
        Problem(task_id="smoke_dff", spec=fx.DFF_SPEC, module_interface=fx.DFF_INTERFACE),
    ]
    cassette = tmp_path / "live.jsonl"
    live = CassetteRecorder(HttpBackend(base_url, auth_env=auth_env), cassette)

    if toolchain_available():
        toolchain = ToolchainConfig(sim_timeout=20.0)
        sim_runner = ToolchainSimRunner(toolchain)
        real_checker = ToolchainSyntaxChecker(toolchain)
        checker = lambda source, workdir: real_checker(source, workdir)  # noqa: E731
    else:
        sim_runner = StubSimRunner()
        checker = StubSyntaxChecker()

    def factory(backend_root, label):
        def make(task_id, run_index):
            return EngineRuntime(
                backend=NamespacedBackend(backend_root, f"{task_id}/run{run_index}/"),
                sim_runner=sim_runner,
                syntax_checker=checker,
                templates=templates,
                model_id=model,
                transcript_dir=tmp_path / label / task_id / str(run_index),
            )

        return make

    config = RunConfig(pool_size=3, top_k=1, max_debug_rounds=1)
    live_records = run_bench(problems, config, factory(live, "live"), n_runs=1)
    live.close()
    report = emit_report(live_records, tmp_path / "live_out")
    assert len(report.problems) == 3

    replay_records = run_bench(
        problems, config, factory(ReplayBackend(cassette), "replay"), n_runs=1
    )
    for a, b in zip(live_records, replay_records):
        assert a.status == b.status
        assert a.engine_score_history == b.engine_score_history
        assert a.llm_calls == b.llm_calls
