"""Single-flight simulation cache: concurrent evaluations of one source share
one simulation, a raised error reaches every waiter without being cached, and
an evaluation keeps the run's diagnostics but not its output."""

import gc
import threading
import time
import weakref
from concurrent.futures import ThreadPoolExecutor

import pytest

from rtlforge.pipeline import WorkdirAllocator, _SimCache
from rtlforge.simbridge import SimRun, VerilogSource

from fixtures import stub_dut, stub_tb
from toolstub import StubSimRunner, StubSyntaxChecker

CALLERS = 4


class GatedRunner(StubSimRunner):
    """Blocks each simulation until released; optionally fails the first."""

    def __init__(self, fail_first: bool = False):
        super().__init__()
        self.release = threading.Event()
        self.fail_first = fail_first

    def run(self, sources, workdir) -> SimRun:
        assert self.release.wait(30), "simulation never released"
        result = super().run(sources, workdir)
        if self.fail_first and self.calls == 1:
            raise RuntimeError("simulator blew up")
        return result


def _cache(runner, tmp_path) -> _SimCache:
    cache = _SimCache(runner, StubSyntaxChecker(), WorkdirAllocator(tmp_path / "sim"))
    cache.open(VerilogSource(kind="testbench", top_module="counter4_tb", code=stub_tb()))
    return cache


def _dut(trailing: str = "") -> VerilogSource:
    return VerilogSource(kind="dut", top_module="counter4", code=stub_dut("score:2:8") + trailing)


def _evaluate_concurrently(cache, sources, runner):
    """Run every evaluation on its own thread, release the runner once they
    have had time to pile up, and return each result or raised exception."""

    def attempt(source):
        try:
            return cache.evaluate(source, "cand")
        except RuntimeError as exc:
            return exc

    with ThreadPoolExecutor(max_workers=len(sources)) as pool:
        futures = [pool.submit(attempt, source) for source in sources]
        time.sleep(0.2)
        runner.release.set()
        return [future.result(timeout=30) for future in futures]


def test_concurrent_duplicates_simulate_once(tmp_path):
    runner = GatedRunner()
    cache = _cache(runner, tmp_path)
    # Trailing whitespace differs; the normalized source is the same.
    sources = [_dut(" " * i) for i in range(CALLERS)]
    results = _evaluate_concurrently(cache, sources, runner)
    assert runner.calls == 1
    assert all(r is results[0] for r in results)
    assert results[0].status == "ok"
    assert results[0].score.value == pytest.approx(6 / 8)


def test_raised_error_reaches_waiters_and_is_not_cached(tmp_path):
    runner = GatedRunner(fail_first=True)
    cache = _cache(runner, tmp_path)
    results = _evaluate_concurrently(cache, [_dut() for _ in range(CALLERS)], runner)
    errors = [r for r in results if isinstance(r, RuntimeError)]
    assert errors, "the first simulation's error was swallowed"
    # A caller that arrived after the failure starts one fresh simulation.
    assert all(r.status == "ok" for r in results if not isinstance(r, RuntimeError))
    assert runner.calls <= 2
    retry = cache.evaluate(_dut(), "cand")
    assert retry.status == "ok"
    assert runner.calls == 2


class KeepingRunner(StubSimRunner):
    """Stub runner that keeps a weak reference to each run it returns."""

    def __init__(self):
        super().__init__()
        self.runs: list[weakref.ref] = []

    def run(self, sources, workdir) -> SimRun:
        sim = super().run(sources, workdir)
        self.runs.append(weakref.ref(sim))
        return sim


def test_evaluation_keeps_diagnostics_not_the_run(tmp_path):
    runner = KeepingRunner()
    cache = _cache(runner, tmp_path)
    clean = cache.evaluate(_dut(), "clean")
    broken = cache.evaluate(
        VerilogSource(kind="dut", top_module="counter4", code=stub_dut("score:2:8", err_line=3)),
        "broken",
    )
    gc.collect()
    assert len(runner.runs) == 2
    assert all(ref() is None for ref in runner.runs)
    assert clean.status == "ok" and clean.trace is not None
    assert broken.status == "compile_failed"
    assert [(d.file, d.line) for d in broken.diagnostics] == [("dut.v", 3)]
