"""Microbenchmarks of the simulation substrates themselves.

These are conventional pytest-benchmark timings (multiple rounds): they
track the simulator's own performance — event throughput, TCP transfer
cost, SSD pipeline cost — so regressions in the substrate show up here
rather than as mysteriously slow figure runs.
"""

from repro.net import Fabric
from repro.simcore import Environment
from repro.simcore.rng import RandomStreams
from repro.ssd import NvmeSsd, SsdProfile


def test_engine_event_throughput(benchmark):
    """Schedule+process cost of the core event loop (100k timeouts)."""

    def run():
        env = Environment()

        def ticker(env, n):
            for _ in range(n):
                yield env.timeout(1.0)

        env.process(ticker(env, 100_000))
        env.run()
        return env.now

    result = benchmark(run)
    assert result == 100_000.0


def test_engine_callback_throughput(benchmark):
    """Schedule+dispatch cost of the call_later fast path (100k callbacks)."""

    def run():
        env = Environment()
        total = 100_000

        def tick(remaining):
            if remaining:
                env.call_later(1.0, tick, remaining - 1)

        env.call_later(1.0, tick, total - 1)
        env.run()
        return env.now

    result = benchmark(run)
    assert result == 100_000.0


def test_tcp_bulk_transfer(benchmark):
    """Cost of moving 8 MB through the TCP-lite stack."""

    def run():
        env = Environment()
        fabric = Fabric(env, rate_gbps=100)
        fabric.add_node("a")
        fabric.add_node("b")
        sa, sb = fabric.connect("a", "b")
        done = []
        sb.deliver = done.append
        for i in range(256):
            sa.send_message(i, size=32 * 1024)
        env.run()
        return len(done)

    assert benchmark(run) == 256


def test_ssd_pipeline(benchmark):
    """Cost of 20k device commands through SQ/controller/CQ."""

    def run():
        env = Environment()
        ssd = NvmeSsd(env, profile=SsdProfile(channels=8), streams=RandomStreams(1))
        qp = ssd.create_qpair()
        state = {"done": 0, "submitted": 0}
        total = 20_000

        def refill(completion):
            state["done"] += 1
            if state["submitted"] < total:
                qp.read(1, slba=state["submitted"] % 1000, nlb=1)
                state["submitted"] += 1

        qp.on_completion = refill
        for _ in range(64):
            qp.read(1, slba=0, nlb=1)
            state["submitted"] += 1
        env.run()
        return state["done"]

    assert benchmark(run) == 20_000
