"""Differential serial-vs-parallel harness for ``repro.parallel``.

The headline guarantee of the parallel runner: fanning work out to a
process pool changes *nothing* about the results.  Every suite here pins
byte-for-byte equality between a serial (``workers=0``, in-process) run
and a pooled run — for the Figure 7/8/9 sweeps, the pinned 20-seed fuzz
corpus, a chaos fault-matrix cell, and the golden-pinned library program —
plus a Hypothesis proof that the merge is invariant under completion order.
The figure and fuzz harnesses are additionally held to sha256 pins that
were recorded from the standalone nested-loop harnesses the unit grids
replaced, so both paths answer to a reference outside themselves.

The pool size comes from ``REPRO_TEST_WORKERS`` (CI sets 4; the default
of 2 keeps single-core dev boxes fast).  Determinism must hold for any
value, so the suites only read it, never branch on it.
"""

import hashlib
import json
import os
import time
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.errors import CampaignError, ConfigError
from repro.parallel import (
    CampaignResult,
    UnitResult,
    WorkUnit,
    fault_matrix_units,
    fig7_units,
    merge_results,
    register_executor,
    run_programs_parallel,
    run_units,
)
from repro.parallel.sweeps import fuzz_units
from repro.experiments.fig7 import run_fig7
from repro.experiments.fig8 import run_fig8
from repro.experiments.fig9 import run_fig9
from repro.experiments.fuzz import run_fuzz
from tests.test_golden_regression import GOLDEN_OPF_DIGEST_SHA256

WORKERS = int(os.environ.get("REPRO_TEST_WORKERS", "2"))

CORPUS_PATH = Path(__file__).parent / "data" / "scenario_fuzz_corpus.json"

#: sha256 of ``repr(...)`` of each differential grid's result, recorded from
#: the standalone nested-loop harnesses before ``run_fig7`` / ``run_fig8`` /
#: ``run_fig9`` / ``run_fuzz`` were routed through the unit grids.  Any
#: drift in a grid's order, knob derivation or rebuild shows up here.
FIG7_GRID_POINTS_SHA256 = "fdd9325ed421c31e00d02a5853567b36f70d4599c7793bc0ea160a7cbadb011f"
FIG8_GRID_CURVES_SHA256 = "890e4976a5b43d72e62d050d251d3ae78a6eeee0462f035df4b4f702872d771b"
FIG9_GRID_POINTS_SHA256 = "c5afe675c27550004cddb6ad7606e33de39b0c9d5212e41d7d89defa90b0a1e7"
#: ... of ``_fuzz_books(run_fuzz(30))``.
FUZZ_30_BOOKS_SHA256 = "63b1725b26faacce164200502a0fce5e719e27cb1b77089ef089419d1eac253d"


def _sha(value) -> str:
    return hashlib.sha256(repr(value).encode()).hexdigest()


def _fuzz_books(result):
    """A fuzz campaign's deterministic fields, in canonical order."""
    return (
        sorted(result.action_counts.items()),
        result.determinism_checks,
        [(f.seed, f.kind, f.message) for f in result.failures],
    )

#: A deliberately staggered executor: later-submitted units finish first,
#: so pooled completion order is the reverse of submission order.
def _sleepy_executor(payload):
    time.sleep(payload["sleep_s"])
    return f"slept={payload['sleep_s']!r} tag={payload['tag']}", {"tag": payload["tag"]}


register_executor("test-sleepy", _sleepy_executor, replace=True)


# -- figure sweeps -------------------------------------------------------------


class TestFig7Differential:
    GRID = dict(ratios=("1:1", "1:2"), speeds=(10.0,), mixes=("read",), total_ops=80)

    def test_campaign_digest_is_bit_identical_to_serial(self):
        units = fig7_units(**self.GRID)
        serial = run_units(units, workers=0)
        pooled = run_units(units, workers=WORKERS)
        assert serial.ok and pooled.ok
        assert pooled.campaign_digest() == serial.campaign_digest()
        # Not just the digest: every unit's full metrics rendering matches.
        for s, p in zip(serial.results, pooled.results):
            assert p.unit_id == s.unit_id
            assert p.digest == s.digest
            assert p.data == s.data

    def test_points_match_the_serial_harness_exactly(self):
        for workers in (0, WORKERS):
            points = run_fig7(workers=workers, print_table=True, **self.GRID)
            assert _sha(points) == FIG7_GRID_POINTS_SHA256, f"workers={workers}"

    def test_unit_digest_matches_a_direct_scenario_run(self):
        from tests.conftest import build_fig7_cell

        units = fig7_units(**self.GRID)
        campaign = run_units(units, workers=WORKERS)
        assert len(units) == 4
        for unit, result in zip(units, campaign.results):
            cfg = unit.payload["config"]
            direct = build_fig7_cell(
                ratio=unit.payload["ratio"],
                protocol=cfg["protocol"],
                total_ops=cfg["total_ops"],
                window_size=cfg["window_size"],
            ).run()
            assert result.digest == direct.metrics_digest(), unit.unit_id


class TestFig8Fig9Differential:
    FIG8 = dict(
        mixes=("read",),
        patterns=(1, 2),
        n_node_pairs=2,
        per_node_range=[1, 2],
        pairs_range=[1, 2],
        total_ops=60,
    )
    FIG9 = dict(
        modes=("write", "read"),
        patterns=(2,),
        n_node_pairs=2,
        ranks_per_node_max=2,
        particles_per_rank=16 * 1024,
        timesteps=1,
        dataset_load_us=2_000.0,
    )

    def test_fig8_curves_match_the_serial_harness_exactly(self):
        from repro.parallel.sweeps import fig8_units

        for workers in (0, WORKERS):
            curves = run_fig8(workers=workers, print_table=True, **self.FIG8)
            assert _sha(curves) == FIG8_GRID_CURVES_SHA256, f"workers={workers}"
        units = fig8_units(**self.FIG8)
        assert (
            run_units(units, workers=WORKERS).campaign_digest()
            == run_units(units, workers=0).campaign_digest()
        )

    def test_fig9_points_match_the_serial_harness_exactly(self):
        from repro.parallel.sweeps import fig9_units

        for workers in (0, WORKERS):
            points = run_fig9(workers=workers, print_table=True, **self.FIG9)
            assert _sha(points) == FIG9_GRID_POINTS_SHA256, f"workers={workers}"
        units = fig9_units(**self.FIG9)
        assert (
            run_units(units, workers=WORKERS).campaign_digest()
            == run_units(units, workers=0).campaign_digest()
        )


# -- the pinned fuzz corpus ----------------------------------------------------


class TestFuzzDifferential:
    def test_parallel_campaign_reproduces_the_pinned_corpus(self):
        corpus = json.loads(CORPUS_PATH.read_text())["programs"]
        seeds = [entry["seed"] for entry in corpus]
        assert seeds == sorted(seeds)
        n = max(seeds) + 1
        units = fuzz_units(n, base_seed=min(seeds), chunk_size=7, determinism_stride=0)
        campaign = run_units(units, workers=WORKERS)
        campaign.raise_on_failure()
        by_seed = {}
        for result in campaign.results:
            by_seed.update(result.data["seeds"])
        for entry in corpus:
            got = by_seed[entry["seed"]]
            assert got["signature_sha256"] == entry["signature_sha256"], (
                f"seed {entry['seed']}: generated program drifted in the worker"
            )
            assert got["digest_sha256"] == entry["digest_sha256"], (
                f"seed {entry['seed']}: replay digest drifted in the worker"
            )

    def test_parallel_fuzz_result_is_field_identical_to_serial(self):
        for workers in (0, WORKERS):
            result = run_fuzz(n_programs=30, base_seed=0, workers=workers, print_table=True)
            assert _sha(_fuzz_books(result)) == FUZZ_30_BOOKS_SHA256, f"workers={workers}"
            assert result.ok
            assert (result.base_seed, result.n_programs) == (0, 30)
        # Block size is invisible: 8-seed blocks sum to the same books.
        campaign = run_units(fuzz_units(30, chunk_size=8), workers=WORKERS)
        counts, checks, failures = {}, 0, []
        for block in campaign.results:
            for op, n in block.data["action_counts"].items():
                counts[op] = counts.get(op, 0) + n
            checks += block.data["determinism_checks"]
            failures.extend(tuple(f) for f in block.data["failures"])
        assert _sha((sorted(counts.items()), checks, failures)) == FUZZ_30_BOOKS_SHA256

    def test_run_fuzz_workers_flag_routes_through_the_pool(self):
        serial = run_fuzz(n_programs=12, base_seed=5)
        pooled = run_fuzz(n_programs=12, base_seed=5, workers=WORKERS)
        assert _fuzz_books(pooled) == _fuzz_books(serial)


# -- chaos fault-matrix cells --------------------------------------------------


class TestFaultMatrixDifferential:
    @pytest.mark.parametrize("kind", ["target_crash", "link_loss_burst"])
    def test_chaos_cell_digest_is_bit_identical_to_serial(self, kind):
        units = fault_matrix_units(kinds=[kind], total_ops=120)
        serial = run_units(units, workers=0)
        pooled = run_units(units, workers=WORKERS)
        assert serial.ok and pooled.ok
        assert pooled.campaign_digest() == serial.campaign_digest()
        assert pooled.results[0].digest == serial.results[0].digest
        # Chaos cells recover: the retry policy reports, never loses, ops.
        assert pooled.results[0].data["failed_ops"] == 0

    def test_full_matrix_runs_every_fault_kind_in_kind_order(self):
        from repro.parallel import FAULT_MATRIX, run_fault_matrix_parallel

        cells = run_fault_matrix_parallel(total_ops=100)
        assert [c.kind for c in cells] == sorted(FAULT_MATRIX)
        for cell in cells:
            assert len(cell.digest_sha256) == 64
            assert cell.goodput_ops > 0


# -- golden pins ---------------------------------------------------------------


class TestGoldenPins:
    def test_worker_replay_hits_the_pre_hardening_golden_pin(self):
        """The library fig7 program replayed in a *worker process* must
        reproduce the digest pinned before chaos hardening landed — the
        strongest cross-process determinism statement we can make."""
        envelopes = run_programs_parallel(names=["fig7-opf-1to2"], workers=WORKERS)
        assert envelopes[0].digest_sha256 == GOLDEN_OPF_DIGEST_SHA256

    def test_envelope_matches_in_process_replay(self):
        from repro.scenarios import replay
        from repro.scenarios.library import fig7_cell_program

        envelopes = run_programs_parallel(names=["fig7-opf-1to2"], workers=WORKERS)
        run = replay(fig7_cell_program())
        assert envelopes[0].digest == run.digest()
        assert envelopes[0].signature_sha256 == hashlib.sha256(
            run.program.signature().encode()
        ).hexdigest()


# -- merge determinism ---------------------------------------------------------


def _fake_results(n: int, rnd_attempts) -> list:
    return [
        UnitResult(
            unit_id=f"u{i:03d}",
            kind="test-sleepy",
            ok=(i % 7 != 3),
            digest=f"digest-{i}",
            data={"i": i},
            error_kind="" if i % 7 != 3 else "InvariantViolation",
            error="" if i % 7 != 3 else f"unit u{i:03d} breached",
            attempts=rnd_attempts[i],
        )
        for i in range(n)
    ]


class TestMergeDeterminism:
    @settings(max_examples=40, deadline=None)
    @given(data=st.data(), n=st.integers(min_value=1, max_value=24))
    def test_merge_is_invariant_under_completion_order(self, data, n):
        """For ANY permutation of arrival order — and any provenance noise
        (attempts, pids, elapsed) — the merged order and the campaign
        digest are identical."""
        units = [WorkUnit(f"u{i:03d}", "test-sleepy", {}) for i in range(n)]
        attempts = data.draw(
            st.lists(st.integers(1, 3), min_size=n, max_size=n)
        )
        results = _fake_results(n, attempts)
        shuffled = data.draw(st.permutations(results))
        merged = merge_results(units, shuffled)
        reference = merge_results(units, results)
        assert [r.unit_id for r in merged] == [r.unit_id for r in reference]
        noisy = CampaignResult(results=merged, workers=8)
        clean = CampaignResult(results=reference, workers=0)
        assert noisy.campaign_digest() == clean.campaign_digest()

    def test_merge_rejects_duplicates(self):
        units = [WorkUnit("a", "test-sleepy", {})]
        result = UnitResult(unit_id="a", kind="test-sleepy", ok=True)
        with pytest.raises(CampaignError, match="duplicate"):
            merge_results(units, [result, result])

    def test_merge_rejects_unknown_units(self):
        units = [WorkUnit("a", "test-sleepy", {})]
        with pytest.raises(CampaignError, match="unknown unit"):
            merge_results(units, [UnitResult(unit_id="b", kind="test-sleepy", ok=True)])

    def test_merge_rejects_missing_units(self):
        units = [WorkUnit("a", "test-sleepy", {}), WorkUnit("b", "test-sleepy", {})]
        with pytest.raises(CampaignError, match="no result"):
            merge_results(units, [UnitResult(unit_id="a", kind="test-sleepy", ok=True)])

    def test_real_pool_reversed_completion_order_merges_identically(self):
        """Units engineered to complete in reverse submission order still
        merge into submission order with a serial-identical digest."""
        units = [
            WorkUnit(
                unit_id=f"sleepy/{i}",
                kind="test-sleepy",
                payload={"sleep_s": 0.3 - 0.09 * i, "tag": i},
            )
            for i in range(3)
        ]
        serial = run_units(units, workers=0)
        pooled = run_units(units, workers=3)
        assert [r.data["tag"] for r in pooled.results] == [0, 1, 2]
        assert pooled.campaign_digest() == serial.campaign_digest()


# -- argument validation -------------------------------------------------------


class TestValidation:
    def test_negative_workers_is_a_config_error_naming_the_key(self):
        with pytest.raises(ConfigError, match="'workers'"):
            run_units([], workers=-1)

    def test_bool_workers_is_rejected(self):
        with pytest.raises(ConfigError, match="'workers'"):
            run_units([], workers=True)

    def test_oversized_workers_is_rejected(self):
        with pytest.raises(ConfigError, match="'workers'"):
            run_units([], workers=1000)

    def test_bad_max_retries_is_a_config_error_naming_the_key(self):
        with pytest.raises(ConfigError, match="'max_retries'"):
            run_units([], max_retries=-1)

    def test_duplicate_unit_ids_are_rejected(self):
        units = [WorkUnit("same", "test-sleepy", {}), WorkUnit("same", "test-sleepy", {})]
        with pytest.raises(ConfigError, match="duplicate unit_id"):
            run_units(units)

    def test_unknown_kind_is_rejected_before_any_fork(self):
        with pytest.raises(ConfigError, match="unknown kind"):
            run_units([WorkUnit("u", "no-such-kind", {})], workers=WORKERS)

    def test_empty_unit_id_is_rejected(self):
        with pytest.raises(ConfigError, match="'unit_id'"):
            WorkUnit("", "test-sleepy", {})

    def test_fuzz_units_validate_seed_range_keys(self):
        with pytest.raises(ConfigError, match="'count'"):
            fuzz_units(0)
        with pytest.raises(ConfigError, match="'base_seed'"):
            fuzz_units(10, base_seed=-1)
        with pytest.raises(ConfigError, match="'chunk_size'"):
            fuzz_units(10, chunk_size=0)

    def test_fuzz_cli_validates_workers_and_seed_range(self):
        from repro.experiments.fuzz import main

        assert main(["--count", "0"]) == 2
        assert main(["--count", "10", "--workers", "-3"]) == 2
        assert main(["--count", "10", "--base-seed", "-1"]) == 2

    def test_cli_workers_keeps_zero_and_one_in_process(self):
        from repro.parallel.pool import cli_workers

        ncpu = os.cpu_count() or 1
        assert cli_workers(0) == 0
        assert cli_workers(1) == 0
        assert cli_workers(ncpu) == (ncpu if ncpu > 1 else 0)

    def test_runner_cli_rejects_bad_workers(self):
        from repro.experiments.runner import main

        assert main(["table1", "--workers", "-1"]) == 2

    def test_fault_matrix_rejects_unknown_kind(self):
        with pytest.raises(ConfigError, match="'kinds'"):
            fault_matrix_units(kinds=["no_such_fault"])


class TestWorkersCliCpuCap:
    """``--workers`` beyond the machine's CPU count is a ConfigError (CLI)."""

    def test_runner_cli_rejects_oversubscription(self, capsys):
        from repro.experiments.runner import main

        over = (os.cpu_count() or 1) + 1
        if over > 64:
            pytest.skip("cpu_count + 1 exceeds MAX_WORKERS; cap hit first")
        assert main(["table1", "--workers", str(over)]) == 2
        err = capsys.readouterr().err
        assert "CPU count" in err and "'workers'" in err

    def test_fuzz_cli_rejects_oversubscription(self, capsys):
        from repro.experiments.fuzz import main

        over = (os.cpu_count() or 1) + 1
        assert main(["--count", "3", "--workers", str(over)]) == 2
        err = capsys.readouterr().err
        assert "CPU count" in err and "'workers'" in err
