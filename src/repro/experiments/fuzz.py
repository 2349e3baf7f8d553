"""Scenario-program fuzz campaign: generated programs vs the invariant oracle.

Replays seed-driven random programs (``repro.scenarios.generate``) and holds
every one to the machine-checked invariants — exactly-once CID retirement,
SLO accounting balance, conservation of submitted-vs-completed commands —
plus (sampled) bit-identical same-seed replay digests.

Every failure is a one-command repro::

    python -m repro.experiments.fuzz --seed 1234

prints the offending program as JSON and replays it with invariant checks
on, so a nightly-CI failure reproduces locally from just the seed.
"""

from __future__ import annotations

import argparse
import sys
import time
from collections import Counter
from dataclasses import dataclass, field
from typing import List, Optional

from ..errors import ConfigError, ReproError
from ..metrics.report import format_table
from ..parallel.pool import cli_workers, run_units
from ..parallel.sweeps import fuzz_units
from ..scenarios.compiler import replay
from ..scenarios.generate import GeneratorConfig, generate_program

#: Sampled determinism audit: every Nth program is replayed twice and the
#: two digests must be byte-identical.
DETERMINISM_STRIDE = 25


@dataclass
class FuzzFailure:
    seed: int
    kind: str
    message: str

    def repro_command(self) -> str:
        return f"python -m repro.experiments.fuzz --seed {self.seed}"


@dataclass
class FuzzResult:
    """One campaign's books."""

    base_seed: int
    n_programs: int
    elapsed_s: float = 0.0
    action_counts: Counter = field(default_factory=Counter)
    determinism_checks: int = 0
    failures: List[FuzzFailure] = field(default_factory=list)

    @property
    def ok(self) -> bool:
        return not self.failures


def run_fuzz(
    n_programs: int = 500,
    base_seed: int = 0,
    generator_config: Optional[GeneratorConfig] = None,
    determinism_stride: int = DETERMINISM_STRIDE,
    workers: int = 0,
    print_table: bool = False,
) -> FuzzResult:
    """Generate and replay ``n_programs`` sequential-seed programs.

    Failures are collected, not raised, so one bad seed never hides the
    rest of the campaign; the result lists every failing seed with its
    one-command repro.  The campaign is the seed blocks of
    :func:`~repro.parallel.sweeps.fuzz_units`; ``workers=0`` replays them
    in-process, ``workers>=1`` on that many worker processes.  Blocks merge
    in seed order regardless of completion order, so the result is
    field-for-field identical either way.
    """
    units = fuzz_units(
        n_programs,
        base_seed=base_seed,
        determinism_stride=determinism_stride,
        generator_config=generator_config,
    )
    started = time.time()
    campaign = run_units(units, workers=workers)
    campaign.raise_on_failure()  # unit-level crashes, not per-seed findings
    result = FuzzResult(base_seed=base_seed, n_programs=n_programs)
    for block in campaign.results:  # submission order == ascending seeds
        result.action_counts.update(block.data["action_counts"])
        result.determinism_checks += block.data["determinism_checks"]
        for seed, kind, message in block.data["failures"]:
            result.failures.append(FuzzFailure(seed, kind, message))
    result.elapsed_s = time.time() - started

    if print_table:
        rows = [
            [op, count] for op, count in sorted(result.action_counts.items())
        ]
        print(
            f"fuzz campaign: {n_programs} programs from seed {base_seed} "
            f"({len(units)} blocks, {workers} workers), "
            f"{result.determinism_checks} determinism audits, "
            f"{len(result.failures)} failure(s), {result.elapsed_s:.1f}s"
        )
        print(format_table(["action", "count"], rows))
        for failure in result.failures:
            print(
                f"FAIL seed {failure.seed} [{failure.kind}]: {failure.message}\n"
                f"  repro: {failure.repro_command()}"
            )
    return result


def repro_seed(seed: int, generator_config: Optional[GeneratorConfig] = None) -> None:
    """Reproduce one seed verbosely: print the program, replay, check."""
    program = generate_program(seed, generator_config)
    print(program.to_json())
    run = replay(program)  # raises InvariantViolation on any breach
    print()
    print(run.digest())
    again = replay(generate_program(seed, generator_config))
    if again.digest() != run.digest():
        raise ReproError(f"seed {seed}: same-seed replay digests differ")
    print(f"\nseed {seed}: all invariants hold; replay digest is deterministic")


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(
        prog="python -m repro.experiments.fuzz",
        description="Fuzz scenario programs against the invariant oracle.",
    )
    parser.add_argument(
        "--seed", type=int, default=None,
        help="reproduce ONE generated program verbosely (prints its JSON)",
    )
    parser.add_argument(
        "--count", type=int, default=500, help="campaign size (default 500)"
    )
    parser.add_argument(
        "--base-seed", type=int, default=0, help="first seed of the campaign"
    )
    parser.add_argument(
        "--workers", type=int, default=0, metavar="N",
        help="fan seed blocks out to N worker processes (0/1: serial; "
        "merged results are identical either way)",
    )
    args = parser.parse_args(argv)

    try:
        if args.seed is not None:
            if args.seed < 0:
                raise ConfigError(
                    f"key 'seed' must be a non-negative integer (got {args.seed!r})"
                )
            repro_seed(args.seed)
            return 0
        result = run_fuzz(
            n_programs=args.count,
            base_seed=args.base_seed,
            workers=cli_workers(args.workers),
            print_table=True,
        )
    except ConfigError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    # Any failing seed fails the campaign: CI and scripts key off this.
    return 0 if result.ok else 1


if __name__ == "__main__":  # pragma: no cover - CLI shim
    sys.exit(main())
