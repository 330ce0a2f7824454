"""Acceptance gate: every criterion prints one pass/fail line (run with -s).

The random suites are fully seeded; re-running produces identical instances,
solutions and witnesses.
"""

import io
import itertools
import json
import time
from dataclasses import asdict

import pytest

from superstring import (
    brute_force_min_length,
    brute_force_scs,
    make_instance,
    solve,
    verify_solution,
)
from superstring.cli import GeneratorParams, config_from_args, generate_instance, run
from superstring.counters import Counters
from superstring.mismatches import build_mismatch_table
from superstring.subset_dp import build_overlap_table, build_subset_table
from conftest import all_binary_strings, random_valid_instance, substring_free

RANDOM_SUITE_SEED = 1729000
ZERO_BUDGET_SEED = 1730000
MONOTONE_SEED = 1731000
DUALITY_SEED = 1732000


def report(number, name, passed, detail):
    verdict = "PASS" if passed else "FAIL"
    print(f"\nacceptance {number} {name}: {verdict} ({detail})")
    assert passed, f"criterion {number} {name}: {detail}"


@pytest.fixture(scope="module")
def exhaustive_suite():
    """Every valid instance: n=3, alphabet {a,b}, lengths <= 3, k in 0..2."""
    started = time.time()
    rows = []
    pool = all_binary_strings(3)
    for triple in itertools.combinations(pool, 3):
        if not substring_free(triple):
            continue
        for k in (0, 1, 2):
            inst = make_instance(triple, k)
            solution = solve(inst, reconstruct=True)
            reference = brute_force_min_length(inst)
            rows.append((inst, solution, reference.length))
    return rows, time.time() - started


@pytest.fixture(scope="module")
def random_suite():
    """500 seeded instances: n in {2,3,4}, lengths <= 6, alphabets {2,3}, k in 0..3."""
    started = time.time()
    rows = []
    for i in range(500):
        inst = random_valid_instance(RANDOM_SUITE_SEED + i)
        solution = solve(inst, reconstruct=True)
        reference = brute_force_min_length(inst)
        rows.append((inst, solution, reference.length))
    return rows, time.time() - started


@pytest.fixture(scope="module")
def zero_budget_suite():
    """200 seeded instances with n <= 6, solved at k = 0."""
    rows = []
    for i in range(200):
        inst = random_valid_instance(
            ZERO_BUDGET_SEED + i, n_choices=(2, 3, 4, 5, 6), ks=(0,)
        )
        solution = solve(inst, reconstruct=True)
        rows.append((inst, solution, brute_force_scs(inst)))
    return rows


def test_criterion_1_exhaustive_oracle_equivalence(exhaustive_suite):
    rows, elapsed = exhaustive_suite
    mismatches = [
        (inst.strings, inst.k, sol.length, ref)
        for inst, sol, ref in rows
        if sol.length != ref
    ]
    passed = not mismatches and elapsed < 300
    report(
        1,
        "exhaustive-oracle-equivalence",
        passed,
        f"{len(rows)} runs, {len(mismatches)} mismatches, {elapsed:.1f}s"
        + (f", first={mismatches[0]}" if mismatches else ""),
    )


def test_criterion_2_random_oracle_equivalence(random_suite):
    rows, elapsed = random_suite
    mismatches = [
        (inst.strings, inst.k, sol.length, ref)
        for inst, sol, ref in rows
        if sol.length != ref
    ]
    passed = not mismatches and elapsed < 600
    report(
        2,
        "random-oracle-equivalence",
        passed,
        f"{len(rows)}/500 agree minus {len(mismatches)}, {elapsed:.1f}s"
        + (f", first={mismatches[0]}" if mismatches else ""),
    )


def test_criterion_3_zero_budget_reduction(zero_budget_suite):
    mismatches = [
        (inst.strings, sol.length, scs)
        for inst, sol, scs in zero_budget_suite
        if sol.length != scs
    ]
    report(
        3,
        "zero-budget-classical-reduction",
        not mismatches,
        f"{len(zero_budget_suite)} runs, {len(mismatches)} mismatches",
    )


def test_criterion_4_witness_validity(exhaustive_suite, random_suite, zero_budget_suite):
    bad = 0
    total = 0
    for inst, solution, _ in exhaustive_suite[0] + random_suite[0] + zero_budget_suite:
        total += 1
        if len(solution.witness) != solution.length or verify_solution(inst, solution):
            bad += 1
    report(4, "witness-validity", bad == 0, f"{total - bad}/{total} witnesses valid")


def test_criterion_5_budget_monotonicity():
    failures = 0
    for i in range(100):
        inst = random_valid_instance(
            MONOTONE_SEED + i, n_choices=(2, 3, 4, 5, 6), ks=(0,)
        )
        previous = None
        for k in range(0, 6):
            length = solve(make_instance(inst.strings, k)).length
            if length < inst.c or (previous is not None and length > previous):
                failures += 1
                break
            previous = length
    report(5, "budget-monotonicity", failures == 0, f"100 sweeps, {failures} violations")


def subset_table(inst):
    overlap = build_overlap_table(inst, build_mismatch_table(inst, Counters()))
    return build_subset_table(inst, overlap, Counters())


def test_criterion_6_reversal_duality():
    failures = 0
    for i in range(100):
        inst = random_valid_instance(DUALITY_SEED + i, n_choices=(2, 3, 4, 5, 6))
        mirrored = make_instance([s[::-1] for s in inst.strings], inst.k)
        dp_left = subset_table(inst).dp_left
        dp_right = subset_table(mirrored).dp_right
        if dp_left != dp_right:
            failures += 1
    report(6, "reversal-duality", failures == 0, f"100 instances, {failures} differ")


def test_criterion_7_counter_bounds():
    over = []
    for n in range(3, 9):
        for c in range(2, 9):
            inst = generate_instance(
                GeneratorParams(count=n, min_len=c, max_len=c, alphabet=3),
                seed=n * 100 + c,
                k=2,
            )
            counters = solve(inst).counters
            bounds = Counters.bounds(n, c)
            for name, count in asdict(counters).items():
                if count > bounds[name]:
                    over.append((n, c, name))
    report(7, "counter-bounds", not over, f"grid 6x7, {len(over)} bound violations")


def test_criterion_8_determinism(random_suite):
    # the solver is serial, so determinism means repeated runs print the same bytes
    rows, _ = random_suite
    diverging = 0
    for inst, _, _ in rows:
        config = config_from_args(
            ["--strings", ",".join(inst.strings), "--k", str(inst.k), "--reconstruct", "--json", "--counters"]
        )
        outputs = set()
        for _ in range(3):
            out = io.StringIO()
            assert run(config, out=out, err=io.StringIO()) == 0
            outputs.add(out.getvalue())
        if len(outputs) != 1:
            diverging += 1
    report(
        8,
        "determinism",
        diverging == 0,
        f"{len(rows)} instances x 3 runs, {diverging} diverging",
    )
