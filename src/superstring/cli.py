"""Command line front end.

Solve an instance from a file, from inline strings, or from the seeded
random generator; optionally reconstruct and verify a witness, cross-check
the answer against the brute-force reference, emit JSON, and report the
per-phase iteration counters against their closed-form bounds.

`config_from_args` returns the parsed `argparse.Namespace` (with `--strings`
split, `--gen` parsed and `--verify` implying `--reconstruct`), and `run`
reads its options from it by their argparse names.

Exit codes: 0 success, 1 internal check failed (a reconstructed witness
failed verification, or a `--counters` counter exceeded its bound), 2
invalid input (containment violation, an empty string, no strings or more
than 20, bad parameters), 3 oracle limits exceeded, 4 solver/oracle
disagreement.
"""

from __future__ import annotations

import argparse
import json
import random
import sys
from dataclasses import dataclass

from .instance import (
    Instance,
    InstanceError,
    make_instance,
    parse_instance,
    validate,
)
from .oracle import OracleLimitError, brute_force_min_length
from .solver import ReconstructionError, solve, verify_solution

# drawing this many candidates without completing an instance means the
# requested shape is (practically) unsatisfiable
GENERATOR_DRAW_LIMIT_PER_STRING = 500


@dataclass
class GeneratorParams:
    count: int
    min_len: int
    max_len: int
    alphabet: int


def generate_instance(params: GeneratorParams, seed: int, k: int) -> Instance:
    """Draw a valid instance using a Mersenne Twister seeded with `seed`.

    Strings are drawn uniformly over the first `alphabet` lowercase letters
    (2 to 26) and the given length range; draws that would create a
    containment pair (or a duplicate) are rejected and retried.  The seed
    fully determines the result.  A count below 1 draws nothing, and the
    Instance refuses it with "no strings".
    """
    if not 2 <= params.alphabet <= 26:
        raise InstanceError("alphabet size must be between 2 and 26")
    if params.min_len < 1 or params.min_len > params.max_len:
        raise InstanceError("length range is empty")
    rng = random.Random(seed)
    letters = "abcdefghijklmnopqrstuvwxyz"[: params.alphabet]
    strings: list[str] = []
    budget = GENERATOR_DRAW_LIMIT_PER_STRING * params.count
    while len(strings) < params.count:
        if budget == 0:
            raise InstanceError(
                f"generation infeasible: draw limit reached with "
                f"{len(strings)}/{params.count} strings"
            )
        budget -= 1
        size = rng.randint(params.min_len, params.max_len)
        candidate = "".join(rng.choice(letters) for _ in range(size))
        if any(candidate in s or s in candidate for s in strings):
            continue
        strings.append(candidate)
    return make_instance(strings, k)


def _parse_gen_spec(text: str) -> GeneratorParams:
    bad = f"bad --gen spec {text!r}: expected n=<int>,len=<a>..<b>,alphabet=<int>"
    fields = {}
    for part in text.split(","):
        key, _, value = part.partition("=")
        key = key.strip()
        # the last value would win silently
        if key in fields:
            raise InstanceError(f"{bad}, got key {key} twice")
        fields[key] = value.strip()
    unknown = sorted(fields.keys() - {"n", "len", "alphabet"})
    if unknown:
        raise InstanceError(f"{bad}, got unknown key {', '.join(unknown)}")
    try:
        lo, _, hi = fields["len"].partition("..")
        return GeneratorParams(
            count=int(fields["n"]),
            min_len=int(lo),
            max_len=int(hi) if hi else int(lo),
            alphabet=int(fields["alphabet"]),
        )
    except (KeyError, ValueError) as exc:
        raise InstanceError(bad) from exc


def _load_instance(config: argparse.Namespace) -> Instance:
    if config.gen is not None:
        return generate_instance(config.gen, config.seed, config.k)
    if config.strings is not None:
        return make_instance(config.strings, config.k)
    with open(config.input, encoding="utf-8") as handle:
        return parse_instance(handle.read(), config.k)


def run(config: argparse.Namespace, out, err) -> int:
    try:
        instance = _load_instance(config)
    except (InstanceError, OSError, UnicodeDecodeError) as exc:
        print(f"error: {exc}", file=err)
        return 2

    violations = validate(instance)
    if violations:
        for a, b in violations:
            print(
                f"error: substring violation: strings[{a}]={instance.strings[a]!r} "
                f"occurs in strings[{b}]={instance.strings[b]!r}",
                file=err,
            )
        return 2

    # solve verifies every witness it builds and raises on a bad one
    try:
        solution = solve(instance, reconstruct=config.reconstruct)
        problems = verify_solution(instance, solution) if config.verify else []
    except ReconstructionError as exc:
        problems = exc.problems
    if problems:
        for problem in problems:
            print(f"error: verification failed: {problem}", file=err)
        return 1

    counter_report = None
    if config.counters:
        counter_report = solution.counters.report(instance.n, instance.c)
        over = [(name, cell) for name, cell in counter_report.items() if cell["count"] > cell["bound"]]
        for name, cell in over:
            print(
                f"error: counter bound exceeded: {name}: count {cell['count']} exceeds bound {cell['bound']}",
                file=err,
            )
        if over:
            return 1

    if config.oracle_check:
        try:
            reference = brute_force_min_length(instance)
        except OracleLimitError as exc:
            print(f"error: {exc}", file=err)
            return 3
        if reference.length != solution.length:
            print(
                f"error: solver/oracle disagreement: solver={solution.length} "
                f"oracle={reference.length}",
                file=err,
            )
            return 4

    if config.json:
        payload = {
            "n": instance.n,
            "k": instance.k,
            "length": solution.length,
            "mistake_string_index": solution.mistake_index,
            "witness": solution.witness,
            "offsets": solution.offsets,
            "mismatch_positions": solution.mismatch_positions,
            "counters": counter_report,
        }
        print(json.dumps(payload), file=out)
    else:
        print(f"length={solution.length} m={solution.mistake_index}", file=out)
        if solution.witness is not None:
            print(f"witness={solution.witness}", file=out)
            print("offsets=" + ",".join(str(at) for at in solution.offsets), file=out)
            print(
                "mismatch_positions="
                + ",".join(str(p) for p in solution.mismatch_positions),
                file=out,
            )
        if counter_report is not None:
            for name, cell in counter_report.items():
                print(f"counter {name}={cell['count']} bound={cell['bound']}", file=out)
    return 0


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="superstring",
        description=(
            "Exact minimal-length superstring where one input string may "
            "mismatch in at most k positions."
        ),
    )
    source = parser.add_mutually_exclusive_group(required=True)
    source.add_argument(
        "--input",
        help="path to an instance file (one string per line; a line starting with '#' is a comment, "
        "so no string can start with '#')",
    )
    source.add_argument("--strings", help="comma-separated inline strings (so no string can contain a comma)")
    source.add_argument(
        "--gen",
        help="generate a random instance: n=<int>,len=<a>..<b>,alphabet=<int>",
    )
    parser.add_argument("--k", type=int, default=0, help="mismatch budget (default 0)")
    parser.add_argument("--seed", type=int, default=0, help="generator seed (default 0)")
    parser.add_argument("--reconstruct", action="store_true", help="emit a witness superstring")
    parser.add_argument("--verify", action="store_true", help="re-check the witness before emitting")
    parser.add_argument("--oracle-check", action="store_true", help="cross-check against the brute-force reference")
    parser.add_argument("--json", action="store_true", help="machine-readable output")
    parser.add_argument("--counters", action="store_true", help="report per-phase iteration counters")
    return parser


def config_from_args(argv=None) -> argparse.Namespace:
    args = _build_parser().parse_args(argv)
    if args.strings is not None:
        args.strings = args.strings.split(",")
    if args.gen is not None:
        args.gen = _parse_gen_spec(args.gen)
    # a witness is what --verify checks
    args.reconstruct |= args.verify
    return args


def main(argv=None) -> int:
    try:
        config = config_from_args(argv)
    except InstanceError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    return run(config, sys.stdout, sys.stderr)


if __name__ == "__main__":
    sys.exit(main())
