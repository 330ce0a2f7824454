"""Seeded instance families for the benchmark workloads.

Each workload owns a finite pool of instances, addressed by pool index.  An
instance is generated from its index alone, so `expected.json` (written by
`record.py`) can store the optimal length of every pool instance; a run's
`--seed` picks which pool indices make up its pass.

Solve cost varies several-fold between instances of one family, so a pass
drawn at random would change its cost mix with the seed.  The pass is
therefore a stratified sample: the pool is sorted by the cost each instance
had at the commit that recorded the answers (its solve time scaled to the
reference speed, see reference.py), cut into as many consecutive groups as
the pass has instances, and the seed picks one instance from each group.

The program under test only ever sees the generated strings and k.
"""

from __future__ import annotations

import hashlib
import json
import random
from dataclasses import dataclass
from pathlib import Path
from typing import Callable

EXPECTED_PATH = Path(__file__).resolve().parent / "expected.json"


def absorb_strings(rng: random.Random, shorts: int) -> list[str]:
    """One string of length 12-16, then `shorts` strings of length 3-5, over "abc".

    Short strings are drawn by rejection: a candidate that contains, or is
    contained in, a string already drawn is dropped, as in
    `superstring.cli.generate_instance`, so the result is always a valid
    instance.  The short strings fit strictly inside the long one, which is
    what makes absorbed shapes win.
    """
    long_len = rng.randint(12, 16)
    strings = ["".join(rng.choice("abc") for _ in range(long_len))]
    while len(strings) < 1 + shorts:
        size = rng.randint(3, 5)
        candidate = "".join(rng.choice("abc") for _ in range(size))
        if any(candidate in s or s in candidate for s in strings):
            continue
        strings.append(candidate)
    return strings


def _draw_absorb(cli, index: int):
    rng = random.Random(f"absorb-{index}")
    return cli.make_instance(absorb_strings(rng, 7), (2, 3, 4)[index % 3])


def _draw_cli(cli, index: int):
    # string count 6, 7, 8 and k 2, 3, 4 in every combination
    rng = random.Random(f"cli-{index}")
    return cli.make_instance(absorb_strings(rng, 5 + index // 3 % 3), 2 + index % 3)


def _draw_tables(cli, index: int):
    k = (2, 3, 4)[index % 3]
    return cli.generate_instance(cli.GeneratorParams(7, 40, 40, 4), index, k)


def _draw_chains(cli, index: int):
    k = index % 2
    return cli.generate_instance(cli.GeneratorParams(13, 5, 5, 4), index, k)


@dataclass(frozen=True)
class Workload:
    name: str
    draw: Callable  # (superstring.cli module, pool index) -> Instance
    pool: int  # pool indices with a stored answer
    pass_size: int  # instances in one pass
    via_cli: bool = False


# Pass sizes keep one pass to a few seconds, so a run repeats each instance
# several times; why each workload exists is in BENCHMARK.json and README.md.
WORKLOADS = {
    w.name: w
    for w in (
        Workload("absorb", _draw_absorb, pool=336, pass_size=24),
        Workload("tables", _draw_tables, pool=96, pass_size=8),
        Workload("chains", _draw_chains, pool=48, pass_size=4),
        Workload("cli", _draw_cli, pool=378, pass_size=24, via_cli=True),
    )
}


def pass_indices(workload: Workload, seed: int, cost: list[float], limit: int | None = None) -> list[int]:
    """Pool indices of one pass: one from each group of similar recorded cost, shuffled."""
    rng = random.Random(f"{workload.name}:{seed}")
    order = sorted(range(workload.pool), key=lambda index: (cost[index], index))
    size = workload.pass_size
    picked = [
        rng.choice(order[group * workload.pool // size : (group + 1) * workload.pool // size])
        for group in range(size)
    ]
    rng.shuffle(picked)
    return picked if limit is None else picked[:limit]


@dataclass
class Pass:
    pkg: object  # the `superstring` package
    cli: object  # `superstring.cli`
    instances: list
    paths: list[Path]  # instance files, written only for the CLI workload


def build_pass(workload: Workload, indices: list[int], work_dir: Path) -> Pass:
    """The set-up of a run: import superstring, generate the pass, write its files."""
    import superstring
    import superstring.cli

    instances = [workload.draw(superstring.cli, index) for index in indices]
    paths = []
    if workload.via_cli:
        work_dir.mkdir(parents=True, exist_ok=True)
        for position, instance in enumerate(instances):
            path = work_dir / f"{position}.txt"
            path.write_text(superstring.serialize_instance(instance), encoding="utf-8")
            paths.append(path)
    return Pass(superstring, superstring.cli, instances, paths)


def digest(instance) -> str:
    """Short content hash tying a stored answer to the instance it was made for."""
    text = json.dumps([list(instance.strings), instance.k])
    return hashlib.sha256(text.encode()).hexdigest()[:16]


def load_expected() -> dict[str, list[list]]:
    with open(EXPECTED_PATH, encoding="utf-8") as handle:
        return json.load(handle)
