import random
from dataclasses import asdict
from itertools import combinations

import pytest

from superstring import (
    InvalidInstanceError,
    brute_force_min_length,
    brute_force_scs,
    make_instance,
    solve,
    verify_solution,
)
from superstring.cli import GeneratorParams, generate_instance
from superstring.instance import InstanceError
from superstring.counters import Counters
from superstring.oracle import OracleLimits
from superstring import solver as solver_module
from superstring.solver import (
    _BASELINE,
    _EDGE_LEFT,
    _TRIPLE,
    _Placer,
    _bit,
    _bits,
    _candidates_for_m,
    _glue,
    _search,
    _solve_tables,
    _split_floor,
)
from conftest import random_valid_instance
from test_golden import golden_instance


def _submasks(mask: int):
    """All submasks of mask, descending, including mask itself and 0."""
    sub = mask
    while True:
        yield sub
        if sub == 0:
            return
        sub = (sub - 1) & mask


def test_single_string():
    solution = solve(make_instance(["abc"], 0), reconstruct=True)
    assert solution.length == 3
    assert solution.witness == "abc"
    assert solution.offsets == [0]
    assert solution.mismatch_positions == []


def test_two_reversed_strings_budget_sweep():
    for k, expected in ((0, 3), (1, 3), (2, 2)):
        assert solve(make_instance(["ab", "ba"], k)).length == expected


def test_two_disjoint_strings_with_budget():
    assert solve(make_instance(["ab", "cd"], 2)).length == 2


def test_three_chain_strings():
    assert solve(make_instance(["ab", "bc", "cd"], 0)).length == 4


def test_invalid_instance_rejected():
    with pytest.raises(InvalidInstanceError) as raised:
        solve(make_instance(["ab", "abc"], 0))
    assert raised.value.violations == [(0, 1)]


def test_reconstruct_two_disjoint():
    # both mistake choices reach length 2; the tie-break picks the smallest
    # mistake index, so "cd" is the exactly-embedded string
    solution = solve(make_instance(["ab", "cd"], 2), reconstruct=True)
    assert solution.length == 2
    assert solution.mistake_index == 0
    assert solution.witness == "cd"
    assert solution.offsets == [0, 0]
    assert solution.mismatch_positions == [0, 1]
    assert verify_solution(make_instance(["ab", "cd"], 2), solution) == []


def test_reconstruct_chain():
    solution = solve(make_instance(["ab", "bc", "cd"], 0), reconstruct=True)
    assert solution.witness == "abcd"
    assert solution.offsets == [0, 1, 2]


def test_reconstruct_baseline_whose_string_zero_is_not_leftmost():
    # at k = 1 nothing beats the all-exact chain "abcd"; the baseline reports
    # string 0 as its mistake string, and string 0 starts inside the chain
    solution = solve(make_instance(["bcd", "abc"], 1), reconstruct=True)
    assert solution.length == 4
    assert solution.mistake_index == 0
    assert solution.witness == "abcd"
    assert solution.offsets == [1, 0]
    assert solution.mismatch_positions == []


def test_interior_absorption():
    # the shortest answer stamps "aaa" inside "bccbb"'s occupied span; the
    # anchored shapes alone cannot reach length 6
    inst = make_instance(["aaa", "aba", "bccbb"], 3)
    solution = solve(inst, reconstruct=True)
    assert solution.length == 6
    assert brute_force_min_length(
        inst, OracleLimits(max_n=6, max_total_len=30)
    ).length == 6
    assert verify_solution(inst, solution) == []


def test_all_strings_enclosed():
    # a long mistake string can swallow every other string when the budget allows
    inst = make_instance(["ab", "cd", "ef", "xxxxxxxx"], 6)
    solution = solve(inst, reconstruct=True)
    assert solution.length == 8
    assert solution.mistake_index == 3
    assert verify_solution(inst, solution) == []


def test_absorbed_strings_may_overlap_each_other():
    # with budget 4 the two short strings only fit inside the long one when
    # they share their own clean overlap ("aab"/"aba" agree on "ab")
    inst = make_instance(["aab", "aba", "xxxxxxxx"], 4)
    solution = solve(inst, reconstruct=True)
    assert solution.length == 8
    assert verify_solution(inst, solution) == []
    assert solve(make_instance(inst.strings, 3)).length == 9


def test_absorbed_string_may_overlap_anchor():
    inst = make_instance(["aab", "abb", "xxxxxx"], 4)
    solution = solve(inst, reconstruct=True)
    assert solution.length == 6
    assert verify_solution(inst, solution) == []


def test_verify_catches_budget_violation():
    inst = make_instance(["ab", "cd"], 2)
    solution = solve(inst, reconstruct=True)
    tight = make_instance(["ab", "cd"], 1)
    problems = verify_solution(tight, solution)
    assert any("budget exceeded" in p for p in problems)


def test_verify_catches_missing_string():
    inst = make_instance(["ab", "cd"], 2)
    solution = solve(inst, reconstruct=True)
    solution.witness = "zz"
    solution.mismatch_positions = None
    problems = verify_solution(inst, solution)
    assert any("not a superstring" in p for p in problems)


def test_verify_catches_length_mismatch():
    inst = make_instance(["ab", "cd"], 2)
    solution = solve(inst, reconstruct=True)
    solution.length = 5
    problems = verify_solution(inst, solution)
    assert any("length mismatch" in p for p in problems)


def test_verify_requires_witness():
    inst = make_instance(["ab"], 0)
    with pytest.raises(ValueError, match="no witness"):
        verify_solution(inst, solve(inst))


def test_oracle_equivalence_sample():
    for seed in range(900, 960):
        inst = random_valid_instance(seed)
        solution = solve(inst, reconstruct=True)
        assert solution.length == brute_force_min_length(inst).length, inst.strings
        assert verify_solution(inst, solution) == []


def test_budget_monotonicity_sample():
    for seed in range(960, 990):
        inst = random_valid_instance(seed, n_choices=(2, 3, 4, 5), ks=(0,))
        previous = None
        for k in range(0, 6):
            length = solve(make_instance(inst.strings, k)).length
            assert length >= inst.c
            if previous is not None:
                assert length <= previous
            previous = length


def test_zero_budget_equals_classical():
    for seed in range(990, 1020):
        inst = random_valid_instance(seed, n_choices=(2, 3, 4, 5), ks=(0,))
        assert solve(inst).length == brute_force_scs(inst)


def test_length_never_exceeds_classical_scs():
    for seed in range(1040, 1060):
        inst = random_valid_instance(seed, n_choices=(2, 3, 4, 5))
        assert solve(inst).length <= brute_force_scs(inst)


def test_length_invariant_under_input_order():
    for seed in range(1060, 1080):
        inst = random_valid_instance(seed, n_choices=(3, 4, 5))
        expected = solve(inst).length
        rotated = inst.strings[1:] + inst.strings[:1]
        assert solve(make_instance(rotated, inst.k)).length == expected
        assert solve(make_instance(inst.strings[::-1], inst.k)).length == expected


def test_length_invariant_under_mirroring():
    # reversing every string mirrors the whole arrangement space
    for seed in range(1080, 1100):
        inst = random_valid_instance(seed, n_choices=(2, 3, 4, 5))
        mirrored = make_instance([s[::-1] for s in inst.strings], inst.k)
        assert solve(mirrored).length == solve(inst).length


def _absorb_shaped(rng, n, letters="abc"):
    """n strings over `letters`: one of length 12-16, then distinct ones of
    3-5 that neither contain nor lie in another, so they fit inside it."""
    strings = ["".join(rng.choice(letters) for _ in range(rng.randint(12, 16)))]
    while len(strings) < n:
        candidate = "".join(rng.choice(letters) for _ in range(rng.randint(3, 5)))
        if not any(candidate in s or s in candidate for s in strings):
            strings.append(candidate)
    return strings


def _invariance_instances():
    """Instances at n >= 9: the probe family (lengths 4-10 over 4 letters)
    at n = 9, 11 and 13, seeds 0-3, k = 1-3; every 3rd chains-pool draw (13
    strings of length 5, k = 0-1); and absorb-shaped draws (one string of
    12-16 and 8-9 of 3-5 over "abc", k = 1-4)."""
    instances = [
        generate_instance(GeneratorParams(n, 4, 10, 4), seed, k)
        for n in (9, 11, 13)
        for seed in range(4)
        for k in (1, 2, 3)
    ]
    instances += [generate_instance(GeneratorParams(13, 5, 5, 4), index, index % 2) for index in range(0, 48, 3)]
    rng = random.Random(20261028)
    for draw in range(12):
        instances.append(make_instance(_absorb_shaped(rng, 9 + draw % 2), 1 + draw % 4))
    return instances


def test_length_invariant_at_nine_strings_and_more():
    # three transforms keep the optimal length: permuting the input order
    # (index-order tie-breaks, the incumbent carried across mistake strings
    # and the mistake-string skip), reversing every string (the left/right
    # pairs: one-anchor cores, dp_right and dp_left, the two edge kinds) and
    # relabelling the alphabet (letter packing in the mismatch products and
    # the placer's character codes)
    rng = random.Random(20261029)
    for inst in _invariance_instances():
        expected = solve(inst).length
        shuffled = list(inst.strings)
        rng.shuffle(shuffled)
        symbols = "".join(sorted(set("".join(inst.strings))))
        relabel = str.maketrans(symbols, symbols[1:] + symbols[:1])
        transforms = {
            "order": shuffled,
            "mirror": [s[::-1] for s in inst.strings],
            "alphabet": [s.translate(relabel) for s in inst.strings],
        }
        for name, strings in transforms.items():
            assert solve(make_instance(strings, inst.k)).length == expected, (name, inst.strings, inst.k)


def test_budget_monotonicity_at_nine_strings_and_more():
    # a larger budget only admits more arrangements, so the length never
    # rises as k grows, and no superstring is shorter than the longest string
    for inst in _invariance_instances()[::4]:
        previous = None
        for k in range(5):
            length = solve(make_instance(inst.strings, k)).length
            assert length >= inst.c, (inst.strings, k)
            if previous is not None:
                assert length <= previous, (inst.strings, k)
            previous = length


def _baseline(inst, tables):
    """The incumbent solve starts from: the all-exact chain, reporting string
    0 as its mistake string, with no anchor, interior or left chain."""
    return (tables.subsets.row_min[(1 << inst.n) - 1], _BASELINE, 0, -1, -1, 0, 0)


def _composed_by_solve(inst):
    """solve's solution and its (m, incumbent passed, incumbent returned) per mistake string composed."""
    calls = []
    compose = solver_module._candidates_for_m

    def recording(instance, tables, m, best, counters):
        got = compose(instance, tables, m, best, counters)
        calls.append((m, best, got))
        return got

    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(solver_module, "_candidates_for_m", recording)
        solution = solve(inst)
    return solution, calls


def test_counters_follow_the_anchored_shapes_exactly():
    # equal lengths: nothing fits inside any m, so only the baseline and the
    # anchored shapes run, one composition step each: n baseline candidates
    # plus n(n-1) anchored shapes per mistake string composed.  An anchored
    # triple tries all 2^(n-3) chain splits of the strings outside it only
    # when its core beats the incumbent minus the triple's glue lower bound,
    # and the bound rejects at least one of the n(n-1)(n-2) triples
    skipping = 0
    for n in range(3, 8):
        inst = generate_instance(GeneratorParams(n, 6, 6, 4), seed=n, k=2)
        solution, calls = _composed_by_solve(inst)
        counters = solution.counters
        composed = len(calls)
        assert counters.composition == n + composed * n * (n - 1)
        assert counters.glue_scan % 2 ** (n - 3) == 0
        assert counters.glue_scan < n * (n - 1) * (n - 2) * 2 ** (n - 3)
        assert counters.window_scan == 0
        skipping += composed < n
    # the mistake-string skip runs on some of these instances
    assert skipping >= 1, skipping


def test_pair_build_counts_every_slider_character_at_every_shift():
    # one comparison per slider character per shift of every ordered pair,
    # whether or not it overlaps the base; the bound is met exactly when all
    # strings share the longest length
    instances = [
        random_valid_instance(seed, n_choices=(2, 3, 4, 5), max_len=9) for seed in range(1200, 1230)
    ]
    instances += [generate_instance(GeneratorParams(n, 5, 5, 4), seed=n, k=1) for n in range(2, 7)]
    equal_lengths = 0
    for inst in instances:
        lengths = [len(s) for s in inst.strings]
        expected = sum(
            (lengths[i] + lengths[j]) * lengths[j]
            for i in range(inst.n)
            for j in range(inst.n)
            if i != j
        )
        pair_build = solve(inst).counters.pair_build
        assert pair_build == expected
        bound = Counters.bounds(inst.n, max(lengths))["pair_build"]
        assert pair_build <= bound
        if len(set(lengths)) == 1:
            assert pair_build == bound
            equal_lengths += 1
    assert equal_lengths >= 5


def _splits(outside, n):
    """Every submask of outside, listed from its members."""
    members = [1 << e for e in range(n) if outside >> e & 1]
    return [sum(part) for size in range(len(members) + 1) for part in combinations(members, size)]


def _plain_glue(subsets, lengths, l, r, outside, n):
    """_glue's contract computed straight from the tables."""
    if l < 0 and r < 0:
        return 0, 0
    if r < 0:
        return subsets.dp_right[l][outside | 1 << l] - lengths[l], outside
    if l < 0:
        return subsets.dp_left[r][outside | 1 << r] - lengths[r], 0
    return min(
        (
            subsets.dp_right[l][sub | 1 << l]
            + subsets.dp_left[r][(outside ^ sub) | 1 << r]
            - lengths[l]
            - lengths[r],
            sub,
        )
        for sub in _splits(outside, n)
    )


def test_split_glue_lower_bound_holds():
    # joined at overlap(l, r), the two chains of any split are one chain
    # over outside | l | r, so the split scan never beats the shortest one;
    # nor does it beat the three bounds that price a chain ending in l (or
    # starting in r) as the chain over the rest, plus the anchor, minus the
    # largest overlap into l (out of r).  Every anchor shape's glue is also
    # checked against the plain minimum over its splits (the smallest left
    # share on ties), and only a two-anchor call scans, 2^|outside| splits
    rng = random.Random(20261019)
    checked = tight = tighter = 0
    for draw in range(144):
        n = 3 + draw % 6
        params = GeneratorParams(n, 2, 8, rng.randint(3, 4))
        inst = generate_instance(params, rng.randrange(10**9), 0)
        tables = _solve_tables(inst, Counters())
        subsets = tables.subsets
        row_min = subsets.row_min
        lengths = [len(s) for s in inst.strings]
        overlaps = tables.overlap
        max_in = [max(overlaps[w][v] for w in range(n) if w != v) for v in range(n)]
        max_out = [max(overlaps[v][w] for w in range(n) if w != v) for v in range(n)]
        assert (tables.max_in, tables.max_out) == (max_in, max_out), inst.strings
        for l in range(-1, n):
            for r in range(-1, n):
                if l == r >= 0:
                    continue
                anchors = _bit(l) | _bit(r)
                # with no anchor there is no chain, so nothing lies outside
                for outside in _submasks(((1 << n) - 1) ^ anchors) if anchors else (0,):
                    counters = Counters()
                    glue = _glue(subsets, lengths, l, r, outside, counters)
                    assert glue == _plain_glue(subsets, lengths, l, r, outside, n), (inst.strings, l, r, outside)
                    if l < 0 or r < 0:
                        assert counters.glue_scan == 0
                        continue
                    assert counters.glue_scan == 2 ** bin(outside).count("1")
                    terms = [
                        row_min[outside | anchors] + overlaps[l][r] - lengths[l] - lengths[r],
                        row_min[outside] - max_in[l] - max_out[r],
                        row_min[outside | 1 << l] - lengths[l] - max_out[r],
                        row_min[outside | 1 << r] - lengths[r] - max_in[l],
                    ]
                    assert max(terms) <= glue[0], (inst.strings, l, r, outside, terms, glue)
                    floor = _split_floor(row_min, lengths, max_in, max_out, l, r, outside, terms[0])
                    assert floor == max(terms), (inst.strings, l, r, outside)
                    checked += 1
                    tight += glue[0] == terms[0]
                    tighter += floor > terms[0]
    # the first bound is worth having only if it is often exact, and the
    # other three only if they often raise it: here 35,732 of 135,072 cases
    # (26%) are raised
    print(f"split glue: {checked} cases, first bound exact on {tight}, raised on {tighter}")
    assert checked == 24 * sum(m * (m - 1) * 2 ** (m - 2) for m in range(3, 9))
    assert tight * 5 >= checked, (tight, checked)
    assert tighter * 5 >= checked, (tighter, checked)


def test_glue_and_window_never_shrink_as_sets_grow():
    # one more string outside never makes the glue shorter, nor the shortest
    # chain over a mask, and one more string inside never makes the first
    # window shorter, for every anchor pair, absent anchors included (with
    # neither anchor nothing is outside, so that glue is asked only of 0); None
    # (nothing fits) counts as infinite.  No window is shorter than the merge
    # core of its anchors (|m| with none), under every cover a set fits in
    # the fail-first order iff it fits in index order, and a set that fits
    # under any cover fits under the bare one: the absorbed sweep skips
    # interior sets on these facts
    def longer_or_equal(grown, base):
        return grown is None or (base is not None and grown[0] >= base[0])

    def first_window(placer, l, r, interior, cutoff):
        # the composition asks only about sets that fit under the bare cover
        if not placer.holds(placer.bare, interior):
            return None
        return placer.first_window(l, r, interior, cutoff)

    rng = random.Random(20261020)
    glue_pairs = window_pairs = row_pairs = searches = bare_fits = 0
    for draw in range(120):
        n = 3 + draw % 5
        params = GeneratorParams(n, 2, 8, rng.randint(2, 4))
        try:
            inst = generate_instance(params, rng.randrange(10**9), rng.randint(0, 3))
        except InstanceError:  # too few binary strings free of containment
            continue
        tables = _solve_tables(inst, Counters())
        lengths = [len(s) for s in inst.strings]
        row_min = tables.subsets.row_min
        for mask in range(1 << n):
            for e in range(n):
                if not mask >> e & 1:
                    assert row_min[mask | 1 << e] >= row_min[mask], (inst.strings, mask, e)
                    row_pairs += 1
        anchor_pairs = [(l, r) for l in range(-1, n) for r in range(-1, n) if not l == r >= 0]
        assert _glue(tables.subsets, lengths, -1, -1, 0, Counters()) == (0, 0)
        for l, r in anchor_pairs[1:]:  # (-1, -1), the first, was checked above
            anchors = _bit(l) | _bit(r)
            free = ((1 << n) - 1) ^ anchors
            for outside in _submasks(free):
                base = _glue(tables.subsets, lengths, l, r, outside, Counters())
                for e in range(n):
                    if (free & ~outside) >> e & 1:
                        grown = _glue(tables.subsets, lengths, l, r, outside | 1 << e, Counters())
                        assert longer_or_equal(grown, base), (inst.strings, l, r, outside, e)
                        glue_pairs += 1
        for m in range(n):
            fits = sum(1 << e for e in range(n) if e != m and lengths[e] <= lengths[m] - 2)
            if not fits:
                continue
            placer = _Placer(inst, tables.mismatch, m, fits, Counters())
            cutoff = sum(lengths) + 1
            for l, r in anchor_pairs:
                if m in (l, r):
                    continue
                shortest = tables.cores[l, m, r].length if l >= 0 or r >= 0 else lengths[m]
                inner = fits & ~(_bit(l) | _bit(r))
                for interior in _submasks(inner):
                    if not interior:
                        continue
                    base = first_window(placer, l, r, interior, cutoff)
                    assert base is None or base[0] >= shortest, (inst.strings, m, l, r, interior)
                    for e in range(n):
                        if (inner & ~interior) >> e & 1:
                            grown = first_window(placer, l, r, interior | 1 << e, cutoff)
                            assert longer_or_equal(grown, base), (inst.strings, m, l, r, interior, e)
                            window_pairs += 1
                # the bare cover turns most sets away before any window is
                # built, so build every window's cover for the checks below
                placer._use_anchors(l, r)
                for length in placer.lengths:
                    placer._group(length)
            for cover in placer.covers.values():
                if cover is None:
                    continue
                # options are filtered on demand: ask for every string's, so
                # the cover knows which strings fit under it alone
                for e in _bits(fits, n):
                    placer.holds(cover, 1 << e)
                value, covered, cost, options, unfit, _ = cover
                fitting = sum(1 << e for e in _bits(fits, n) if options[e])
                assert unfit == fits & ~fitting, (inst.strings, m, value, covered)
                rank = sorted(_bits(fitting, n), key=lambda e: len(options[e]))
                for interior in _submasks(fitting):
                    if not interior:
                        continue
                    ranked = [e for e in rank if interior >> e & 1]
                    by_index = _bits(interior, n)
                    fit = [
                        _search(options, order, 0, value, covered, cost, inst.k, Counters()) is not None
                        for order in (ranked, by_index)
                    ]
                    assert fit[0] == fit[1], (inst.strings, m, value, covered, interior)
                    assert placer.holds(cover, interior) == fit[1], (inst.strings, m, value, covered, interior)
                    searches += 1
                    if fit[0] and cover is not placer.bare:
                        assert placer.holds(placer.bare, interior), (inst.strings, m, value, covered, interior)
                        bare_fits += 1
    print(
        f"monotonicity: {glue_pairs} glue pairs, {window_pairs} window pairs, "
        f"{row_pairs} row pairs, {searches} rank/index searches, {bare_fits} bare fits"
    )
    assert glue_pairs > 100_000 and window_pairs > 1_000, (glue_pairs, window_pairs)
    assert row_pairs > 10_000 and searches > 1_000, (row_pairs, searches)
    assert bare_fits > 1_000, bare_fits


def _zero_budget_instances(seed):
    """Seeded k = 0 draws of the benchmark's shapes: chains at n = 9-13,
    absorb (one string of 12-16 and 7 of 3-5 over "abc") and tables."""
    rng = random.Random(seed)
    chains = [GeneratorParams(9 + draw % 5, 5, 5, 4) for draw in range(5)]
    instances = [generate_instance(params, rng.randrange(10**9), 0) for params in chains]
    for _ in range(12):
        instances.append(make_instance(_absorb_shaped(rng, 8), 0))
    instances += [generate_instance(GeneratorParams(7, 40, 40, 4), rng.randrange(10**9), 0) for _ in range(2)]
    return instances


def test_zero_budget_composition_never_beats_the_baseline():
    # at k = 0 every arrangement is exact, so none is shorter than the
    # all-exact chain, and the baseline wins ties by kind: solve skips the
    # composition there.  Run it anyway, from the baseline and from an
    # incumbent one longer, which shapes reaching the baseline's length replace
    ties = 0
    for inst in _zero_budget_instances(20261025):
        tables = _solve_tables(inst, Counters())
        baseline = _baseline(inst, tables)
        longer = (baseline[0] + 1,) + baseline[1:]
        for m in range(inst.n):
            assert _candidates_for_m(inst, tables, m, baseline, Counters()) == baseline, (inst.strings, m)
            best = _candidates_for_m(inst, tables, m, longer, Counters())
            assert best[0] >= baseline[0], (inst.strings, m, best)
            ties += best[0] == baseline[0]
        solution = solve(inst, reconstruct=True)
        assert (solution.length, solution.mistake_index, solution.mismatch_positions) == (baseline[0], 0, [])
    print(f"zero budget: {ties} mistake strings reach the baseline's length")
    assert ties >= 10, ties


def test_zero_budget_solve_builds_no_merge_core():
    # no merge core, no window or split scan, and only the n baseline
    # candidates; both subset tables are still built whole
    for inst in _zero_budget_instances(20261026):
        counters = solve(inst, reconstruct=True).counters
        assert counters.core_scan == counters.window_scan == counters.glue_scan == 0
        assert counters.composition == inst.n
        bounds = Counters.bounds(inst.n, 1)
        assert counters.pair_build > 0
        assert (counters.dp_right, counters.dp_left) == (bounds["dp_right"], bounds["dp_left"])


def test_carried_incumbent_equals_the_least_candidate_of_every_m():
    # solve threads one incumbent through the mistake strings; that must
    # give the least tuple of restarting every m from the baseline, which a
    # later m reaches on a length tie only with a smaller kind
    rng = random.Random(20261021)
    instances = []
    for draw in range(80):
        params = GeneratorParams(rng.randint(3, 8), 2, 9, rng.randint(2, 4))
        try:
            instances.append(generate_instance(params, rng.randrange(10**9), rng.randint(0, 4)))
        except InstanceError:  # too few binary strings free of containment
            continue
    instances += [golden_instance(seed) for seed in range(20261100, 20261140)]
    later_ties = 0
    for inst in instances:
        tables = _solve_tables(inst, Counters())
        baseline = _baseline(inst, tables)
        carried = baseline
        for m in range(inst.n):
            carried = _candidates_for_m(inst, tables, m, carried, Counters())
        restarted = [_candidates_for_m(inst, tables, m, baseline, Counters()) for m in range(inst.n)]
        assert carried == min(restarted), inst.strings
        # the winner comes after an m that reaches its length with a larger kind
        first_at_length = min(i for i, cand in enumerate(restarted) if cand[0] == carried[0])
        later_ties += carried[1] != 0 and carried[2] != first_at_length
    print(f"carried incumbent: {len(instances)} instances, {later_ties} later ties")
    assert len(instances) >= 100 and later_ties >= 5, (len(instances), later_ties)


def _skip_instances(seed):
    """Seeded draws at k = 1-4 of the absorb family (one string of 12-16 and
    7 of 3-5 over "abc"), the probe family (lengths 4-10 over 4 letters,
    n = 9-12) and the chains shape (13 strings of length 5 over 4 letters)."""
    rng = random.Random(seed)
    instances = []
    for draw in range(24):
        k = 1 + draw % 4
        instances.append(make_instance(_absorb_shaped(rng, 8), k))
        probe = GeneratorParams(9 + draw % 4, 4, 10, 4)
        instances.append(generate_instance(probe, rng.randrange(10**9), k))
        if draw % 3 == 0:
            chains = GeneratorParams(13, 5, 5, 4)
            instances.append(generate_instance(chains, rng.randrange(10**9), k))
    return instances


def test_skipped_mistake_strings_would_return_the_incumbent():
    # solve skips m when the chain of the other strings reaches the cutoff;
    # composing a skipped m from the incumbent solve carried to it must give
    # that incumbent back, and the final tuple must be the one from
    # composing every m
    skipped = composed = 0
    for inst in _skip_instances(20261027):
        tables = _solve_tables(inst, Counters())
        baseline = _baseline(inst, tables)
        solution, calls = _composed_by_solve(inst)
        steps = {m: (before, after) for m, before, after in calls}
        best = every = baseline
        for m in range(inst.n):
            if m in steps:
                assert steps[m][0] == best, (inst.strings, inst.k, m)
                best = steps[m][1]
            else:
                assert _candidates_for_m(inst, tables, m, best, Counters()) == best, (inst.strings, inst.k, m)
            every = _candidates_for_m(inst, tables, m, every, Counters())
        assert best == every, (inst.strings, inst.k)
        assert solution.length == best[0]
        composed += len(calls)
        skipped += inst.n - len(calls)
    print(f"mistake-string skip: {skipped} skipped, {composed} composed")
    assert skipped >= 100 and composed >= 50, (skipped, composed)


def test_a_skipped_mistake_string_builds_no_merge_core():
    # replays solve's loop over the mistake strings, skip included, on
    # absorb-shaped draws: the core table ends up holding cores of composed
    # mistake strings only, each with all 2(n-1) of its one-anchor cores,
    # and the replay composes the m that solve composes, with solve's counters
    rng = random.Random(20261030)
    skipped = 0
    for draw in range(24):
        inst = make_instance(_absorb_shaped(rng, 8), 1 + draw % 4)
        n, full = inst.n, (1 << inst.n) - 1
        counters = Counters()
        tables = _solve_tables(inst, counters)
        counters.composition += n
        best = _baseline(inst, tables)
        composed = []
        for m in range(n):
            if tables.subsets.row_min[full ^ (1 << m)] >= best[0] + (_EDGE_LEFT < best[1]):
                continue
            composed.append(m)
            best = _candidates_for_m(inst, tables, m, best, counters)
        assert {m for _, m, _ in tables.cores} == set(composed), (inst.strings, inst.k)
        one_anchor = {key for key in tables.cores if -1 in key}
        expected = {key for m in composed for e in range(n) if e != m for key in ((e, m, -1), (-1, m, e))}
        assert one_anchor == expected, (inst.strings, inst.k)
        solution, calls = _composed_by_solve(inst)
        assert [m for m, _, _ in calls] == composed
        assert (solution.length, solution.counters) == (best[0], counters), (inst.strings, inst.k)
        skipped += n - len(composed)
    print(f"skipped mistake strings: {skipped} of {24 * 8}, none with a merge core")
    assert skipped >= 50, skipped


def _sweep_instances(seed):
    """Seeded absorb-family and probe-family draws, n = 8-12, k = 0-4.

    An absorb-family instance is one string of length 12-16 and short ones
    of length 3-5 over "abc", so the short ones fit inside the long one; a
    probe-family instance is `generate_instance` with lengths 4-10 over 4
    letters, where a few strings fit inside the longer ones.
    """
    rng = random.Random(seed)
    instances = []
    for draw in range(24):
        n, k = 8 + draw % 5, draw % 5
        if draw % 2:
            instances.append(generate_instance(GeneratorParams(n, 4, 10, 4), rng.randrange(10**9), k))
            continue
        instances.append(make_instance(_absorb_shaped(rng, n), k))
    return instances


def _fits_inside(inst, m):
    """The strings short enough to fit strictly inside string m, as the solver draws them."""
    lengths = [len(s) for s in inst.strings]
    return sum(1 << e for e in range(inst.n) if e != m and lengths[e] <= lengths[m] - 2)


def _decode(placer, value, covered):
    """{position in m: character} of the fields a packed value covers."""
    letters = {code: ch for ch, code in placer.code.items()}
    mask = (1 << placer.width) - 1
    assert not value & ~covered, (value, covered)
    return {
        p: letters[value >> (p * placer.width) & mask]
        for p in range(placer.len_m)
        if covered >> (p * placer.width) & mask
    }


def _low_bits(placer, positions):
    return sum(1 << (p * placer.width) for p in positions)


def test_placer_packing_reads_back_as_characters():
    # the placer's integers, read back field by field: each placement is
    # its string at its offset, with the positions where it differs from m,
    # and each window's cover is l laid at 0 and r at length - |r|, read at
    # m's positions, present iff it disagrees with m at most k times
    rng = random.Random(20261027)
    instances = []
    for draw in range(24):
        letters = "abcd"[: 2 + draw % 3]
        if draw % 2:
            instances.append(make_instance(_absorb_shaped(rng, 7, letters), 1 + draw % 4))
            continue
        try:
            params = GeneratorParams(6, 3, 10, len(letters))
            instances.append(generate_instance(params, rng.randrange(10**9), 1 + draw % 4))
        except InstanceError:  # too few strings over two letters free of containment
            continue
    placements = windows = dropped = 0
    for inst in instances:
        tables = _solve_tables(inst, Counters())
        for m in range(inst.n):
            fits = _fits_inside(inst, m)
            if not fits:
                continue
            placer = _Placer(inst, tables.mismatch, m, fits, Counters())
            m_str = inst.strings[m]
            for e in _bits(fits, inst.n):
                s = inst.strings[e]
                kept = []
                for offset in range(1, len(m_str) - len(s)):
                    differs = [offset + t for t, ch in enumerate(s) if ch != m_str[offset + t]]
                    if len(differs) <= inst.k:
                        kept.append((offset, differs))
                assert [p[0] for p in placer.placements[e]] == [offset for offset, _ in kept], (inst.strings, m, e)
                for (offset, value, span, diff), (_, differs) in zip(placer.placements[e], kept):
                    laid = {offset + t: ch for t, ch in enumerate(s)}
                    assert _decode(placer, value, span) == laid, (inst.strings, m, e, offset)
                    assert diff == _low_bits(placer, differs), (inst.strings, m, e, offset)
                    placements += 1
            others = [a for a in range(-1, inst.n) if a != m]
            for l in others:
                for r in others:
                    if l == r >= 0:
                        continue
                    l_str, r_str = (inst.strings[a] if a >= 0 else "" for a in (l, r))
                    placer._use_anchors(l, r)
                    for length in placer.lengths:
                        laid = {t: ch for t, ch in enumerate(l_str)}
                        for t, ch in enumerate(r_str):
                            # overlapping anchors hold a window only where they agree
                            assert laid.setdefault(length - len(r_str) + t, ch) == ch, (inst.strings, l, r, length)
                        expected = []
                        for start in range(length - len(m_str) + 1):
                            cover = {p: laid[start + p] for p in range(len(m_str)) if start + p in laid}
                            differs = [p for p, ch in cover.items() if ch != m_str[p]]
                            if len(differs) > inst.k:
                                dropped += 1
                                continue
                            expected.append((start, cover, _low_bits(placer, differs)))
                        got = placer._group(length)
                        assert [w[0] for w in got] == [w[0] for w in expected], (inst.strings, m, l, r, length)
                        for (start, (value, covered, cost, *_)), (_, cover, low) in zip(got, expected):
                            assert _decode(placer, value, covered) == cover, (inst.strings, m, l, r, length, start)
                            assert cost == low, (inst.strings, m, l, r, length, start)
                            windows += 1
    print(f"packing: {placements} placements, {windows} windows, {dropped} over budget")
    assert placements > 300 and windows > 30_000 and dropped > 30_000, (placements, windows, dropped)


def test_fitting_sets_are_every_set_that_fits_with_nothing_fixed():
    # the family must be exactly the non-empty subsets of the strings that
    # fit inside m which fit under the bare cover, largest mask first, and
    # closed under subsets, which is what lets it grow one string at a time
    listed = multi = 0
    for inst in _sweep_instances(20261022):
        tables = _solve_tables(inst, Counters())
        for m in range(inst.n):
            fits = _fits_inside(inst, m)
            if not fits:
                continue
            family = _Placer(inst, tables.mismatch, m, fits, Counters()).fitting_sets()
            # a fresh placer, so no answer comes from the family build's memo
            placer = _Placer(inst, tables.mismatch, m, fits, Counters())
            expected = [s for s in _submasks(fits) if s and placer.holds(placer.bare, s)]
            assert family == expected, (inst.strings, inst.k, m)
            members = set(family)
            for s in family:
                for e in _bits(s, inst.n):
                    assert s == 1 << e or s ^ 1 << e in members, (inst.strings, inst.k, m, s, e)
            listed += len(family)
            multi += sum(s.bit_count() > 1 for s in family)
    print(f"fitting sets: {listed} listed, {multi} with two strings or more")
    assert listed > 100 and multi > 20, (listed, multi)


def test_fitting_set_sweep_matches_the_sweep_over_every_set():
    # the old sweep asked about every non-empty set of the strings that fit
    # inside m; with the family swapped for that, the candidates, witnesses
    # and offsets are the same, and so is every counter but window_scan and
    # core_scan.  Triple cores are built on demand, and the every-set sweep
    # asks about more (shape, set) pairs at the same cutoffs, so it builds
    # at least the cores the family does
    def every_set(placer):
        fits = sum(1 << e for e, s in enumerate(placer.strings) if len(s) <= placer.len_m - 2)
        return [s for s in _submasks(fits) if s]

    instances = _sweep_instances(20261023) + [golden_instance(seed) for seed in range(20261140, 20261160)]
    runs = []
    for sweep in (None, every_set):
        bests, solutions = [], []
        with pytest.MonkeyPatch.context() as patch:
            if sweep is not None:
                patch.setattr(_Placer, "fitting_sets", sweep)
            for inst in instances:
                tables = _solve_tables(inst, Counters())
                best = _baseline(inst, tables)
                for m in range(inst.n):
                    best = _candidates_for_m(inst, tables, m, best, Counters())
                bests.append(best)
                solutions.append(solve(inst, reconstruct=True))
        runs.append((bests, solutions))
    (bests, solutions), (old_bests, old_solutions) = runs
    assert bests == old_bests
    scans_differ = cores_fewer = 0
    for inst, got, old in zip(instances, solutions, old_solutions):
        assert (got.length, got.mistake_index, got.witness, got.offsets, got.mismatch_positions) == (
            old.length,
            old.mistake_index,
            old.witness,
            old.offsets,
            old.mismatch_positions,
        ), inst.strings
        for name, count in asdict(got.counters).items():
            if name not in ("window_scan", "core_scan"):
                assert count == getattr(old.counters, name), (inst.strings, name)
        scans_differ += got.counters.window_scan != old.counters.window_scan
        assert got.counters.core_scan <= old.counters.core_scan, inst.strings
        cores_fewer += got.counters.core_scan < old.counters.core_scan
    absorbed = sum(best[1] > _TRIPLE for best in bests)
    print(
        f"fitting-set sweep: {len(instances)} instances, {absorbed} absorbed wins, "
        f"{scans_differ} window_scan changes, {cores_fewer} with fewer core_scan"
    )
    assert absorbed >= 10 and scans_differ >= 10, (absorbed, scans_differ)
    assert cores_fewer >= 5, cores_fewer


def test_split_floor_prunes_without_changing_any_answer():
    # with the split floor cut back to its first term, the candidates,
    # witnesses, offsets and every counter but glue_scan and window_scan
    # are the same; the tighter floor only turns away windows and split
    # scans that could not win, so those two never rise
    def first_term(row_min, lengths, max_in, max_out, l, r, outside, floor):
        return floor

    rng = random.Random(20261024)
    chains = GeneratorParams(13, 5, 5, 4)
    instances = _sweep_instances(20261024)
    instances += [generate_instance(chains, rng.randrange(10**9), draw % 2) for draw in range(8)]
    runs = []
    for floor in (None, first_term):
        bests, solutions = [], []
        with pytest.MonkeyPatch.context() as patch:
            if floor is not None:
                patch.setattr(solver_module, "_split_floor", floor)
            for inst in instances:
                tables = _solve_tables(inst, Counters())
                best = _baseline(inst, tables)
                for m in range(inst.n):
                    best = _candidates_for_m(inst, tables, m, best, Counters())
                bests.append(best)
                solutions.append(solve(inst, reconstruct=True))
        runs.append((bests, solutions))
    (bests, solutions), (old_bests, old_solutions) = runs
    assert bests == old_bests
    fewer = {"glue_scan": 0, "window_scan": 0}
    for inst, got, old in zip(instances, solutions, old_solutions):
        assert (got.length, got.mistake_index, got.witness, got.offsets, got.mismatch_positions) == (
            old.length,
            old.mistake_index,
            old.witness,
            old.offsets,
            old.mismatch_positions,
        ), inst.strings
        for name, count in asdict(got.counters).items():
            if name in fewer:
                assert count <= getattr(old.counters, name), (inst.strings, name)
                fewer[name] += count < getattr(old.counters, name)
            else:
                assert count == getattr(old.counters, name), (inst.strings, name)
    print(f"split floor: {len(instances)} instances, fewer scans on {fewer}")
    assert fewer["glue_scan"] >= 20 and fewer["window_scan"] >= 10, fewer
