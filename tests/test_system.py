from __future__ import annotations

import random
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from qcnet import (
    KnowledgeState,
    Mode,
    SizeGuardError,
    SystemBuildError,
    TrafficPattern,
    build_system,
    enumerate_valid_modes,
    parse_system_description,
    validate_mode,
)

ALL_ONES = KnowledgeState.all_innovative()
DATA = Path(__file__).parent / "data"


def test_ex1_shape(ex1_system):
    assert ex1_system.num_chunks == 1
    assert ex1_system.num_virtual_drives == 1
    assert ex1_system.num_users == 2
    assert ex1_system.stored_pairs == ((1, 1),)


def test_service_unit_expansion():
    sys_ = build_system(2, 1, [(3, {1, 2})], rx=(2,))
    assert sys_.num_virtual_drives == 3
    assert sys_.virtual_drives == (frozenset({1, 2}),) * 3
    assert sys_.physical_index == (1, 1, 1)


def test_uncovered_chunk_rejected():
    with pytest.raises(SystemBuildError, match="uncovered chunk: f2"):
        build_system(2, 1, [(1, {1})], rx=(2,))
    # a huge declared count names a few chunks and counts the rest
    text = "[system]\nusers = 1\nchunks = 1000000\n[drive 1]\nstores = f1\n"
    with pytest.raises(SystemBuildError, match=r"uncovered chunk: f2 f3 f4 f5 f6 \.\.\. and 999994 more") as err:
        parse_system_description(text)
    assert len(str(err.value)) < 200


def test_duplicate_replica_rejected():
    with pytest.raises(SystemBuildError, match="duplicate"):
        build_system(1, 1, [(1, [1, 1])], rx=(1,))


@pytest.mark.parametrize("rx", [0, 2])
def test_rx_outside_edge_based_set_rejected(rx):
    # T = 3, so the admissible budgets are 1 and anything >= 3
    with pytest.raises(SystemBuildError):
        build_system(3, 1, [(1, {1, 2, 3})], rx=(rx,))


def test_rx_edge_based_accepted():
    build_system(3, 1, [(1, {1, 2, 3})], rx=(1,))
    build_system(3, 1, [(1, {1, 2, 3})], rx=(3,))
    build_system(3, 1, [(1, {1, 2, 3})], rx=(7,))


def test_validate_multicast_fanout(ex1_system):
    mode = Mode(frozenset({(1, 1, 1), (1, 2, 1)}))
    verdict = validate_mode(ex1_system, ALL_ONES, mode, TrafficPattern.MULTICAST)
    assert verdict.valid


def test_two_reads_same_drive_invalid():
    sys_ = build_system(2, 1, [(1, {1, 2})], rx=(2,))
    mode = Mode(frozenset({(1, 1, 1), (2, 1, 1)}))
    verdict = validate_mode(sys_, ALL_ONES, mode, TrafficPattern.MULTICAST)
    assert not verdict.valid
    assert "drive_read:D1" in verdict.violations


def test_reception_budget_enforced():
    sys_ = build_system(2, 1, [(1, {1}), (1, {2})], rx=(1,))
    mode = Mode(frozenset({(1, 1, 1), (2, 1, 2)}))
    verdict = validate_mode(sys_, ALL_ONES, mode, TrafficPattern.MULTICAST)
    assert not verdict.valid
    assert "reception:u1" in verdict.violations


def test_innovation_constraint(ex1_system):
    stale = KnowledgeState(frozenset({(1, 1, 1)}))
    mode = Mode(frozenset({(1, 1, 1)}))
    assert not validate_mode(ex1_system, stale, mode, TrafficPattern.MULTICAST).valid
    fresh = Mode(frozenset({(1, 2, 1)}))
    assert validate_mode(ex1_system, stale, fresh, TrafficPattern.MULTICAST).valid


def test_broadcast_requires_full_fanout(ex6_system):
    partial = Mode(frozenset({(1, 1, 1)}))
    assert not validate_mode(ex6_system, ALL_ONES, partial, TrafficPattern.BROADCAST).valid
    full = Mode(frozenset({(1, 1, 1), (1, 2, 1)}))
    assert validate_mode(ex6_system, ALL_ONES, full, TrafficPattern.BROADCAST).valid


def test_composite_does_not_mix_members(ex6_system):
    # one broadcast fan-out plus one unicast delivery satisfies neither member
    mixed = Mode(frozenset({(1, 1, 1), (1, 2, 1), (2, 1, 2)}))
    verdict = validate_mode(
        ex6_system, ALL_ONES, mixed, TrafficPattern.BROADCAST_OR_SINGLE_UNICAST
    )
    assert not verdict.valid
    assert "pattern:broadcast_or_single_unicast" in verdict.violations


def test_shape_mismatch_raises(ex1_system):
    with pytest.raises(ValueError, match="out of range"):
        validate_mode(ex1_system, ALL_ONES, Mode(frozenset({(2, 1, 1)})), TrafficPattern.MULTICAST)


def test_validate_is_pure(ex1_system):
    mode = Mode(frozenset({(1, 1, 1)}))
    first = validate_mode(ex1_system, ALL_ONES, mode, TrafficPattern.MULTICAST)
    second = validate_mode(ex1_system, ALL_ONES, mode, TrafficPattern.MULTICAST)
    assert first == second


def test_mode_counts_match_worked_examples(ex1_system):
    multicast = enumerate_valid_modes(ex1_system, ALL_ONES, TrafficPattern.MULTICAST)
    assert len(multicast) == 3
    unicast = enumerate_valid_modes(ex1_system, ALL_ONES, TrafficPattern.SINGLE_UNICAST)
    assert len(unicast) == 2
    broadcast = enumerate_valid_modes(ex1_system, ALL_ONES, TrafficPattern.BROADCAST)
    assert len(broadcast) == 1


def test_pattern_monotonicity(ex6_system):
    su = set(m.deliveries for m in enumerate_valid_modes(ex6_system, ALL_ONES, TrafficPattern.SINGLE_UNICAST))
    mu = set(m.deliveries for m in enumerate_valid_modes(ex6_system, ALL_ONES, TrafficPattern.MULTIPLE_UNICAST))
    mc = set(m.deliveries for m in enumerate_valid_modes(ex6_system, ALL_ONES, TrafficPattern.MULTICAST))
    assert su <= mu <= mc


def test_conservation_of_flow(ex6_system):
    for mode in enumerate_valid_modes(ex6_system, ALL_ONES, TrafficPattern.MULTICAST):
        per_queue = sum(
            1 for (i, j, k) in mode.deliveries
        )
        per_sink = sum(
            sum(1 for (i, jj, k) in mode.deliveries if jj == j)
            for j in range(1, ex6_system.num_users + 1)
        )
        assert per_queue == per_sink == mode.delivery_count


def test_multiple_service_unit_property():
    sys_ = build_system(3, 1, [(2, {1, 2, 3})], rx=(3,))
    # two units allow two distinct chunks of the same physical drive at once
    mode = Mode(frozenset({(1, 1, 1), (2, 1, 2)}))
    assert validate_mode(sys_, ALL_ONES, mode, TrafficPattern.MULTICAST).valid


def test_mode_enumeration_guard():
    sys_ = build_system(4, 4, [(2, {1, 2, 3, 4})], rx=(4,) * 4)
    with pytest.raises(SizeGuardError):
        enumerate_valid_modes(sys_, ALL_ONES, TrafficPattern.MULTICAST)


def test_parse_round_trip(ex1_system):
    text = (DATA / "ex1.txt").read_text()
    desc = parse_system_description(text)
    assert desc.system == ex1_system
    assert desc.pattern is TrafficPattern.MULTICAST


def test_parse_rejects_unknown_key():
    with pytest.raises(SystemBuildError, match="unknown key"):
        parse_system_description("[system]\nusers = 1\nchunks = 1\nbogus = 2\n[drive 1]\nstores = f1\n")


def test_parse_rejects_unknown_pattern():
    bad = "[system]\nusers = 1\nchunks = 1\n[drive 1]\nstores = f1\n[traffic]\npattern = anycast\n"
    with pytest.raises(SystemBuildError, match="unknown traffic pattern"):
        parse_system_description(bad)


GOOD_DESCRIPTION = """[system]
users = 2
chunks = 2

[drive 1]
units = 1
stores = f1 f2

[traffic]
pattern = multicast
rx = 1 1

[coding]
generation g = f1 f2 ; s = 2
drive 1 stores 2 of g
"""


@pytest.mark.parametrize(
    "good, bad",
    [
        ("users = 2", "users = x"),
        ("chunks = 2", "chunks = x"),
        ("units = 1", "units = two"),
        ("rx = 1 1", "rx = 1 a"),
        ("generation g = f1 f2 ; s = 2", "generation g = f1 f2 ; s = two"),
        ("drive 1 stores 2 of g", "drive x stores 2 of g"),
        ("drive 1 stores 2 of g", "drive 1 stores y of g"),
        ("generation g = f1 f2 ; s = 2", "generation = f1 f2 ; s = 2"),
        ("stores = f1 f2", "stores = f1 f²"),
        pytest.param(
            "generation g = f1 f2 ; s = 2",
            "generation g = f1 f" + "1" * 5000 + " ; s = 2",
            id="chunk-id-past-the-int-digit-limit",
        ),
    ],
)
def test_parse_failure_names_the_line(good, bad):
    parse_system_description(GOOD_DESCRIPTION)
    lineno = GOOD_DESCRIPTION.splitlines().index(good) + 1
    with pytest.raises(SystemBuildError, match=f"^line {lineno}: "):
        parse_system_description(GOOD_DESCRIPTION.replace(good, bad))


@pytest.mark.parametrize(
    "old, new, bad_line",
    [
        ("drive 1 stores 2 of g", "drive 1 stores 2 of g\ncoefficient_cycling = yes", "coefficient_cycling = yes"),
        (
            "drive 1 stores 2 of g",
            "drive 1 stores 2 of g\ncoefficient_cycling = true\ncoefficient_cycling = true",
            "coefficient_cycling = true",
        ),
        ("[traffic]", "[drive 1]\nunits = 3\n\n[traffic]", "[drive 1]"),
        ("[traffic]", "[system]\n[traffic]", "[system]"),
        ("drive 1 stores 2 of g", "generation g = f1 ; s = 1\ndrive 1 stores 2 of g", "generation g = f1 ; s = 1"),
        ("stores = f1 f2", "stores = f1 f2\nunits = 2", "units = 2"),
        ("chunks = 2", "chunks = 2\nusers = 3", "users = 3"),
        ("drive 1 stores 2 of g", "drive 1 stores 2 of g\ndrive 1 stores 1 of g", "drive 1 stores 1 of g"),
    ],
)
def test_parse_rejects_repeats_and_bad_flags(old, new, bad_line):
    bad = GOOD_DESCRIPTION.replace(old, new, 1)
    lines = bad.splitlines()
    lineno = len(lines) - lines[::-1].index(bad_line)  # its last occurrence
    with pytest.raises(SystemBuildError, match=f"^line {lineno}: "):
        parse_system_description(bad)


def test_example_files_still_parse():
    for name in ("ex1.txt", "ex6.txt", "ex7.txt"):
        desc = parse_system_description((DATA / name).read_text())
        assert (desc.coding is not None) == (name != "ex1.txt")
    assert parse_system_description((DATA / "ex6.txt").read_text()).coding.coefficient_cycling is False


_FUZZ_WORDS = [
    "[system]", "[drive 1]", "[drive 2]", "[drive 1 2]", "[traffic]", "[coding]", "[", "]",
    "users", "chunks", "units", "stores", "rx", "pattern", "generation", "drive", "of", "s",
    "coefficient_cycling", "=", ";", "#", "g", "h", "multicast", "broadcast", "anycast",
]
_FUZZ_NUMBERS = ["0", "1", "2", "-1", "+1", "1_0", "²", "٣", "x", "", "1" * 5000]
_FUZZ_VALUES = _FUZZ_NUMBERS + ["f" + n for n in _FUZZ_NUMBERS] + ["true", "yes"]


@st.composite
def fuzzed_descriptions(draw):
    """A valid description with one to three lines or tokens replaced,
    inserted, copied or dropped, chosen by a seeded generator."""
    rng = random.Random(draw(st.integers(0, 2**64)))

    def token():
        return rng.choice(rng.choice([_FUZZ_WORDS, _FUZZ_VALUES]))

    lines = rng.choice([GOOD_DESCRIPTION, (DATA / "ex6.txt").read_text()]).splitlines()
    lines = [line for line in lines if line and not line.startswith("#")]
    for _ in range(rng.choice([1, 1, 2, 3])):
        at = rng.randrange(len(lines) + 1)
        op = rng.choice(["token", "token", "token", "insert", "drop", "copy"]) if lines else "insert"
        if op == "insert":
            lines.insert(at, " ".join(token() for _ in range(rng.randint(0, 6))))
        elif op == "drop":
            del lines[at % len(lines)]
        elif op == "copy":
            lines.insert(at, rng.choice(lines))
        else:
            toks = lines[at % len(lines)].split(" ")
            k = rng.randrange(len(toks))
            # numbers and chunk ids are mostly replaced by their own kind
            if toks[k].isdigit() and rng.random() < 0.8:
                toks[k] = rng.choice(_FUZZ_NUMBERS)
            elif toks[k][:1] == "f" and toks[k][1:].isdigit() and rng.random() < 0.8:
                toks[k] = "f" + rng.choice(_FUZZ_NUMBERS)
            else:
                toks[k] = token()
            lines[at % len(lines)] = " ".join(toks)
    return "\n".join(lines)


@settings(max_examples=1000, deadline=None)
@given(fuzzed_descriptions())
def test_parse_fuzz_raises_only_system_build_error(text):
    try:
        parse_system_description(text)
    except SystemBuildError:
        pass
