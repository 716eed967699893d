import pytest

from hypergroups.sigma import PRIME_TEST_BOUND
from hypergroups import (
    PartitionSyntaxError,
    PiSelection,
    PrimePartition,
    SMALLEST,
    is_pi_complement_number,
    is_pi_number,
    is_prime,
    parse_partition,
    parse_selection,
    prime_factors,
    spans_single_class,
)

from oracles import trial_prime_factors


def test_prime_factors():
    assert prime_factors(1) == ()
    assert prime_factors(2) == (2,)
    assert prime_factors(60) == (2, 3, 5)
    assert prime_factors(97) == (97,)
    assert prime_factors(1024) == (2,)
    with pytest.raises(ValueError):
        prime_factors(0)


def test_prime_factors_match_trial_division():
    assert all(prime_factors(n) == tuple(sorted(trial_prime_factors(n)))
               for n in range(1, 20000))


def test_prime_factors_split_large_cofactors():
    # Cofactors with 12-digit prime factors, out of reach of trial division:
    # a strong pseudoprime to the first 12 prime bases, and a prime square
    # times a large prime.
    assert prime_factors(318665857834031151167461) == (399165290221, 798330580441)
    assert prime_factors(1000003**2 * 399165290221) == (1000003, 399165290221)


def test_prime_factors_refused_at_the_bound():
    # is_prime, which decides every cofactor, is exact only below the bound.
    assert prime_factors(PRIME_TEST_BOUND - 1)[-1] == 858557454841
    with pytest.raises(ValueError, match="below"):
        prime_factors(PRIME_TEST_BOUND)


def test_is_prime():
    assert [n for n in range(2, 20) if is_prime(n)] == [2, 3, 5, 7, 11, 13, 17, 19]
    assert all(is_prime(n) == (trial_prime_factors(n) == {n})
               for n in range(20000))


# The Carmichael number 561 and the least strong pseudoprimes to the first
# k prime bases, k = 1..12 (OEIS A014233), all below PRIME_TEST_BOUND.
PSEUDOPRIMES = (561, 2047, 1373653, 25326001, 3215031751, 2152302898747,
                3474749660383, 341550071728321, 3825123056546413051,
                318665857834031151167461)


@pytest.mark.parametrize("n", PSEUDOPRIMES)
def test_is_prime_rejects_pseudoprimes(n):
    assert not is_prime(n)


def test_prime_literals_at_the_bound_are_refused():
    assert is_prime(10**16 + 61) and is_prime(99999999999999999989)
    big = str(PRIME_TEST_BOUND)
    with pytest.raises(PartitionSyntaxError, match="too large"):
        parse_partition(big)
    with pytest.raises(PartitionSyntaxError, match="too large"):
        parse_selection("{" + big + "}", SMALLEST)


def test_partition_parsing():
    sig = parse_partition("2,3|5|7")
    assert sig.classes == (frozenset({2, 3}), frozenset({5}), frozenset({7}))
    assert parse_partition("smallest") == SMALLEST
    assert str(sig) == "2,3|5|7"
    assert str(SMALLEST) == "smallest"


def test_partition_validation():
    with pytest.raises(PartitionSyntaxError):
        PrimePartition((frozenset({4}),))
    with pytest.raises(PartitionSyntaxError):
        PrimePartition((frozenset({2}), frozenset({2, 3})))
    with pytest.raises(PartitionSyntaxError):
        PrimePartition((frozenset(),))
    with pytest.raises(PartitionSyntaxError):
        parse_partition("")
    with pytest.raises(PartitionSyntaxError):
        parse_partition("2,|5")


def test_completion_policy():
    sig = parse_partition("2,3")
    assert sig.class_of(2) == frozenset({2, 3})
    assert sig.class_of(5) == frozenset({5})
    assert SMALLEST.class_of(11) == frozenset({11})


def test_selection_parsing():
    sig = parse_partition("2,3|5|7")
    assert parse_selection("0,2", sig).selected == \
        frozenset({frozenset({2, 3}), frozenset({7})})
    assert parse_selection("{2,3},{5}", sig).selected == \
        frozenset({frozenset({2, 3}), frozenset({5})})
    assert parse_selection("all", sig).everything
    assert parse_selection("all-classes", SMALLEST).everything
    assert parse_selection("", sig) == PiSelection()
    # implicit singleton classes can be selected literally
    assert parse_selection("{11}", sig).selected == frozenset({frozenset({11})})


@pytest.mark.parametrize("text", [
    "{2},{5}", "{2}, {5}", "{2} ,{5}", "{2} , {5}", "{2}  ,\t{5}",
    "{2}|{5}", "{2} | {5}"])
def test_class_literals_take_spaces_around_the_separator(text):
    # As partitions do ("2 , 3|5"): the separator between two literals may
    # have spaces on either side.
    assert parse_selection(text, SMALLEST).selected == \
        frozenset({frozenset({2}), frozenset({5})})


def test_prime_repeated_inside_one_class_is_refused():
    # The class is a set, which would drop the repeat silently.
    with pytest.raises(PartitionSyntaxError, match="prime 2 repeated in '2,2'"):
        parse_partition("2,2|3")
    with pytest.raises(PartitionSyntaxError, match="prime 3 repeated"):
        parse_partition("5|2,3,3")
    with pytest.raises(PartitionSyntaxError, match="prime 2 repeated"):
        parse_selection("{2,2}", SMALLEST)
    assert parse_selection("{2,3}", parse_partition("2,3")).selected == {
        frozenset({2, 3})}


def test_selection_errors():
    sig = parse_partition("2,3|5")
    with pytest.raises(PartitionSyntaxError):
        parse_selection("{2}", sig)  # {2} is not a class, {2,3} is
    with pytest.raises(PartitionSyntaxError):
        parse_selection("5", sig)  # index out of range
    with pytest.raises(PartitionSyntaxError):
        parse_selection("0", SMALLEST)  # no explicit classes to index
    with pytest.raises(PartitionSyntaxError):
        parse_selection("{x}", sig)


def test_pi_number_examples():
    sig = parse_partition("2,3|5")
    pi = parse_selection("0", sig)
    assert is_pi_number(1, sig, pi)
    assert is_pi_number(6, sig, pi)
    assert not is_pi_number(10, sig, pi)
    pi2 = parse_selection("{2}", SMALLEST)
    assert not is_pi_number(6, SMALLEST, pi2)
    assert is_pi_number(8, SMALLEST, pi2)


def test_pi_complement_numbers():
    pi = parse_selection("{2}", SMALLEST)
    assert is_pi_complement_number(15, SMALLEST, pi)
    assert not is_pi_complement_number(6, SMALLEST, pi)
    assert is_pi_complement_number(1, SMALLEST, pi)
    every = parse_selection("all", SMALLEST)
    assert is_pi_number(360360, SMALLEST, every)
    assert is_pi_complement_number(1, SMALLEST, every)
    assert not is_pi_complement_number(2, SMALLEST, every)


def test_spans_single_class():
    sig = parse_partition("2,3|5")
    assert spans_single_class(1, sig)
    assert spans_single_class(12, sig)
    assert spans_single_class(25, sig)
    assert not spans_single_class(10, sig)
    assert spans_single_class(8, SMALLEST)
    assert not spans_single_class(6, SMALLEST)


def test_enlarging_selection_is_monotone():
    # every n that is a selection-number stays one when classes are added
    sig = parse_partition("2|3|5")
    small = parse_selection("0", sig)
    bigger = parse_selection("0,1", sig)
    everything = parse_selection("all", sig)
    for n in range(1, 400):
        if is_pi_number(n, sig, small):
            assert is_pi_number(n, sig, bigger)
        if is_pi_number(n, sig, bigger):
            assert is_pi_number(n, sig, everything)
