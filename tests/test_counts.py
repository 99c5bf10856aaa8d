"""Tests for counts histograms."""

import numpy as np
import pytest

from repro.core import DecodingError
from repro.results import Counts


def test_basic_statistics():
    counts = Counts({"00": 600, "11": 400})
    assert counts.shots == 1000
    assert counts.num_clbits == 2
    assert counts.probability("00") == 0.6
    assert counts.probability("01") == 0.0
    assert counts.argmax() == "00"
    assert counts.most_common(1) == [("00", 600)]
    probs = counts.probabilities()
    assert abs(sum(probs.values()) - 1.0) < 1e-12


def test_invalid_keys_rejected():
    with pytest.raises(DecodingError):
        Counts({"0x": 1})
    with pytest.raises(DecodingError):
        Counts({"00": 1, "000": 1})
    with pytest.raises(DecodingError):
        Counts({"00": -1})


def test_zero_counts_dropped():
    counts = Counts({"00": 0, "11": 5})
    assert "00" not in counts and counts.shots == 5


def test_non_integral_counts_rejected():
    with pytest.raises(DecodingError):
        Counts({"0": 2.7})  # must not silently truncate to 2
    with pytest.raises(DecodingError):
        Counts({"0": "3"})
    with pytest.raises(DecodingError):
        Counts({"0": float("nan")})


def test_integer_valued_counts_accepted():
    counts = Counts({"0": 600.0, "1": np.int64(400)})
    assert counts["0"] == 600 and counts["1"] == 400
    assert all(isinstance(v, int) for v in counts.values())


def test_from_samples_and_array():
    counts = Counts.from_samples(["01", "01", "10"])
    assert counts["01"] == 2 and counts["10"] == 1
    array_counts = Counts.from_array(np.array([[0, 1], [0, 1], [1, 0]]))
    assert dict(array_counts) == dict(counts)


def test_from_array_coerces_truthy_values():
    # Non-binary truthy entries count as 1, matching the row-join semantics.
    assert dict(Counts.from_array(np.array([[0, 2]], dtype=np.uint8))) == {"01": 1}


def test_from_array_zero_shots_gives_empty_counts():
    for width in (0, 1, 12, 63, 1001):
        counts = Counts.from_array(np.zeros((0, width), dtype=np.uint8))
        assert dict(counts) == {} and counts.shots == 0


def test_from_array_zero_width_counts_every_shot_under_the_empty_key():
    assert dict(Counts.from_array(np.zeros((5, 0), dtype=np.uint8))) == {"": 5}


def _per_row_reference(bits):
    """Histogram built one row at a time from Python strings."""
    reference = {}
    for row in bits:
        key = "".join("1" if b else "0" for b in row)
        reference[key] = reference.get(key, 0) + 1
    return reference


@pytest.mark.parametrize("width", [1, 8, 62, 63, 64, 196, 1001])
def test_from_array_matches_per_row_strings_in_sorted_order(width):
    rng = np.random.default_rng(width)
    bits = (rng.random((300, width)) < 0.02).astype(np.uint8)
    bits[::3] = bits[0]  # guarantee repeated rows alongside distinct ones
    counts = Counts.from_array(bits)
    assert dict(counts) == _per_row_reference(bits)
    assert list(counts) == sorted(counts)
    assert counts.shots == 300 and counts.num_clbits == width
    # Per-row multiplicities (zeros included) equal the expanded rows.
    multiplicities = rng.integers(0, 4, size=300)
    weighted = Counts.from_array(bits, multiplicities)
    assert dict(weighted) == _per_row_reference(np.repeat(bits, multiplicities, axis=0))
    assert list(weighted) == sorted(weighted)
    assert weighted.shots == int(multiplicities.sum())
    assert all(type(value) is int and value > 0 for value in weighted.values())


def test_from_array_multiplicity_edge_cases():
    zero_width = np.zeros((3, 0), dtype=np.uint8)
    assert dict(Counts.from_array(zero_width, [2, 0, 5])) == {"": 7}
    assert dict(Counts.from_array(zero_width, [0, 0, 0])) == {}
    assert dict(Counts.from_array(np.zeros((0, 0), dtype=np.uint8), [])) == {}
    assert dict(Counts.from_array(np.zeros((0, 4), dtype=np.uint8), [])) == {}
    # A row whose multiplicities sum to 0 is dropped, as Counts(mapping) drops it.
    bits = np.array([[1, 0], [1, 0], [0, 1]], dtype=np.uint8)
    assert dict(Counts.from_array(bits, [0, 0, 3])) == {"01": 3}
    assert dict(Counts.from_array(bits, [0, 0, 0])) == {}
    # Multiplicities accumulate in int64, past any float-exact range.
    big = 2**62 - 1
    assert dict(Counts.from_array(bits[:2], np.array([big, 0]))) == {"10": big}
    assert dict(Counts.from_array(bits[:2], [2**40, 2**40])) == {"10": 2**41}
    for bad in ([1, 2], [1, -1, 1], [[1, 1, 1]]):
        with pytest.raises(DecodingError):
            Counts.from_array(bits, bad)


def test_from_array_coerces_truthy_values_on_wide_rows():
    bits = np.zeros((3, 100), dtype=np.uint8)
    bits[0, [0, 70, 99]] = (2, 7, 1)
    bits[1, 70] = 255
    expected = _per_row_reference(bits != 0)
    counts = Counts.from_array(bits)
    assert dict(counts) == expected
    assert counts["1" + "0" * 69 + "1" + "0" * 28 + "1"] == 1
    assert dict(Counts.from_array(np.array([[7, 0]], dtype=np.uint8))) == {"10": 1}


def test_marginal():
    counts = Counts({"010": 3, "011": 5, "110": 2})
    marginal = counts.marginal([0, 1])
    assert marginal["01"] == 8 and marginal["11"] == 2
    reordered = counts.marginal([2, 0])
    assert reordered["00"] == 3 and reordered["10"] == 5 and reordered["01"] == 2
    with pytest.raises(DecodingError):
        counts.marginal([5])


def test_merge():
    merged = Counts({"0": 1}).merge(Counts({"0": 2, "1": 3}))
    assert merged["0"] == 3 and merged["1"] == 3
    with pytest.raises(DecodingError):
        Counts({"0": 1}).merge(Counts({"00": 1}))


def test_expectation():
    counts = Counts({"00": 500, "11": 500})
    parity = counts.expectation(lambda bits: 1.0 if bits.count("1") % 2 == 0 else -1.0)
    assert parity == 1.0
    with pytest.raises(DecodingError):
        Counts({}).expectation(lambda b: 1.0)


def test_mapping_protocol():
    counts = Counts({"0": 1, "1": 2})
    assert len(counts) == 2
    assert set(counts) == {"0", "1"}
    assert counts.to_dict() == {"0": 1, "1": 2}
