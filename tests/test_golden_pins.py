"""The pins.json check of the golden harness in test_golden.py, which runs,
records and compares all three golden files."""

from test_golden import assert_unmoved


def test_results_match_golden_pins():
    assert_unmoved("pins.json")
