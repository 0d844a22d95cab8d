import os
import subprocess
import sys
from pathlib import Path

import pytest
from hypothesis import given
from hypothesis import strategies as st

from oracles import days_by_int
from procpyramid import Duration, parse_duration, render_offset
from procpyramid.durations import MAX_DAYS, parse_offset_days, read_days

ASCII_DIGITS = "0123456789"
WHITESPACE = " \t\n\u2003\u3000"
SRC = Path(__file__).resolve().parents[1] / "src"


@pytest.mark.parametrize(
    "text,days",
    [
        ("P1D", 1),
        ("P1W", 7),
        ("P1M", 30),
        ("P1Y", 360),
        ("P0D", 0),
        ("P1M2W3D", 47),
        ("P2Y3M", 810),
        ("P12M", 360),
        (" P3M ", 90),
        ("P1000000D", 1_000_000),
        ("P2777Y9M", 999_990),
    ],
)
def test_parse_duration(text, days):
    assert parse_duration(text).days == days


@pytest.mark.parametrize(
    "text",
    [
        *("", "P", "PT5H", "P1H", "1M", "P-1D", "P1.5D", "P1D2W", "P1000001D", "P2778Y"),
        pytest.param("P" + "9" * 4299 + "Y", id="P-4299-nines-Y"),
        pytest.param("P\u0663D", id="P-arabic-indic-3-D"),
        pytest.param("P\u0661\u0660D", id="P-arabic-indic-10-D"),
    ],
)
def test_parse_duration_rejects(text):
    with pytest.raises(ValueError):
        parse_duration(text)


def test_duration_is_ordered_and_non_negative():
    assert Duration(7) < Duration(30)
    assert str(Duration(45)) == "P45D"
    with pytest.raises(ValueError):
        Duration(-1)


@given(st.integers(min_value=0, max_value=10_000))
def test_duration_round_trips_through_text(days):
    assert parse_duration(str(Duration(days))).days == days


@pytest.mark.parametrize(
    "text,days",
    [("-60", -60), ("0", 0), ("+30", 30), (" 15 ", 15), ("P2M", -60), (" P1M2W ", -44), ("P0D", 0)],
)
def test_parse_offset_days(text, days):
    assert parse_offset_days(text) == days


@pytest.mark.parametrize(
    "text",
    [
        *("abc", "1.5", "", "PT1H", "P", "P1000001D", "1_000", "-1000001"),
        pytest.param("\u0663", id="arabic-indic-3"),
    ],
)
def test_parse_offset_days_rejects(text):
    with pytest.raises(ValueError):
        parse_offset_days(text)


def test_a_component_past_the_int_digit_limit_names_the_day_bound():
    """700 digits are past the lowest digit limit (`PYTHONINTMAXSTRDIGITS=640`)
    and below the default one (4300): under either the message is the same,
    names the bound and quotes only the first 40 characters."""
    with pytest.raises(ValueError) as refused:
        parse_duration("P" + "9" * 700 + "D")
    assert str(refused.value) == (
        "unsupported ISO-8601 duration 'P" + "9" * 39 + "'…: days must be at most 1000000, in ASCII digits"
    )


signs = st.sampled_from(["", "+", "-"])
blanks = st.text(WHITESPACE, max_size=3)


@st.composite
def day_texts(draw):
    """Sign, whitespace and ASCII digits: a count within the bound, padded
    with zeros, or any arrangement of those characters."""
    count = draw(st.integers(0, MAX_DAYS).map(str) | st.text(ASCII_DIGITS, max_size=9))
    padded = draw(blanks) + draw(signs) + draw(st.text("0", max_size=9)) + count + draw(blanks)
    return draw(st.just(padded) | st.text(WHITESPACE + "+-" + ASCII_DIGITS, max_size=12))


@given(day_texts())
def test_read_days_reads_ascii_counts_within_the_bound_as_int_does(text):
    """What `int()` reads within the bound reads the same; the rest is refused."""
    try:
        expected = days_by_int(text)
    except ValueError:
        expected = None
    if expected is not None and abs(expected) > MAX_DAYS:
        expected = None
    try:
        got = read_days(text, "count")
    except ValueError:
        got = None
    assert got == expected
    if got is not None:
        assert parse_offset_days(text) == got


non_ascii_digits = st.characters(categories=["Nd"]).filter(lambda c: c not in ASCII_DIGITS)


@st.composite
def refused_texts(draw):
    """A count that `int()` may read, spoiled by a non-ASCII decimal digit or
    an underscore, or more significant digits than `MAX_DAYS` has, up to past
    Python's default limit on digit strings; leading zeros, up to thousands
    of them, may come before the spoiling character."""
    digits = draw(st.text(ASCII_DIGITS, min_size=1, max_size=7))
    at = draw(st.integers(0, len(digits)))
    spoiled = draw(
        non_ascii_digits.map(lambda c: digits[:at] + c + digits[at:])
        | st.just(digits[:at] + "_" + digits[at:])
        | st.builds(
            lambda lead, rest, zeros: lead + rest + "0" * zeros,
            st.sampled_from(ASCII_DIGITS[1:]),
            st.text(ASCII_DIGITS, min_size=len(str(MAX_DAYS)), max_size=12),
            st.integers(0, 5000),
        )
    )
    return draw(blanks) + draw(signs) + "0" * draw(st.integers(0, 5000)) + spoiled + draw(blanks)


@given(refused_texts())
def test_read_days_refuses_other_digits_underscores_and_long_counts(text):
    with pytest.raises(ValueError, match="days must be at most 1000000, in ASCII digits"):
        read_days(text, "count")
    with pytest.raises(ValueError):
        parse_offset_days(text)


# exits 0 when `parse_offset_days` refuses every argument
REFUSE_EACH = """
import sys
from procpyramid.durations import parse_offset_days
for text in sys.argv[1:]:
    try:
        parse_offset_days(text)
    except ValueError:
        continue
    sys.exit(f"accepted {text[:9]!r}")
"""


def test_long_runs_of_zeros_before_other_text_are_refused_in_linear_time():
    """A pattern that lets two parts share the leading zeros tries every split
    of them before it fails: minutes for 100,000 zeros and an `x`. Each text
    is read in a child interpreter, killed after 20 s, so that fails the test
    instead of hanging the run."""
    texts = ["0" * 100_000 + "x", "-" + "0" * 100_000 + " 1", "0" * 100_000 + "\u0663", "P" + "0" * 100_000 + "xD"]
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [str(SRC), os.environ.get("PYTHONPATH")])))
    argv = [sys.executable, "-c", REFUSE_EACH, *texts]
    child = subprocess.run(argv, capture_output=True, encoding="utf-8", env=env, timeout=20)
    assert (child.returncode, child.stderr) == (0, "")


@pytest.mark.parametrize(
    "days,expected",
    [
        (0, "at SOP"),
        (-60, "2 months before SOP"),
        (-30, "1 month before SOP"),
        (30, "1 month after SOP"),
        (-45, "45 days before SOP"),
        (-1, "1 day before SOP"),
        (1, "1 day after SOP"),
        (360, "12 months after SOP"),
    ],
)
def test_render_offset(days, expected):
    assert render_offset(days) == expected


@given(st.integers(min_value=-2000, max_value=2000))
def test_render_offset_chooses_months_exactly_for_multiples_of_30(days):
    text = render_offset(days)
    if days == 0:
        assert text == "at SOP"
    elif days % 30 == 0:
        assert "month" in text and "day" not in text
    else:
        assert "day" in text and "month" not in text
