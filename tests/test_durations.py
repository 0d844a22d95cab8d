import pytest
from hypothesis import given
from hypothesis import strategies as st

from procpyramid import Duration, parse_duration, render_offset
from procpyramid.durations import parse_offset_days


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


@pytest.mark.parametrize("text", ["abc", "1.5", "", "PT1H", "P", "P1000001D"])
def test_parse_offset_days_rejects(text):
    with pytest.raises(ValueError):
        parse_offset_days(text)


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
