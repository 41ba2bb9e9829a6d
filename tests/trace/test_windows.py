"""The shifting-window cursor the streaming checker drives."""

import pytest

from repro.trace.windows import ShiftingWindow


def test_shifting_window_accumulates_and_caps_detail():
    window = ShiftingWindow(window_records=16, max_detail=3)
    for position in range(5):
        window.advance(16, built=position)
    assert window.index == 5
    assert window.total_records == 80
    assert [entry["window"] for entry in window.entries] == [0, 1, 2]
    assert window.entries[0] == {"window": 0, "records": 16, "built": 0}


def test_shifting_window_rejects_nonpositive_size():
    with pytest.raises(ValueError):
        ShiftingWindow(window_records=0)
    assert ShiftingWindow().window_records == ShiftingWindow.DEFAULT_RECORDS
