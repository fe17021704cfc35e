"""Equality of long texts or byte strings, reported by the first difference only.

pytest explains a failing ``assert a == b`` on two strings with a full diff,
which takes minutes on the megabyte state JSON.  ``assert_same_text`` makes
the same comparison and reports only where the two first differ.
"""

import os

WINDOW = 40  # characters or bytes shown on each side of the first difference


def assert_same_text(got, want) -> None:
    """Raise AssertionError unless ``got == want``, naming the first differing offset."""
    if got == want:
        return
    i = len(os.path.commonprefix([got, want]))
    a, b = max(0, i - WINDOW), i + WINDOW
    raise AssertionError(
        f"first difference at offset {i} (lengths {len(got)} and {len(want)}): "
        f"got ...{got[a:b]!r}..., want ...{want[a:b]!r}..."
    )
