"""Line-oriented reports: one "key = value" per line, ending in a VERDICT.

Values are rendered deterministically (rationals exact, radical sums in
closed form, floats via repr), so identical inputs produce byte-identical
report text.
"""

from __future__ import annotations


def format_value(value) -> str:
    if isinstance(value, bool):
        return "PASS" if value else "FAIL"
    return str(value)


class Report:
    """Accumulates key = value lines plus asserted bounds; the final
    VERDICT line is PASS only if every asserted bound held."""

    def __init__(self):
        self.lines = []
        self._failed = 0

    def add(self, key: str, value):
        self.lines.append("%s = %s" % (key, format_value(value)))

    def bound(self, key: str, ok: bool):
        if not ok:
            self._failed += 1
        self.add(key, bool(ok))

    @property
    def passed(self) -> bool:
        return self._failed == 0

    def text(self) -> str:
        verdict = "PASS" if self.passed else "FAIL"
        return "\n".join(self.lines + ["VERDICT = " + verdict]) + "\n"

    def write(self, stream, path=None):
        """Write the report to `path`, if given, then to the stream, so a
        path that cannot be written stops before anything is printed."""
        body = self.text()
        if path:
            with open(path, "w") as fp:
                fp.write(body)
        stream.write(body)
