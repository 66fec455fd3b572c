"""The design rules the CI workflow greps for, checked in-process so that tier-1 holds them too.

Each rule names a pattern that must not occur in some modules of ``src/honeyflow``; the
reason for each is given beside its step in ``.github/workflows/tier1.yml``.
"""

import ast
import re
from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parent.parent / "src"
MODULES = sorted((SRC / "honeyflow").glob("*.py"))
ALL_BUT_EVENTS = [path for path in MODULES if path.name != "events.py"]
DETECTION_PATHS = [SRC / "honeyflow" / name for name in ("detection.py", "sweep.py", "completeness.py")]

RULES = {
    "artifacts are laid out only in events.py": (
        r"open_artifact\(|csv\.writer|json\.dumps|os\.path\.join\(", ALL_BUT_EVENTS),
    "prefix arithmetic is written only in events.py": (r"0xFFFFFFFF <<", ALL_BUT_EVENTS),
    "a victim's identity is parsed only when the Victim is built": (
        r"(ipv4_to_int|prefix_net_mask)\([a-z_.]*victim\.identity", MODULES),
    "detection has no empty-input branch": (
        r"if not (len\()?(flows|starts|members)\b|clusters is (not )?None|if spans:", DETECTION_PATHS),
    "no np.unique": (r"np\.unique\(", MODULES),
    "an event is checked only by PacketEvent": (r"_diagnose_event|_check_address", MODULES),
}


@pytest.mark.parametrize("rule", RULES)
def test_pattern_does_not_occur(rule):
    pattern, paths = RULES[rule]
    assert paths
    found = [
        f"{path.relative_to(SRC.parent)}:{line_no}: {line.strip()}"
        for path in paths
        for line_no, line in enumerate(path.read_text(encoding="utf-8").splitlines(), 1)
        if re.search(pattern, line)
    ]
    assert not found, "\n".join(found)


def test_event_field_messages_are_written_once():
    # PacketEvent.__post_init__ words every event field's fault; parse_event_line only adds the line
    text = "".join(path.read_text(encoding="utf-8") for path in MODULES)
    assert text.count("ts must be a finite non-negative number") == 1


def test_no_unused_imports():
    # a deletion takes its imports with it; __init__.py re-exports, and a __future__ import is a directive
    unused = []
    for path in sorted(SRC.rglob("*.py")):
        if path.name == "__init__.py":
            continue
        tree = ast.parse(path.read_text(encoding="utf-8"), str(path))
        used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
        for node in ast.walk(tree):
            if isinstance(node, (ast.Import, ast.ImportFrom)) and getattr(node, "module", None) != "__future__":
                names = [alias.asname or alias.name for alias in node.names]
                unused += [f"{path}:{node.lineno}: {name}" for name in names if name.split(".")[0] not in used]
    assert not unused, "imported and never used:\n" + "\n".join(unused)
