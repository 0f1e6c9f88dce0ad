import pathlib
import re
import sys

ROOT = pathlib.Path(__file__).resolve().parents[1]
# mutants.py imports ab.py from its own directory, as it does when run
sys.path.insert(0, str(ROOT / "benchmarks"))
import mutants  # noqa: E402


def test_each_mutant_edits_one_place_and_names_tests_that_exist():
    """Runs no mutant: each one's old text occurs exactly once in its file,
    its new text differs, and each test it names is defined in its file."""
    names = [m.name for m in mutants.MUTANTS]
    assert len(set(names)) == len(names)
    assert set(mutants.KNOWN_SURVIVORS) <= set(names)
    for m in mutants.MUTANTS:
        assert (ROOT / m.path).read_text().count(m.old) == 1, m.name
        assert m.new != m.old and m.tests, m.name
        for test in m.tests:
            path, name = re.fullmatch(r"([\w/]+\.py)::(\w+)(\[.*\])?", test).group(1, 2)
            assert f"\ndef {name}(" in (ROOT / path).read_text(), (m.name, test)
