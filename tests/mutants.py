"""A mutation sweep: each mutant in ``MUTANTS`` must fail the tests named
for it, and each in ``EQUIVALENT`` must pass them.

For each mutant the sweep copies the tree, less ``.git`` and caches,
into a temporary directory, replaces the mutant's old text, which must
occur exactly once in its file, by its new text, and runs the named
tests there with ``pytest -x -q``.  The mutant is killed when a test
fails, and survives when all of them pass.  Before the mutants, the
named tests run once on an unchanged copy, with pytest's output shown,
and must pass there, so that a kill means the mutation and not a broken
or missing test.  ``EQUIVALENT`` lists mutants known to change no
result, each with the reason; the sweep applies them too and requires
each to survive, so an entry that stops matching, or that a test now
kills, is reported rather than kept unseen.

    python tests/mutants.py

One line per mutant; the exit status is 0 when every mutant of
``MUTANTS`` is killed and every one of ``EQUIVALENT`` survives, 1 when
one of either does otherwise, and 2 when an old text does not match or
a run ends otherwise than in passing or failing tests.  pytest does not
collect this file, and it imports the standard library only.
"""

import os
import shutil
import subprocess
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SEARCH, NET, POLY = "src/petripoly/search.py", "src/petripoly/net.py", "src/petripoly/polynomial.py"

# name: (file, old text, new text, the tests that kill it)
MUTANTS = {
    "spend-never-raises": (
        SEARCH, "    if work[0] > _WORK:\n", "    if False:\n",
        ["tests/test_search.py::test_search_work_budget_is_per_call"]),
    "pair-check-existence-only": (
        SEARCH, "            if len(ids) != len(groups1[p]):\n", "            if not ids:\n",
        ["tests/test_search.py::test_class_matcher_checks_each_pair_by_its_images_event_count"]),
    "orbits-keep-every-tied-child": (
        SEARCH, "        elif any(find(e) == find(k) for e in same) or any(joined(e, k) for e in same):\n",
        "        elif False:\n",
        ["tests/test_search.py::test_both_searches_visit_a_fixed_number_of_nodes"]),
    "connected-keeps-every-class": (
        SEARCH, "            if len(alike[sigs[c]]) > 1:\n", "            if True:\n",
        ["tests/test_search.py::test_both_searches_visit_a_fixed_number_of_nodes"]),
    "pairs-filed-one-step-early": (
        SEARCH, "        due[last.get(g, -1) + 1].append(pair)\n",
        "        due[max(last.get(g, -1), 0)].append(pair)\n",
        ["tests/test_search.py::test_both_searches_visit_a_fixed_number_of_nodes"]),
    "orbits-join-nothing": (
        SEARCH, "            orbit[find(c)] = find(d)\n", "            orbit[find(c)] = find(c)\n",
        ["tests/test_search.py::test_both_searches_visit_a_fixed_number_of_nodes"]),
    "record-eq-any-record": (
        NET, "        if other.__class__ is self.__class__:\n", "        if isinstance(other, _Record):\n",
        ["tests/test_net.py::test_event_and_net_keep_the_dataclass_protocol"]),
    "write-net-drops-labels": (
        NET, "    label = {b: f', \"label\": {n}' for b, n in (labeling or {}).items()}\n",
        "    label = {}\n",
        ["tests/test_net.py::test_write_net_matches_readme_layout"]),
    "condition-ids-unchecked": (
        NET, "            conditions = frozenset(conditions)\n            \"\".join(conditions)\n",
        "            conditions = frozenset(conditions)\n",
        ["tests/test_net.py::test_net_rejects_ids_that_are_not_strings",
         "tests/test_net.py::test_net_checks_condition_ids_before_reading_events"]),
    "event-sides-unchecked": (
        NET, "        \"\".join(refs)\n", "        pass\n",
        ["tests/test_net.py::test_read_net_rejects_bad_documents"]),
}

# name: (file, old text, new text, the tests it must pass, why it changes no result)
EQUIVALENT = {
    "coefficient-ends-at-dollar": (
        POLY, r"(?=[xy])|\Z)", r"(?=[xy])|$)", ["tests/test_polynomial.py"],
        "_TERM is only fullmatched, and the \\s* before the end takes a final newline, which"
        " nothing after it could match, so $ holds exactly where \\Z does"),
    "x-power-ends-at-dollar": (
        POLY, r"(?=y)|\Z)", r"(?=y)|$)", ["tests/test_polynomial.py"],
        "as for the coefficient: only y could follow, and a final newline is no y"),
    "y-power-without-blanks": (
        POLY, r"(y)(?:\s*\^\s*([0-9]+))?", r"(y)(?:\^([0-9]+))?", ["tests/test_polynomial.py"],
        "a term with blanks around y's ^ then fails _TERM and goes to _walk, which reads"
        " the same coefficient and exponents and makes every diagnostic itself"),
}


def run_tests(tests, mutant=None):
    """pytest's exit status for tests on a fresh copy of the tree, with
    mutant, (file, old, new), applied; None when its old text does not
    occur exactly once."""
    with tempfile.TemporaryDirectory() as tmp:
        tmp = str(Path(tmp, "tree"))
        shutil.copytree(ROOT, tmp, ignore=shutil.ignore_patterns(".git", "__pycache__", ".*cache",
                                                                 ".hypothesis", ".perfbench-out"))
        if mutant is not None:
            path, old, new = mutant
            target = Path(tmp, path)
            text = target.read_text(encoding="utf-8")
            if text.count(old) != 1:
                return None
            target.write_text(text.replace(old, new), encoding="utf-8")
        env = dict(os.environ, PYTHONPATH=str(Path(tmp, "src")))
        shown = None if mutant is None else subprocess.DEVNULL  # the unchanged run's output only
        return subprocess.run(
            [sys.executable, "-X", "warn_default_encoding", "-m", "pytest", "-x", "-q",
             "-p", "no:cacheprovider", *tests],
            cwd=tmp, env=env, stdout=shown, stderr=shown).returncode


def main():
    rows = [(name, row, "killed") for name, row in MUTANTS.items()]
    rows += [(name, row, "survived") for name, row in EQUIVALENT.items()]
    tests = sorted({test for _, (_, _, _, tests, *_), _ in rows for test in tests})
    status = run_tests(tests)
    if status != 0:
        print(f"the named tests do not pass on the unchanged tree (pytest exit {status})")
        return 2
    outcome = {}
    for name, (path, old, new, tests, *_), wanted in rows:
        status = run_tests(tests, (path, old, new))
        result = {0: "survived", 1: "killed", None: "ERROR: old text not found once"}.get(
            status, f"ERROR: pytest exit {status}")
        # in capitals where it is not the wanted one: a mutant no test kills, or an equivalent killed
        outcome[name] = result.upper() if result in ("survived", "killed") and result != wanted else result
        print(f"{name}: {outcome[name]}", flush=True)
    killed = sum(outcome[name] == "killed" for name in MUTANTS)
    kept = sum(outcome[name] == "survived" for name in EQUIVALENT)
    print(f"{killed} of {len(MUTANTS)} mutants killed, {kept} of {len(EQUIVALENT)} equivalent ones survived")
    if any(result.startswith("ERROR") for result in outcome.values()):
        return 2
    return 0 if killed + kept == len(outcome) else 1


if __name__ == "__main__":
    sys.exit(main())
