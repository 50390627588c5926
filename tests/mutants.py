"""Mutation checks: each entry breaks the engine on purpose, and its tests
must catch it.

An entry names a file, an exact text in it, a replacement, and the test
node ids that must fail once the text is replaced. The runner copies the
committed tree (``git archive``) into a temporary directory, checks that
the listed tests pass there, then applies one mutant at a time and runs
only that mutant's tests. Each listed id must fail (for a parametrized
test, at least one of its cases). The runner exits non-zero when a mutant
survives, or when an old text no longer occurs exactly once, so a
refactor that moves the code updates its entry on purpose. A change that
deletes the mutated code deletes its entry with it.

Run from anywhere inside the repository, standard library only:

    python3 tests/mutants.py            # every mutant
    python3 tests/mutants.py NAME ...   # only these

It is not a pytest module (pytest collects ``test_*.py`` files only).
"""

from __future__ import annotations

import os
import subprocess
import sys
import tempfile
from pathlib import Path
from typing import NamedTuple


class Mutant(NamedTuple):
    name: str
    path: str
    old: str
    new: str
    tests: tuple[str, ...]


MUTANTS = (
    Mutant(
        "stack-writable",
        "src/lgr/columns.py",
        "        raise\n    block.flags.writeable = False\n    return block\n",
        "        raise\n    return block\n",
        ("tests/test_snapshot.py::test_every_first_chunk_is_read_only",),
    ),
    Mutant(
        "restore-integer-check-dropped",
        "src/lgr/columns.py",
        "if dtype == np.int64 and set(map(type, map(attrgetter(f), items))) - {int}:",
        "if False:",
        ("tests/test_snapshot.py::test_restore_refuses_a_mistyped_integer_field",),
    ),
    Mutant(
        "normalize-scaling-dropped",
        "src/lgr/embedding.py",
        "    if norm == np.inf:\n        v = v / np.abs(v).max()\n",
        "    if False:\n        v = v / np.abs(v).max()\n",
        (
            "tests/test_embedding.py::TestNormalizeOverflow::test_overflowing_norm_is_scaled_first",
            "tests/test_embedding.py::TestNormalizeOverflow::test_fixture_row_and_provider",
        ),
    ),
    Mutant(
        "restore-obs-count-check-dropped",
        "src/lgr/columns.py",
        "if counts is not None and n and counts.min() < 1:",
        "if False:",
        (
            "tests/test_snapshot.py::test_restore_refuses_what_a_load_refuses",
            "tests/test_snapshot.py::test_older_formats_refuse_a_bad_obs_count",
        ),
    ),
    Mutant(
        "strict-distance-gate",
        "src/lgr/graph.py",
        "d <= self._cfg.delta_p)",
        "d < self._cfg.delta_p)",
        ("tests/test_graph.py::test_gate_at_its_exact_edges_equals_the_oracle",),
    ),
    Mutant(
        "dimension-bound-65537",
        "src/lgr/model.py",
        "if self.embedding_dim > 65536:",
        "if self.embedding_dim > 65537:",
        ("tests/test_model.py::TestConfig::test_embedding_dim_is_bounded_at_65536",),
    ),
)


def pytest_failures(tree: Path, tests) -> tuple[int, list[str]]:
    """pytest's exit code and the ids it reports as failed, for ``tests`` in ``tree``."""
    env = dict(os.environ, PYTHONPATH=str(tree / "src"))
    cmd = [sys.executable, "-m", "pytest", "-q", "-rf", "-p", "no:cacheprovider", *tests]
    run = subprocess.run(cmd, cwd=tree, env=env, capture_output=True, text=True)
    failed = [line.split()[1] for line in run.stdout.splitlines() if line.startswith("FAILED ")]
    return run.returncode, failed


def main(names: list[str]) -> int:
    unknown = set(names) - {m.name for m in MUTANTS}
    if unknown:
        print(f"unknown mutants: {', '.join(sorted(unknown))}", file=sys.stderr)
        return 2
    mutants = [m for m in MUTANTS if not names or m.name in names]
    root = subprocess.run(["git", "rev-parse", "--show-toplevel"], capture_output=True,
                          text=True, check=True).stdout.strip()
    bad = 0
    with tempfile.TemporaryDirectory() as tmp:
        tree = Path(tmp)
        archive = subprocess.run(["git", "archive", "HEAD"], cwd=root, capture_output=True,
                                 check=True).stdout
        subprocess.run(["tar", "-x", "-C", str(tree)], input=archive, check=True)
        code, failed = pytest_failures(tree, sorted({t for m in mutants for t in m.tests}))
        if code != 0:
            print(f"the listed tests do not pass unmutated (exit {code}): {failed}")
            return 1
        for m in mutants:
            path = tree / m.path
            text = path.read_text()
            if text.count(m.old) != 1:
                print(f"STALE    {m.name}: its old text occurs {text.count(m.old)} times in {m.path}")
                bad += 1
                continue
            path.write_text(text.replace(m.old, m.new))
            try:
                code, failed = pytest_failures(tree, m.tests)
            finally:
                path.write_text(text)
            missed = [t for t in m.tests
                      if not any(f == t or f.startswith(t + "[") for f in failed)]
            if code != 1 or missed:
                print(f"SURVIVED {m.name}: pytest exit {code}; not failing: {missed}")
                bad += 1
            else:
                print(f"killed   {m.name}")
    print(f"{len(mutants) - bad} of {len(mutants)} mutants killed")
    return 1 if bad else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
