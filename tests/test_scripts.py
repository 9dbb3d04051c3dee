"""The guarantees the scripts print: O(h^2) convergence orders, a corpus
whose every verdict matches its expectation, a peak-memory table of one row
per case, and the lines of the package a test run leaves unreached."""

import importlib.util
import json
import math
import subprocess
import sys
from pathlib import Path

SCRIPTS = Path(__file__).resolve().parents[1] / "scripts"


def load_script(name):
    spec = importlib.util.spec_from_file_location(name, SCRIPTS / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_convergence_study_observes_second_order(capsys):
    orders = load_script("convergence_study").main(["--fast"])
    capsys.readouterr()
    assert len(orders) == 3
    for name, observed in orders.items():
        assert len(observed) == 2, name
        assert all(1.8 <= o <= 2.2 for o in observed), (name, observed)


def test_corpus_verdicts_all_match(capsys):
    code = load_script("run_corpus").main(["--json"])
    doc = json.loads(capsys.readouterr().out)
    assert code == 0 and doc["failures"] == 0
    assert len(doc["results"]) == 6
    assert all(row["ok"] and row["verdict"] == row["expected"] for row in doc["results"])


#: tracemalloc peak per node of each --fast row of peak_memory.py: the
#: measured figure with a 10% margin (35.8, 21.7, 70.8 and 48.7 B/node;
#: the one-pass verify holds no row of x* at full length, where it held
#: its samples and slope, 45.4 and 32.9 B/node).  The lattice and comb rows,
#: one block each, read 170.2 and 137.6 B/node, a little above the 163.0
#: and 130.6 of x*'s whole rows, as the block's buffers hold all three
#: variations at once; their ceilings stay where they were.  The variation
#: diagnostics at T' = 10 read 30.6, 28.1 and 32.7 B/node over 100004
#: nodes: blocks of x*, p and their rows, where x* and p sampled whole and
#: their rows at full length read 96 to 121
PEAK_CEILINGS = (39.4, 23.9, 179.3, 143.7, 77.9, 53.6, 33.7, 30.9, 36.0)


def test_peak_memory_prints_its_table(capsys):
    code = load_script("peak_memory").main(["--fast", "--json"])
    rows = json.loads(capsys.readouterr().out)["results"]
    assert code == 0
    assert [row["nodes"] for row in rows] == [160004, 200004, 20004, 29025, 50001, 50001,
                                              100004, 100004, 100004]
    assert [row["verdict"] for row in rows[:4]] == ["consistent"] * 3 + ["not_weakly_maximal"]
    assert all(row["csv_bytes"] > 0 for row in rows[4:6])
    assert all(math.isfinite(row["value"]) for row in rows[6:])
    for row, ceiling in zip(rows, PEAK_CEILINGS):
        assert row["peak_bytes"] > 0 and row["seconds"] > 0
        assert row["bytes_per_node"] == row["peak_bytes"] / row["nodes"]
        assert row["bytes_per_node"] <= ceiling, row


def test_line_reach_lists_what_a_test_subset_leaves_unreached():
    """In a fresh interpreter, as the script asks: there the import of the
    package runs under its tracer."""
    proc = subprocess.run(
        [sys.executable, str(SCRIPTS / "line_reach.py"), "--json",
         "tests/test_timescale.py", "-k", "membership or advance"],
        cwd=SCRIPTS.parent, capture_output=True, text=True, timeout=300,
    )
    doc = json.loads(proc.stdout)
    assert proc.returncode == doc["pytest_exit"] == 0, proc.stderr[-2000:]
    lines = doc["lines"]
    assert doc["unreached"] == len(lines) == doc["allowed"] + doc["open"]
    assert 0 < doc["unreached"] < doc["executable"]
    missed = {(row["module"], row["source"]) for row in lines}
    # the membership rule ran; the solver, which no selected test calls, did not
    assert ("timescale.py", "found = self._floor(t)") not in missed
    assert ("variational.py", "g_new = disc.gradient(x_new)") in missed
    main = [row for row in lines if row["module"] == "__main__.py"]
    assert main and all(row["allowed"] for row in main)


def test_line_reach_counts_the_handlers_of_a_recursion_error():
    """CPython drops the trace function when a RecursionError is raised in
    it; the script sets it again, so the handlers of expressions.py that
    only a stack overflow reaches count as reached."""
    proc = subprocess.run(
        [sys.executable, str(SCRIPTS / "line_reach.py"), "--json",
         "tests/test_expressions.py", "-k", "too_deep or deep_in_the_stack"],
        cwd=SCRIPTS.parent, capture_output=True, text=True, timeout=300,
    )
    doc = json.loads(proc.stdout)
    assert proc.returncode == doc["pytest_exit"] == 0, proc.stderr[-2000:]
    missed = {(row["module"], row["source"]) for row in doc["lines"]}
    for handler in ("except RecursionError:",
                    'raise ExpressionError(f"{reprlib.repr(self.source)} is nested too deeply")'
                    " from None",
                    'raise ExpressionError(f"{reprlib.repr(src)} is nested too deeply") from None'):
        assert ("expressions.py", handler) not in missed
    # the subset leaves the rest of the module's error paths unreached
    assert ("expressions.py", "raise ExpressionError(") in missed
