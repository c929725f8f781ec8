"""Session hook of the benchmark harness.

Each paper table and figure has a dedicated ``test_bench_*`` module.  Table 2
and Figures 2-5 read the registered ``pll3`` and ``pll4`` scenarios through
the session fixtures ``pll3_run`` and ``pll4_run`` of the repository's root
``conftest.py``: one cold engine run each, with the options the scenario
registry declares and nothing substituted for a set the pipeline did not
certify.  Absolute wall-clock numbers are this machine's, not the authors'.
Printing and JSON output live in ``benchutil.py``.
"""

from benchutil import write_table2_records


def pytest_sessionfinish(session, exitstatus):
    write_table2_records()
