import sys

from hypothesis import settings

# property tests draw the same examples on every run, so tier-1 stays
# deterministic, and keep no example database between runs
settings.register_profile("tier1", derandomize=True, database=None, deadline=None, max_examples=40)
settings.load_profile("tier1")


def pytest_terminal_summary(terminalreporter, exitstatus, config):
    """Echo the acceptance criterion lines after the run, past capture."""
    mod = sys.modules.get("test_acceptance") or sys.modules.get("tests.test_acceptance")
    lines = getattr(mod, "ACCEPT_LINES", None) if mod else None
    if lines:
        terminalreporter.section("acceptance criteria")
        for line in lines:
            terminalreporter.write_line(line)
