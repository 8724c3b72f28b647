from hypothesis import settings

# No deadlines: on shared hosts the CPU speed changes phase for minutes at a
# time (perfbench/README.md), so a per-example time limit fails at random.
# Derandomized, so every run draws the same examples.
settings.register_profile("kirchlab", deadline=None, derandomize=True)
settings.load_profile("kirchlab")

ACCEPTANCE_VERDICTS = []


def pytest_terminal_summary(terminalreporter, exitstatus, config):
    if ACCEPTANCE_VERDICTS:
        terminalreporter.section("acceptance verdicts")
        for line in ACCEPTANCE_VERDICTS:
            terminalreporter.line(line)
