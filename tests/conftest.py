import re

_CRITERION = re.compile(r"test_acceptance\.py::test_criterion_(\d+)")


def pytest_terminal_summary(terminalreporter, exitstatus, config):
    verdicts = {}
    for status, ok in (("passed", True), ("failed", False), ("error", False)):
        for report in terminalreporter.stats.get(status, []):
            match = _CRITERION.search(getattr(report, "nodeid", ""))
            if match is None:
                continue
            num = int(match.group(1))
            verdicts[num] = verdicts.get(num, True) and ok
    if not verdicts:
        return
    terminalreporter.write_line("")
    for num in sorted(verdicts):
        verdict = "PASS" if verdicts[num] else "FAIL"
        terminalreporter.write_line("ACCEPTANCE %d: %s" % (num, verdict))
