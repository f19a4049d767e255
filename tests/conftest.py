"""Shared builders for the test suite plus the acceptance summary hook."""

from randspec import EnsembleSpec, FiniteProfile, make_draw

MIXED_KINDS = ("hopping", "anderson", "alloy", "dimer_sign", "qgraph")

# one printable line per acceptance criterion, echoed after the test run
ACCEPTANCE_LINES = []


def mixed_spec(kind):
    """EnsembleSpec for each kind, with a small profile for the alloy."""
    if kind == "alloy":
        return EnsembleSpec(
            "alloy", profile=FiniteProfile((0.25, 1.0, 0.5)), margin=1
        )
    return EnsembleSpec(kind)


def random_operator(rng, size=None, size_cap=12):
    """One random box operator from a randomly chosen ensemble kind."""
    kind = MIXED_KINDS[int(rng.integers(len(MIXED_KINDS)))]
    spec = mixed_spec(kind)
    if size is None:
        size = int(rng.integers(2, size_cap + 1))
    return make_draw(spec, size, int(rng.integers(1 << 32)), int(rng.integers(256)))


def record_criterion(tag, ok, message):
    """Print and remember one acceptance line, then assert it."""
    line = f"{tag} {'PASS' if ok else 'FAIL'}: {message}"
    ACCEPTANCE_LINES.append(line)
    print(line)
    assert ok, line


def pytest_terminal_summary(terminalreporter):
    if ACCEPTANCE_LINES:
        terminalreporter.write_sep("-", "acceptance criteria")
        for line in ACCEPTANCE_LINES:
            terminalreporter.write_line(line)
