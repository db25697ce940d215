import numpy as np
import pytest

from twostage import Frame

# one line per acceptance criterion, echoed after the test summary
ACCEPTANCE_LINES: list[str] = []


def scalar_frame(subtotals) -> Frame:
    """Frame of single-SSU PSUs whose subtotals are the given values."""
    values = np.asarray(subtotals, dtype=np.float64)[:, None]
    return Frame(values, np.ones(values.shape[0], dtype=np.int64))


def multi_ssu_frame(n_psus: int, seed: int) -> Frame:
    """PSUs of 3-6 SSUs holding two variables, the second clustered."""
    rng = np.random.default_rng(seed)
    sizes = rng.integers(3, 7, size=n_psus).astype(np.int64)
    values = rng.normal([20.0, 50.0], [4.0, 9.0], size=(int(sizes.sum()), 2))
    values[:, 1] += np.repeat(rng.normal(0.0, 6.0, size=n_psus), sizes)
    return Frame(values, sizes)


@pytest.fixture
def frame_1to5() -> Frame:
    return scalar_frame([1.0, 2.0, 3.0, 4.0, 5.0])


def pytest_terminal_summary(terminalreporter):
    if ACCEPTANCE_LINES:
        terminalreporter.section("acceptance criteria")
        for line in ACCEPTANCE_LINES:
            terminalreporter.write_line(line)
