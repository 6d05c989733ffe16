"""Figure 9 — profiling runtime and data type distribution (all 20 datasets)."""

from benchmarks.conftest import QUICK, save_result
from repro.experiments import fig9_profiling


def test_fig09_profiling(benchmark):
    result = benchmark.pedantic(
        lambda: fig9_profiling.run(quick=QUICK), rounds=1, iterations=1
    )
    save_result("fig09_profiling", result.render())

    seconds = result.profiling_seconds()
    assert len(seconds) == 20
    # shape: large datasets profile slower than the smallest dataset
    assert seconds["kdd98"] > seconds["wifi"]
    assert seconds["volkert"] > seconds["wifi"]
    # shape: a healthy mix of numerical and categorical features overall
    types = result.type_distribution()
    total_numerical = sum(t.get("Numerical", 0) for t in types.values())
    total_categorical = sum(t.get("Categorical", 0) for t in types.values())
    assert total_numerical > 0 and total_categorical > 0


def test_fig09_profiling_repeatable(benchmark):
    """A second run gives every dataset the same type distribution."""
    result = benchmark.pedantic(
        lambda: fig9_profiling.run(quick=QUICK), rounds=1, iterations=1
    )

    assert len(result.profiling_seconds()) == 20
    first = fig9_profiling.run(quick=QUICK)
    assert result.type_distribution() == first.type_distribution()
