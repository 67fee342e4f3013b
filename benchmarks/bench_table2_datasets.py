"""Table 2: dataset generation and statistics."""


def test_table2_dataset_statistics(run_recorded):
    result = run_recorded("table2")
    # Shape assertions: the stand-ins must keep the paper's relative
    # complexity ordering (Table 2).
    stats = {r["dataset"]: r for r in result.records()}
    assert stats["LANDC"]["mean_v"] > 2 * stats["LANDO"]["mean_v"], (
        "LANDC must be more complex"
    )
    assert stats["WATER"]["max_v"] > 5 * stats["WATER"]["mean_v"], (
        "WATER needs a heavy tail"
    )
