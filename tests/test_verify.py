from netenergy.verify import run_suite


def test_whole_suite_passes_at_the_default_seed():
    results = run_suite("all", seed=42)
    assert len(results) == 12
    failed = [(r.check_id, r.residual, r.tolerance) for r in results if not r.passed]
    assert not failed
