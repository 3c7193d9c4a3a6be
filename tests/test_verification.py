from tqsf.verification import (
    check_deferred_matches_marginal,
    check_funnel,
    check_oracle_equivalence,
    check_refilter_idempotence,
    check_sequential_final_spin,
    check_undersized_register_detected,
    check_variant_equivalence,
    run_verification,
)


def test_individual_checks_pass():
    assert check_oracle_equivalence(3, 5).passed
    assert check_variant_equivalence(3, 3).passed
    assert check_deferred_matches_marginal(3).passed
    assert check_funnel(3).passed
    assert check_refilter_idempotence(3).passed
    assert check_sequential_final_spin(3).passed


def test_undersized_register_is_reported_as_collision():
    check = check_undersized_register_detected()
    assert check.passed
    assert "collide" in check.detail


def test_run_verification_report_shape():
    report = run_verification(3, states_per_n=4)
    assert report["passed"] is True
    assert report["n_max"] == 3
    names = [c["name"] for c in report["checks"]]
    assert "oracle-equivalence-n2" in names
    assert "undersized-register-aliasing" in names
    assert all(set(c) == {"name", "passed", "detail"} for c in report["checks"])


def test_run_verification_rejects_large_n():
    import pytest

    with pytest.raises(ValueError):
        run_verification(9)


def test_run_verification_rejects_fewer_than_one_state_per_n():
    import pytest

    for states_per_n in (0, -1):
        with pytest.raises(ValueError, match="states_per_n"):
            run_verification(2, states_per_n=states_per_n)
