import pytest

from wtsemigroup import DEFAULT_TOLERANCES, RunConfig, all_passed, parse_phi_spec, run_verify


def names(results):
    return [r.name for r in results]


def test_all_suites_present_and_pass_affine():
    results = run_verify(parse_phi_spec("expr:x+1"), RunConfig(phi="expr:x+1", t=1.0))
    assert all_passed(results)
    expected = {
        "semigroup_law",
        "adjoint_pairing",
        "left_inverse",
        "analyticity_support",
        "adjoint_kernel",
        "block_orthogonality",
        "parseval_pullback",
        "parseval_quadrature",
        "intertwining",
        "reproducing",
        "circular_symmetry",
        "adjoint_eigenvector",
        "bracket_agreement",
    }
    assert expected.issubset(set(names(results)))


def test_exact_suites_at_rounding_level_for_constant():
    results = {r.name: r for r in run_verify(parse_phi_spec("const:1"), RunConfig(phi="const:1"))}
    for name in ("semigroup_law", "adjoint_pairing", "left_inverse", "parseval_pullback"):
        assert results[name].residual <= 1e-12
    for name in ("analyticity_support", "adjoint_kernel", "block_orthogonality"):
        assert results[name].residual == 0.0
        assert results[name].tol == 0.0


def test_kernel_oracle_included_for_tagged_symbols():
    results = run_verify(parse_phi_spec("reciprocal"), RunConfig(phi="reciprocal", t=2.0))
    assert "kernel_agreement" in names(results)
    assert all_passed(results)
    results_expr = run_verify(parse_phi_spec("expr:x+2"), RunConfig(phi="expr:x+2", t=1.0))
    assert "kernel_agreement" not in names(results_expr)
    assert all_passed(results_expr)


@pytest.mark.parametrize("t", [0.3, 0.7, 1.0])
def test_suites_pass_for_non_dyadic_steps(t):
    # translation by a non-dyadic t runs through the breakpoint-collision
    # path and the sliver-noise regime of the cancellation identities
    cfg = RunConfig(phi="expr:x+1", t=t)
    assert all_passed(run_verify(parse_phi_spec("expr:x+1"), cfg))


def test_coarse_mesh_rescales_quadrature_budget():
    cfg = RunConfig(phi="expr:x+1", t=1.0, h=0.3)
    results = {r.name: r for r in run_verify(parse_phi_spec("expr:x+1"), cfg)}
    assert results["parseval_quadrature"].passed
    assert results["parseval_quadrature"].tol > 1e-6  # anchored at h = t/256


@pytest.mark.parametrize(
    "spec,t",
    [
        ("const:1", 1.0),
        ("affine", 1.0),
        ("reciprocal", 2.0),
        ("cap", 0.25),
        ("exp:a=2", 0.5),
        ("exp2x", 1.0),
        ("expr:x+1", 1.0),
        ("expr:x^2+1", 1.0),
        ("affine", 0.1),
        ("reciprocal", 0.3),
    ],
)
def test_the_printed_spectral_claims_read_their_rows(spec, t):
    # spectrum prints sigma_p(S_t) empty: supp S_t^k f lies in [k t, inf)
    # (analyticity_support) and L_t S_t = I (left_inverse); 0 in sigma(S_t)
    # because S_t is not onto: ker S_t* = chi_[0,t) L2 (adjoint_kernel); and
    # sigma_p(S_t*) contains the model disc (adjoint_eigenvector)
    results = {r.name: r for r in run_verify(parse_phi_spec(spec), RunConfig(phi=spec, t=t))}
    assert results["analyticity_support"].residual == 0.0
    assert results["adjoint_kernel"].residual == 0.0
    assert results["left_inverse"].passed
    assert results["adjoint_eigenvector"].passed


@pytest.mark.parametrize("value", [float("nan"), float("inf"), -1e-300])
def test_run_config_refuses_a_tolerance_that_is_not_a_nonnegative_finite_number(value):
    # a NaN tolerance failed every row (affine's reproducing row read FAIL
    # with a residual of 4.7e-18), an infinite one passed any residual and
    # has no JSON form; the CLI refuses both with the same words
    with pytest.raises(ValueError, match="^tolerance reproducing must be a nonnegative finite number$"):
        RunConfig(phi="const:1", tol={"reproducing": value})
    assert RunConfig(phi="const:1", tol={"reproducing": 0.0}).tol == {**DEFAULT_TOLERANCES, "reproducing": 0.0}


def test_run_config_merges_its_tolerances_over_the_defaults():
    # a partial dict ran until verify read a name it lacks (KeyError:
    # 'semigroup_law'); the given values now override the defaults
    cfg = RunConfig(phi="affine", tol={"reproducing": 1e-6})
    assert cfg.tol == DEFAULT_TOLERANCES
    results = run_verify(parse_phi_spec("affine"), cfg)
    assert names(results) == names(run_verify(parse_phi_spec("affine"), RunConfig(phi="affine")))
    assert all_passed(results)
    assert RunConfig(tol={"reproducing": 1e-7}).tol == {**DEFAULT_TOLERANCES, "reproducing": 1e-7}
    assert RunConfig().tol == DEFAULT_TOLERANCES


@pytest.mark.parametrize(
    "tol, message",
    [
        ({"reproducing": "1e-6"}, "^tolerance reproducing: '1e-6' is not a number$"),
        ({"reproducing": None}, "^tolerance reproducing: None is not a number$"),
        ({"bogus": 1e-6}, r"^unknown tolerance 'bogus'; known: \['adjoint_eigenvector', "),
        ({"bogus": "x"}, "^unknown tolerance 'bogus'"),  # the name is refused first, as on the command line
    ],
    ids=["text", "None", "unknown", "unknown text"],
)
def test_run_config_refuses_unknown_names_and_values_that_are_not_numbers(tol, message):
    # a string failed later in verify's comparison, with a TypeError
    with pytest.raises(ValueError, match=message):
        RunConfig(phi="const:1", tol=tol)


def test_run_config_tolerances_are_read_only():
    # a tolerance written after the check would reach run_verify unchecked:
    # a NaN one failed the reproducing row with a residual of 4.67e-18
    cfg = RunConfig(phi="affine")
    with pytest.raises(TypeError):
        cfg.tol["reproducing"] = float("nan")
    with pytest.raises(TypeError):
        del cfg.tol["reproducing"]
    assert cfg.tol["reproducing"] == DEFAULT_TOLERANCES["reproducing"]
