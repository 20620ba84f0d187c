"""Release gate: one test per acceptance criterion, one printed line each.

The criteria runners live in wzwkit.acceptance so the CLI selftest executes
exactly the same battery.
"""

import pytest

from wzwkit import acceptance
from wzwkit.config import Config


@pytest.fixture(scope="module")
def config():
    return Config()


def _require(result):
    margin = "" if result.margin is None else f"  margin={result.margin:.3e}"
    print(f"{'PASS' if result.passed else 'FAIL'}  {result.criterion}{margin}  {result.detail}")
    assert result.passed, result.detail


def test_criterion_01_s_matrix_oracle(config):
    _require(acceptance.s_matrix_oracle(config))


def test_criterion_02_modular_relations(config):
    _require(acceptance.modular_relations(config))


def test_criterion_03_fusion(config):
    _require(acceptance.fusion_checks(config))


def test_criterion_04_picard_groups(config):
    _require(acceptance.picard_groups(config))


def test_criterion_05_quadratic_form(config):
    _require(acceptance.quadratic_form(config))


def test_criterion_06_partition_functions(config):
    _require(acceptance.partition_functions(config))


def test_criterion_07_boundary_counts(config):
    _require(acceptance.boundary_counts(config))


def test_criterion_08_bimodule_rings(config):
    _require(acceptance.bimodule_rings(config))


def test_criterion_09_kramers_wannier(config):
    _require(acceptance.kramers_wannier(config))


def test_criterion_10_twining_conjecture(config):
    _require(acceptance.conjecture_suite(config))


def test_criterion_11_determinism(config):
    _require(acceptance.determinism(config))


def test_selftest_cli_runs_the_battery(capsys, tmp_path):
    import json

    from wzwkit.cli import run

    code = run(["selftest"])
    out = capsys.readouterr().out
    assert code == 0
    rep = json.loads(out)
    results = rep["payload"]["results"]
    assert len(results) == 11
    assert all(r["pass"] for r in results)


def test_selftest_tolerance_sweep_fails(capsys):
    """An absurd tolerance must produce visible failures: the checks are live."""
    from wzwkit.cli import run

    code = run(["selftest", "--tolerance", "1e-15"])
    capsys.readouterr()
    assert code == 3


def test_selftest_weyl_cap_surfaces_cleanly(capsys):
    from wzwkit.cli import run

    code = run(["selftest", "--weyl-cap", "10"])
    out = capsys.readouterr().out
    assert code == 3
    import json

    results = json.loads(out)["payload"]["results"]
    assert any("GroupTooLarge" in r["detail"] for r in results if not r["pass"])


def test_a_crashed_criterion_keeps_its_id(monkeypatch):
    """A runner that raises is reported under its numbered id, failing, with
    the exception as its detail; the others run as usual."""
    def boom(*args, **kwargs):
        raise RuntimeError("boom")

    monkeypatch.setattr(acceptance.picard, "verify_quadratic", boom)
    monkeypatch.setattr(acceptance.boundary, "count_boundary_conditions", boom)
    results = {r.criterion: r for r in acceptance.run_acceptance(Config())}
    assert list(results) == [criterion for criterion, _ in acceptance.CRITERIA]
    for criterion in ("05-quadratic-form", "07-boundary-counts"):
        r = results[criterion]
        assert (r.passed, r.margin, r.detail) == (False, None, "RuntimeError: boom")
    assert sum(r.passed for r in results.values()) == len(results) - 2
