"""End-to-end command-line tests: JSON I/O, exit codes, every subcommand,
and solver-independent report verification."""

import io
import itertools
import json
import sys

import numpy as np
import pytest

from polyconv.cli import main, report_to_dict, verify_report
from polyconv.examples import catalogue, catalogue_names
from polyconv.family import MatrixFamily, family_from_dict
from polyconv.inclusion import analyze, kernel_facts, strong_lmi, weak_lmi
from polyconv.linalg import Tolerances
from polyconv.lti import ETA_GRID


@pytest.fixture
def cli(capsys, monkeypatch):
    def run(*args, stdin=None):
        if stdin is not None:
            monkeypatch.setattr(sys, "stdin", io.StringIO(stdin))
        code = main(list(args))
        captured = capsys.readouterr()
        return code, captured.out, captured.err
    return run


def family_json(name: str) -> str:
    fam = catalogue(name).family
    doc = {"mode": fam.mode, "matrices": [a.tolist() for a in fam.matrices]}
    if fam.labels is not None:
        doc["labels"] = list(fam.labels)
    return json.dumps(doc)


def fresh_report(name: str) -> dict:
    fam = catalogue(name).family
    doc = report_to_dict(analyze(fam))
    # same normalization the file round trip applies
    return json.loads(json.dumps(doc, allow_nan=False))


class TestJsonIO:
    def test_nan_rejected_with_machine_readable_error(self, cli):
        code, out, err = cli("analyze", "-",
                             stdin='{"mode":"dt","matrices":[[[NaN]]]}')
        assert code == 1
        assert json.loads(err)["error"]["type"] == "input"

    def test_infinity_rejected(self, cli):
        code, _, err = cli("analyze", "-",
                           stdin='{"mode":"dt","matrices":[[[Infinity]]]}')
        assert code == 1
        assert "non-finite" in json.loads(err)["error"]["message"]

    def test_malformed_json_rejected(self, cli):
        code, _, err = cli("analyze", "-", stdin="{not json")
        assert code == 1
        assert json.loads(err)["error"]["type"] == "input"

    def test_missing_file_rejected(self, cli, tmp_path):
        code, _, err = cli("analyze", str(tmp_path / "absent.json"))
        assert code == 1
        assert json.loads(err)["error"]["type"] == "input"

    def test_unknown_subcommand_is_input_error(self, cli):
        code, _, err = cli("frobnicate")
        assert code == 1
        assert json.loads(err)["error"]["type"] == "input"

    def test_double_dual_round_trip_is_bit_identical(self, cli):
        _, original, _ = cli("examples", "dt-duality")
        _, once, _ = cli("dual", "-", stdin=original)
        _, twice, _ = cli("dual", "-", stdin=once)
        assert twice == original

    def test_emitted_family_parses_back(self, cli):
        _, out, _ = cli("examples", "path-consensus")
        fam = family_from_dict(json.loads(out))
        source = catalogue("path-consensus").family
        assert fam.mode == source.mode and fam.labels == source.labels
        for got, want in zip(fam.matrices, source.matrices):
            assert np.array_equal(got, want)


class TestAnalyzeCommand:
    def test_identity_family_proven_both_ways(self, cli):
        code, out, _ = cli("analyze", "-",
                           stdin='{"mode":"dt","matrices":[[[1]]]}')
        assert code == 0
        doc = json.loads(out)
        assert doc["verdicts"]["strong"]["status"] == "Proven"
        assert doc["verdicts"]["weak"]["status"] == "Proven"
        assert doc["verdicts"]["weak"]["method"] == "implied-by-strong"

    def test_half_one_pipe_from_examples(self, cli):
        _, fam_text, _ = cli("examples", "scalar-half-one")
        code, out, _ = cli("analyze", "-", stdin=fam_text)
        assert code == 0
        doc = json.loads(out)
        assert doc["verdicts"]["strong"]["status"] == "Disproven"
        assert doc["verdicts"]["strong"]["method"] == "kernel-mismatch"
        assert doc["verdicts"]["weak"]["status"] == "Proven"
        assert doc["verdicts"]["weak"]["method"] == "weak-lmi"

    def test_report_has_contract_sections(self, cli):
        code, out, _ = cli("analyze", "-", stdin=family_json("dt-duality"))
        assert code == 0
        doc = json.loads(out)
        for key in ("version", "mode", "tolerances", "verdicts", "kernel",
                    "ksp", "vertex_verdicts", "certificates",
                    "witness", "rate", "diagnostics"):
            assert key in doc
        assert doc["witness"]["cycle"] == [0, 1]
        for side in ("strong", "weak"):
            assert set(doc["verdicts"][side]) == {
                "status", "method", "details", "evidence"}

    def test_out_writes_file(self, cli, tmp_path):
        target = tmp_path / "report.json"
        code, out, _ = cli("analyze", "-", "--out", str(target),
                           stdin='{"mode":"dt","matrices":[[[1]]]}')
        assert code == 0 and out == ""
        assert json.loads(target.read_text())["mode"] == "dt"

    def test_custom_tolerance_recorded(self, cli):
        code, out, _ = cli("analyze", "-", "--tol", "1e-6",
                           stdin='{"mode":"dt","matrices":[[[1]]]}')
        assert code == 0
        assert json.loads(out)["tolerances"]["residual_tol"] == 1e-6

    def test_band_eigenvalue_reports_unknown_with_exit_zero(self, cli):
        code, out, _ = cli(
            "analyze", "-",
            stdin='{"mode":"dt","matrices":[[[1.000000005]]]}')
        assert code == 0
        doc = json.loads(out)
        assert doc["verdicts"]["strong"]["status"] == "Unknown"
        assert doc["verdicts"]["weak"]["status"] == "Unknown"
        assert doc["diagnostics"]["vertices_in_tolerance_band"] == [1]


class TestVerifyCommand:
    @pytest.mark.parametrize("name", ["scalar-half-one", "path-consensus",
                                      "dt-duality", "a11-switching",
                                      "diag-kernels", "rotation-ct"])
    def test_fresh_report_verifies(self, cli, tmp_path, name):
        rep = tmp_path / "rep.json"
        fam = tmp_path / "fam.json"
        fam.write_text(family_json(name))
        code, _, _ = cli("analyze", str(fam), "--out", str(rep))
        assert code == 0
        code, out, _ = cli("verify", str(rep), str(fam))
        assert code == 0
        assert json.loads(out)["verified"] is True

    def test_corrupt_report_fails_via_cli(self, cli, tmp_path):
        fam = tmp_path / "fam.json"
        fam.write_text(family_json("path-consensus"))
        rep = tmp_path / "rep.json"
        cli("analyze", str(fam), "--out", str(rep))
        doc = json.loads(rep.read_text())
        doc["certificates"]["strong"]["p"][0][0] += 1e-3
        rep.write_text(json.dumps(doc))
        code, out, err = cli("verify", str(rep), str(fam))
        assert code == 1
        assert json.loads(out)["verified"] is False
        assert "verification failed" in json.loads(err)["error"]["message"]

    def test_corrupt_weak_parameter_fails(self):
        doc = fresh_report("scalar-half-one")
        fam = catalogue("scalar-half-one").family
        doc["certificates"]["weak"]["parameter"] += 1e-3
        ok, _ = verify_report(doc, fam)
        assert not ok

    def test_corrupt_witness_start_state_fails(self):
        doc = fresh_report("dt-duality")
        fam = catalogue("dt-duality").family
        doc["witness"]["start_state"][0] += 1e-3
        ok, _ = verify_report(doc, fam)
        assert not ok

    def test_corrupt_rate_beta_fails(self):
        doc = fresh_report("path-consensus")
        fam = catalogue("path-consensus").family
        doc["rate"]["beta"] += 1e-3
        ok, _ = verify_report(doc, fam)
        assert not ok

    def test_corrupt_kernel_basis_fails(self):
        doc = fresh_report("path-consensus")
        fam = catalogue("path-consensus").family
        doc["kernel"]["basis"][0][0] += 1e-3
        ok, _ = verify_report(doc, fam)
        assert not ok

    def test_corrupt_decomposition_frame_fails(self):
        doc = fresh_report("a11-switching")
        fam = catalogue("a11-switching").family
        doc["certificates"]["strong"]["t"][0][0] += 1e-3
        ok, _ = verify_report(doc, fam)
        assert not ok

    def test_status_flip_without_evidence_fails(self):
        doc = fresh_report("rotation-dt")
        fam = catalogue("rotation-dt").family
        doc["verdicts"]["weak"]["status"] = "Proven"
        ok, _ = verify_report(doc, fam)
        assert not ok

    def test_report_checked_against_wrong_family_fails(self):
        doc = fresh_report("scalar-half-one")
        other = catalogue("pm-one-dt").family
        ok, _ = verify_report(doc, other)
        assert not ok

    def test_verification_never_calls_the_solver(self, monkeypatch):
        docs = {name: fresh_report(name)
                for name in ("path-consensus", "scalar-half-one",
                             "dt-duality")}

        def boom(*args, **kwargs):
            raise AssertionError("verification invoked the solver")

        import polyconv.feasibility
        import polyconv.inclusion
        monkeypatch.setattr(polyconv.feasibility, "sdp_feasible", boom)
        monkeypatch.setattr(polyconv.inclusion, "sdp_feasible", boom)
        for name, doc in docs.items():
            ok, checks = verify_report(doc, catalogue(name).family)
            assert ok, (name, [c for c in checks if not c["pass"]])

    def test_report_to_dict_only_formats(self, monkeypatch):
        # reports with a CQLF certificate and a rate, and a weak
        # certificate: their margins are the ones recorded when the
        # analysis accepted them, not recomputed
        reports = [analyze(catalogue(name).family)
                   for name in ("path-consensus", "scalar-half-one")]
        assert reports[0].rate is not None
        assert reports[1].weak_certificate is not None
        expected = [report_to_dict(r) for r in reports]

        def boom(*args, **kwargs):
            raise AssertionError("report_to_dict recomputed a number")

        import polyconv.feasibility
        import polyconv.inclusion
        monkeypatch.setattr(polyconv.feasibility, "verify_lmi", boom)
        monkeypatch.setattr(polyconv.inclusion, "decay_margins", boom)
        for routine in ("eig", "eigh", "eigvals", "eigvalsh"):
            monkeypatch.setattr(np.linalg, routine, boom)
        assert [report_to_dict(r) for r in reports] == expected

    def test_joint_form_strong_certificate_is_no_evidence(self):
        # the joint rank-reduced LMI proves what the CQLF proves, and is no
        # certificate kind: a feasible one, recorded as the strong section,
        # fails verification
        fam = catalogue("path-consensus").family
        doc = fresh_report("path-consensus")
        out = strong_lmi(kernel_facts(fam.matrices, fam.mode))
        assert out.feasible
        sec = doc["certificates"]["strong"]
        del sec["gamma"], sec["p"]
        sec.update(kind="strong-lmi",
                   p1=out.result.values["P1"].tolist(),
                   q=out.result.values["Q"].tolist())
        doc["verdicts"]["strong"]["method"] = "strong-lmi"
        doc["rate"] = None
        ok, checks = verify_report(doc, fam)
        assert not ok
        assert {"name": "certificates/strong", "pass": False,
                "detail": "unknown strong certificate kind 'strong-lmi'"} \
            in checks

    def test_shared_kernel_upgrade_report_verifies(self):
        fam = MatrixFamily("dt", [[[0.5]]])
        cert = weak_lmi(kernel_facts(fam.matrices, fam.mode))
        assert cert is not None
        from polyconv.cli import _weak_certificate_doc
        doc = fresh_report_from(fam)
        doc["verdicts"]["strong"] = {
            "status": "Proven", "method": "ksp-weak-upgrade",
            "details": {"parameter": cert.parameter},
            "evidence": "certificates/weak"}
        doc["verdicts"]["weak"] = {
            "status": "Proven", "method": "weak-lmi",
            "details": {"parameter": cert.parameter},
            "evidence": "certificates/weak"}
        doc["certificates"] = {"weak": json.loads(json.dumps(
            _weak_certificate_doc(cert), allow_nan=False))}
        doc["rate"] = None
        ok, checks = verify_report(doc, fam)
        assert ok, [c for c in checks if not c["pass"]]


def test_a_report_records_and_verifies_at_its_analysis_tolerances():
    # at rank_rel 1e-6 the 1 + 1e-8 direction is fixed by both vertices,
    # at the default rank_rel it is not: the report must be checked at the
    # tolerances it was computed with
    fam = MatrixFamily("dt", (np.diag([1.0, 1.0 + 1e-8, 0.5]),
                              np.diag([1.0, 1.0 + 1e-8, 0.25])))
    rep = analyze(fam, Tolerances(rank_rel=1e-6))
    assert rep.strong.status == "Proven" and rep.facts.common_dim == 2
    doc = json.loads(json.dumps(report_to_dict(rep), allow_nan=False))
    assert doc["tolerances"]["rank_rel"] == 1e-6
    ok, checks = verify_report(doc, fam)
    assert ok, [c for c in checks if not c["pass"]]


def fresh_report_from(fam) -> dict:
    return json.loads(json.dumps(report_to_dict(analyze(fam)),
                                 allow_nan=False))


def _claim_proven_by_cqlf(doc):
    doc["verdicts"] = {
        "strong": {"status": "Proven", "method": "decomposition-cqlf",
                   "details": {"m": 0}, "evidence": "certificates/strong"},
        "weak": {"status": "Proven", "method": "implied-by-strong",
                 "details": {}, "evidence": "certificates/strong"}}


def _claim_exhausted(doc):
    unknown = {"status": "Unknown", "method": "exhausted", "details": {},
               "evidence": None}
    doc["verdicts"] = {"strong": dict(unknown), "weak": dict(unknown)}


# x(k+1) = 1.000000005 x(k) diverges; its vertex sits in the spectral band
# and its report carries no certificate
BAND_FAMILY = {"mode": "dt", "matrices": [[[1.000000005]]]}

# edits that make a verdict or a vertex verdict disagree with the evidence
# the report carries: (catalogue name or None for BAND_FAMILY, edit)
FORGED_EDITS = {
    "weak-parameter-detail": (
        "scalar-half-one",
        lambda d: d["verdicts"]["weak"]["details"].update(parameter=0.123)),
    "kernel-dims-detail": (
        "diag-kernels",
        lambda d: d["verdicts"]["strong"]["details"].update(
            kernel_dims=[5, 5])),
    "band-certificate-proven": (None, _claim_proven_by_cqlf),
    "band-vertex-proven": (
        None,
        lambda d: d["vertex_verdicts"][0].update(status="Proven",
                                                 method="spectral")),
    "certificate-without-verdict": ("path-consensus", _claim_exhausted),
    "rate-removed-path-consensus": (
        "path-consensus", lambda d: d.update(rate=None)),
    "rate-removed-a11-switching": (
        "a11-switching", lambda d: d.update(rate=None)),
}


@pytest.mark.parametrize("edit", sorted(FORGED_EDITS))
def test_forged_verdicts_fail(edit):
    name, forge = FORGED_EDITS[edit]
    fam = (family_from_dict(BAND_FAMILY) if name is None
           else catalogue(name).family)
    doc = fresh_report_from(fam)
    assert verify_report(doc, fam)[0]
    forge(doc)
    ok, _ = verify_report(doc, fam)
    assert not ok


# single-field edits of a diag-kernels report that once crashed verification
# or were silently replaced by defaults
MALFORMED_EDITS = {
    "tolerances-unknown-key":
        lambda d: d["tolerances"].update(bogus=1.0),
    "tolerances-string-value":
        lambda d: d["tolerances"].update(residual_tol="1e-7"),
    "tolerances-list": lambda d: d.update(tolerances=[1e-10, 1e-8]),
    "certificates-list":
        lambda d: d.update(certificates=list(d["certificates"])),
    "weak-checks-list":
        lambda d: d["certificates"]["weak"].update(checks=[]),
    "verdicts-list": lambda d: d.update(verdicts=list(d["verdicts"].values())),
    "kernel-dims-int": lambda d: d["ksp"].update(kernel_dims=1),
    "vertex-details-list":
        lambda d: d["vertex_verdicts"][0].update(details=[]),
}


@pytest.mark.parametrize("edit", sorted(MALFORMED_EDITS))
def test_malformed_report_is_an_input_error_or_fails(cli, tmp_path, edit):
    doc = fresh_report("diag-kernels")
    MALFORMED_EDITS[edit](doc)
    rep = tmp_path / "rep.json"
    fam = tmp_path / "fam.json"
    rep.write_text(json.dumps(doc))
    fam.write_text(family_json("diag-kernels"))
    code, out, err = cli("verify", str(rep), str(fam))
    assert code == 1
    assert json.loads(err)["error"]["type"] == "input"
    if out:
        assert json.loads(out)["verified"] is False


# shares the kernel e3, but its off-kernel pair [[0, 2], [0, 0]] and
# [[0, 0], [2, 0]] has the unstable product diag(4, 0): no CQLF and no weak
# LMI certificate, and the cycle screen finds that product
_ALL_STAGES = MatrixFamily("dt", (np.array([[0, 2, 0], [0, 0, 0], [0, 0, 1]]),
                                  np.array([[0, 0, 0], [2, 0, 0], [0, 0, 1]])))


def _screen_undecided_pair() -> MatrixFamily:
    """A random 2 x 2 DT pair scaled so that its vertex cycles of up to 4
    steps reach spectral radius 0.97 per step: the Lyapunov-equation
    candidate fails and the cycle screen finds nothing, so analyze runs
    every solver stage (and never the joint LMI, strong_lmi)."""
    rng = np.random.default_rng(0)
    for _ in range(9):
        pair = (rng.normal(size=(2, 2)), rng.normal(size=(2, 2)))
    rho = max(max(abs(np.linalg.eigvals(
        np.linalg.multi_dot([pair[i] for i in word] + [np.eye(2)]))))
        ** (1.0 / k) for k in range(1, 5)
        for word in itertools.product((0, 1), repeat=k))
    return MatrixFamily("dt", tuple(0.97 / rho * a for a in pair))


def test_each_entry_point_computes_the_vertex_kernels_once(cli,
                                                           monkeypatch):
    import polyconv.inclusion as inclusion
    import polyconv.lti as lti
    calls = []

    def counted(name, fn):
        def wrapper(*args, **kwargs):
            calls.append(name)
            return fn(*args, **kwargs)
        return wrapper

    def counted_pass(mats, *args, **kwargs):
        # every family here has two vertices; a one-matrix pass is the
        # cycle screen's spectral test of one period map
        # (lti_convergent_dt), not a pass over the vertices
        mats = tuple(mats)
        if len(mats) > 1:
            calls.append("vertex_pass")
        return vertex_pass(mats, *args, **kwargs)

    vertex_pass = lti.VertexPass
    monkeypatch.setattr(lti, "VertexPass", counted_pass)
    wrapped = counted("kernel_facts", lti.kernel_facts)
    monkeypatch.setattr(lti, "kernel_facts", wrapped)
    monkeypatch.setattr(inclusion, "kernel_facts", wrapped)
    for stage in ("cqlf_stability", "strong_lmi", "weak_lmi"):
        monkeypatch.setattr(inclusion, stage,
                            counted(stage, getattr(inclusion, stage)))
    undecided = _screen_undecided_pair()
    report = analyze(undecided)
    assert calls == ["kernel_facts", "vertex_pass", "cqlf_stability",
                     "weak_lmi"]
    # the cycle screen finds the unstable product diag(4, 0, 1) before
    # any solver stage
    calls.clear()
    assert "divergent_cycle" in analyze(_ALL_STAGES).diagnostics
    assert calls == ["kernel_facts", "vertex_pass"]
    docs = {"all-stages": (undecided, json.loads(json.dumps(
        report_to_dict(report), allow_nan=False)))}
    # reports with a weak certificate, a strong one with a rate, a witness
    for name in ("scalar-half-one", "path-consensus", "dt-duality"):
        docs[name] = (catalogue(name).family, fresh_report(name))
    for name, (fam, doc) in docs.items():
        calls.clear()
        assert verify_report(doc, fam)[0], name
        assert calls == ["kernel_facts", "vertex_pass"], name
    family = json.dumps({"mode": "dt",
                         "matrices": [a.tolist() for a in
                                      _ALL_STAGES.matrices]})
    for method in ("cqlf", "weak-lmi"):
        calls.clear()
        code, out, _ = cli("certify", "-", "--method", method, stdin=family)
        side = "weak" if method == "weak-lmi" else "strong"
        assert code == 0
        assert json.loads(out)["verdicts"][side]["status"] == "Unknown"
        assert calls.count("kernel_facts") == 1, method
        assert calls.count("vertex_pass") == 1, method


def certify_doc(cli, family: str, method: str, *args) -> dict:
    """The report document certify prints for a family JSON text."""
    code, out, _ = cli("certify", "-", "--method", method, *args,
                       stdin=family)
    assert code == 0
    return json.loads(out)


# the family whose vertex kernels agree (both fix e2), which every
# certificate search proves
SHARED_KERNEL_DT = {"mode": "dt", "matrices": [[[0.5, 0.0], [0.0, 1.0]],
                                               [[0.25, 0.0], [0.0, 1.0]]]}

# families that do not converge, with every vertex in the spectral
# tolerance band: no certificate stage proves them
BAND_FAMILIES = [
    {"mode": "dt", "matrices": [[[1.000000005]]]},
    {"mode": "ct", "matrices": [[[5e-9]]]},
    {"mode": "dt", "matrices": [[[1.000000005, 0.0], [0.0, 0.5]],
                                [[1.000000005, 0.0], [0.0, 0.25]]]}]

CERTIFY_METHODS = ["cqlf", "weak-lmi"]


class TestCertifyCommand:
    def test_cqlf_proven_on_consensus(self, cli):
        doc = certify_doc(cli, family_json("path-consensus"), "cqlf")
        assert doc["verdicts"]["strong"]["status"] == "Proven"
        assert doc["certificates"]["strong"]["kind"] == "decomposition-cqlf"
        assert doc["rate"] is not None
        assert doc["diagnostics"] == {"stage": "cqlf_stability"}

    def test_strong_lmi_is_an_input_error(self, cli):
        code, out, err = cli("certify", "-", "--method", "strong-lmi",
                             stdin=family_json("path-consensus"))
        assert (code, out) == (1, "")
        error = json.loads(err)["error"]
        assert error["type"] == "input"
        assert "strong-lmi" in error["message"]

    def test_weak_lmi_parameter_comes_from_the_grid(self, cli):
        doc = certify_doc(cli, family_json("scalar-half-one"), "weak-lmi")
        assert doc["verdicts"]["weak"]["status"] == "Proven"
        assert doc["certificates"]["weak"]["parameter"] in ETA_GRID
        assert doc["diagnostics"] == {"stage": "weak_lmi"}

    def test_weak_lmi_at_a_fixed_grid_point(self, cli):
        doc = certify_doc(cli, family_json("scalar-half-one"), "weak-lmi",
                          "--parameter", repr(ETA_GRID[-1]))
        assert doc["verdicts"]["weak"]["details"] == {
            "parameter": ETA_GRID[-1]}

    def test_strong_methods_unknown_when_kernels_differ(self, cli):
        # no strong stage runs, and the kernels that differ disprove
        # strong convergence, as analyze says
        doc = certify_doc(cli, family_json("scalar-half-one"), "cqlf")
        assert doc["certificates"] == {}
        assert doc["verdicts"]["strong"]["status"] == "Disproven"
        assert doc["verdicts"]["strong"]["method"] == "kernel-mismatch"
        assert doc["verdicts"]["weak"]["status"] == "Unknown"

    def test_weak_lmi_unknown_on_rotation(self, cli):
        # the rotation's unit-modulus eigenvalues disprove the vertex, so
        # no damped LMI runs and weak is the vertex disproof
        doc = certify_doc(cli, family_json("rotation-dt"), "weak-lmi")
        assert doc["certificates"] == {}
        assert doc["verdicts"]["weak"]["status"] == "Disproven"
        assert doc["verdicts"]["weak"]["method"] == "vertex"

    @pytest.mark.parametrize("family", BAND_FAMILIES)
    @pytest.mark.parametrize("method", CERTIFY_METHODS)
    def test_no_proven_past_the_verdict_rule(self, cli, family, method):
        doc = certify_doc(cli, json.dumps(family), method)
        assert [v["status"] for v in doc["verdicts"].values()] == [
            "Unknown", "Unknown"]

    @pytest.mark.parametrize("method", CERTIFY_METHODS)
    def test_every_method_proves_a_shared_kernel_family(self, cli, method):
        doc = certify_doc(cli, json.dumps(SHARED_KERNEL_DT), method)
        assert [v["status"] for v in doc["verdicts"].values()] == [
            "Proven", "Proven"]

    # unstable families whose damped LMI is feasible at a damping parameter
    # outside its range: eta in (0, 1) (dt), eps > 0 (ct); and in-range
    # values off the search grid, whose certificate verify would refuse
    @pytest.mark.parametrize("mode,diag,parameter", [
        ("ct", [1.0, 0.5], "-0.1"), ("ct", [1.0, 0.5], "0"),
        ("dt", [2.0, 1.5], "1.5"), ("dt", [2.0, 1.5], "-0.5"),
        ("dt", [2.0, 1.5], "1"), ("dt", [0.5, 1.0], "0.5"),
        ("ct", [-1.0, 0.0], "0.05")])
    def test_weak_lmi_parameter_out_of_range_is_an_input_error(
            self, cli, mode, diag, parameter):
        fam = json.dumps({"mode": mode, "matrices": [np.diag(diag).tolist()]})
        code, out, err = cli("certify", "-", "--method", "weak-lmi",
                             "--parameter", parameter, stdin=fam)
        assert code == 1
        assert out == ""
        error = json.loads(err)["error"]
        assert error["type"] == "input"
        assert ("eta" if mode == "dt" else "eps") in error["message"]


def _certify_families() -> dict:
    """The catalogue, the shared-kernel DT pair and the band families, as
    family JSON texts by name."""
    fams = {name: family_json(name) for name in catalogue_names()}
    fams["shared-kernel-dt"] = json.dumps(SHARED_KERNEL_DT)
    for i, fam in enumerate(BAND_FAMILIES):
        fams[f"band-{i + 1}"] = json.dumps(fam)
    return fams


CERTIFY_FAMILIES = _certify_families()


@pytest.mark.parametrize("method", CERTIFY_METHODS)
@pytest.mark.parametrize("name", sorted(CERTIFY_FAMILIES))
def test_certify_document_verifies_and_agrees_with_analyze(cli, name,
                                                           method):
    text = CERTIFY_FAMILIES[name]
    fam = family_from_dict(json.loads(text))
    doc = certify_doc(cli, text, method)
    verified, checks = verify_report(doc, fam)
    assert verified, [c for c in checks if not c["pass"]]
    full = analyze(fam)
    for side in ("strong", "weak"):
        pair = {doc["verdicts"][side]["status"], getattr(full, side).status}
        assert pair != {"Proven", "Disproven"}, side
    if name.startswith("band-"):
        assert "Proven" not in [v["status"] for v in doc["verdicts"].values()]


# numeric options outside their range: (family, arguments)
_SIM_CT = ("simulate", "--signal", '{"kind":"constant","weights":[1]}',
           "--x0", "1,0")
BAD_NUMBER_ARGS = {
    "analyze-tol-nan": ("scalar-half-one", ("analyze", "--tol", "nan")),
    "analyze-tol-inf": ("scalar-half-one", ("analyze", "--tol", "inf")),
    "analyze-tol-zero": ("scalar-half-one", ("analyze", "--tol", "0")),
    "certify-parameter-nan": (
        "scalar-half-one",
        ("certify", "--method", "weak-lmi", "--parameter", "nan")),
    "simulate-horizon-inf": (
        "scalar-half-one",
        ("simulate", "--signal", '{"kind":"constant","weights":[1,0]}',
         "--x0", "1", "--horizon", "inf")),
    "simulate-horizon-nan": ("rotation-ct", _SIM_CT + ("--horizon", "nan")),
    "simulate-sample-dt-nan": (
        "rotation-ct", _SIM_CT + ("--horizon", "10", "--sample-dt", "nan")),
    "simulate-sample-dt-zero": (
        "rotation-ct", _SIM_CT + ("--horizon", "10", "--sample-dt", "0")),
    "weak-kernel-seed-negative": (
        "ct-duality", ("weak-kernel", "--scan", "5", "--seed", "-1")),
    "weak-kernel-scan-negative": (
        "ct-duality", ("weak-kernel", "--scan", "-3")),
}


@pytest.mark.parametrize("case", sorted(BAD_NUMBER_ARGS))
def test_bad_number_is_an_input_error(cli, case):
    name, args = BAD_NUMBER_ARGS[case]
    code, out, err = cli(args[0], "-", *args[1:], stdin=family_json(name))
    assert code == 1
    assert out == ""
    assert json.loads(err)["error"]["type"] == "input"


# signal specs with a wrongly typed or out-of-range field, each once a
# traceback
MALFORMED_SIGNALS = [
    '{"kind":"iid-random","seed":"abc"}',
    '{"kind":"iid-random","seed":-4}',
    '{"kind":"vertex-cycle","sequence":[0,"a"]}',
    '{"kind":"vertex-cycle","sequence":[0,1],"dwell":"2"}',
    '{"kind":"explicit","segments":[[1]]}',
    '{"kind":"constant","weights":"x"}',
]


@pytest.mark.parametrize("spec", MALFORMED_SIGNALS)
def test_malformed_signal_is_an_input_error(cli, spec):
    code, out, err = cli("simulate", "-", "--signal", spec, "--x0", "1",
                         "--horizon", "10",
                         stdin=family_json("scalar-half-one"))
    assert code == 1
    assert out == ""
    assert json.loads(err)["error"]["type"] == "input"


class TestSimulateCommand:
    def test_dt_run_with_csv(self, cli, tmp_path):
        target = tmp_path / "traj.csv"
        code, out, _ = cli("simulate", "-", "--signal",
                           '{"kind":"iid-random","seed":3}',
                           "--x0", "1,0", "--horizon", "400",
                           "--csv", str(target),
                           stdin=family_json("a11-switching"))
        assert code == 0
        doc = json.loads(out)
        assert doc["converged"] is True
        assert doc["residual"]["pointwise_final"] < 1e-8
        lines = target.read_text().splitlines()
        assert lines[0] == "t,x1,x2,w1,w2"
        assert len(lines) == 402

    def test_ct_run_reports_averaging_residuals(self, cli):
        code, out, _ = cli("simulate", "-", "--signal",
                           '{"kind":"constant","weights":[0.5,0.5]}',
                           "--x0", "1,-1", "--horizon", "30",
                           stdin=family_json("path-consensus"))
        assert code == 0
        doc = json.loads(out)
        assert doc["converged"] is True
        assert abs(doc["limit"][0]) < 1e-6 and abs(doc["limit"][1]) < 1e-6
        for key in ("running_average_final", "averaged_weight",
                    "witness_residual"):
            assert key in doc["residual"]

    def test_spike_schedule_signal_kind(self, cli):
        code, out, _ = cli("simulate", "-", "--signal",
                           '{"kind":"spike-schedule"}',
                           "--x0", "1", "--horizon", "45",
                           "--sample-dt", "0.25",
                           stdin=family_json("spike-schedule"))
        assert code == 0
        doc = json.loads(out)
        assert abs(doc["final_state"][0] - 0.5) < 1e-5

    def test_unknown_signal_kind_rejected(self, cli):
        code, _, err = cli("simulate", "-", "--signal",
                           '{"kind":"sawtooth"}', "--x0", "1",
                           "--horizon", "10",
                           stdin=family_json("scalar-half-one"))
        assert code == 1
        assert "sawtooth" in json.loads(err)["error"]["message"]

    def test_iid_signal_needs_a_seed(self, cli):
        code, _, err = cli("simulate", "-", "--signal",
                           '{"kind":"iid-random"}', "--x0", "1",
                           "--horizon", "10",
                           stdin=family_json("scalar-half-one"))
        assert code == 1
        assert "seed" in json.loads(err)["error"]["message"]

    def test_fractional_dt_horizon_rejected(self, cli):
        code, _, err = cli("simulate", "-", "--signal",
                           '{"kind":"constant","weights":[1,0]}',
                           "--x0", "1", "--horizon", "10.5",
                           stdin=family_json("scalar-half-one"))
        assert code == 1
        assert "integer" in json.loads(err)["error"]["message"]

    def test_bad_x0_rejected(self, cli):
        code, _, err = cli("simulate", "-", "--signal",
                           '{"kind":"constant","weights":[1,0]}',
                           "--x0", "one,two", "--horizon", "10",
                           stdin=family_json("scalar-half-one"))
        assert code == 1
        assert json.loads(err)["error"]["type"] == "input"

    def test_sample_count_over_the_cap_is_an_input_error(self, cli):
        # 1.001e6 samples, just over SCHEDULE_PIECES_MAX
        code, _, err = cli("simulate", "-", "--signal",
                           '{"kind":"constant","weights":[0.5,0.5]}',
                           "--x0", "1,-1", "--horizon", "1",
                           "--sample-dt", "9.99e-7",
                           stdin=family_json("path-consensus"))
        assert code == 1
        assert json.loads(err)["error"]["type"] == "input"

    def test_overflowing_state_is_a_numerical_error(self, cli):
        code, _, err = cli("simulate", "-", "--signal",
                           '{"kind":"constant","weights":[1]}',
                           "--x0", "1e300", "--horizon", "30",
                           stdin='{"mode": "ct", "matrices": [[[1.0]]]}')
        assert code == 2
        assert json.loads(err)["error"]["type"] == "numerical"


class TestWeakKernelCommand:
    def test_membership(self, cli):
        code, out, _ = cli("weak-kernel", "-", "--x", "1,1",
                           stdin=family_json("ct-duality"))
        assert code == 0
        doc = json.loads(out)
        assert doc["feasible"] is True
        assert doc["weights"] == pytest.approx([0.5, 0.5], abs=1e-8)

    def test_scan_finds_nontrivial_direction(self, cli):
        code, out, _ = cli("weak-kernel", "-", "--scan", "50",
                           stdin=family_json("diag-kernels"))
        assert code == 0
        doc = json.loads(out)
        assert doc["likely_trivial"] is False
        assert doc["witness"] is not None

    def test_exactly_one_mode_required(self, cli):
        for extra in ([], ["--x", "1,0", "--scan", "5"]):
            code, _, err = cli("weak-kernel", "-", *extra,
                               stdin=family_json("ct-duality"))
            assert code == 1
            assert "exactly one" in json.loads(err)["error"]["message"]

    def test_dt_family_rejected(self, cli):
        code, _, err = cli("weak-kernel", "-", "--x", "1",
                           stdin=family_json("scalar-half-one"))
        assert code == 1
        assert json.loads(err)["error"]["type"] == "input"


class TestLasalleCommand:
    def test_half_identity_gives_axis_union(self, cli):
        code, out, _ = cli("lasalle", "-", "--P", "[[0.5,0],[0,0.5]]",
                           stdin=family_json("diag-kernels"))
        assert code == 0
        doc = json.loads(out)
        assert doc["provenance"] == "smooth-quadratic"
        bases = sorted(tuple(abs(v[0]) for v in s["basis"])
                       for s in doc["subspaces"])
        assert bases == [(0.0, 1.0), (1.0, 0.0)]

    def test_indefinite_candidate_rejected(self, cli):
        code, _, err = cli("lasalle", "-", "--P", "[[-0.5,0],[0,-0.5]]",
                           stdin=family_json("diag-kernels"))
        assert code == 1
        assert json.loads(err)["error"]["type"] == "input"


class TestDualAndRateCommands:
    def test_dual_transposes_every_vertex(self, cli):
        _, out, _ = cli("dual", "-", stdin=family_json("dt-duality"))
        doc = json.loads(out)
        fam = catalogue("dt-duality").family
        for got, a in zip(doc["matrices"], fam.matrices):
            assert np.allclose(got, a.T)

    def test_dual_of_primal_cycle_family_is_strongly_convergent(self, cli):
        _, dual_text, _ = cli("dual", "-", stdin=family_json("dt-duality"))
        code, out, _ = cli("analyze", "-", stdin=dual_text)
        assert code == 0
        doc = json.loads(out)
        assert doc["verdicts"]["strong"]["status"] == "Proven"

    def test_rate_fields(self, cli):
        code, out, _ = cli("rate", "-", stdin=family_json("path-consensus"))
        assert code == 0
        doc = json.loads(out)
        assert doc["mode"] == "ct"
        assert doc["beta"] == pytest.approx(1.0, rel=1e-6)
        assert doc["c0"] >= 1.0 and doc["c1"] >= 0.0
        assert max(doc["checks"]["block_margins"]) <= 1e-7

    def test_rate_unavailable_is_input_error(self, cli):
        code, _, err = cli("rate", "-", stdin=family_json("rotation-dt"))
        assert code == 1
        assert "no rate available" in json.loads(err)["error"]["message"]


class TestExamplesCommand:
    def test_listing_enumerates_catalogue(self, cli):
        code, out, _ = cli("examples")
        assert code == 0
        listing = json.loads(out)["examples"]
        names = [e["name"] for e in listing]
        assert names == sorted(names)
        assert len(names) == 11
        for entry in listing:
            assert entry["expected_strong"] in ("Proven", "Disproven")
            assert entry["expected_weak"] in ("Proven", "Disproven")
            assert entry["description"]

    def test_unknown_name_lists_alternatives(self, cli):
        code, _, err = cli("examples", "no-such-family")
        assert code == 1
        assert "path-consensus" in json.loads(err)["error"]["message"]


class TestThreadsOption:
    def test_invalid_count_rejected(self, cli):
        code, _, err = cli("--threads", "0", "examples")
        assert code == 1
        assert json.loads(err)["error"]["type"] == "input"

    def test_caps_blas_pool_environment(self, cli, monkeypatch):
        import os
        for key in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS",
                    "MKL_NUM_THREADS", "NUMEXPR_NUM_THREADS"):
            monkeypatch.delenv(key, raising=False)
        code, _, _ = cli("--threads", "3", "examples")
        assert code == 0
        assert os.environ["OMP_NUM_THREADS"] == "3"
        assert os.environ["OPENBLAS_NUM_THREADS"] == "3"
