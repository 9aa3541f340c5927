"""Command-line behavior: payloads, exit codes, determinism."""

from __future__ import annotations

import json

import pytest

from coincalc.cli import EXIT_ERROR, EXIT_OK, EXIT_UNKNOWN, main

from conftest import add_suspension_record, rebuilt, write_db


def run(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr().out
    return code, out


def run_machine(capsys, *argv):
    code, out = run(capsys, "--format", "machine", *argv)
    return code, json.loads(out), out


# --- commands ----------------------------------------------------------------


def test_pi_sphere_lookup(capsys):
    code, doc, _ = run_machine(capsys, "pi-sphere", "--m", "9", "--n", "6")
    assert code == EXIT_OK
    assert doc["status"] == "ok"
    assert doc["payload"]["group"]["torsion"] == [24]


def test_pi_space_projective_summands(capsys):
    code, doc, _ = run_machine(
        capsys, "pi-space", "--space", "rp", "--nprime", "6", "--m", "9"
    )
    assert code == EXIT_OK
    assert doc["payload"]["group"]["pretty"] == "C24"
    assert doc["payload"]["punctured_summand"]["pretty"] == "0"


def test_filtration_command_golden(capsys):
    code, doc, _ = run_machine(
        capsys, "filtration", "--space", "rp", "--nprime", "6", "--m", "9",
        "--q", "2",
    )
    assert code == EXIT_OK
    sub = doc["payload"]["subgroup"]
    assert sub["invariants"]["torsion"] == [2]
    assert sub["ambient"]["torsion"] == [24]
    assert doc["rule_trace"]  # every numeric answer carries its trace


def test_classify_command_golden(capsys):
    code, doc, _ = run_machine(
        capsys, "classify", "--space", "rp", "--nprime", "6", "--m", "9",
        "--f1", "12", "--f2", "12",
    )
    assert code == EXIT_OK
    v = doc["payload"]["verdict"]
    assert (v["nielsen"], v["mcc"], v["mc"]) == (0, 0, 0)
    assert v["rule"] == "projective-case-1"


def test_classify_infinite_mc_serialization(capsys):
    code, doc, _ = run_machine(
        capsys, "classify", "--space", "rp", "--nprime", "3", "--m", "6",
        "--f1", "1", "--f2", "0",
    )
    assert code == EXIT_OK
    assert doc["payload"]["verdict"]["mc"] == "infinity"


def test_loose_command(capsys):
    code, doc, _ = run_machine(
        capsys, "loose", "--space", "sphere", "--n", "7", "--m", "10",
        "--f1", "1", "--f2", "1",
    )
    assert code == EXIT_OK
    assert doc["payload"]["loose"] is True


def test_grassmann_command(capsys):
    code, doc, _ = run_machine(capsys, "grassmann", "--r", "6")
    assert code == EXIT_OK
    assert doc["payload"]["all_loose"] is True
    code2, doc2, _ = run_machine(capsys, "grassmann", "--r", "5")
    assert code2 == EXIT_UNKNOWN
    assert doc2["status"] == "unknown"
    assert doc2["payload"]["all_loose"] == "unknown"


def test_validate_db_passes_on_shipped(capsys):
    code, doc, _ = run_machine(capsys, "validate-db")
    assert code == EXIT_OK
    assert doc["payload"]["passed"] is True
    assert doc["payload"]["failed"] == 0
    statuses = {c["status"] for c in doc["payload"]["checks"]}
    assert statuses <= {"ok", "unverifiable"}


# --- exit codes --------------------------------------------------------------------


def test_unknown_exit_for_database_gap(capsys):
    # pi_11(HP(2)) = Z x C15; equal lift classes need the quaternionic
    # boundary, which ships with no record
    code, doc, _ = run_machine(
        capsys, "classify", "--space", "hp", "--nprime", "2", "--m", "11",
        "--f1", "1,0", "--f2", "1,0",
    )
    assert code == EXIT_UNKNOWN
    assert doc["status"] == "unknown"
    assert "boundary unknown" in doc["message"]
    # the exit keeps the rules noted before the gap, in either format
    argv = ("filtration", "--space", "sphere", "--n", "4", "--m", "6", "--q", "3")
    code, doc, _ = run_machine(capsys, *argv)
    assert (code, doc["status"]) == (EXIT_UNKNOWN, "unknown")
    assert doc["rule_trace"] == ["sphere-filtration-tangent-lift"]
    assert run(capsys, *argv) == (EXIT_UNKNOWN, "status: unknown\n"
                                  "rules: sphere-filtration-tangent-lift\n"
                                  "message: boundary unknown: (6,4) is outside the "
                                  "stable range m < 2n-2\n")


def test_error_exit_for_bad_coordinates(capsys):
    code, doc, _ = run_machine(
        capsys, "classify", "--space", "rp", "--nprime", "6", "--m", "9",
        "--f1", "1,2", "--f2", "0",
    )
    assert code == EXIT_ERROR
    assert doc["status"] == "error"
    code2, _, _ = run_machine(
        capsys, "classify", "--space", "rp", "--nprime", "6", "--m", "9",
        "--f1", "x", "--f2", "0",
    )
    assert code2 == EXIT_ERROR
    # int() would read these as 11, 3, 10, 10 and 2; each error names its flag
    sphere = ["--space", "sphere", "--n", "3", "--m", "6"]
    for args, message in [
        (["classify", *sphere, "--f1", "1_1", "--f2", "0"], "--f1: coordinates must be integers"),
        (["classify", *sphere, "--f1", "1", "--f2", "\u0663"], "--f2: coordinates must be integers"),
        (["filtration", *sphere, "--q", "1_0"], "--q must be a positive integer or 'inf'"),
        (["pi-sphere", "--m", "1_0", "--n", "3"], "argument --m: invalid int value: '1_0'"),
        (["grassmann", "--r", "\uff12"], "argument --r: invalid int value: '\uff12'"),
    ]:
        code, doc, _ = run_machine(capsys, *args)
        assert (code, doc["status"], doc["message"]) == (EXIT_ERROR, "error", message), args


def test_integers_keep_their_sign_and_surrounding_space(capsys):
    code, doc, _ = run_machine(capsys, "classify", "--space", "sphere", "--n", "3",
                               "--m", " +6 ", "--f1", " -1 ", "--f2", "+2")
    assert code == EXIT_OK
    assert doc["payload"]["m"] == 6
    assert [doc["payload"][f]["coords"] for f in ("f1", "f2")] == [[11], [2]]
    for q, want in ((" 2 ", 2), (" inf ", "infinity")):
        code, doc, _ = run_machine(capsys, "filtration", "--space", "sphere", "--n", "3",
                                   "--m", "6", "--q", q)
        assert code == EXIT_OK
        assert doc["payload"]["q"] == want


def test_error_exit_for_bad_flags(capsys):
    code, out = run(capsys, "pi-sphere", "--m", "9")
    assert code == EXIT_ERROR
    # nothing is noted before the parse
    code, doc, _ = run_machine(capsys, "pi-sphere", "--m", "9", "--bogus")
    assert (code, doc["rule_trace"]) == (EXIT_ERROR, [])


def test_parse_error_honours_machine_format(capsys):
    code, doc, _ = run_machine(capsys, "pi-sphere", "--m", "9")
    assert code == EXIT_ERROR
    assert doc["status"] == "error"
    assert "--n" in doc["message"]


def test_leading_negative_coordinate_is_a_value(capsys):
    # pi_7(S^4) = Z x C12
    target = ["loose", "--space", "sphere", "--n", "4", "--m", "7"]
    code, doc, raw = run_machine(capsys, *target, "--f1", "-1,0", "--f2", "2,3")
    assert code == EXIT_OK
    assert doc["payload"]["f1"]["coords"] == [-1, 0]
    _, _, raw_bound = run_machine(capsys, *target, "--f1=-1,0", "--f2", "2,3")
    assert raw == raw_bound
    code, doc, _ = run_machine(capsys, "classify", "--space", "sphere", "--n", "3",
                               "--m", "3", "--f1", "-1,0", "--f2", "2")
    assert code == EXIT_ERROR
    assert doc["message"] == "--f1: expected 1 coordinate(s) for Z, got 2"


def test_loose_requires_coordinates_for_non_grassmann(capsys):
    code, doc, _ = run_machine(
        capsys, "loose", "--space", "sphere", "--n", "7", "--m", "10"
    )
    assert code == EXIT_ERROR
    assert "--f1" in doc["message"]


@pytest.mark.parametrize("space, flag", [
    ("sphere", "n"), ("rp", "nprime"), ("cp", "nprime"), ("hp", "nprime"),
    ("grassmann", "r"),
])
def test_a_space_without_its_dimension_flag_is_a_usage_error(capsys, space, flag):
    argv = ("pi-space", "--space", space, "--m", "3")
    code, doc, _ = run_machine(capsys, *argv)
    assert (code, doc["status"]) == (EXIT_ERROR, "error")
    assert doc["message"] == f"--space {space} requires --{flag}"
    assert run(capsys, *argv) == (
        EXIT_ERROR, f"status: error\nmessage: --space {space} requires --{flag}\n")


def test_grassmann_odd_r_with_m_still_unknown(capsys):
    code, doc, _ = run_machine(capsys, "grassmann", "--r", "5", "--m", "3")
    assert code == EXIT_UNKNOWN


def test_unknown_exit_for_out_of_range_lookup(capsys):
    code, doc, _ = run_machine(capsys, "pi-sphere", "--m", "40", "--n", "12")
    assert code == EXIT_UNKNOWN


# --- database selection ------------------------------------------------------------------


def test_env_var_overrides_default_db(capsys, tmp_path, db_doc, monkeypatch):
    db_doc["sphere_groups"] = [
        r for r in db_doc["sphere_groups"] if (r["m"], r["n"]) != (8, 5)
    ]
    path = write_db(tmp_path, db_doc)
    monkeypatch.setenv("COINCALC_DB", str(path))
    code, doc, _ = run_machine(capsys, "pi-sphere", "--m", "9", "--n", "6")
    assert code == EXIT_ERROR  # the override file fails validation
    assert "pi_8(S^5)" in doc["message"]


def test_db_flag_beats_env(capsys, tmp_path, monkeypatch):
    monkeypatch.setenv("COINCALC_DB", str(tmp_path / "nonexistent.json"))
    from coincalc.homotopy_db import DEFAULT_DB_PATH

    code, doc, _ = run_machine(
        capsys, "--db", str(DEFAULT_DB_PATH), "pi-sphere", "--m", "9", "--n", "6"
    )
    assert code == EXIT_OK


def test_validate_db_fails_on_seeded_fault(capsys, tmp_path, db_doc):
    add_suspension_record(db_doc, 8, 5, [[2]])
    path = write_db(tmp_path, db_doc)
    code, doc, _ = run_machine(capsys, "--db", str(path), "validate-db")
    assert code == EXIT_ERROR
    assert "suspension (8,5)" in doc["message"]


def test_validate_db_with_a_boundary_into_a_missing_group(capsys, tmp_path, db_doc):
    # a window from n = 5 loads without the groups of S^4 and the structure
    # maps into or on them; the stable boundaries at (6,5) and (7,5) map
    # into those groups, so their kernels can then not be checked
    db_doc["range"]["n_min"] = 5
    db_doc["sphere_groups"] = [r for r in db_doc["sphere_groups"] if r["n"] != 4]
    db_doc["homs"] = [r for r in db_doc["homs"] if r.get("n") not in (3, 4)]
    code, doc, _ = run_machine(capsys, "--db", str(write_db(tmp_path, db_doc)),
                               "validate-db")
    assert code == EXIT_OK
    checks = doc["payload"]["checks"]
    assert [c for c in checks if c["check"] == "stable-kernel"
            and c["status"] != "ok"] == [
        {"check": "stable-kernel", "instance": f"({m},5)", "status": "unverifiable",
         "detail": f"pi_{m - 1}(S^4) is not in the database"} for m in (6, 7)]
    assert not [c for c in checks if c["status"] == "fail"]


def test_validate_db_reports_a_fail_row_of_each_kind(db):
    """No table that loads reaches the exactness or stable-kernel
    ``fail`` row, so two wrong boundary kernels are seeded into the memo
    of a fresh table: each kind of check then reports its failure in
    full, and no other check fails."""
    from coincalc import cli

    table = rebuilt(db)
    table.memo(("boundary_kernel", "R", 7, 3), None,
               lambda _: table.pi_sphere(7, 3).trivial_subgroup())
    table.memo(("boundary_kernel", "R", 9, 6), None,
               lambda _: table.pi_sphere(9, 6).whole_subgroup())
    assert [c for c in cli._run_db_checks(table) if c["status"] == "fail"] == [
        {"check": "exactness", "instance": "(K=R, m=7, n'=3)", "status": "fail",
         "detail": "im(p_*) = C2 but ker(boundary) = 0"},
        {"check": "stable-kernel", "instance": "(9,6)", "status": "fail",
         "detail": "kernel has 24 elements, enumeration gives 2"},
        {"check": "case-exclusivity", "instance": "(K=R, m=9, n'=6)", "status": "fail",
         "detail": "identity (i) fails: ker is not inside ker_susp"},
    ]


def test_validate_db_human_output_prints_one_line_per_check(capsys):
    code, out = run(capsys, "validate-db")
    _, doc, _ = run_machine(capsys, "validate-db")
    assert code == EXIT_OK
    lines = out.splitlines()
    assert lines[:2] == ["status: ok", "record_invariants: ok"]
    assert lines[-2:] == ["failed: 0", "passed: True"]
    checks = lines[2:-2]
    assert len(checks) == 453
    assert checks[0] == "  exactness (K=R, m=3, n'=3): ok (im(p_*) = ker(boundary) = Z)"
    assert checks == [f"  {c['check']} {c['instance']}: {c['status']} ({c['detail']})"
                      for c in doc["payload"]["checks"]]


# --- one loaded table per process ------------------------------------------------------------


def _count_builds(monkeypatch):
    """Forget the kept table and count the tables built from now on."""
    from coincalc import cli, homotopy_db

    monkeypatch.setattr(cli, "_loaded", None)
    built = []
    real = homotopy_db.build_database

    def build(raw):
        built.append(raw)
        return real(raw)

    monkeypatch.setattr(homotopy_db, "build_database", build)
    return built


def test_calls_on_the_same_file_share_one_table(capsys, tmp_path, db_doc, monkeypatch):
    built = _count_builds(monkeypatch)
    path = write_db(tmp_path, db_doc)
    assert run_machine(capsys, "--db", str(path), "pi-sphere", "--m", "9", "--n", "6")[0] == EXIT_OK
    assert run_machine(capsys, "--db", str(path), "validate-db")[0] == EXIT_OK
    assert len(built) == 1
    # a copy with the same bytes is the same table; other bytes are not
    copy = tmp_path / "copy.json"
    copy.write_bytes(path.read_bytes())
    assert run_machine(capsys, "--db", str(copy), "validate-db")[0] == EXIT_OK
    assert len(built) == 1
    path.write_bytes(path.read_bytes() + b"\n")
    assert run_machine(capsys, "--db", str(path), "validate-db")[0] == EXIT_OK
    assert len(built) == 2


def test_validate_db_reads_a_fault_written_between_calls(capsys, tmp_path, db_doc):
    path = write_db(tmp_path, db_doc)
    for _ in range(2):  # cold, then warm
        assert run_machine(capsys, "--db", str(path), "validate-db")[0] == EXIT_OK
    # (R, 6, 4) is unstable with even n', so no rule answers and a record
    # loads; [[1]] kills nothing and breaks case identity (ii).  A record
    # at a rule-answered cell, where the stable-kernel check could fail,
    # does not load
    db_doc["homs"].append({"kind": "boundary", "K": "R", "m": 6, "nprime": 4,
                           "matrix": [[1]], "provenance": "seeded fault"})
    write_db(tmp_path, db_doc)
    code, doc, _ = run_machine(capsys, "--db", str(path), "validate-db")
    assert code == EXIT_ERROR
    failed = [c for c in doc["payload"]["checks"] if c["status"] == "fail"]
    assert [(c["check"], c["instance"]) for c in failed] == [
        ("case-exclusivity", "(K=R, m=6, n'=4)")]
    assert "ker(A - 1)" in failed[0]["detail"]
    # a stable suspension record that is not the identity fails the load
    add_suspension_record(db_doc, 8, 5, [[2]])
    write_db(tmp_path, db_doc)
    code, doc, _ = run_machine(capsys, "--db", str(path), "validate-db")
    assert code == EXIT_ERROR
    assert "suspension (8,5)" in doc["message"]


def test_a_failed_load_is_not_kept(capsys, tmp_path, db_doc, monkeypatch):
    from coincalc import cli

    built = _count_builds(monkeypatch)
    good = write_db(tmp_path, db_doc, "good.json")
    assert run_machine(capsys, "--db", str(good), "validate-db")[0] == EXIT_OK
    bad = tmp_path / "bad.json"
    bad.write_text("{not json", "utf-8")
    code, doc, _ = run_machine(capsys, "--db", str(bad), "validate-db")
    assert code == EXIT_ERROR and "cannot read database" in doc["message"]
    assert doc["rule_trace"] == []  # nothing is noted before the load
    assert cli._loaded is None
    code, doc, _ = run_machine(capsys, "--db", str(good), "pi-sphere", "--m", "9", "--n", "6")
    assert code == EXIT_OK and doc["payload"]["group"]["torsion"] == [24]
    assert len(built) == 2


def test_validate_db_cold_and_warm_give_the_same_bytes(capsys, monkeypatch):
    """A second call on the kept table only compares memoized values: it
    builds no classifier, no direct sum, no group element, no subgroup and
    no kernel, and prints the same bytes."""
    from coincalc import cli
    from coincalc.abelian import FgAbGroup, GroupElement, GroupHom, Subgroup
    from coincalc.coincidence import ProjectiveClassifier

    monkeypatch.setattr(cli, "_loaded", None)
    monkeypatch.delenv(cli.ENV_DB, raising=False)
    cold = run_machine(capsys, "validate-db")
    kept = cli._loaded
    built = []
    for owner, name in ((ProjectiveClassifier, "__init__"), (FgAbGroup, "direct_sum"),
                        (GroupElement, "__post_init__"), (Subgroup, "__init__"),
                        (GroupHom, "kernel")):
        def counted(*args, real=getattr(owner, name), name=name, **kwargs):
            built.append(name)
            return real(*args, **kwargs)

        monkeypatch.setattr(owner, name, counted)
    warm = run_machine(capsys, "validate-db")
    assert built == []
    assert cli._loaded is kept
    assert cold[0] == warm[0] == EXIT_OK
    assert cold[2] == warm[2]
    assert len(warm[1]["payload"]["checks"]) == 453


def test_an_empty_db_path_is_unreadable(capsys, monkeypatch):
    from coincalc import cli

    monkeypatch.setattr(cli, "_loaded", None)
    monkeypatch.delenv(cli.ENV_DB, raising=False)
    code, doc, _ = run_machine(capsys, "--db", "", "pi-sphere", "--m", "9", "--n", "6")
    assert code == EXIT_ERROR
    assert doc["message"].startswith("cannot read database : ")
    assert cli._loaded is None


# --- KP(1) is the sphere S^d ----------------------------------------------------------

KP1_REFUSALS = {
    "pi": "pi_m(KP(n')) is computed for m, n' >= 2 only",
    "classifier": "the projective classification needs m, n' >= 2 "
                  "(KP(1) and m = 1 reduce to the sphere rules)",
}


def _kp1_tails(capsys, d, m):
    """Command heads and tails for every question about maps S^m -> S^d;
    the pairs are drawn from the zero class and the generators of pi_m."""
    code, doc, _ = run_machine(capsys, "pi-space", "--space", "sphere",
                               "--n", str(d), "--m", str(m))
    tails = [("pi-space",)] + [("filtration", "--q", q) for q in ("1", "2", "3", "inf")]
    if code == EXIT_OK:
        group = doc["payload"]["group"]
        ngens = group["free_rank"] + len(group["torsion"])
        classes = [",".join(str(int(i == j)) for j in range(ngens)) or "()"
                   for i in range(-1, ngens)]
        tails += [(cmd, "--f1", f1, "--f2", f2) for cmd in ("classify", "loose")
                  for f1 in classes for f2 in classes]
    return tails


def test_kp1_answers_as_its_sphere_from_m_2(capsys, db):
    # the golden corpus window: m up to the lift sphere S^{2d-1} plus stem_max
    for fam, d in (("rp", 1), ("cp", 2), ("hp", 4)):
        for m in range(1, 2 * d - 1 + db.range.stem_max + 1):
            for cmd, *rest in _kp1_tails(capsys, d, m):
                code, doc, _ = run_machine(capsys, cmd, "--space", fam, "--nprime", "1",
                                           "--m", str(m), *rest)
                if m == 1:
                    kind = "classifier" if cmd == "filtration" and rest[-1] != "1" else "pi"
                    assert (code, doc["message"]) == (EXIT_ERROR, KP1_REFUSALS[kind])
                    # the refused stage keeps the rule it entered
                    rules = ["projective-filtration-collapse"] if kind == "classifier" else []
                    assert doc["rule_trace"] == rules
                    continue
                s_code, s_doc, _ = run_machine(capsys, cmd, "--space", "sphere",
                                               "--n", str(d), "--m", str(m), *rest)
                if doc["status"] == "ok":
                    assert doc["payload"].pop("space")["family"] == fam
                    assert s_doc["payload"].pop("space")["family"] == "sphere"
                assert (code, doc) == (s_code, s_doc), (fam, m, cmd, rest)


# --- output discipline ------------------------------------------------------------------------


def test_machine_output_roundtrip_and_determinism(capsys):
    argv = ["classify", "--space", "rp", "--nprime", "6", "--m", "9",
            "--f1", "1", "--f2", "0"]
    code1, doc1, raw1 = run_machine(capsys, *argv)
    code2, doc2, raw2 = run_machine(capsys, *argv)
    assert raw1 == raw2  # identical bytes for identical requests
    # re-serialization reproduces the document exactly
    assert json.dumps(doc1, sort_keys=True, separators=(",", ":")) + "\n" == raw1


def test_human_output_mentions_rules(capsys):
    code, out = run(capsys, "filtration", "--space", "rp", "--nprime", "6",
                    "--m", "9", "--q", "2")
    assert code == EXIT_OK
    assert "rules:" in out
    assert "C2 in C24" in out


@pytest.mark.parametrize("target, block", [
    (("sphere", "--n", "3"), ["family: sphere", "n: 3", "dimension: 3"]),
    (("rp", "--nprime", "3"), ["family: rp", "K: R", "nprime: 3", "dimension: 3"]),
    (("cp", "--nprime", "2"), ["family: cp", "K: C", "nprime: 2", "dimension: 4"]),
    (("hp", "--nprime", "2"), ["family: hp", "K: H", "nprime: 2", "dimension: 8"]),
    # KP(1) is answered as its sphere but named as given
    (("cp", "--nprime", "1"), ["family: cp", "K: C", "nprime: 1", "dimension: 2"]),
    (("grassmann", "--r", "6"), ["family: grassmann", "r: 6", "dimension: 8"]),
])
def test_human_output_names_the_space_as_given_in_field_order(capsys, target, block):
    """Machine output sorts its keys; the human ``space:`` block keeps the
    payload's own order."""
    space, flag, value = target
    code, out = run(capsys, "pi-space", "--space", space, flag, value, "--m", "3")
    assert code == EXIT_OK
    lines = out.splitlines()
    assert lines[:len(block) + 3] == ["status: ok", "space: ",
                                      *("  " + line for line in block), "m: 3"]
