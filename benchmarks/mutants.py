"""Rerun the recorded mutants: deliberate one-edit faults that named tests
should catch.

Each mutant is one text edit of one file and the pytest ids that should
fail on it. The script unpacks HEAD with `git archive` into a temporary
directory and first runs the union of the named tests there unmutated: if
any fails, every mutant is reported as an error. Otherwise, for each mutant
in turn it replaces the old text (which must occur exactly once) with the
new, runs the named tests with `-x`, restores the file and prints

    killed     a named test failed;
    survived   every named test passed;
    error      pytest could not run the tests (exit code 2-5) or timed out.

A survivor listed in KNOWN_SURVIVORS is printed with its reason. The exit
status is 0 when every mutant is killed or a known survivor, 1 otherwise.
Standard library only; not part of Tier-1. Commit first, then run from the
git checkout as:

    python3 benchmarks/mutants.py
"""

import json
import os
import subprocess
import sys
import tempfile
import time
from pathlib import Path
from typing import NamedTuple

from ab import unpack

TIMEOUT_S = 240


class Mutant(NamedTuple):
    name: str
    path: str
    old: str
    new: str
    tests: tuple


CLI, CHANNELS = "src/qgeomcap/cli.py", "src/qgeomcap/channels.py"
CAPACITY, INFOGEO = "src/qgeomcap/capacity.py", "src/qgeomcap/infogeo.py"
ZEROERR = "src/qgeomcap/zeroerr.py"
T_CLI, T_CHANNELS = "tests/test_cli.py", "tests/test_channels.py"
T_CAPACITY, T_INFOGEO = "tests/test_capacity.py", "tests/test_infogeo.py"
T_ZEROERR = "tests/test_zeroerr.py"
VALIDATE_BAD = f"{T_CLI}::test_validate_rejects_bad_report"
CAPACITY_VALUES = f"{T_CLI}::test_validate_checks_capacity_values"
ZEROERR_VALUES = f"{T_CLI}::test_validate_checks_zeroerr_values"
PROVENANCE = f"{T_CLI}::test_validate_checks_the_provenance_of_every_report_type"
CYCLIC = f"{T_ZEROERR}::test_build_is_the_strong_power_on_cyclic_channels"


def _row_true(name, old, tests):
    """The mutant that makes the cli._RULES row whose text up to its rule's
    condition is old pass every value."""
    return Mutant(name, CLI, old, f"{old}True or ", tests)


def _key_dropped(key, keys):
    """The mutant that drops key from the keys that one generated run of
    cli._RULES rows is made for."""
    def text(ks):
        return f"for key in ({', '.join(map(json.dumps, ks))}{',' * (len(ks) == 1)})"
    return Mutant(f"capacity {key} rule dropped", CLI, text(keys),
                  text([k for k in keys if k != key]), (CAPACITY_VALUES,))


MUTANTS = [
    # confusability graphs as strong powers
    Mutant("one-use factor without the identity", ZEROERR,
           "    np.fill_diagonal(single, True)\n", "    np.fill_diagonal(single, False)\n",
           (CYCLIC, f"{T_ZEROERR}::test_adjacency_tol_rule",
            f"{T_ZEROERR}::test_two_use_graph_is_strong_product",
            f"{T_ZEROERR}::test_pairs_confusable_at_every_use_stay_confusable")),
    Mutant("cyclic read from the n-use matrix", ZEROERR,
           "    graph._cyclic = cyclic\n", "    graph._cyclic = _is_circulant(adjacency)\n",
           (CYCLIC, f"{T_ZEROERR}::test_flag_needs_a_circulant_table",
            f"{T_ZEROERR}::test_search_from_codeword_0_on_cyclic_channels")),
    Mutant("cyclic read before the diagonal is set", ZEROERR,
           "    np.fill_diagonal(single, True)\n    cyclic = _is_circulant(single)\n",
           "    cyclic = _is_circulant(single)\n    np.fill_diagonal(single, True)\n",
           (f"{T_ZEROERR}::test_build_is_the_strong_power_on_random_classical_channels",)),
    Mutant("final diagonal clear dropped", ZEROERR,
           "    np.fill_diagonal(adjacency, False)\n", "", (CYCLIC,)),
    Mutant("previous power replaced by ones", ZEROERR,
           "adjacency[None, :, None, :]", "np.ones_like(adjacency)[None, :, None, :]",
           (CYCLIC, f"{T_ZEROERR}::test_pentagon_two_uses")),
    Mutant("uses cap one higher", ZEROERR,
           "max_uses = MAX_VERTICES.bit_length() - 1", "max_uses = MAX_VERTICES.bit_length()",
           (f"{T_CLI}::test_zeroerr_one_input_uses_cap",)),
    Mutant("uses cap decided after m ** n_uses", ZEROERR,
           "    max_uses = MAX_VERTICES.bit_length() - 1\n",
           "    n_vertices = len(inputs) ** n_uses\n"
           "    max_uses = MAX_VERTICES.bit_length() - 1\n",
           (f"{T_CLI}::test_zeroerr_cap_exit_code",)),
    Mutant("self-loop check dropped", ZEROERR,
           "        if loops.any():\n", "        if False:\n",
           (f"{T_ZEROERR}::test_matrix_with_a_self_loop_or_not_square_rejected",)),
    Mutant("asymmetric pair not named", ZEROERR,
           "        if len(odd):\n", "        if False:\n",
           (f"{T_ZEROERR}::test_asymmetric_matrix_named_by_the_search",)),
    Mutant("zeroerr input stack cap dropped", ZEROERR,
           "    channels.check_stack_bytes(len(inputs), max(np.shape(inputs[0]), default=0), "
           '"input states")\n', "",
           (f"{T_ZEROERR}::test_input_stack_cap_enforced",)),
    Mutant("zeroerr builds the channel before reading the inputs", CLI,
           "    inputs = _read_inputs_csv(args.inputs_file)\n"
           "    ch = channels.build_channel(spec)\n",
           "    ch = channels.build_channel(spec)\n"
           "    inputs = _read_inputs_csv(args.inputs_file)\n",
           (f"{T_CLI}::test_zeroerr_reads_the_inputs_before_it_builds_the_channel",)),
    # seb_basic's certified stop and the shared enclosure scorer
    Mutant("(1 + eps) dropped from seb_basic's stop", INFOGEO,
           "if radius <= (1.0 + eps) * _dual_lower(", "if radius <= _dual_lower(",
           (f"{T_INFOGEO}::test_seb_basic_matches_the_centre_space_loop",
            f"{T_INFOGEO}::test_seb_basic_stops_at_a_certified_radius")),
    Mutant("_DUAL_SLACK dropped", INFOGEO,
           "return max(head - mix - _DUAL_SLACK * scale, 0.0)", "return max(head - mix, 0.0)",
           (f"{T_INFOGEO}::test_dual_lower_stays_below_the_rounded_enclosure",)),
    Mutant("start row left out of the counts", INFOGEO,
           "counts = {start: 1}", "counts = {}",
           (f"{T_INFOGEO}::test_seb_basic_matches_the_centre_space_loop",
            f"{T_INFOGEO}::test_seb_basic_running_scores_match_the_natural_loop")),
    Mutant("column cache kept through the confirming scan", INFOGEO,
           "                column.cache_clear()\n", "",
           (f"{T_INFOGEO}::test_seb_basic_memory_does_not_grow_with_the_rounds",)),
    Mutant("running stop test not loosened", INFOGEO,
           "m, slack = i + 1.0, unit * (i + d + 4)", "m, slack = i + 1.0, 0.0",
           (f"{T_INFOGEO}::test_seb_basic_matches_the_centre_space_loop",
            f"{T_INFOGEO}::test_seb_basic_stops_at_a_tight_factor",
            f"{T_INFOGEO}::test_seb_basic_stops_at_a_certified_radius")),
    Mutant("InfoBall without slots", INFOGEO,
           "@dataclass(slots=True)\nclass InfoBall:", "@dataclass\nclass InfoBall:",
           (f"{T_INFOGEO}::test_ball_answers_keep_few_bytes",)),
    Mutant("_farthest without its clamp", INFOGEO,
           "return idx, max(float(vals[idx]), 0.0)", "return idx, float(vals[idx])",
           (f"{T_INFOGEO}::test_farthest_reads_zero_where_rounding_puts_every_score_below_zero",)),
    Mutant("King's lower end on the unlowered chi", CAPACITY,
           "    lower = infogeo._dual_lower(_BLOCH, weights, ent, outs, theta, p_max)\n",
           "    lower = float(weights @ ent) - float(_BLOCH.F(weights @ outs))\n",
           (f"{T_CAPACITY}::test_king_pair_lower_end_below_the_exact_chi",)),
    Mutant("HSW lower end one ulp up", CAPACITY,
           "    upper = max(upper, lower)\n",
           "    lower = float(np.nextafter(lower, 2.0))\n    upper = max(upper, lower)\n",
           (f"{T_CLI}::test_readme_commands_match_their_golden_reports",)),
    Mutant("seb_basic's round cap one lower", INFOGEO,
           "n_iter = int(np.ceil(1.0 / (eps * eps)))",
           "n_iter = int(np.ceil(1.0 / (eps * eps))) - 1",
           (f"{T_CLI}::test_cmp_set_matches_its_golden_reports",)),
    # channels
    Mutant("apply with an unbounded chunk", CHANNELS,
           "chunk = max(1, _APPLY_CHUNK_BYTES // ", "chunk = max(1, len(flat), 0 * ",
           (f"{T_CHANNELS}::test_apply_bounds_the_kraus_products_it_holds",)),
    Mutant("check_stack_bytes never raises", CHANNELS,
           "    if nbytes > MAX_STACK_BYTES:\n", "    if False:\n",
           (f"{T_CHANNELS}::test_apply_refuses_an_output_stack_over_the_byte_cap",)),
    Mutant("Kraus completeness summed by einsum", CHANNELS,
           "comp = flat.conj().T @ flat",
           'comp = np.einsum("kji,kjl->il", self.kraus.conj(), self.kraus)',
           (f"{T_CHANNELS}::test_identity_at_the_largest_dimension_builds_in_under_a_second",)),
    # validate: its parse hooks, its crash fixes and each row of cli._RULES
    Mutant("validate without parse_constant", CLI,
           "parse_constant=_reject_constant, ", "",
           (f"{T_CLI}::test_validate_rejects_non_finite_numbers",)),
    Mutant("validate without parse_float", CLI,
           ", parse_float=_finite_float", "",
           (f"{T_CLI}::test_validate_rejects_non_finite_numbers",)),
    Mutant("report type looked up unhashed", CLI,
           "if not (isinstance(kind, str) and kind in _RULES):", "if kind not in _RULES:",
           (f"{T_CLI}::test_validate_names_a_type_that_is_an_array_or_object",)),
    Mutant("finite check by math.isfinite", CLI,
           "and abs(v) <= sys.float_info.max", "and math.isfinite(v)",
           (f"{T_CLI}::test_validate_names_an_int_too_large_for_a_double",)),
    Mutant("deep report read without the RecursionError catch", CLI,
           "except RecursionError:", "except ZeroDivisionError:",
           (f"{T_CLI}::test_validate_refuses_a_report_nested_too_deeply",)),
    Mutant("zeroerr bracket checked against a value", CLI,
           '_must("bracket", False, lambda v, d: False, "left out of a zeroerr report"),',
           '("bracket", False, lambda v, d: _bracket_fault(v, d["value"])),',
           (f"{T_CLI}::test_validate_refuses_a_bracket_in_a_zeroerr_report",)),
    Mutant("provenance rule true", CLI,
           '("provenance", True, _provenance_fault)', '("provenance", True, lambda v, d: None)',
           (PROVENANCE,)),
    _row_true("ball center rule true", '_must("center", True, lambda v, d: ', (VALIDATE_BAD,)),
    _row_true("ball algorithm rule true",
              '_must("algorithm", True, lambda v, d: ', (VALIDATE_BAD,)),
    _row_true("ball radius rule true", '_must("radius", True, lambda v, d: ', (VALIDATE_BAD,)),
    _row_true("ball n_points rule true", '_must("n_points", True, lambda v, d: ', (VALIDATE_BAD,)),
    Mutant("ball bracket row dropped", CLI,
           '        ("bracket", False, lambda v, d: _bracket_fault(v, d["radius"])),\n', "",
           (f"{T_CLI}::test_validate_rejects_bad_bracket",)),
    _row_true("capacity mode rule true", '_must("mode", True, lambda v, d: ', (CAPACITY_VALUES,)),
    *(_key_dropped(key, keys) for keys in [("value", "radius", "r_AB", "r_AE", "r_coh"),
                                           ("converged", "declared")] for key in keys),
    _row_true("capacity iterations rule true",
              '_must("iterations", False, lambda v, d: ', (CAPACITY_VALUES,)),
    Mutant("capacity bracket row dropped", CLI,
           '        ("bracket", False, lambda v, d: _bracket_fault(v, d["value"])),\n', "",
           (f"{T_CLI}::test_capacity_holevo_bracket_and_provenance",)),
    _row_true("zeroerr witness rule true",
              '_must("witness", True, lambda v, d: ', (ZEROERR_VALUES,)),
    Mutant("zeroerr repeated witness vertices allowed", CLI,
           " and len(set(v)) == len(v),", ",", (ZEROERR_VALUES,)),
    Mutant("zeroerr negative witness vertices allowed", CLI,
           "type(x) is int and x >= 0 for x in v", "type(x) is int for x in v", (ZEROERR_VALUES,)),
    _row_true("zeroerr K rule true", '("K", True, lambda v, d: None if ', (ZEROERR_VALUES,)),
    Mutant("zeroerr K not compared with the witness size", CLI,
           'v == len(d["witness"])', "v >= 0", (ZEROERR_VALUES,)),
    _row_true("zeroerr n_uses rule true", '_must("n_uses", True, lambda v, d: ', (ZEROERR_VALUES,)),
    Mutant("zeroerr n_uses 0 allowed", CLI,
           "v >= 1, \"an int >= 1\"", "v >= 0, \"an int >= 1\"",
           (ZEROERR_VALUES,)),
    _row_true("zeroerr normalized rule true",
              '_must("normalized", True, lambda v, d: ', (ZEROERR_VALUES,)),
    _row_true("zeroerr rate_bits rule true",
              '("rate_bits", True, lambda v, d: None if ', (ZEROERR_VALUES,)),
    Mutant("zeroerr rate not halved when normalized", CLI,
           'return 0.5 * rate if report["normalized"] else rate', "return rate",
           (f"{T_CLI}::test_validate_accepts_consistent_zeroerr_values",)),
    Mutant("zeroerr rate divided as a float", CLI,
           '* (1 / report["n_uses"])', '/ report["n_uses"]',
           (f"{T_CLI}::test_validate_accepts_consistent_zeroerr_values",)),
    Mutant("zeroerr bracket rule true", CLI,
           "lambda v, d: False,", "lambda v, d: True,",
           (f"{T_CLI}::test_validate_refuses_a_bracket_in_a_zeroerr_report",)),
]

KNOWN_SURVIVORS = {
    "running stop test not loosened":
        "even at the tight factor the running estimates pass every round that stops: "
        "_dual_lower's own lowering exceeds their rounding on every set tested",
}


def pytest(tree, tests):
    """(exit code, seconds, last line of output) of pytest on tests in tree;
    the exit code is None on a timeout."""
    t0 = time.perf_counter()
    try:
        # no bytecode: a mutated file and its restored text can share size and mtime
        proc = subprocess.run([sys.executable, "-m", "pytest", "-x", "-q", "-p",
                               "no:cacheprovider", *tests], cwd=tree, capture_output=True,
                              text=True, timeout=TIMEOUT_S,
                              env={**os.environ, "PYTHONDONTWRITEBYTECODE": "1"})
    except subprocess.TimeoutExpired:
        return None, time.perf_counter() - t0, f"timed out after {TIMEOUT_S} s"
    lines = proc.stdout.strip().splitlines()
    return (proc.returncode, time.perf_counter() - t0,
            lines[-1] if lines else proc.stderr.strip()[-200:])


def run_mutant(tree, mutant):
    """pytest on mutant's tests with mutant's edit made in tree, which is
    left as it was."""
    target = Path(tree, mutant.path)
    text = target.read_text()
    if text.count(mutant.old) != 1:
        return None, 0.0, f"old text occurs {text.count(mutant.old)} times"
    target.write_text(text.replace(mutant.old, mutant.new))
    try:
        return pytest(tree, mutant.tests)
    finally:
        target.write_text(text)


def main():
    failed = 0
    with tempfile.TemporaryDirectory() as tree:
        unpack("HEAD", tree)
        # a named test that fails without any edit would read as a kill
        named = sorted({test for m in MUTANTS for test in m.tests})
        baseline, seconds, last = pytest(tree, named)
        print(f"unmutated {seconds:6.1f} s  the {len(named)} named tests: {last}", flush=True)
        for mutant in MUTANTS:
            code, seconds, last = (run_mutant(tree, mutant) if baseline == 0 else
                                   (None, 0.0, "a named test fails on the unmutated tree"))
            verdict = {0: "survived", 1: "killed"}.get(code, "error")
            reason = KNOWN_SURVIVORS.get(mutant.name)
            if verdict == "survived" and reason:
                verdict = "survived (known)"
            else:
                failed += verdict != "killed"
            print(f"{verdict:17} {seconds:6.1f} s  {mutant.name}: {last}", flush=True)
            if verdict == "survived (known)":
                print(f"{'':27}{reason}")
    print(f"{len(MUTANTS)} mutants, {failed} neither killed nor a known survivor")
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
