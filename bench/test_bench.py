"""Tests of the benchmark itself: oracle, span arithmetic, row accounting."""

import json
import random
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import oracle  # noqa: E402
import run  # noqa: E402

ABC_D2 = """\
n,squarefree_norm,squarefull_norm,norm_total,squarefull_log_share,quality,factor_status
1,2,1,2,0,1.77155330316,complete
2,1,4,4,1,2.54310660633,complete
3,14,1,14,0,1.02793404163,complete
4,1,32,32,1,5.08621321265,complete
# schema_version=1
# n_max=4
"""

PRATIONAL_D13 = """\
p,verdict,reason,witnesses
3,excluded,below_p0,""
5,excluded,below_p0,""
7,excluded,below_p0,""
11,excluded,below_p0,""
13,excluded,ramified,""
17,p_rational,,"17:1;17:1"
19,p_rational,,"361:1"
23,p_rational,,"23:1;23:1"
29,p_rational,,"29:1;29:1"
31,p_rational,,"961:1"
37,p_rational,,"1369:1"
41,p_rational,,"1681:1"
43,p_rational,,"43:1;43:1"
47,p_rational,,"2209:1"
53,p_rational,,"53:1;53:1"
59,p_rational,,"3481:1"
# schema_version=1
# X=60
"""

WIEFERICH_D2 = """\
n,phi_ok,cyclo_norm,factor_status,prime,residue_degree,ideal_norm,root,order_is_n,wieferich_ok,coprime_to_n,status,reason
1,true,4,complete,,,,,false,false,false,no_qualifying_prime,
2,true,8,complete,,,,,false,false,false,no_qualifying_prime,
3,true,49,complete,7,1,7,10,true,true,true,success,
4,true,36,complete,3,2,9,,true,true,true,success,
5,true,1681,complete,41,1,41,58,true,true,true,success,
6,false,25,,,,,,false,false,false,skipped,phi_condition
7,true,57121,complete,239,1,239,338,true,true,true,success,
8,true,1156,complete,17,1,17,45,true,true,true,success,
# schema_version=1
# power=2
"""

WIEFERICH_MINPOLY = """\
n,phi_ok,cyclo_norm,factor_status,prime,residue_degree,ideal_norm,root,order_is_n,wieferich_ok,coprime_to_n,status,reason
1,true,7,complete,7,1,7,22,true,true,true,success,
2,true,5,complete,,,,,false,false,false,no_qualifying_prime,
3,true,19,complete,19,1,19,106,true,true,true,success,
4,true,25,complete,,,,,false,false,false,no_qualifying_prime,
5,true,671,complete,11,1,11,16,true,true,true,success,
6,false,37,,,,,,false,false,false,skipped,phi_condition
7,true,19264,complete,43,1,43,1755,true,true,true,success,
8,true,833,complete,17,1,17,87,true,true,true,success,
# schema_version=1
# power=6
"""


# Payloads the program printed for small inputs, with the matching oracle check.
CASES = {
    "abc": (ABC_D2, lambda p: oracle.check_abc(p, 2, 4)),
    "prational": (PRATIONAL_D13, lambda p: oracle.check_prational(p, 13, 60, random.Random(0), 100)),
    "wieferich": (WIEFERICH_D2, lambda p: oracle.check_wieferich(p, 8, d=2)),
    "minpoly": (WIEFERICH_MINPOLY, lambda p: oracle.check_wieferich(p, 8, minpoly=(-1, -1, 0, 1))),
}


TAMPERED = [
    ("abc", "3,14,1,14,", "3,14,1,15,"),                      # norm_total
    ("abc", "4,1,32,32,", "4,2,32,32,"),                      # squarefree * squarefull
    ("prational", "13,excluded,ramified", "13,excluded,below_p0"),
    ("prational", "17,p_rational,", "17,non_p_rational,"),
    ("prational", '19,p_rational,,"361:1"', '19,p_rational,,"19:1;19:1"'),
    ("prational", "59,p_rational", "61,p_rational"),           # rows are not the primes
    ("wieferich", "7,true,57121,", "7,true,57122,"),           # cyclo_norm
    ("wieferich", "41,1,41,58,", "41,1,41,59,"),               # root
    ("wieferich", "3,2,9,,", "3,1,3,5,"),                      # degree of an inert prime
    ("minpoly", "43,1,43,1755,", "43,1,43,1756,"),
    ("minpoly", "8,true,833,", "8,true,834,"),
]


@pytest.mark.parametrize("name", sorted(CASES))
def test_oracle_accepts_program_output(tmp_path, name):
    text, check = CASES[name]
    path = tmp_path / "payload.csv"
    path.write_text(text)
    check(path)


@pytest.mark.parametrize("name,old,new", TAMPERED)
def test_oracle_rejects_tampered_row(tmp_path, name, old, new):
    text, check = CASES[name]
    assert old in text
    path = tmp_path / "payload.csv"
    path.write_text(text.replace(old, new))
    with pytest.raises(oracle.OracleError):
        check(path)


def test_oracle_partial_rows_are_reported_not_rejected(tmp_path):
    path = tmp_path / "payload.csv"
    path.write_text(ABC_D2.replace("4,1,32,32,1,5.08621321265,complete", "4,1,1,32,,,partial"))
    assert oracle.check_abc(path, 2, 4) == [4]


def test_self_time_on_hand_built_tree():
    tree = [
        ("root", 0.0, 10.0, -1, 0),
        ("a", 1.0, 4.0, 0, 0),
        ("b", 3.0, 6.0, 0, 0),     # overlaps a: the union [1, 6] is covered once
        ("c", 2.0, 3.0, 1, 0),
        ("a", 7.0, 8.0, 0, 0),
        ("root", 20.0, 25.0, -1, 1),
        ("a", 24.0, 26.0, 5, 1),   # sticks out of its parent: only [24, 25] counts
    ]
    assert run.self_times(tree) == pytest.approx([4.0, 2.0, 3.0, 1.0, 1.0, 4.0, 2.0])
    totals = run.layer_totals(tree)
    assert totals["root"] == {"calls": 2, "self_s": pytest.approx(8.0)}
    assert totals["a"] == {"calls": 3, "self_s": pytest.approx(5.0)}


def _outcome(code, cpu_s=1.0, probe_s=run.PROBE_REF_S):
    return run.Outcome(wall_s=1.0, cpu_s=cpu_s, rss_mb=1.0, code=code, payload=Path("x"), probe_s=probe_s)


def test_typical_sums_each_commands_median_scaled_time():
    slow = 2 * run.PROBE_REF_S   # probes took twice as long: the CPU ran at half speed
    passes = [
        [_outcome(0, 3.0), _outcome(0, 1.0)],
        [_outcome(0, 4.0, slow), _outcome(0, 1.5)],
        [_outcome(0, 2.5), _outcome(0, 3.0, slow)],
    ]
    assert passes[1][0].scaled_s == pytest.approx(2.0)
    assert run.typical(passes) == pytest.approx(2.5 + 1.5)


def test_failed_share_counts_a_crash_as_lost_rows():
    commands = [run.Command(("a",), 110, None), run.Command(("b",), 100, None), run.Command(("c",), 60, None)]
    ok = [_outcome(0), _outcome(0), _outcome(0)]
    assert run.failed_rows(commands, ok, [[63], [], []]) == (270, 1)
    crashed = [_outcome(0), _outcome(1), _outcome(0)]
    assert run.failed_rows(commands, crashed, [[63], [], []]) == (270, 101)


def test_declared_metrics_are_produced():
    with open(HERE.parent / "BENCHMARK.json") as fh:
        doc = json.load(fh)
    e2e = {m["name"] for m in doc["end_to_end"]}
    assert e2e == {"cold_s", "warm_s", "setup_s", "peak_rss_mb", "complete_share"}
    import traced_cli

    layers = set(traced_cli.LAYERS)
    counters = {"factorint.factor.partial", "factorint.factor.repeat_calls", "cli.FactorCache.lookup.hits"}
    for m in doc["per_layer"]:
        layer, stat = m["name"].rsplit(".", 1)
        assert m["name"] in counters or m["name"].startswith("trace.") or (
            layer in layers and stat in ("calls", "self_s")
        ), m["name"]
