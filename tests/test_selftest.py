import __future__
import inspect
import io

from fiberdist import cli, selftest, words
from fiberdist.selftest import CheckReport


def test_raising_suite_is_a_failure_and_the_rest_still_run(monkeypatch, capsys):
    def boom(full, fault):
        raise RuntimeError("planted")

    fine = lambda full, fault: CheckReport("fine", checked=1)
    checks = [selftest.Check("boom", "checks", boom), selftest.Check("fine", "checks", fine)]
    monkeypatch.setattr(selftest, "CHECKS", checks)
    out = io.StringIO()
    assert selftest.run_selftest(out=out) is False
    assert out.getvalue().splitlines() == [
        "FAIL boom: raised RuntimeError: planted",
        "PASS fine: 1 checks, 0 failures",
        "FAIL overall",
    ]
    assert cli.main(["selftest"]) == 1
    assert capsys.readouterr().out.splitlines()[-1] == "FAIL overall"


def _assert_words_suite_fails() -> None:
    report = selftest.words_search_vs_naive(False, None)
    assert not report.ok
    assert any(failure.startswith("search_word_distance(") for failure in report.failures)


def test_words_suite_catches_an_over_pruning_search(monkeypatch):
    # Every side's need over-counts both signs.  The mutant builds its own
    # prefix tables: it must not read tables built before it, nor leave its
    # own to later tests.
    monkeypatch.setattr(words, "_TABLES", words._TableCache())
    free_need, net_need = words._free_need, words._net_need
    double = lambda need: lambda prefix, target: tuple(2 * k for k in need(prefix, target))
    monkeypatch.setattr(words, "_free_need", double(free_need))
    monkeypatch.setattr(words, "_net_need", double(net_need))
    _assert_words_suite_fails()


def test_words_suite_catches_a_summed_joint_bound(monkeypatch):
    # A row spends a letter on both sides, so a pair of prefixes needs the
    # larger side's count per sign; this mutant adds the two sides' counts
    # in the DAG, the forest A* and the search.
    joint = "(lp if lp > rp else rp) + (lq if lq > rq else rq)"
    for name in ("_live_rows", "_shortest_witness", "_search"):
        source = inspect.getsource(getattr(words, name))
        assert joint in source
        mutated = source.replace(joint, "lp + rp + lq + rq")
        code = compile(mutated, words.__file__, "exec", __future__.annotations.compiler_flag)
        mutant: dict = {}
        exec(code, vars(words), mutant)
        monkeypatch.setattr(words, name, mutant[name])
    _assert_words_suite_fails()
