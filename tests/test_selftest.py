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


def test_words_suite_catches_an_over_pruning_search(monkeypatch):
    free_need, net_need = words._free_need, words._net_need
    monkeypatch.setattr(words, "_free_need", lambda prefix, target: 2 * free_need(prefix, target))
    monkeypatch.setattr(words, "_net_need", lambda prefix, target: 2 * net_need(prefix, target))
    report = selftest.words_search_vs_naive(False, None)
    assert not report.ok
    assert any(failure.startswith("search_word_distance(") for failure in report.failures)

