import io

from fiberdist import cli, selftest, words


def test_raising_suite_is_a_failure_and_the_rest_still_run(monkeypatch, capsys):
    def boom():
        raise RuntimeError("planted")

    monkeypatch.setattr(selftest, "SUITES", [("boom", boom), ("fine", lambda: (True, "ok"))])
    out = io.StringIO()
    assert selftest.run_selftest(out=out) is False
    assert out.getvalue().splitlines() == [
        "FAIL boom: raised RuntimeError: planted",
        "PASS fine: ok",
        "FAIL overall",
    ]
    assert cli.main(["selftest"]) == 1
    assert capsys.readouterr().out.splitlines()[-1] == "FAIL overall"


def test_words_suite_catches_an_over_pruning_search(monkeypatch):
    free_need, net_need = words._free_need, words._net_need
    monkeypatch.setattr(words, "_free_need", lambda prefix, target: 2 * free_need(prefix, target))
    monkeypatch.setattr(words, "_net_need", lambda prefix, target: 2 * net_need(prefix, target))
    ok, detail = selftest.suite_words_search_vs_naive()
    assert not ok
    assert not detail.endswith(" 0 search/naive mismatches")
