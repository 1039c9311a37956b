from fiberdist.sampling import labels


def test_labels_stay_single_letters_up_to_26():
    assert labels(26) == list("abcdefghijklmnopqrstuvwxyz")


def test_labels_beyond_26_are_distinct():
    for n in (27, 100):
        names = labels(n)
        assert len(names) == n
        assert len(set(names)) == n
        assert names[:26] == labels(26)
