import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from editcrf import cosine_tokens, jaro, levenshtein
from editcrf.metrics import cosine_many, jaro_many

short = st.text(alphabet="abcd ", max_size=8)
# Few distinct characters give many matches and transpositions; any text
# covers code points of every width.
jaro_text = st.text(alphabet="abc é\U0001d11e", max_size=14) | st.text(max_size=14)


def test_jaro_identity():
    assert jaro("katz", "katz") == 1.0
    assert jaro("", "") == 1.0


def test_jaro_no_matches():
    assert jaro("ab", "cd") == 0.0


def test_jaro_martha():
    assert jaro("MARTHA", "MARHTA") == pytest.approx(0.9444444444444445, abs=1e-12)


def test_jaro_known_value_dwayne():
    assert jaro("DWAYNE", "DUANE") == pytest.approx(0.8222222222222223, abs=1e-12)


def test_cosine_identical_token_multisets():
    assert cosine_tokens("a b a", "a a b") == pytest.approx(1.0, abs=1e-12)


def test_cosine_disjoint():
    assert cosine_tokens("a b", "c d") == 0.0


def test_cosine_half():
    assert cosine_tokens("a b", "a c") == pytest.approx(0.5, abs=1e-12)


def test_cosine_empty():
    assert cosine_tokens("", "a") == 0.0


def test_levenshtein_examples():
    assert levenshtein("abc", "abc") == 0
    assert levenshtein("", "abc") == 3
    assert levenshtein("kitten", "sitting") == 3


@settings(max_examples=300, deadline=None)
@given(jaro_text, jaro_text)
@example("", "")
@example("", "a")
@example("katz", "katz")
@example("a", "b")
@example("ab", "ba")
@example("abc", "bca")
@example("ab", "abc")
@example("aaaa", "aa")
@example("a", "abcdefghijklmnopqrstuvwxyza")
@example("martha", "marhtamarthamartha martha")
@example("café", "cafè")
@example("\U0001d11eab", "ab\U0001d11e")
@example("日本語", "本日語")
def test_jaro_many_equals_jaro_bit_for_bit(x, y):
    # Both orders, and each string against itself, in one block with a
    # longer string, so that both sides of a pair are padded.
    longer = x + y + "#"
    got = jaro_many([x, y, longer], [0, 1, 0, 1, 2], [1, 0, 0, 1, 2])
    expected = [jaro(x, y), jaro(y, x), jaro(x, x), jaro(y, y), 1.0]
    assert [v.hex() for v in got.tolist()] == [v.hex() for v in expected]


# Few words give repeated tokens and overlaps; case and separators fold.
cosine_text = st.lists(st.sampled_from(["ab", "AB", "b", "ba", "c", " ", "-", ", ", "é"]), max_size=8).map("".join)


@settings(max_examples=200, deadline=None)
@given(st.lists(cosine_text, min_size=1, max_size=5))
@example(["", ""])
@example(["a a b", "a b b", "c"])
def test_cosine_many_equals_cosine_tokens_bit_for_bit(texts):
    # Every ordered pair, each text against itself included.
    ia, ib = zip(*((a, b) for a in range(len(texts)) for b in range(len(texts))))
    got = cosine_many(texts, list(ia), list(ib))
    expected = [cosine_tokens(texts[a], texts[b]) for a, b in zip(ia, ib)]
    assert [v.hex() for v in got.tolist()] == [v.hex() for v in expected]


@settings(max_examples=200, deadline=None)
@given(short, short)
def test_symmetry(x, y):
    assert jaro(x, y) == pytest.approx(jaro(y, x), abs=1e-12)
    assert cosine_tokens(x, y) == pytest.approx(cosine_tokens(y, x), abs=1e-12)
    assert levenshtein(x, y) == levenshtein(y, x)


@settings(max_examples=150, deadline=None)
@given(short, short)
def test_ranges(x, y):
    assert 0.0 <= jaro(x, y) <= 1.0
    assert 0.0 <= cosine_tokens(x, y) <= 1.0 + 1e-12
    assert levenshtein(x, y) <= max(len(x), len(y))


@settings(max_examples=100, deadline=None)
@given(short, short, short)
def test_levenshtein_triangle_inequality(x, y, z):
    assert levenshtein(x, z) <= levenshtein(x, y) + levenshtein(y, z)
