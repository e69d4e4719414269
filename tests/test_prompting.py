import json
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from radstyle.errors import InputError
from radstyle.prompting import (INSTRUCTION, SYSTEM_PROMPT, PromptMessage,
                                StylePair, build_prompt,
                                derive_selection_seed, select_examples,
                                wire_messages)

DATA = Path(__file__).parent / "data"

GOLDEN_EXAMPLES = [
    StylePair("lungs clear. no effusion",
              "The lungs are clear. There is no pleural effusion."),
    StylePair("findings: cardiac silhouette enlarged. "
              "impression: maybe cardiomegaly",
              "FINDINGS: The cardiac silhouette is enlarged. "
              "IMPRESSION: Possible cardiomegaly."),
]
GOLDEN_EVAL = "findings: no edema. impression: no acute disease"


def make_pairs(n):
    return [StylePair(f"keywords {i}", f"report {i}") for i in range(n)]


def test_exact_template_strings():
    assert SYSTEM_PROMPT == ("You are a helpful assistant that generates "
                             "chest x-ray reports from key words.")
    assert INSTRUCTION == ("Generate a chest x-ray report from the "
                           "following key words:")


@pytest.mark.parametrize("k", [0, 1, 2, 5, 10])
def test_chain_shape(k):
    chain = build_prompt(make_pairs(k), "eval text")
    assert chain.k == k
    assert len(chain.messages) == 2 + 2 * k
    assert chain.messages[0] == PromptMessage("system", SYSTEM_PROMPT)
    for i, msg in enumerate(chain.messages[1:], start=1):
        assert msg.role == ("user" if i % 2 == 1 else "assistant")
    assert chain.messages[-1].content == f"{INSTRUCTION}\neval text"


def test_examples_carried_in_order():
    pairs = make_pairs(3)
    chain = build_prompt(pairs, "eval")
    for i, pair in enumerate(pairs):
        user = chain.messages[1 + 2 * i]
        assistant = chain.messages[2 + 2 * i]
        assert user.content == f"{INSTRUCTION}\n{pair.serialization}"
        assert assistant.content == pair.report


def test_empty_fields_rejected():
    with pytest.raises(InputError, match="evaluation serialization"):
        build_prompt([], "   ")
    with pytest.raises(InputError, match="example 1"):
        build_prompt([StylePair("ok", "ok"), StylePair("  ", "r")], "eval")
    with pytest.raises(InputError, match="example 0"):
        build_prompt([StylePair("s", "")], "eval")


def test_select_examples_reproducible():
    pool = make_pairs(20)
    a = select_examples(pool, 5, seed=123)
    b = select_examples(pool, 5, seed=123)
    assert a == b
    assert select_examples(pool, 5, seed=124) != a
    assert len({p.serialization for p in a}) == 5
    assert all(p in pool for p in a)


# Draws made by the implementation that sampled from a copy of the pool;
# sampling the sequence in place must not change them.
@pytest.mark.parametrize("seed, expected", [
    (0, [24, 48, 26, 2, 16, 32, 31, 25, 19, 30]),
    (7, [20, 9, 25, 41, 3, 4, 34, 6, 23, 37]),
    (2 ** 63 - 1, [20, 42, 40, 8, 31, 29, 6, 30, 37, 17]),
])
@pytest.mark.parametrize("container", [list, tuple])
def test_select_examples_draws_are_pinned(container, seed, expected):
    pool = container(make_pairs(50))
    for k in (1, 5, 10):
        assert select_examples(pool, k, seed) == [pool[i]
                                                  for i in expected[:k]]


def test_select_examples_bounds():
    pool = make_pairs(3)
    assert select_examples(pool, 0, seed=0) == []
    with pytest.raises(InputError, match="exceeds pool size"):
        select_examples(pool, 4, seed=0)
    with pytest.raises(InputError):
        select_examples(pool, -1, seed=0)


@given(st.integers(-2 ** 70, 2 ** 70), st.integers(0, 4))
@settings(max_examples=60, deadline=None)
def test_select_examples_draws_nothing_for_zero_shots(seed, size):
    pool = make_pairs(size)
    assert select_examples(pool, 0, seed) == []
    with pytest.raises(InputError, match="must be non-negative, got -1"):
        select_examples(pool, -1, seed)
    with pytest.raises(InputError, match=f"k={size + 1} exceeds pool size"):
        select_examples(pool, size + 1, seed)


def test_derive_selection_seed_stable_and_distinct():
    seed = derive_selection_seed(0, 5, "s0001")
    assert seed == derive_selection_seed(0, 5, "s0001")
    others = {derive_selection_seed(0, 1, "s0001"),
              derive_selection_seed(1, 5, "s0001"),
              derive_selection_seed(0, 5, "s0002")}
    assert seed not in others
    assert len(others) == 3


def test_wire_round_trip():
    chain = build_prompt(make_pairs(2), "eval")
    wire = wire_messages(chain)
    assert wire[0] == {"role": "system", "content": SYSTEM_PROMPT}
    assert wire == [json.loads(m.wire_json) for m in chain.messages]


def test_golden_k2_prompt_bytes():
    chain = build_prompt(GOLDEN_EXAMPLES, GOLDEN_EVAL)
    payload = json.dumps({"k": chain.k, "messages": wire_messages(chain)},
                         indent=2) + "\n"
    golden = (DATA / "prompt_k2.json").read_text(encoding="utf-8")
    assert payload == golden


@given(st.integers(min_value=0, max_value=10),
       st.integers(min_value=0, max_value=2 ** 31 - 1))
@settings(max_examples=60, deadline=None)
def test_chain_shape_property(k, seed):
    pool = make_pairs(10)
    chain = build_prompt(select_examples(pool, k, seed), "eval")
    assert chain.k == k
    assert [m.role for m in chain.messages] == (
        ["system"] + ["user", "assistant"] * k + ["user"])


# Non-blank text: quotes, backslashes, newlines and non-ASCII included.
_TEXT = st.text(max_size=12).map(lambda text: "x" + text)


@given(pool=st.lists(st.tuples(_TEXT, _TEXT), min_size=1, max_size=8),
       evals=st.lists(_TEXT, min_size=1, max_size=4),
       k=st.integers(0, 8), seed=st.integers(0, 2 ** 32))
@settings(max_examples=60, deadline=None)
def test_build_prompt_matches_a_message_by_message_oracle(pool, evals, k,
                                                          seed):
    pairs = [StylePair(ser, rep) for ser, rep in pool]
    k = min(k, len(pairs))
    for i, text in enumerate(evals):
        examples = select_examples(pairs, k, seed + i)
        chain = build_prompt(examples, text)
        oracle = [{"role": "system", "content": SYSTEM_PROMPT}]
        for pair in examples:
            oracle.append({"role": "user",
                           "content": INSTRUCTION + "\n" + pair.serialization})
            oracle.append({"role": "assistant", "content": pair.report})
        oracle.append({"role": "user", "content": INSTRUCTION + "\n" + text})
        assert wire_messages(chain) == oracle
        assert [m.wire_json for m in chain.messages] == [
            json.dumps(m) for m in oracle]
        # The chain holds each example's own message objects, so chains
        # that draw the same example share them.
        for j, pair in enumerate(examples):
            assert chain.messages[1 + 2 * j] is pair.messages[0]
            assert chain.messages[2 + 2 * j] is pair.messages[1]
