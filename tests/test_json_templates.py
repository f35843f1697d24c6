"""The JSON a live miss writes, checked against json.dumps.

A cache key, a cache line and a request body are each built by filling a
fixed template with json's own string encoders. Each must be the text
json.dumps writes for the same value, for every string and number,
including strings that are not valid Unicode: those must fail at UTF-8
encoding on both sides alike.
"""

import hashlib
import json
import math

from hypothesis import given
from hypothesis import strategies as st

from dravlid.cache import CacheRecord, cache_key
from dravlid.transport import ChatRequest

# What a string encoder escapes, or might: quotes, backslashes, control
# characters, line and paragraph separators, non-ASCII, lone surrogates.
SPECIAL = ['"', "\\", "/", "\x00", "\x1f", "\t", "\n", "\r", "\x7f", "\u2028", "\u2029",
           "\xe9", "\u0cae", "\U0001f600", "\ud800", "\udcff"]
STRINGS = st.text(st.one_of(st.characters(), st.sampled_from(SPECIAL)), max_size=12)
# Numbers whose JSON text differs from a naive formatting; every test
# tries each of them beside the number it draws.
FIXED_NUMBERS = (-0.0, 0.0, 1, 1.0, 2.0, 5e-324, 1e308, 0.7, 0.1 + 0.2,
                 math.nan, math.inf, -math.inf, True)
NUMBERS = st.one_of(st.floats(), st.integers(), st.booleans())


def utf8(text: str):
    """text's UTF-8 bytes, or the type of the error encoding raised."""
    try:
        return text.encode("utf-8")
    except UnicodeEncodeError as exc:
        return type(exc)


def outcome(fn, *args):
    """fn's result, or the type of the error it raised."""
    try:
        return fn(*args)
    except Exception as exc:
        return type(exc)


def reference_key(model_id, temperature, prompt) -> str:
    payload = json.dumps(
        {"model": model_id, "temperature": float(temperature), "prompt": prompt},
        sort_keys=True, separators=(",", ":"), ensure_ascii=False,
    )
    return hashlib.sha256(payload.encode("utf-8")).hexdigest()


@given(model_id=STRINGS, temperature=NUMBERS, prompt=STRINGS)
def test_cache_key_hashes_the_json_dumps_payload(model_id, temperature, prompt):
    for t in (*FIXED_NUMBERS, temperature):
        expected = outcome(reference_key, model_id, t, prompt)
        assert outcome(cache_key, model_id, t, prompt) == expected


@given(fields=st.tuples(STRINGS, STRINGS, NUMBERS, STRINGS, STRINGS, STRINGS))
def test_cache_line_is_the_json_dumps_of_its_fields(fields):
    key, model_id, temperature, prompt, raw, created_at = fields
    for t in (*FIXED_NUMBERS, temperature):
        record = CacheRecord(key, model_id, t, prompt, raw, created_at)
        expected = json.dumps(
            {"cache_key": key, "model_id": model_id, "temperature": t,
             "prompt": prompt, "raw_response": raw, "created_at": created_at},
            ensure_ascii=False, sort_keys=True,
        )
        line = record.to_json_line()
        assert line == expected
        assert utf8(line) == utf8(expected)


@given(model_id=STRINGS, temperature=NUMBERS, max_tokens=st.integers(), message=STRINGS)
def test_request_body_is_the_json_dumps_of_the_request(model_id, temperature, max_tokens,
                                                      message):
    if not message:
        message = "x"  # a request needs a message
    for t in (*FIXED_NUMBERS, temperature):
        request = ChatRequest(model_id, t, max_tokens, message)
        expected = utf8(json.dumps({
            "model": model_id, "temperature": t, "max_tokens": max_tokens,
            "messages": [{"role": "user", "content": message}],
        }))
        assert request.to_wire() == expected
