"""The contract every value type keeps: immutable, compared and hashed by
its fields, a fixed repr, and a pickle round trip (verify's workers send
their rows to the parent pickled)."""

import pickle

import pytest


def check_value_contract(make, field, text):
    """`make()` builds a fresh value each call; `field` is one of its
    fields; `text` is its repr."""
    a, b = make(), make()
    assert a is not b
    assert a == b and hash(a) == hash(b)
    assert repr(a) == text
    back = pickle.loads(pickle.dumps(a))
    assert back == a and hash(back) == hash(a) and repr(back) == text
    with pytest.raises(AttributeError):
        setattr(a, field, getattr(b, field))
    with pytest.raises(AttributeError):
        delattr(a, field)
    with pytest.raises(AttributeError):
        a.extra = 1
    assert a == b


def check_message(build, message):
    """`build()` raises ValueError with exactly `message`."""
    with pytest.raises(ValueError) as info:
        build()
    assert str(info.value) == message
