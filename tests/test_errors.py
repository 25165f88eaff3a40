import pickle

import pytest

from intent_bench import errors


def _subclasses(cls):
    for sub in cls.__subclasses__():
        yield sub
        yield from _subclasses(sub)


ERRORS = sorted([errors.IntentBenchError, *_subclasses(errors.IntentBenchError)], key=lambda c: c.__name__)

# constructor arguments of the errors that take more than a message
ARGS = {
    errors.NonMonotonicTimestamp: (12,),
    errors.NonNumericValue: (3,),
    errors.EmptyWindow: (7,),
    errors.ConstantWindow: ("skew",),
    errors.MissingPart: ("D6", "probs"),
}


def test_every_error_with_its_own_arguments_is_listed():
    assert {cls for cls in ERRORS if "__init__" in vars(cls)} == set(ARGS)


@pytest.mark.parametrize("cls", ERRORS, ids=lambda cls: cls.__name__)
def test_pickling_keeps_type_message_and_attributes(cls):
    # an error raised in a worker process reaches the caller pickled
    error = cls(*ARGS.get(cls, ("a message",)))
    back = pickle.loads(pickle.dumps(error))
    assert type(back) is cls
    assert str(back) == str(error)
    assert back.args == error.args
    assert vars(back) == vars(error)


def test_an_explicit_message_survives_pickling():
    back = pickle.loads(pickle.dumps(errors.NonMonotonicTimestamp(12, "row 12 of hits.csv goes back")))
    assert (str(back), back.row) == ("row 12 of hits.csv goes back", 12)
