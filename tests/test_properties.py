"""Seeded property suites at reduced trial counts (full counts run in
test_acceptance.py and via the CLI `verify` subcommand)."""

import hashlib
import random
from fractions import Fraction

import pytest

from troplane import verify
from troplane.matrices import TropMatrix3
from troplane.normalform import make_L
from troplane.randgen import rand_fraction

TRIALS = 60


@pytest.mark.parametrize("name,fn", verify.SUITES)
def test_suite(name, fn):
    rng = random.Random(f"properties:{name}")
    failures = fn(rng, TRIALS)
    assert failures == [], f"{name}: {len(failures)} failures; first: " \
        f"{failures[0] if failures else ''}"


def test_run_all_is_seed_deterministic():
    first = verify.run_all(123, 5)
    second = verify.run_all(123, 5)
    assert first == second


# Every suite passes at these seeds except convexity at seed 10, so the
# passing runs share one repr and one digest.
_PASSING_DIGEST = "672b70837e84975d1861c5ed16b939f31dcc72cea584c037c35c04ac764a71ab"
RUN_ALL_DIGESTS = {seed: _PASSING_DIGEST for seed in range(12)}
RUN_ALL_DIGESTS[10] = "22f1b4bbfe88f3cb1b6406666261442236f2356b5a1f681c41ff60e569eb51de"


def test_run_all_output_is_pinned():
    """SHA-256 of repr(run_all(seed, 3)) for seeds 0-11, pinned so that a
    rewrite of the suites cannot change a message, a trial count or an RNG
    draw unseen.  Seed 10 records the false convexity claim; correcting it
    (ROADMAP item 2) changes that digest on purpose."""
    got = {seed: hashlib.sha256(repr(verify.run_all(seed, 3)).encode()).hexdigest()
           for seed in RUN_ALL_DIGESTS}
    assert got == RUN_ALL_DIGESTS


def test_per_trial_keeps_failures_in_trial_order():
    draws = []

    def check(rng):
        """Fail on every other draw."""
        draws.append(rng.randrange(1000))
        if len(draws) % 2 == 0:
            return f"trial {len(draws)} drew {draws[-1]}"
        return None

    suite = verify._per_trial(check)
    rng = random.Random("per-trial")
    failures = suite(rng, 7)

    by_hand = random.Random("per-trial")
    expected = []
    for i in range(1, 8):
        x = by_hand.randrange(1000)
        if i % 2 == 0:
            expected.append(f"trial {i} drew {x}")
    assert failures == expected
    assert rng.getstate() == by_hand.getstate()
    assert suite.__name__ == "check" and suite.__doc__ == check.__doc__


def test_semiring_failure_prints_scalar_literals(monkeypatch):
    # a broken product makes every trial fail; the message must print each
    # drawn scalar as its literal, -inf included, from the suite's draws
    monkeypatch.setattr(verify, "t_mul", lambda a, b: Fraction(1))
    failures = verify.suite_semiring_laws(random.Random("semiring"), 40)
    by_hand = random.Random("semiring")
    expected = []
    for _ in range(40):
        draws = [None if by_hand.random() < 0.15 else rand_fraction(by_hand)
                 for _ in range(3)]
        expected.append("semiring law failed on " + ", ".join(
            "-inf" if x is None else str(x) for x in draws))
    assert failures == expected
    assert any("-inf" in msg for msg in failures)


def test_counterexample_suite_reports_failures(monkeypatch):
    # mutation self-check: with make_L returning a corrupted canonical
    # matrix, every trial of the suites that compare with it must fail
    rows = [list(row) for row in make_L(2, (1, 1, 1)).values]
    rows[0][1] = 1  # corrupt one entry: positive slot breaks idempotency
    corrupted = TropMatrix3.of(rows)
    monkeypatch.setattr(verify, "make_L", lambda d, dv: corrupted)
    for suite in (verify.suite_sqrt_law, verify.suite_idempotency_criterion):
        failures = suite(random.Random("mutation"), TRIALS)
        assert len(failures) == TRIALS, suite.__name__
