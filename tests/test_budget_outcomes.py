"""The word budget's charge per word, pinned by outcome.

Each case runs one bounded enumeration under ``ALGCERT_MAX_WORDS`` = 1, ...,
59, 100, 200, 400, 800 and 1600:

- theorems 1 and 2 and lemmas 2, 3 and 5 on M3 flip over Q, M4 transpose
  over F_101 and example2 at D = 3 over Q;
- the word oracle on M3 flip, once per structure;
- theorem 2's alternating corner products on two inputs in M3.

An outcome is the result (the verdict, the oracle's ranks or the labels of
the corner products) or, when the budget runs out, the error's count and
budget and the function that charged the last word: the frame that called
``WordBudget.tick``, innermost in the traceback. The pinned cases make each
charge site raise: the witness search's words (``__init__`` and ``level``
of ``_WordLevels``), lemma 3's monomials, the corner products and the
oracle.

The outcomes are committed in ``budget_outcomes.json``. A change that alters
them on purpose rewrites the file with
``PYTHONPATH=src:tests python tests/test_budget_outcomes.py`` and lists the
changed cases.
"""

import argparse
import functools
import json
import sys
from pathlib import Path

import pytest

from algcert import instances
from algcert.certificates import CLAIMS, _alternating_products
from algcert.closure import word_oracle
from algcert.errors import BudgetExceededError
from algcert.linalg import QQ, PrimeField
from helpers import assoc_gens, elem, lie_gens, pair_gens

OUTCOMES = Path(__file__).with_name("budget_outcomes.json")
BUDGETS = [*range(1, 60), 100, 200, 400, 800, 1600]
BUILDERS = {
    "m3-flip-Q": lambda: instances.build_matrix_algebra(3, QQ, "flip"),
    "m4-transpose-Fp101": lambda: instances.build_matrix_algebra(4, PrimeField(101), "transpose"),
    "example2-D3-Q": lambda: instances.build_example2(3, QQ),
    "m3-Q": lambda: instances.build_matrix_algebra(3, QQ),
}
SITES = {
    "__init__", "level", "_distinct_index_monomials", "_alternating_products",
    "_oracle_lie", "_oracle_assoc", "_oracle_pair",
}


@functools.lru_cache(maxsize=None)
def _presentation(name):
    return BUILDERS[name]()


def _claim(name, claim):
    opts = argparse.Namespace(seed=0, cap=6)
    return lambda: CLAIMS[claim](_presentation(name), opts).verdict


def _oracle(gens, max_len):
    def run():
        P = _presentation("m3-flip-Q")
        span = word_oracle(P, gens(P), max_len)
        return [s.rank for s in span] if isinstance(span, tuple) else [span.rank]
    return run


def _corners(outer, inner):
    def run():
        P = _presentation("m3-Q")
        pairs = [[(s, elem(P, dict.fromkeys(s.split("+"), 1))) for s in side]
                 for side in (outer, inner)]
        return [label for label, _ in _alternating_products(P, *pairs, 5, P.dim)]
    return run


WORDS = ["E12", "E21", "E23", "E32"]
CASES = {
    **{
        f"{name}/{claim}": _claim(name, claim)
        for name in ("m3-flip-Q", "m4-transpose-Fp101", "example2-D3-Q")
        for claim in ("thm1", "thm2", "lemma2", "lemma3", "lemma5")
    },
    "oracle/lie": _oracle(lambda P: lie_gens(P, WORDS), 5),
    "oracle/associative": _oracle(lambda P: assoc_gens(P, WORDS), 4),
    **{
        f"oracle/{kind}": _oracle(lambda P, kind=kind: pair_gens(P, kind, ["E12", "E13"], ["E21"]), 7)
        for kind in ("assoc-pair", "jordan-pair")
    },
    "corner/one-outer": _corners(["E12+E23+E31"], ["E11+E32", "E22"]),
    "corner/two-outer": _corners(["E12+E31", "E23+E11"], ["E21+E33", "E32"]),
}


def _outcome(run):
    try:
        return run()
    except BudgetExceededError as exc:
        tb = exc.__traceback__
        while tb.tb_next is not None and tb.tb_next.tb_frame.f_code.co_name != "tick":
            tb = tb.tb_next
        return {"count": exc.count, "budget": exc.budget, "site": tb.tb_frame.f_code.co_name}


def _outcomes(case, setenv):
    out = {}
    for budget in BUDGETS:
        setenv("ALGCERT_MAX_WORDS", str(budget))
        out[str(budget)] = _outcome(CASES[case])
    return out


PINNED = json.loads(OUTCOMES.read_text()) if OUTCOMES.exists() else {}


@pytest.mark.parametrize("case", sorted(CASES))
def test_budget_outcome(case, monkeypatch):
    assert _outcomes(case, monkeypatch.setenv) == PINNED[case]


def test_every_charge_site_raises():
    assert sorted(PINNED) == sorted(CASES)
    raised = {o["site"] for row in PINNED.values() for o in row.values() if isinstance(o, dict)}
    assert raised == SITES


if __name__ == "__main__":
    import os

    pinned = {case: _outcomes(case, os.environ.__setitem__) for case in sorted(CASES)}
    del os.environ["ALGCERT_MAX_WORDS"]
    OUTCOMES.write_text(json.dumps(pinned, indent=1, sort_keys=True) + "\n")
    print(f"wrote {len(pinned)} cases to {OUTCOMES}", file=sys.stderr)
