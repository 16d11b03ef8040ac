"""The additive cost ledger: ``StepCost.__add__``.

Every backend returns a :class:`StepCost`, and every total in the
system — the agent's running ledgers, a round's ledgers, a fleet
report's — is a ``+`` fold of them.  Contracts under test:

* ``StepCost()`` is the identity and ``+`` is associative, so any
  grouping of a run of records sums to the same total (hypothesis);
* every field follows its rule: counters add, maps add key by key,
  per-array tuples add index by index with the shorter padded,
  ``shards`` takes the larger, ``noc`` the last routed topology and
  ``backend`` the first name set;
* a field whose rule this file does not state fails here, so a new
  cost counter cannot join the record without saying how it sums.
"""

import operator
from dataclasses import fields
from itertools import zip_longest

import pytest
from hypothesis import given, settings, strategies as st

from repro.backend import StepCost

#: The rule each field must follow, stated independently of the code.
RULES = {
    "backend": lambda a, b: a or b,
    "states": operator.add,
    "macs": operator.add,
    "layer_cycles": lambda a, b: {
        key: a.get(key, 0) + b.get(key, 0) for key in {**a, **b}
    },
    "shards": max,
    "shard_cycles": lambda a, b: tuple(
        x + y for x, y in zip_longest(a, b, fillvalue=0)
    ),
    "critical_path_cycles": operator.add,
    "merge_cycles": operator.add,
    "merge_hops": operator.add,
    "fill_drain_cycles": operator.add,
    "noc": lambda a, b: b if b != "flat" else a,
}

#: Per field: a non-default value, and that value added to itself.
DOUBLED = {
    "backend": ("systolic", "systolic"),
    "states": (3, 6),
    "macs": (7, 14),
    "layer_cycles": ({"CONV1": 5, "FC1": 2}, {"CONV1": 10, "FC1": 4}),
    "shards": (4, 4),
    "shard_cycles": ((1, 0, 2), (2, 0, 4)),
    "critical_path_cycles": (11, 22),
    "merge_cycles": (13, 26),
    "merge_hops": (17, 34),
    "fill_drain_cycles": (19, 38),
    "noc": ("ring", "ring"),
}

COUNTS = st.integers(0, 10**9)
STEP_COSTS = st.builds(
    StepCost,
    backend=st.sampled_from(["", "systolic", "sharded"]),
    states=COUNTS,
    macs=COUNTS,
    layer_cycles=st.dictionaries(
        st.sampled_from(["CONV1", "CONV2", "FC1", "FC2"]), COUNTS, max_size=4
    ),
    shards=st.integers(1, 8),
    shard_cycles=st.lists(COUNTS, max_size=8).map(tuple),
    critical_path_cycles=COUNTS,
    merge_cycles=COUNTS,
    merge_hops=COUNTS,
    fill_drain_cycles=COUNTS,
    noc=st.sampled_from(["flat", "ring", "mesh"]),
)


@settings(max_examples=200, deadline=None)
@given(a=STEP_COSTS, b=STEP_COSTS, c=STEP_COSTS)
def test_sum_is_a_monoid_and_follows_every_rule(a, b, c):
    zero = StepCost()
    assert zero + a == a and a + zero == a
    assert (a + b) + c == a + (b + c)
    total = a + b
    for f in fields(StepCost):
        rule = RULES[f.name]
        assert getattr(total, f.name) == rule(
            getattr(a, f.name), getattr(b, f.name)
        ), f.name
    assert total.total_cycles == a.total_cycles + b.total_cycles


@pytest.mark.parametrize("name", [f.name for f in fields(StepCost)])
def test_each_field_adds_by_its_rule(name):
    value, doubled = DOUBLED[name]
    cost = StepCost(**{name: value})
    total = cost + cost
    assert getattr(total, name) == doubled
    assert getattr(total, name) == RULES[name](value, value)
    # Every other field stays at its zero.
    for f in fields(StepCost):
        if f.name != name:
            assert getattr(total, f.name) == getattr(StepCost(), f.name)


def test_sum_folds_a_run_and_rejects_other_operands():
    costs = [StepCost(states=n, layer_cycles={"FC1": n}) for n in range(5)]
    assert sum(costs, StepCost()) == StepCost(states=10, layer_cycles={"FC1": 10})
    with pytest.raises(TypeError):
        StepCost() + 1
