"""Section 8, "Formal verification" — the model-checked invariants.

The paper specifies the ownership and reliable-commit protocols in TLA+
and model-checks them under crash-stop failures, message reordering and
duplication.  Here the implementation itself is what gets checked:

* the real ownership and commit managers are explored **exhaustively** by
  the explicit-state checker (every interleaving of deliveries, timers,
  one crash and its view change on the small adversarial scenarios of
  ``repro.verify.exhaustive``), and
* the full stack runs a randomized sweep of audited fault cells
  (``repro.chaos.explore``: constant loss/duplication/reordering plus a
  seeded crash-stop draw), checking the same invariants every 200 us
  mid-flight and every audit, the history check included, after the drain.
"""

from repro.chaos import explore
from repro.harness.tables import format_table, save_result
from repro.verify import SCENARIOS, check_protocol


def test_verification_exhaustive_and_explorer(once):
    def experiment():
        checked = {name: check_protocol(scenario)
                   for name, scenario in SCENARIOS.items()}
        swept = explore(seeds=12)
        return checked, swept

    checked, swept = once(experiment)
    print()
    print(format_table(
        ["scenario", "states", "transitions", "result"],
        [(name, result.states_explored, result.transitions,
          "OK" if result.ok else result.violation)
         for name, result in checked.items()],
        title="Exhaustive check of the real managers (paper: TLA+/TLC)"))
    print(f"implementation sweep — {swept.summary()}")
    save_result("verification", {
        "states": {name: result.states_explored
                   for name, result in checked.items()},
        "explorer_histories": len(swept.runs),
        "explorer_violations": swept.problems(),
    })

    for name, result in checked.items():
        assert result.ok and not result.truncated, (name, result)
    assert swept.ok, swept.problems()
