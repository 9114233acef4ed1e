"""Section 8, "Formal verification" — the model-checked invariants.

The paper specifies the ownership and reliable-commit protocols in TLA+
and model-checks them under crash-stop failures, message reordering and
duplication.  Here the implementation itself is what gets checked:

* the real ownership and commit managers are explored **exhaustively** by
  the explicit-state checker (every interleaving of deliveries, timers,
  one crash and its view change on the small adversarial scenarios of
  ``repro.verify.exhaustive``), and
* the full stack runs under the randomized schedule explorer with
  loss/duplication/reordering and crash-stop faults, checking the same
  invariants during and after every history.
"""

from repro.harness.tables import format_table, save_result
from repro.verify import SCENARIOS, ExplorerConfig, check_protocol, explore


def test_verification_exhaustive_and_explorer(once):
    def experiment():
        checked = {name: check_protocol(scenario)
                   for name, scenario in SCENARIOS.items()}
        swept = explore(seeds=12, cfg=ExplorerConfig(txns_per_node=12))
        return checked, swept

    checked, swept = once(experiment)
    print()
    print(format_table(
        ["scenario", "states", "transitions", "result"],
        [(name, result.states_explored, result.transitions,
          "OK" if result.ok else result.violation)
         for name, result in checked.items()],
        title="Exhaustive check of the real managers (paper: TLA+/TLC)"))
    print(f"implementation explorer: {swept.seeds_run} histories, "
          f"{swept.histories_with_crash} with crashes, "
          f"{swept.committed_total} txns, "
          f"{len(swept.violations)} violations")
    save_result("verification", {
        "states": {name: result.states_explored
                   for name, result in checked.items()},
        "explorer_histories": swept.seeds_run,
        "explorer_violations": swept.violations,
    })

    for name, result in checked.items():
        assert result.ok and not result.truncated, (name, result)
    assert not swept.violations, swept.violations
    assert not swept.nonquiescent, swept.nonquiescent
