"""Run the randomized exact identity suite over the built-in fixtures.

Run with:  python3 demos/05_identity_suite.py
"""

from homlie import run_all
from homlie.theorems import default_fixtures

suite = run_all(default_fixtures()[:3], trials=10, seed=2024)
for name, reports in suite.results:
    failed = [r for r in reports if not r.passed]
    print(f"{name}: {len(reports) - len(failed)}/{len(reports)} identities passed")
    for r in failed:
        first = r.failures[0]
        print(f"  {r.identity}: {first.detail} at {first.witness}")
print(f"all passed: {suite.all_passed}  ({suite.trials} trials per identity,"
      " exact arithmetic throughout)")
