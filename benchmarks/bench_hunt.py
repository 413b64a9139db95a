"""The exhaustive 576-combination hunt: static certification cost.

Times one full static pass — capturing each combo's attack, abstract
interpretation and reduction-chain following for every (train, modify,
trigger) combination, plus certificate assembly — and checks the
certification invariants (all claims hold, the artifact is
byte-identical across passes).  Not ``slow``-marked: the static hunt
touches no simulator and finishes in seconds, so it rides the quick
CI benchmark leg.  The time is printed, not gated: the ``hunt``
workload of ``bench/`` judges its speed.
"""

import json


def _static_pass(out_dir):
    from repro.harness.hunt import run_hunt

    return run_hunt(out_dir, static_only=True)["certificate"]


def test_hunt_static_certification(tmp_path):
    """Certify all 576 combos; assert the claims and determinism."""
    from repro.harness.hunt import CERTIFICATE_FILENAME
    from repro.perf.observe import Stopwatch

    # Warm pass: module imports and layout setup off the timed run.
    _static_pass(str(tmp_path / "warm"))

    with Stopwatch() as watch:
        certificate = _static_pass(str(tmp_path / "a"))
    assert certificate["certified"] is True
    assert all(claim["ok"] for claim in certificate["claims"].values())
    combos = certificate["space"]["combos"]
    assert combos == 576
    assert certificate["verdicts"]["effective"] == 12

    # Byte-identity: a second pass writes the identical artifact.
    _static_pass(str(tmp_path / "b"))
    first = (tmp_path / "a" / CERTIFICATE_FILENAME).read_bytes()
    second = (tmp_path / "b" / CERTIFICATE_FILENAME).read_bytes()
    assert first == second
    assert json.loads(first) == certificate

    combos_per_s = combos / watch.elapsed if watch.elapsed > 0 else 0.0
    print(f"\nStatic hunt: {combos} combos certified in "
          f"{watch.elapsed:.3f} s ({combos_per_s:.0f} combos/s), "
          f"artifact byte-identical across passes")
