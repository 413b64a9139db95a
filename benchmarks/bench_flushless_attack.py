"""Extension: attacks on a non-load-based VPS (paper footnote 2).

"Non load-based VPS is possible, where the attacks can be triggered
without causing cache misses; discussion of such VPS is omitted due to
limited space."  With ``predict_on_hit`` enabled the predictor serves
every load, and the Train + Hit-style signal (correct prediction vs.
misprediction-and-squash) survives with **zero** flush instructions in
the attacker's or victim's code — the threat model no longer needs the
cache-miss precondition at all.
"""

from repro.isa.builder import ProgramBuilder
from repro.memory.hierarchy import MemoryConfig, MemorySystem
from repro.core.attack import attack_dram_config
from repro.pipeline.config import CoreConfig
from repro.pipeline.core import Core
from repro.stats.distributions import TimingDistribution
from repro.stats.summary import DistributionComparison
from repro.vp.lvp import LastValuePredictor
from repro.vp.nopred import NoPredictor

ADDR = 0x30000
LOAD_PC = 0x1000
N_RUNS = 60


def _trial(mapped: bool, trial: int, use_vp: bool) -> float:
    memory = MemorySystem(MemoryConfig(
        dram=attack_dram_config(), seed=trial * 31 + mapped + use_vp * 7
    ))
    predictor = (
        LastValuePredictor(confidence_threshold=4) if use_vp
        else NoPredictor()
    )
    core = Core(memory, predictor, CoreConfig(predict_on_hit=True))
    memory.write_value(1, ADDR, 42)

    # Victim-style training: repeated loads, NO flush anywhere.
    train = ProgramBuilder("train", pid=1)
    train.pin_pc(LOAD_PC)
    with train.loop(5):
        train.load(3, imm=ADDR, tag="train-load")
        train.fence()
    core.run(train.build())

    if not mapped:
        # The secret changed behind the (still cached) line.
        memory.write_value(1, ADDR, 99)

    trigger = ProgramBuilder("trigger", pid=1)
    trigger.rdtsc(9)
    trigger.fence()
    trigger.pin_pc(LOAD_PC)
    trigger.load(3, imm=ADDR, tag="trigger-load")
    trigger.dependent_chain(60, dst=30, src=3)
    trigger.fence()
    trigger.rdtsc(10)
    return float(core.run(trigger.build()).rdtsc_delta())


def _evaluate():
    out = {}
    for use_vp in (False, True):
        mapped = TimingDistribution("mapped")
        unmapped = TimingDistribution("unmapped")
        for trial in range(N_RUNS):
            mapped.add(_trial(True, trial, use_vp))
            unmapped.add(_trial(False, trial, use_vp))
        out["lvp" if use_vp else "none"] = (
            DistributionComparison.compare(mapped, unmapped)
        )
    return out


def test_flushless_attack_on_non_load_based_vps():
    results = _evaluate()
    print("\nFlushless attack (predict_on_hit, zero cache misses forced):")
    for predictor, comparison in results.items():
        print(f"  {predictor:5s} {comparison.describe()}")

    # With the non-load-based VPS the attack works without any flush;
    # without a predictor nothing leaks.
    assert results["lvp"].attack_succeeds
    assert not results["none"].attack_succeeds
    # And the window is tiny: both hypotheses are pure L1 hits, so the
    # means sit far below a DRAM miss.
    assert results["lvp"].unmapped.mean < 150
