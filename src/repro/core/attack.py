"""Attack execution machinery: configuration, environment, runner.

An :class:`AttackRunner` evaluates one attack variant under one
configuration exactly the way the paper does (Section IV-C/D): run the
attack ``n_runs`` times for each hypothesis ("mapped" and "unmapped"),
collect the receiver's measurements into two timing distributions, and
decide success by a Student's t-test p-value below 0.05.  It also
estimates the attack's transmission rate (Table III's "Tran. Rate").

Every trial observes a **fresh machine** (memory hierarchy + predictor
+ core) with a trial-specific seed, so run-to-run variation comes from
the modelled DRAM/interconnect jitter, matching the paper's
distribution-based methodology.  "Fresh" is semantic, not allocative:
the runner keeps one warm machine per experiment and resets it in place
between trials via the warm-machine reset protocol
(:meth:`repro.memory.hierarchy.MemorySystem.reset` +
:meth:`repro.pipeline.core.Core.reset`), which is byte-identical to
reconstruction and several times faster.  The predictor chain is
rebuilt per trial, and its per-trial random streams (the R-type
defense's window draws) are bound to the trial seed at that point, so
a trial is a pure function of its seed.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from typing import TYPE_CHECKING, Optional, Tuple

from repro.core.channels import ChannelType
from repro.core.model import AttackCategory
from repro.defenses.base import Defense
from repro.errors import AttackError
from repro.memory.hierarchy import MemoryConfig, MemorySystem
from repro.memory.memsys import DramConfig
from repro.perf.counters import COUNTERS
from repro.pipeline.config import CoreConfig
from repro.pipeline.core import Core
from repro.sim import get_backend, resolve_backend_name
from repro.stats.distributions import TimingDistribution
from repro.stats.summary import DistributionComparison
from repro.stats.bandwidth import modelled_cycles, transmission_rate_kbps
from repro.vp.base import ValuePredictor, trial_stream
from repro.vp.lvp import LastValuePredictor
from repro.vp.nopred import NoPredictor
from repro.vp.oracle import OracleTargetPredictor
from repro.vp.vtage import VtagePredictor
from repro.workloads.gadgets import Layout

if TYPE_CHECKING:
    from repro.core.variants import AttackVariant
    from repro.sim import SimBackend


def attack_dram_config() -> DramConfig:
    """DRAM timing used for attack experiments.

    Wider jitter than the performance default: the paper's measured
    distributions (Figures 5 and 8) spread over hundreds of cycles,
    and the defense evaluation (minimum R-type windows) only makes
    sense against realistic measurement noise.
    """
    return DramConfig(
        base_latency=180, jitter=170, tail_probability=0.04, tail_extra=120
    )


def make_predictor(kind: str, confidence: int) -> ValuePredictor:
    """Construct a predictor by name: ``lvp``, ``vtage`` or ``none``."""
    if kind == "lvp":
        return LastValuePredictor(confidence_threshold=confidence)
    if kind == "vtage":
        return VtagePredictor(confidence_threshold=confidence)
    if kind == "none":
        return NoPredictor()
    raise AttackError(f"unknown predictor kind {kind!r}")


def check_n_runs(n_runs: int) -> None:
    """Raise :class:`AttackError` for a trial count no t-test can use."""
    if n_runs < 2:
        raise AttackError("n_runs must be >= 2 for the t-test")


@dataclass
class AttackConfig:
    """Configuration of one attack experiment.

    Attributes:
        confidence: The VPS confidence threshold (the paper's
            ``confidence`` parameter).
        n_runs: Trials per hypothesis (paper: 100).
        channel: Encode/decode channel family.
        predictor: ``"lvp"``, ``"vtage"``, ``"none"``, or a factory
            ``confidence -> ValuePredictor``.
        use_oracle: Wrap the predictor so it predicts only for the
            variant's trigger PC, matching the paper's "oracle"
            experimental setup.
        defense: Optional defense (stack) applied to predictor/core.
        chain_length: Dependent-chain length of the trigger window;
            ``None`` uses the variant's own default.
        modify_mode: For variants with a modify step: ``"retrain"``
            (confidence-count accesses, the mispredict flavour) or
            ``"invalidate"`` (one access, the no-prediction flavour).
        seed: Base seed; each trial derives its own
            (:func:`trial_seed`).
        core_config: The core; its ``max_cycles`` bound is the
            per-trial watchdog, so a runaway simulation aborts with
            :class:`~repro.errors.SimulationError` instead of burning
            the sweep's budget.
        backend: Simulation backend executing the trial loop
            (:mod:`repro.sim`): ``"scalar"`` (the historical
            interpreter loop), ``"batched"`` (numpy lockstep lanes,
            byte-identical results), or ``None`` to follow
            ``$REPRO_BACKEND`` and default to scalar.  Validated at
            runner construction so typos fail before any simulation.
    """

    confidence: int = 4
    n_runs: int = 100
    channel: ChannelType = ChannelType.TIMING_WINDOW
    predictor: object = "lvp"
    use_oracle: bool = False
    defense: Optional[Defense] = None
    chain_length: Optional[int] = None
    modify_mode: str = "retrain"
    seed: int = 0
    memory_config: Optional[MemoryConfig] = None
    core_config: Optional[CoreConfig] = None
    layout: Layout = field(default_factory=Layout)
    backend: Optional[str] = None

    def __post_init__(self) -> None:
        if self.confidence < 1:
            raise AttackError("confidence must be >= 1")
        check_n_runs(self.n_runs)
        if self.modify_mode not in ("retrain", "invalidate"):
            raise AttackError(f"unknown modify_mode {self.modify_mode!r}")


@dataclass
class TrialEnv:
    """Everything a variant needs to run one trial."""

    core: Core
    memory: MemorySystem
    layout: Layout
    confidence: int
    channel: ChannelType
    chain_length: int
    modify_mode: str

    def write_sender_value(self, addr: int, value: int) -> None:
        """Architectural write into the sender's address space."""
        self.memory.write_value(self.layout.sender_pid, addr, value)

    def write_receiver_value(self, addr: int, value: int) -> None:
        """Architectural write into the receiver's address space."""
        self.memory.write_value(self.layout.receiver_pid, addr, value)

    @property
    def retrain_count(self) -> int:
        """Accesses needed to re-train a conflicting entry to confidence."""
        return self.confidence + 1


@dataclass
class TrialResult:
    """One trial's receiver measurement plus its simulated cost."""

    measurement: float
    sim_cycles: int


@dataclass
class ExperimentResult:
    """Outcome of a full mapped-vs-unmapped experiment."""

    variant_name: str
    category: AttackCategory
    channel: ChannelType
    predictor_name: str
    defense_name: str
    comparison: DistributionComparison
    mean_trial_cycles: float
    transmission_rate_kbps: float

    @property
    def pvalue(self) -> float:
        """The comparison's two-sided p-value."""
        return self.comparison.pvalue

    @property
    def attack_succeeds(self) -> bool:
        """The paper's criterion: p-value below 0.05."""
        return self.comparison.attack_succeeds

    def describe(self) -> str:
        """One-line human-readable summary."""
        status = "EFFECTIVE" if self.attack_succeeds else "not effective"
        return (
            f"{self.variant_name} [{self.channel.value}] "
            f"vp={self.predictor_name} defense={self.defense_name}: "
            f"pvalue={self.pvalue:.4f} ({status}), "
            f"{self.transmission_rate_kbps:.2f} Kbps"
        )


def trial_seed(seed: int, mapped: bool, index: int) -> int:
    """The seed of trial ``index`` of one hypothesis, under base ``seed``.

    The per-trial seed schedule every backend runs: a trial is a pure
    function of this seed.
    """
    return seed * 1_000_003 + index * 7919 + (1 if mapped else 0)


def bind_trial_streams(predictor: ValuePredictor, trial_seed: int) -> None:
    """Bind a predictor chain's random streams to one trial's seed."""
    predictor.bind_streams(lambda salt: trial_stream(salt, trial_seed))


class AttackRunner:
    """Runs a variant's mapped/unmapped trials and aggregates statistics."""

    def __init__(
        self,
        variant: "AttackVariant",
        config: Optional[AttackConfig] = None,
    ) -> None:
        self.variant = variant
        self.config = config or AttackConfig()
        if self.config.channel not in variant.supported_channels:
            raise AttackError(
                f"{variant.name} does not support the "
                f"{self.config.channel.value} channel (Table II/III)"
            )
        # The warm machine reused across trials (None until the first
        # trial builds it).
        self._warm: Optional[Tuple[MemorySystem, Core]] = None
        # The trial-loop executor (repro.sim): resolved eagerly so an
        # unknown name or unavailable backend fails here, not mid-sweep.
        self.backend: "SimBackend" = get_backend(
            resolve_backend_name(self.config.backend)
        )

    # ------------------------------------------------------------------
    def _fresh_predictor(self, trial_seed: int) -> ValuePredictor:
        """Build the trial's predictor chain.

        Called once per trial; the chain's random streams are bound to
        ``trial_seed``.
        """
        config = self.config
        if callable(config.predictor):
            predictor = config.predictor(config.confidence)
        else:
            predictor = make_predictor(str(config.predictor), config.confidence)
        if config.defense is not None:
            predictor = config.defense.wrap_predictor(predictor)
        if config.use_oracle:
            predictor = OracleTargetPredictor(
                predictor, self.variant.trigger_pcs(config.layout)
            )
        bind_trial_streams(predictor, trial_seed)
        return predictor

    def _core_config(self) -> CoreConfig:
        """The effective core configuration (defense adjustments applied)."""
        config = self.config
        core_config = config.core_config or CoreConfig()
        if config.defense is not None:
            core_config = config.defense.adjust_config(core_config)
        return core_config

    def _build_env(self, trial_seed: int) -> TrialEnv:
        """A machine seeded for one trial, wrapped in a :class:`TrialEnv`.

        The first trial constructs the hierarchy and core; later trials
        reset that warm machine in place under their seed, which is
        observationally identical to reconstruction because the reset
        protocol restores as-constructed state and shared-region
        registration survives (the address mapper is stateless for
        translation purposes).
        """
        if self._warm is not None:
            memory, core = self._warm
            memory.reset(trial_seed)
            core.reset(predictor=self._fresh_predictor(trial_seed))
            return self._env_around(memory, core)
        config = self.config
        memory_config = config.memory_config or MemoryConfig(
            dram=attack_dram_config()
        )
        memory_config = replace(memory_config, seed=trial_seed)
        memory = MemorySystem(memory_config)
        memory.add_shared_region(
            config.layout.probe_base,
            config.layout.probe_lines * config.layout.probe_stride,
        )
        core = Core(
            memory, self._fresh_predictor(trial_seed), self._core_config()
        )
        self._warm = (memory, core)
        return self._env_around(memory, core)

    def run_trial(self, mapped: bool, trial_index: int) -> TrialResult:
        """Run one end-to-end attack trial for one hypothesis."""
        COUNTERS.trials += 1
        env = self._build_env(
            trial_seed(self.config.seed, mapped, trial_index)
        )
        measurement = self.variant.run(env, mapped)
        return self._finish_trial(env, measurement)

    def _finish_trial(self, env: TrialEnv, measurement: float) -> TrialResult:
        """Charge the trial's modelled costs on top of its simulation."""
        return TrialResult(
            measurement=measurement,
            sim_cycles=env.core.cycle + self.overhead_cycles(),
        )

    def overhead_cycles(self) -> int:
        """Cycles :func:`~repro.stats.bandwidth.modelled_cycles` charges
        each trial: the variant's hand-offs and, on the persistent
        channel, the receiver's reload of the whole probe array."""
        decoded = (
            self.config.layout.probe_lines
            if self.config.channel is ChannelType.PERSISTENT else 0
        )
        return modelled_cycles(self.variant.num_phases, decoded)

    def _env_around(self, memory: MemorySystem, core: Core) -> TrialEnv:
        """A :class:`TrialEnv` view over an already-prepared machine."""
        config = self.config
        chain = (
            config.chain_length
            if config.chain_length is not None
            else self.variant.default_chain_length
        )
        return TrialEnv(
            core=core,
            memory=memory,
            layout=config.layout,
            confidence=config.confidence,
            channel=config.channel,
            chain_length=chain,
            modify_mode=config.modify_mode,
        )

    def run_incremental(self) -> "IncrementalExperiment":
        """Open a trial-streaming view over this experiment.

        The returned :class:`IncrementalExperiment` yields trials in
        boundary-aligned batches via :meth:`IncrementalExperiment.advance`
        without re-simulating earlier ones.  Because every trial's seed
        is a pure function of ``(config.seed, trial_index, hypothesis)``
        — see :meth:`run_trial` — trial ``k`` is byte-identical whether
        reached by streaming or by a cold fixed-N
        :meth:`run_experiment`.
        """
        return IncrementalExperiment(self)

    def run_experiment(self) -> ExperimentResult:
        """Run the full mapped-vs-unmapped experiment (paper: 100 runs)."""
        experiment = self.run_incremental()
        experiment.advance(self.config.n_runs)
        return experiment.result()


@dataclass(frozen=True)
class InterimComparison:
    """Point-in-time view of a streaming experiment at one look.

    Attributes:
        n: Trials per hypothesis consumed so far.
        comparison: The t-test over everything measured so far.
        mean_trial_cycles: Mean simulated cycles per trial so far.
    """

    n: int
    comparison: DistributionComparison
    mean_trial_cycles: float


class IncrementalExperiment:
    """Streams one experiment's trials without re-simulating prefixes.

    Trials are appended strictly in the canonical schedule order —
    mapped(i), unmapped(i) for ascending ``i``, with per-trial seeds
    indexed by ``i``.  Each trial is a pure function of its seed, so
    advancing to ``n`` leaves the experiment in exactly the state a
    cold fixed-``n`` run ends in, byte for byte; the group-sequential
    harness exploits this to stop early, and the adaptive-escalation
    path to *extend* a sample instead of re-simulating it from scratch.

    ``advance`` may exceed the runner's configured ``n_runs`` — the
    cap is a property of the sequential design, not of the trial seed
    schedule, which is defined for every index.
    """

    def __init__(self, runner: AttackRunner) -> None:
        self.runner = runner
        self._mapped = TimingDistribution("mapped")
        self._unmapped = TimingDistribution("unmapped")
        self._total_cycles = 0
        self._trials_done = 0
        self._comparison: Optional[DistributionComparison] = None

    @property
    def trials_done(self) -> int:
        """Trials per hypothesis simulated so far."""
        return self._trials_done

    def advance(self, target_n: int) -> InterimComparison:
        """Simulate forward to ``target_n`` trials per hypothesis.

        Only trials ``trials_done .. target_n-1`` are run; everything
        before is kept.  Returns the interim comparison at
        ``target_n``.
        """
        if target_n < self._trials_done:
            raise AttackError(
                f"cannot rewind a streaming experiment: at "
                f"{self._trials_done} trials, asked for {target_n}"
            )
        pairs = self.runner.backend.run_pairs(
            self.runner, self._trials_done, target_n
        )
        for mapped_trial, unmapped_trial in pairs:
            self._mapped.add(mapped_trial.measurement)
            self._unmapped.add(unmapped_trial.measurement)
            self._total_cycles += (
                mapped_trial.sim_cycles + unmapped_trial.sim_cycles
            )
        self._trials_done = target_n
        self._comparison = DistributionComparison.compare(
            self._mapped, self._unmapped
        )
        return InterimComparison(
            n=target_n,
            comparison=self._comparison,
            mean_trial_cycles=self.mean_trial_cycles,
        )

    @property
    def mean_trial_cycles(self) -> float:
        """Mean simulated cycles per trial over everything run so far."""
        if self._trials_done == 0:
            return 0.0
        return self._total_cycles / (2 * self._trials_done)

    def result(self) -> ExperimentResult:
        """The :class:`ExperimentResult` over every trial streamed so far.

        After ``advance(config.n_runs)`` this is byte-identical to
        what :meth:`AttackRunner.run_experiment` returns for the same
        configuration.
        """
        if self._trials_done < 2:
            raise AttackError(
                "an experiment needs at least 2 trials per hypothesis "
                f"for the t-test, got {self._trials_done}"
            )
        comparison = self._comparison
        if comparison is None:
            comparison = DistributionComparison.compare(
                self._mapped, self._unmapped
            )
        runner = self.runner
        config = runner.config
        mean_cycles = self.mean_trial_cycles
        # The rate must be computed at the clock the trials actually ran
        # at — i.e. after defense config adjustments — not the bare
        # default CoreConfig.
        clock = runner._core_config().clock_ghz
        rate = transmission_rate_kbps(1.0, mean_cycles, clock)
        predictor_name = (
            config.predictor
            if isinstance(config.predictor, str)
            else getattr(config.predictor, "__name__", "custom")
        )
        return ExperimentResult(
            variant_name=runner.variant.name,
            category=runner.variant.category,
            channel=config.channel,
            predictor_name=str(predictor_name),
            defense_name=(
                config.defense.name if config.defense else "none"
            ),
            comparison=comparison,
            mean_trial_cycles=mean_cycles,
            transmission_rate_kbps=rate,
        )
