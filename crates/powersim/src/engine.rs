//! The composed power system and its fixed-step simulation engine.

use culpeo_loadgen::LoadProfile;
use culpeo_units::{Amps, Farads, Joules, Ohms, Seconds, Volts};

use crate::{
    BreakOn, BufferNetwork, CapacitorBranch, EnergyLedger, EventStepper, Harvester, MonitorState,
    OutputBooster, VoltageMonitor, VoltageSample, VoltageTrace, DEFAULT_DT,
};

/// A complete energy-harvesting power system: buffer network, output
/// booster, harvester/input booster, and voltage monitor (Figure 2).
///
/// The system is stepped at fixed `dt`; each step solves the buffer node,
/// advances the capacitors, updates the monitor's hysteresis, and keeps the
/// itemized energy ledger. Higher layers either drive [`PowerSystem::step`]
/// directly (the scheduler does) or hand a whole [`LoadProfile`] to
/// [`PowerSystem::run_profile`].
#[derive(Debug, Clone, PartialEq)]
pub struct PowerSystem {
    buffer: BufferNetwork,
    booster: OutputBooster,
    harvester: Harvester,
    monitor: VoltageMonitor,
    time: Seconds,
    last_v_node: Volts,
    /// Every step's energy movements. Event-kernel chunks add only to
    /// `delivered` and clear `itemized`, after which the other fields no
    /// longer account for every step and [`PowerSystem::ledger`] is `None`.
    ledger: EnergyLedger,
    itemized: bool,
    hint: SolverHint,
}

/// The previous step's solved node root, carried purely as a Newton
/// warm-start for [`BufferNetwork::solve_node_hinted`]. While the load is
/// segment-constant the root drifts by microvolts per step, so starting
/// from it converges immediately; any external state change clears it.
///
/// Equality-transparent: two systems in the same electrical state compare
/// equal regardless of solver-history hints.
#[derive(Debug, Clone, Copy, Default)]
struct SolverHint {
    root: Option<f64>,
    load_bits: u64,
}

impl PartialEq for SolverHint {
    fn eq(&self, _: &Self) -> bool {
        true
    }
}

/// The observable result of one simulation step.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct StepOutput {
    /// Simulation time at the *end* of the step.
    pub t: Seconds,
    /// Buffer-node voltage during the step.
    pub v_node: Volts,
    /// Current drawn by the output booster.
    pub i_in: Amps,
    /// True if the requested load was actually powered this step.
    pub delivering: bool,
    /// True if the rail collapsed (no electrical operating point).
    pub collapsed: bool,
    /// Monitor state after observing this step's node voltage.
    pub monitor: MonitorState,
}

/// Configuration for [`PowerSystem::run_profile`].
///
/// Whether the run records a trace also picks its kernel: an untraced run
/// (`record_stride: None`) on a plant the chunk model covers takes the
/// event kernel (`event` module), every other run the fixed-step loop of
/// [`PowerSystem::run_profile_reference`]. The two report the same
/// verdicts and, to ~1 nV, the same summaries.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct RunConfig {
    /// Integration step.
    pub dt: Seconds,
    /// Record every n-th step into the returned trace, or nothing when
    /// `None`. The minimum voltage is exact either way.
    pub record_stride: Option<usize>,
    /// After the load ends, keep simulating (zero load) until the node
    /// voltage stops rebounding, up to this long. Zero skips the rebound
    /// wait entirely (`v_final` is then the node voltage at the instant
    /// the run ended).
    pub settle_timeout: Seconds,
    /// Rebound is considered settled when the node moves less than this
    /// over 10 ms.
    pub settle_tolerance: Volts,
}

impl Default for RunConfig {
    fn default() -> Self {
        Self {
            dt: DEFAULT_DT,
            record_stride: Some(8), // 125 kHz integration, ~15.6 kHz recording
            settle_timeout: Seconds::new(2.0),
            settle_tolerance: Volts::from_micro(100.0),
        }
    }
}

impl RunConfig {
    /// A coarse configuration for long application runs: 100 µs steps, no
    /// trace.
    #[must_use]
    pub fn coarse() -> Self {
        Self {
            dt: Seconds::from_micro(100.0),
            ..Self::default().without_trace()
        }
    }

    /// The probe-mode configuration every bisection/completion search
    /// uses: no trace, no settle wait (the verdict is decided before
    /// settling starts), and a step size matched to the load length —
    /// 10 µs for sub-second loads, 50 µs beyond that.
    ///
    /// Hoisted here so the ground-truth searches and the event/fixed-step
    /// comparison paths cannot drift on dt/settle defaults.
    #[must_use]
    pub fn probe(load_duration: Seconds) -> Self {
        let dt = if load_duration.get() > 1.0 {
            Seconds::from_micro(50.0)
        } else {
            Seconds::from_micro(10.0)
        };
        Self {
            dt,
            settle_timeout: Seconds::ZERO,
            ..Self::default().without_trace()
        }
    }

    /// The same configuration recording no trace.
    #[must_use]
    pub fn without_trace(mut self) -> Self {
        self.record_stride = None;
        self
    }
}

/// The result of running a load profile on the plant.
#[derive(Debug, Clone, PartialEq)]
pub struct RunOutcome {
    /// Recorded node-voltage trace (decimated per
    /// [`RunConfig::record_stride`]; empty when it is `None`).
    pub trace: VoltageTrace,
    /// Node voltage just before the load was applied.
    pub v_start: Volts,
    /// Minimum node voltage observed during the load.
    pub v_min: Volts,
    /// When the minimum occurred.
    pub t_min: Seconds,
    /// Node voltage after the post-load rebound settled (or at the failure
    /// instant for a browned-out run).
    pub v_final: Volts,
    /// If the monitor cut power during the load, the time at which it did.
    pub brownout: Option<Seconds>,
    /// True if the rail electrically collapsed at some step.
    pub collapsed: bool,
    /// Energy movements over this run (including the settle phase): `Some`
    /// when every step the plant has taken was a literal
    /// [`PowerSystem::step`], `None` once the event kernel has committed a
    /// chunk (see [`PowerSystem::ledger`]).
    pub ledger: Option<EnergyLedger>,
}

impl RunOutcome {
    /// True if the load ran to completion without losing power.
    #[must_use]
    pub fn completed(&self) -> bool {
        self.brownout.is_none() && !self.collapsed
    }

    /// The paper's `V_δ`: the recoverable, ESR-induced part of the dip —
    /// final (rebounded) voltage minus the minimum during execution
    /// (Figure 8a).
    #[must_use]
    pub fn v_delta(&self) -> Volts {
        Volts::new((self.v_final - self.v_min).get().max(0.0))
    }
}

impl PowerSystem {
    /// Starts building a custom system.
    #[must_use]
    pub fn builder() -> PowerSystemBuilder {
        PowerSystemBuilder::default()
    }

    /// The simulated Capybara configuration used throughout the paper's
    /// evaluation: a 45 mF supercapacitor bank (six CPX-class parts) with
    /// 3.3 Ω of effective ESR and 20 nA-class leakage, a TPS61200-like
    /// output booster at 2.55 V, a BU4924-like monitor (2.56 V / 1.6 V),
    /// and no incoming power.
    ///
    /// The buffer starts fully charged at `V_high` with the output enabled,
    /// as in the paper's test-harness setup.
    #[must_use]
    pub fn capybara() -> Self {
        Self::builder().build()
    }

    /// Capybara with a different bank: total capacitance `c` and effective
    /// ESR `esr` as a single branch.
    #[must_use]
    pub fn capybara_with_bank(c: Farads, esr: Ohms) -> Self {
        Self::builder().bank(c, esr).build()
    }

    /// Capybara with the two-time-constant supercapacitor ladder: a large,
    /// slow branch and a small, fast branch whose combination produces the
    /// frequency-dependent ESR real supercapacitors exhibit.
    #[must_use]
    pub fn capybara_two_branch() -> Self {
        Self::builder().two_branch_bank().build()
    }

    /// The output booster.
    #[must_use]
    pub fn booster(&self) -> &OutputBooster {
        &self.booster
    }

    /// The voltage monitor.
    #[must_use]
    pub fn monitor(&self) -> &VoltageMonitor {
        &self.monitor
    }

    /// The buffer network.
    #[must_use]
    pub fn buffer(&self) -> &BufferNetwork {
        &self.buffer
    }

    /// Mutable buffer access (aging experiments swap branches in place).
    pub fn buffer_mut(&mut self) -> &mut BufferNetwork {
        self.hint = SolverHint::default();
        &mut self.buffer
    }

    /// Replaces the harvester model.
    pub fn set_harvester(&mut self, harvester: Harvester) {
        self.hint = SolverHint::default();
        self.harvester = harvester;
    }

    /// The harvester model.
    #[must_use]
    pub fn harvester(&self) -> Harvester {
        self.harvester
    }

    /// Current simulation time.
    #[must_use]
    pub fn time(&self) -> Seconds {
        self.time
    }

    /// The cumulative itemized energy ledger: `Some` while every step the
    /// plant has taken was a literal [`PowerSystem::step`], and `None` for
    /// good once the event kernel commits a chunk. Chunks meter only the
    /// delivered energy ([`PowerSystem::delivered`]); they do not itemize
    /// losses or harvest.
    #[must_use]
    pub fn ledger(&self) -> Option<EnergyLedger> {
        self.itemized.then_some(self.ledger)
    }

    /// The cumulative energy delivered to the load at the regulated
    /// output, on either kernel: `P_out·dt` per delivering step.
    #[must_use]
    pub fn delivered(&self) -> Joules {
        self.ledger.delivered
    }

    /// The unloaded node voltage right now (what an idle ADC would read).
    #[must_use]
    pub fn v_node(&self) -> Volts {
        self.buffer.open_circuit_voltage()
    }

    /// Sets every buffer branch to `v` — the test harness's "discharge the
    /// capacitor to the starting level" operation.
    pub fn set_buffer_voltage(&mut self, v: Volts) {
        self.buffer.set_voltage(v);
        self.last_v_node = v;
        self.hint = SolverHint::default();
    }

    /// Forces the monitor's output-enabled state (test harness trigger).
    pub fn force_output_enabled(&mut self) {
        self.monitor.force_enable();
    }

    /// Advances the system by `dt` with the load requesting `i_load` at the
    /// regulated output.
    ///
    /// If the monitor has the output disabled, the load receives nothing
    /// (`delivering = false`) and only charging/leakage dynamics run.
    pub fn step(&mut self, i_load: Amps, dt: Seconds) -> StepOutput {
        let charging_enabled = self.last_v_node < self.monitor.v_high();
        let i_charge = if charging_enabled {
            self.harvester
                .charge_current_at(self.last_v_node, self.time)
        } else {
            Amps::ZERO
        };

        let delivering = self.monitor.output_enabled() && i_load.get() > 0.0;
        let effective_load = if delivering { i_load } else { Amps::ZERO };
        // Warm-start the node solve from the previous step's root while
        // the requested load is unchanged (segment-constant profiles).
        let hint = if self.hint.load_bits == effective_load.get().to_bits() {
            self.hint.root
        } else {
            None
        };
        let sol = self
            .buffer
            .solve_node_hinted(&self.booster, effective_load, i_charge, hint);
        self.hint = if delivering && !sol.collapsed {
            SolverHint {
                root: Some(sol.v_node.get()),
                load_bits: effective_load.get().to_bits(),
            }
        } else {
            SolverHint::default()
        };

        // Energy bookkeeping (before integrating, using this step's state).
        let dt_s = dt.get();
        if delivering && !sol.collapsed {
            let p_out = self.booster.v_out() * i_load;
            let p_in = sol.v_node * sol.i_in;
            self.ledger.delivered += p_out * dt;
            self.ledger.booster_loss += Joules::new((p_in.get() - p_out.get()).max(0.0) * dt_s);
        }
        for (b, &i) in self.buffer.branches().iter().zip(&sol.branch_currents) {
            self.ledger.esr_loss += Joules::new(i.get() * i.get() * b.esr().get() * dt_s);
            self.ledger.leakage_loss +=
                Joules::new(b.v_internal().get() * b.leakage().get() * dt_s);
        }
        self.ledger.harvested += Joules::new(sol.v_node.get() * i_charge.get() * dt_s);

        self.buffer.integrate(&sol, dt);
        let monitor = self.monitor.observe(sol.v_node);
        self.time += dt;
        self.last_v_node = sol.v_node;

        StepOutput {
            t: self.time,
            v_node: sol.v_node,
            i_in: sol.i_in,
            delivering: delivering && !sol.collapsed,
            collapsed: sol.collapsed,
            monitor,
        }
    }

    /// Runs a complete load profile, then lets the node rebound, returning
    /// the full outcome.
    ///
    /// The run aborts (with `brownout = Some(t)`) the moment the monitor
    /// cuts the output or the rail collapses — on the real device the task
    /// dies there. An untraced run on a plant the chunk model covers takes
    /// the event kernel for the load and the rebound alike; every other run
    /// is [`PowerSystem::run_profile_reference`].
    #[must_use]
    pub fn run_profile(&mut self, profile: &LoadProfile, cfg: RunConfig) -> RunOutcome {
        let event = crate::event::in_scope(self, &cfg);
        self.run(profile, cfg, event)
    }

    /// The reference fixed-step loop: one Newton node-solve per `dt` step,
    /// for the load and for the rebound, on any plant and configuration.
    /// This is the physics the event kernel is checked against; tests
    /// compare [`PowerSystem::run_profile`] with it.
    #[must_use]
    pub fn run_profile_reference(&mut self, profile: &LoadProfile, cfg: RunConfig) -> RunOutcome {
        self.run(profile, cfg, false)
    }

    /// A run on the event kernel or the fixed-step loop: the load phase,
    /// then the rebound settle on the same kernel.
    fn run(&mut self, profile: &LoadProfile, cfg: RunConfig, event: bool) -> RunOutcome {
        let ledger_before = self.ledger;
        let v_start = self.v_node();
        let t0 = self.time;
        let steps = profile.duration().steps(cfg.dt).max(1);
        let mut trace = cfg.record_stride.map(VoltageTrace::new);
        let load = if event {
            crate::event::run_load(self, profile, steps, cfg.dt)
        } else {
            self.run_load(profile, steps, cfg.dt, trace.as_mut())
        };
        let brownout = load.broke_at.map(|t| Seconds::new(t.get() - t0.get()));
        let v_final = if brownout.is_none() && cfg.settle_timeout.get() > 0.0 {
            self.settle(cfg, event)
        } else {
            // A browned-out run reports the failure instant; a zero timeout
            // (completion probes, whose verdict is decided before settling
            // starts) reports the node as it stands.
            self.v_node()
        };
        RunOutcome {
            trace: trace.unwrap_or_default(),
            v_start,
            v_min: load.v_min,
            t_min: load.t_min,
            v_final,
            brownout,
            collapsed: load.collapsed,
            // Report only this run's movements.
            ledger: self.ledger().map(|l| l.delta(&ledger_before)),
        }
    }

    /// The reference loop's load phase: `steps ≥ 1` literal steps on the
    /// profile, recording each into `trace` if there is one.
    fn run_load(
        &mut self,
        profile: &LoadProfile,
        steps: usize,
        dt: Seconds,
        mut trace: Option<&mut VoltageTrace>,
    ) -> LoadPhase {
        // Forward-only cursor: query times are k·dt, strictly increasing,
        // so the per-step segment lookup is amortised O(1).
        let mut load = profile.cursor();
        // Running minimum over every step, strict-< so the first
        // occurrence wins; the trace, if any, is decimated and keeps none.
        let mut phase = LoadPhase {
            v_min: Volts::new(f64::MAX),
            t_min: Seconds::ZERO,
            broke_at: None,
            collapsed: false,
        };
        for k in 0..steps {
            let offset = Seconds::new(k as f64 * dt.get());
            let i = load.current_at(offset);
            let out = self.step(i, dt);
            if let Some(trace) = trace.as_deref_mut() {
                trace.push(VoltageSample {
                    t: out.t,
                    v_node: out.v_node,
                    i_in: out.i_in,
                });
            }
            if out.v_node < phase.v_min {
                phase.v_min = out.v_node;
                phase.t_min = out.t;
            }
            phase.collapsed |= out.collapsed;
            if (i.get() > 0.0 && !out.delivering) || out.monitor == MonitorState::Recharging {
                phase.broke_at = Some(out.t);
                break;
            }
        }
        phase
    }

    /// Runs the system unloaded until the node voltage stops moving (the
    /// post-task rebound of Figure 1b), returning the settled voltage: the
    /// [`settle_windows`] loop, each window advanced on the event kernel
    /// when `event` is set and by literal steps otherwise.
    fn settle(&mut self, cfg: RunConfig, event: bool) -> Volts {
        let dt = cfg.dt;
        let window_steps = SETTLE_WINDOW.steps(dt).max(1);
        let v = self.v_node();
        if event {
            let mut st = EventStepper::new(self, dt);
            settle_windows(cfg, v, || {
                let _ = st.run_const(Amps::ZERO, window_steps, BreakOn::Never, None);
                st.last_step_v()
            })
        } else {
            settle_windows(cfg, v, || {
                for _ in 0..window_steps {
                    self.step(Amps::ZERO, dt);
                }
                self.last_v_node
            })
        }
    }

    /// The node voltage solved at the previous step (the value the
    /// charging gate and warm-start logic key on).
    pub(crate) fn last_v(&self) -> Volts {
        self.last_v_node
    }

    /// Chunk-advance bookkeeping for the event kernel: overwrites the
    /// last-step node voltage the next step's charging gate will see.
    pub(crate) fn set_last_v(&mut self, v: Volts) {
        self.last_v_node = v;
    }

    /// Chunk-advance bookkeeping for the event kernel: advances the clock
    /// by `steps` grid steps, bitwise where `steps` [`PowerSystem::step`]
    /// calls would leave it ([`clock_after`]).
    pub(crate) fn advance_steps(&mut self, steps: usize, dt: f64) {
        self.time = Seconds::new(clock_after(self.time.get(), dt, steps));
    }

    /// Chunk-advance bookkeeping for the event kernel: meters a chunk's
    /// delivered energy, which ends the itemized ledger.
    pub(crate) fn meter_chunk(&mut self, delivered: Joules) {
        self.ledger.delivered += delivered;
        self.itemized = false;
    }

    /// Runs unloaded (charging if a harvester is set) for a fixed duration.
    /// Returns the node voltage at the end.
    pub fn run_idle(&mut self, duration: Seconds, dt: Seconds) -> Volts {
        let steps = duration.steps(dt);
        let mut v = self.v_node();
        for _ in 0..steps {
            v = self.step(Amps::ZERO, dt).v_node;
        }
        v
    }
}

/// The window the rebound settle checks convergence over.
const SETTLE_WINDOW: Seconds = Seconds::new(10e-3);

/// The rebound settle's convergence loop: up to `settle_timeout` of
/// [`SETTLE_WINDOW`]s, each run by `advance`, which returns the node
/// voltage of the window's last step. Settled once a window moves the node
/// by less than `settle_tolerance` from `prev`, the voltage before it.
fn settle_windows(cfg: RunConfig, mut prev: Volts, mut advance: impl FnMut() -> Volts) -> Volts {
    let max_windows = (cfg.settle_timeout.get() / SETTLE_WINDOW.get())
        .ceil()
        .max(1.0) as usize;
    for _ in 0..max_windows {
        let last = advance();
        if (last - prev).abs() < cfg.settle_tolerance {
            return last;
        }
        prev = last;
    }
    prev
}

/// What the load phase of a run reports to the rebound and the outcome.
pub(crate) struct LoadPhase {
    /// The minimum node voltage over the load's steps, and its step's time.
    pub(crate) v_min: Volts,
    pub(crate) t_min: Seconds,
    /// The clock after the step the run broke on (brownout or load fault).
    pub(crate) broke_at: Option<Seconds>,
    /// True if the rail collapsed at some step.
    pub(crate) collapsed: bool,
}

/// Builder for a [`PowerSystem`]; defaults reproduce the simulated Capybara.
#[derive(Debug, Clone)]
pub struct PowerSystemBuilder {
    branches: Vec<CapacitorBranch>,
    booster: OutputBooster,
    harvester: Harvester,
    monitor: VoltageMonitor,
    initial_voltage: Option<Volts>,
    output_enabled: bool,
}

impl Default for PowerSystemBuilder {
    fn default() -> Self {
        Self {
            branches: Vec::new(),
            booster: OutputBooster::capybara(),
            harvester: Harvester::Off,
            monitor: VoltageMonitor::capybara(),
            initial_voltage: None,
            output_enabled: true,
        }
    }
}

impl PowerSystemBuilder {
    /// Uses a single-branch bank of capacitance `c` and ESR `esr`
    /// (leakage 20 nA-class, scaled by capacitance).
    #[must_use]
    pub fn bank(mut self, c: Farads, esr: Ohms) -> Self {
        let leakage = Amps::new(20e-9 * (c.get() / 45e-3).max(0.1));
        self.branches = vec![CapacitorBranch::new(c, esr, leakage, Volts::ZERO)];
        self
    }

    /// Uses the two-branch supercapacitor ladder (40 mF/4.5 Ω slow branch +
    /// 5 mF/1.2 Ω fast branch) whose effective ESR falls with frequency.
    #[must_use]
    pub fn two_branch_bank(mut self) -> Self {
        self.branches = vec![
            CapacitorBranch::new(
                Farads::from_milli(40.0),
                Ohms::new(4.5),
                Amps::new(18e-9),
                Volts::ZERO,
            ),
            CapacitorBranch::new(
                Farads::from_milli(5.0),
                Ohms::new(1.2),
                Amps::new(2e-9),
                Volts::ZERO,
            ),
        ];
        self
    }

    /// Adds an extra branch (decoupling capacitance, reconfigurable-bank
    /// segments, …).
    #[must_use]
    pub fn extra_branch(mut self, branch: CapacitorBranch) -> Self {
        if self.branches.is_empty() {
            self.branches = default_bank();
        }
        self.branches.push(branch);
        self
    }

    /// Replaces the output booster.
    #[must_use]
    pub fn booster(mut self, booster: OutputBooster) -> Self {
        self.booster = booster;
        self
    }

    /// Replaces the harvester.
    #[must_use]
    pub fn harvester(mut self, harvester: Harvester) -> Self {
        self.harvester = harvester;
        self
    }

    /// Replaces the voltage monitor.
    #[must_use]
    pub fn monitor(mut self, monitor: VoltageMonitor) -> Self {
        self.monitor = monitor;
        self
    }

    /// Sets the initial buffer voltage (defaults to the monitor's
    /// `V_high`).
    #[must_use]
    pub fn initial_voltage(mut self, v: Volts) -> Self {
        self.initial_voltage = Some(v);
        self
    }

    /// Starts with the output booster disabled (a cold, uncharged device).
    #[must_use]
    pub fn cold_start(mut self) -> Self {
        self.output_enabled = false;
        self
    }

    /// Builds the system.
    #[must_use]
    pub fn build(self) -> PowerSystem {
        let mut branches = if self.branches.is_empty() {
            default_bank()
        } else {
            self.branches
        };
        let v0 = self
            .initial_voltage
            .unwrap_or_else(|| self.monitor.v_high());
        for b in &mut branches {
            b.set_v_internal(v0);
        }
        let mut monitor = self.monitor;
        if self.output_enabled {
            monitor.force_enable();
        }
        PowerSystem {
            buffer: BufferNetwork::new(branches),
            booster: self.booster,
            harvester: self.harvester,
            monitor,
            time: Seconds::ZERO,
            last_v_node: v0,
            ledger: EnergyLedger::new(),
            itemized: true,
            hint: SolverHint::default(),
        }
    }
}

/// The default 45 mF / 3.3 Ω single-branch Capybara bank.
fn default_bank() -> Vec<CapacitorBranch> {
    vec![CapacitorBranch::new(
        Farads::from_milli(45.0),
        Ohms::new(3.3),
        Amps::new(20e-9),
        Volts::ZERO,
    )]
}

/// The clock after `n` literal steps: `t` with `dt` added `n` times, one
/// rounding per addition, so bitwise the clock `n` [`PowerSystem::step`]
/// calls leave — which windowed harvesters gate on — without `n`
/// dependent additions. Inside `t`'s binade every addition rounds `dt` to
/// the same whole number of `t`'s ulps (unless `dt` is an odd number of
/// half-ulps, a tie the sum's parity breaks), so the sum strides in exact
/// ulp counts up to the binade's top and adds literally across it.
pub(crate) fn clock_after(mut t: f64, dt: f64, mut n: usize) -> f64 {
    /// Ulps per binade: a normal binade's values are `2^52..2^53` ulps.
    const TOP: i64 = 1 << 53;
    while n > 0 {
        // The biased exponent: finite clocks with a normal ulp only.
        let e = (t.to_bits() >> 52) as i64 & 0x7ff;
        if (53..0x7ff).contains(&e) && t > dt {
            // ulp(t) and its inverse are powers of two: every product
            // below is exact, and every count is under 2^53.
            let ulp = f64::from_bits(((e - 52) as u64) << 52);
            let inv = f64::from_bits(((2098 - e) as u64) << 52);
            let units = (t * inv) as i64;
            let q = dt * inv;
            let whole = q as i64;
            let frac = q - whole as f64;
            if frac != 0.5 {
                let r = whole + i64::from(frac > 0.5);
                if r == 0 {
                    // Every addition rounds back to `t`.
                    return t;
                }
                // Steps j < m keep `units + j·r + q` under the binade's
                // top, so each rounds to exactly `r` more ulps.
                let room = TOP - 1 - units - whole - i64::from(frac > 0.0);
                if room >= 0 {
                    let fits = i64::try_from(n - 1)
                        .ok()
                        .and_then(|k| k.checked_mul(r))
                        .is_some_and(|span| span <= room);
                    let m = if fits { n as i64 } else { room / r + 1 };
                    t = (units + m * r) as f64 * ulp;
                    n -= m as usize;
                    continue;
                }
            }
        }
        t += dt;
        n -= 1;
    }
    t
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ma(v: f64) -> Amps {
        Amps::from_milli(v)
    }

    #[test]
    fn clock_after_is_bitwise_the_repeated_sum() {
        // Grid steps, a thirds step, short-mantissa steps (including one
        // an odd number of half-ulps of a 2^41 clock), and a step under
        // half an ulp of the clock.
        let dts = [
            8e-6,
            1e-5,
            1e-4,
            0.1,
            1.0 / 3.0,
            f64::powi(2.0, -10),
            3.0 * f64::powi(2.0, -12),
            1e-12,
        ];
        let ts = [
            0.0,
            1e-7,
            0.03,
            0.999_999,
            1.0,
            123.456,
            1e6,
            f64::powi(2.0, 20) - 1e-3,
            f64::powi(2.0, 41),
        ];
        for &dt in &dts {
            for &t0 in &ts {
                let mut literal = t0;
                let mut done = 0;
                for n in [0usize, 1, 2, 7, 100, 12_345, 200_000] {
                    while done < n {
                        literal += dt;
                        done += 1;
                    }
                    let got = clock_after(t0, dt, n);
                    assert_eq!(
                        got.to_bits(),
                        literal.to_bits(),
                        "t0 {t0} dt {dt} n {n}: {got} vs {literal}"
                    );
                }
            }
        }
        // Sums landing within an ulp or two of a binade's top: `dt` is
        // `r + φ` ulps, the clock starts `10·r + c` ulps under the top.
        for e in [-6, 0, 8] {
            let ulp = f64::powi(2.0, e - 52);
            let top = f64::powi(2.0, e + 1);
            for r in [1.0, 3.0, 1000.0] {
                for phi in [-0.25, 0.25, 0.375] {
                    let dt = (r + phi) * ulp;
                    for c in 0..4 {
                        let t0 = top - (10.0 * r + f64::from(c)) * ulp;
                        let mut literal = t0;
                        for _ in 0..20 {
                            literal += dt;
                        }
                        assert_eq!(
                            clock_after(t0, dt, 20).to_bits(),
                            literal.to_bits(),
                            "e {e} r {r} φ {phi} c {c}"
                        );
                    }
                }
            }
        }
    }

    #[test]
    fn capybara_starts_charged_and_enabled() {
        let sys = PowerSystem::capybara();
        assert!(sys.v_node().approx_eq(Volts::new(2.56), 1e-9));
        assert!(sys.monitor().output_enabled());
        assert!(sys
            .buffer()
            .total_capacitance()
            .approx_eq(Farads::from_milli(45.0), 1e-12));
    }

    #[test]
    fn step_under_load_shows_esr_drop() {
        let mut sys = PowerSystem::capybara();
        sys.set_buffer_voltage(Volts::new(2.3));
        let out = sys.step(ma(25.0), DEFAULT_DT);
        assert!(out.delivering);
        // Node sits below the internal voltage by I_in·R.
        assert!(out.v_node < Volts::new(2.3));
        let expected = Volts::new(2.3 - out.i_in.get() * 3.3);
        assert!(out.v_node.approx_eq(expected, 1e-4), "v = {}", out.v_node);
    }

    #[test]
    fn esr_drop_rebounds_after_load_removed() {
        let mut sys = PowerSystem::capybara();
        sys.set_buffer_voltage(Volts::new(2.3));
        let profile = LoadProfile::constant("pulse", ma(25.0), Seconds::from_milli(10.0));
        let out = sys.run_profile(&profile, RunConfig::default());
        assert!(out.completed());
        // Figure 1b: the minimum dips well below the settled final voltage.
        assert!(out.v_min < out.v_final);
        assert!(out.v_delta().get() > 0.05, "V_δ = {}", out.v_delta());
        // Yet the energy-consumption drop (start − final) is much smaller
        // than the total drop (start − min).
        let energy_drop = out.v_start - out.v_final;
        let total_drop = out.v_start - out.v_min;
        assert!(total_drop.get() > 2.0 * energy_drop.get());
    }

    #[test]
    fn brownout_when_starting_too_low() {
        let mut sys = PowerSystem::capybara();
        // Plenty of stored energy at 1.75 V, but a 50 mA load's ESR drop
        // crosses V_off = 1.6 V: the Figure 4 scenario.
        sys.set_buffer_voltage(Volts::new(1.75));
        let profile = LoadProfile::constant("lora", ma(50.0), Seconds::from_milli(100.0));
        let out = sys.run_profile(&profile, RunConfig::default());
        assert!(!out.completed());
        assert!(out.brownout.is_some());
        // Energy remained: the buffer still holds far more than the load
        // would have consumed.
        assert!(sys.buffer().stored_energy().get() > 0.5 * 0.045 * (1.6f64.powi(2)) * 0.9);
    }

    #[test]
    fn same_energy_lower_current_completes() {
        // The same charge delivered at 5 mA over 1 s completes from 1.9 V
        // while 50 mA over 100 ms browns out from the same voltage:
        // voltage, not energy, is the binding constraint.
        let mut sys = PowerSystem::capybara();
        sys.set_buffer_voltage(Volts::new(1.9));
        let gentle = LoadProfile::constant("gentle", ma(5.0), Seconds::new(1.0));
        let out = sys.run_profile(&gentle, RunConfig::default());
        assert!(out.completed(), "brownout at {:?}", out.brownout);

        let mut sys = PowerSystem::capybara();
        sys.set_buffer_voltage(Volts::new(1.9));
        let harsh = LoadProfile::constant("harsh", ma(50.0), Seconds::from_milli(100.0));
        let out = sys.run_profile(&harsh, RunConfig::default());
        assert!(!out.completed());
    }

    #[test]
    fn monitor_gates_delivery_after_brownout() {
        let mut sys = PowerSystem::capybara();
        sys.set_buffer_voltage(Volts::new(1.7));
        let profile = LoadProfile::constant("radio", ma(50.0), Seconds::from_milli(100.0));
        let out = sys.run_profile(&profile, RunConfig::default());
        assert!(!out.completed());
        // Further steps deliver nothing until recharged to V_high.
        let next = sys.step(ma(5.0), DEFAULT_DT);
        assert!(!next.delivering);
    }

    #[test]
    fn charging_recovers_output_at_v_high() {
        let mut sys = PowerSystem::builder()
            .harvester(Harvester::ConstantCurrent(ma(10.0)))
            .initial_voltage(Volts::new(1.5))
            .cold_start()
            .build();
        assert!(!sys.monitor().output_enabled());
        // 45 mF from 1.5 V to 2.56 V at 10 mA ≈ 4.8 s.
        sys.run_idle(Seconds::new(6.0), Seconds::from_micro(100.0));
        assert!(sys.monitor().output_enabled());
        // Input booster cut off at V_high: voltage must not run away.
        assert!(sys.v_node().get() < 2.6);
    }

    #[test]
    fn energy_ledger_balances() {
        let mut sys = PowerSystem::capybara();
        sys.set_buffer_voltage(Volts::new(2.4));
        let e0 = sys.buffer().stored_energy();
        let profile = LoadProfile::constant("p", ma(25.0), Seconds::from_milli(50.0));
        let out = sys.run_profile(&profile, RunConfig::default());
        assert!(out.completed());
        let e1 = sys.buffer().stored_energy();
        let actual_delta = e1 - e0;
        let expected_delta = out
            .ledger
            .expect("a traced run takes literal steps")
            .expected_storage_delta();
        let tol = e0.get() * 1e-4 + 1e-9;
        assert!(
            actual_delta.approx_eq(expected_delta, tol),
            "actual {actual_delta} vs ledger {expected_delta}"
        );
    }

    #[test]
    fn ledger_is_itemized_until_a_chunk_commits() {
        let mut sys = PowerSystem::capybara();
        sys.set_buffer_voltage(Volts::new(2.4));
        sys.step(ma(10.0), DEFAULT_DT);
        assert!(sys.ledger().is_some(), "a literal step itemizes");
        let profile = LoadProfile::constant("p", ma(25.0), Seconds::from_milli(20.0));
        let cfg = RunConfig::coarse();
        let reference = sys.clone().run_profile_reference(&profile, cfg);
        assert!(reference.ledger.is_some());

        let mut event = sys.clone();
        let out = event.run_profile(&profile, cfg);
        assert!(out.completed());
        assert_eq!(out.ledger, None);
        assert_eq!(event.ledger(), None);
        // Literal steps after a chunk do not bring the ledger back.
        event.step(ma(10.0), DEFAULT_DT);
        assert_eq!(event.ledger(), None);
        assert!(event.delivered() > sys.delivered());
    }

    #[test]
    fn two_branch_system_rebounds_gradually() {
        let mut sys = PowerSystem::capybara_two_branch();
        sys.set_buffer_voltage(Volts::new(2.3));
        let profile = LoadProfile::constant("pulse", ma(50.0), Seconds::from_milli(10.0));
        let out = sys.run_profile(&profile, RunConfig::default());
        assert!(out.completed());
        assert!(out.v_delta().get() > 0.0);
    }

    #[test]
    fn run_outcome_v_delta_never_negative() {
        let mut sys = PowerSystem::capybara();
        sys.set_buffer_voltage(Volts::new(2.5));
        let tiny = LoadProfile::constant("tiny", Amps::from_micro(10.0), Seconds::from_milli(1.0));
        let out = sys.run_profile(&tiny, RunConfig::default());
        assert!(out.v_delta().get() >= 0.0);
    }

    #[test]
    fn collapse_reported_for_absurd_load() {
        let mut sys = PowerSystem::capybara_with_bank(Farads::from_micro(100.0), Ohms::new(80.0));
        sys.set_buffer_voltage(Volts::new(2.5));
        let out = sys.step(Amps::new(2.0), DEFAULT_DT);
        assert!(out.collapsed);
        assert!(!out.delivering);
    }
}
