//! The event-driven analytic kernel: [`PowerSystem::run_profile`] takes it
//! for the load and the rebound of every run that records no trace on a
//! plant it covers ([`in_scope`]).
//!
//! Between events — load edges from the profile's piece plan, harvester
//! window flips, `V_high`/`V_off`/collapse threshold crossings — the plant
//! is a constant-load RC network feeding a booster whose demand curve is
//! smooth, so the per-step Newton solve of the fixed-step loop is
//! redundant: the solved node voltage is an analytic function `v(S)` of the
//! supply intercept `S = Σ Vᵢ/Rᵢ + I_charge`, and `S` moves by microvolts
//! per step. The kernel re-solves the node *once per chunk* (the anchor),
//! expands `v(S)` to second order around it, and then advances whole spans
//! of the dt grid with a ~25-flop inner loop: fold `S`, evaluate the
//! Taylor, update the branch states. The Taylor is re-anchored every
//! `DELTA_V` of node movement, which keeps its truncation error near
//! 1e-12 V — two to three orders below the 1e-9 V equivalence budget
//! against the fixed-step loop, [`PowerSystem::run_profile_reference`].
//!
//! Single-branch chunks charged at constant power — every scheduler-trial
//! plant — skip even the inner loop where they can: [`crate::stride`]
//! solves the chunk's 2-D recurrence in closed form and jumps over its
//! middle, loop-stepping only a short head and the tail that finds the
//! bound exit. Strided chunks track the loop to 1e-12 V unloaded and
//! 1e-11 V loaded. Idle constant-power chunks on such plants keep the
//! same `DELTA_V` window as loaded ones, which bounds the closed form's
//! expansion of `p/v`.
//!
//! Crossings are never trusted to the analytic model: every chunk carries a
//! guard band ([`GUARD_BAND_V`]) around each live threshold (`V_off` while
//! the monitor is enabled, `V_high` while charging or recharging, the
//! booster's minimum input while delivering), checked against the computed
//! voltage *before* a step commits. Inside a band the kernel falls back to
//! literal [`PowerSystem::step`] blocks, so monitor transitions, brownout
//! verdicts, and rail collapse happen on exactly the grid step the
//! fixed-step loop would pick. A committed chunk advances the plant clock
//! bitwise as its literal steps would ([`clock_after`]), so windowed
//! sources flip on the fixed-step loop's own steps.
//!
//! One plan runner ([`PlanRun`]) drives every profile and span:
//! [`PowerSystem::run_profile`], [`EventStepper::run_profile_steps`],
//! [`EventStepper::run_const`] and [`EventStepper::run_idle_until`]. It
//! steps per-step pieces and guard-band blocks itself, through the
//! kernel's one literal [`PowerSystem::step`] call, and runs each anchored
//! chunk inline, through one dispatch table ([`run_chunk`]) onto one step
//! body ([`ChunkLoop::step`]), before committing it. Runs are simulated
//! one at a time: the chunk step is throughput-bound, so lock-stepping
//! independent runs gains nothing.
//!
//! Chunks keep no itemized energy ledger. A committed chunk meters only
//! the energy delivered to the load, which is exact in closed form
//! (`P_out·dt` per delivering step), and from then on
//! [`PowerSystem::ledger`] is `None`: conservation is audited on literal
//! steps only ([`crate::Auditor`]).

use std::borrow::Cow;

use culpeo_loadgen::{LoadProfile, ProfileCursor, Segment};
use culpeo_units::{Amps, Joules, Seconds, Volts};

use crate::{
    engine::{clock_after, LoadPhase, RunConfig},
    Harvester, MonitorState, PowerSystem, StepOutput,
};

/// Guard band around each live threshold: within this distance of
/// `V_off`, `V_high`, or the booster's minimum input, the kernel real-steps
/// so crossings land on exactly the fixed-step grid step.
const GUARD_BAND_V: f64 = 1e-3;

/// Guard band below a [`EventStepper::run_idle_until`] level, in
/// open-circuit terms. Unloaded chunks solve the node exactly (the
/// expansion is linear), so their committed states track literal steps to
/// rounding (~1e-13 V looped, within 1e-12 V strided); the band only has
/// to dwarf that, not the loaded Taylor error [`GUARD_BAND_V`] covers. A
/// 1 mV band here would real-step every idle span's last few hundred
/// steps — one idle span per dispatch in a scheduler trial.
const LEVEL_BAND_V: f64 = 1e-6;

/// Maximum node movement per Taylor anchor. The second-order expansion's
/// truncation error grows with the cube of this, so 2 mV keeps worst-case
/// per-step error near 1e-10 V (an order under the 1e-9 V equivalence
/// budget) while amortising one Newton solve over ~100 steps.
const DELTA_V: f64 = 2e-3;

/// Number of literal [`PowerSystem::step`] calls per guard-band block.
const REAL_BLOCK: usize = 32;

/// The chunk model is rejected when `G + dD/dv` falls below this fraction
/// of `G`: the operating point is approaching the fold where the Newton
/// root vanishes (rail collapse), so the reference solver must decide.
const FOLD_GUARD: f64 = 0.05;

/// Largest branch count the kernel's fixed-size state arrays cover; wider
/// plants silently run the fixed-step loop.
pub(crate) const MAX_BRANCHES: usize = 4;

/// What ends a [`EventStepper::run_const`] span early.
///
/// The fixed-step [`PowerSystem::run_profile`] loop breaks on monitor
/// recharging or undelivered load; device models (CatNap's profiler, the
/// ISR sampler) break on load faults only; rebound/settle loops never
/// break. Each caller picks the policy matching the loop it replaces.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum BreakOn {
    /// Run the full span regardless of monitor state (settle/rebound loops).
    Never,
    /// Break when a positive requested load goes undelivered (the device
    /// died mid-task): `i > 0 && !out.delivering`.
    LoadFault,
    /// Break on a load fault *or* the monitor entering
    /// [`MonitorState::Recharging`] — the `run_profile` loop's policy.
    MonitorRecharging,
}

/// How a [`EventStepper::run_const`] span ended.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum SpanEnd {
    /// Every requested step executed.
    Completed,
    /// The break policy fired.
    Broke {
        /// Steps executed including the breaking one.
        steps: usize,
        /// Output of the step that triggered the break.
        out: StepOutput,
    },
}

/// Running summary of a span: the strict-first-occurrence minimum the
/// fixed-step loop tracks, plus the collapse latch. The minimum's time is
/// kept as a clock and a step count past it ([`Acc::t_min`]), summed only
/// when it is read.
#[derive(Debug, Clone, Copy)]
struct Acc {
    v_min: f64,
    t_min_base: f64,
    t_min_steps: usize,
    collapsed: bool,
}

impl Acc {
    fn new() -> Self {
        Self {
            v_min: f64::MAX,
            t_min_base: 0.0,
            t_min_steps: 0,
            collapsed: false,
        }
    }

    /// The time of the minimum's step.
    fn t_min(&self, dt: f64) -> f64 {
        clock_after(self.t_min_base, dt, self.t_min_steps)
    }

    fn observe(&mut self, out: &StepOutput) {
        if out.collapsed {
            self.collapsed = true;
        }
        let v = out.v_node.get();
        if v < self.v_min {
            self.v_min = v;
            self.t_min_base = out.t.get();
            self.t_min_steps = 0;
        }
    }
}

/// The per-step observer: the node voltage of each committed step, in
/// order. Only the device profilers attach one.
type Sink<'s> = Option<&'s mut dyn FnMut(f64)>;

/// The charge source seen by one chunk: either a constant current for the
/// whole span (Off, constant-current, one phase of a windowed source) or
/// constant-power charging, whose current is an explicit function of the
/// previous step's node voltage (`i = p / v_prev`, clamps guarded away).
#[derive(Debug, Clone, Copy, PartialEq)]
pub(crate) enum Charge {
    Const(f64),
    Power(f64),
}

/// The post-step break check shared by every span/plan loop — evaluated
/// *after* a step executes, exactly like the fixed-step loops it replaces.
fn breaks(brk: BreakOn, i: Amps, out: &StepOutput) -> bool {
    let fault = i.get() > 0.0 && !out.delivering;
    match brk {
        BreakOn::Never => false,
        BreakOn::LoadFault => fault,
        BreakOn::MonitorRecharging => fault || out.monitor == MonitorState::Recharging,
    }
}

/// Work counters of one [`EventStepper`]: how its steps were advanced.
/// They count the steps actually executed, so a span that breaks counts
/// up to its breaking step.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct KernelCounters {
    /// Committed chunks (looped or strided).
    pub chunks: u64,
    /// Grid steps committed by chunks.
    pub chunk_steps: u64,
    /// Chunks that took a closed-form stride.
    pub strided_chunks: u64,
    /// Literal [`PowerSystem::step`] calls (guard bands, per-step pieces,
    /// incapable plants).
    pub real_steps: u64,
}

impl KernelCounters {
    /// Adds `other`'s counts to these.
    pub fn add(&mut self, other: &KernelCounters) {
        self.chunks += other.chunks;
        self.chunk_steps += other.chunk_steps;
        self.strided_chunks += other.strided_chunks;
        self.real_steps += other.real_steps;
    }
}

/// Whether the chunk model covers `sys` at step `dt`: at most
/// [`MAX_BRANCHES`] branches, all connected (floating branches follow
/// leak-only dynamics), and a charge source it can follow. Constant-power
/// charging is the chunk loop's explicit `i = p/v_prev` recurrence (clamps
/// guarded away); windowed sources flipping nearly every step would chunk
/// badly, so they stay on the reference loop.
fn covers(sys: &PowerSystem, dt: f64) -> bool {
    let buffer = sys.buffer();
    let n = buffer.branches().len();
    dt > 0.0
        && n <= MAX_BRANCHES
        && (0..n).all(|b| buffer.branch_connected(b))
        && match sys.harvester() {
            Harvester::Off | Harvester::ConstantCurrent(_) | Harvester::ConstantPower(_) => true,
            Harvester::Windowed { period, .. } => period.get() >= 4.0 * dt,
        }
}

/// Whether [`PowerSystem::run_profile`] under `cfg` runs on the event
/// kernel: exactly when it records no trace and the chunk model covers the
/// plant. Every other run takes the fixed-step loop.
pub(crate) fn in_scope(sys: &PowerSystem, cfg: &RunConfig) -> bool {
    cfg.record_stride.is_none() && covers(sys, cfg.dt.get())
}

/// The event kernel's stepping facade over a [`PowerSystem`].
///
/// Drives the same plant state as [`PowerSystem::step`] — afterwards the
/// system's buffer voltages, monitor state, clock, and delivered-energy
/// meter are where a fixed-step caller would have left them (to ~1e-12 V
/// per chunk idle, a few 1e-12 V over a 1.8 s charge, ~1e-11 V under
/// load) — but advances quiet spans with the
/// anchored-Taylor chunk loop, or its closed-form stride, instead of one
/// Newton solve per step. Once a chunk commits, the plant keeps no
/// itemized ledger ([`PowerSystem::ledger`] is `None`).
/// It is how library code advances a plant outside the fixed-step
/// reference loop: device models, the intermittent runtime and the
/// schedulers run their loads, idle spans and charge waits on its spans,
/// and `run_profile` goes through the internal piece planner.
pub struct EventStepper<'a> {
    sys: &'a mut PowerSystem,
    dt: f64,
    n: usize,
    /// Per-branch 1/R, dt/C and leakage (A).
    rinv: [f64; MAX_BRANCHES],
    dtc: [f64; MAX_BRANCHES],
    leak: [f64; MAX_BRANCHES],
    g: f64,
    v_high: f64,
    v_off: f64,
    min_input: f64,
    capable: bool,
    counters: KernelCounters,
}

impl<'a> EventStepper<'a> {
    /// Wraps a system for event-driven stepping at step size `dt`.
    ///
    /// Always succeeds; on plants the chunk model does not cover
    /// (fast-flipping windowed harvesters, disconnected or >4 branches)
    /// the stepper still works but [`EventStepper::capable`] is false and
    /// every span real-steps.
    #[must_use]
    pub fn new(sys: &'a mut PowerSystem, dt: Seconds) -> Self {
        let dt = dt.get();
        let n = sys.buffer().branches().len();
        let capable = covers(sys, dt);
        let mut rinv = [0.0; MAX_BRANCHES];
        let mut dtc = [0.0; MAX_BRANCHES];
        let mut leak = [0.0; MAX_BRANCHES];
        let mut g = 0.0;
        if capable {
            for (b, branch) in sys.buffer().branches().iter().enumerate() {
                let r = branch.esr().get();
                rinv[b] = 1.0 / r;
                dtc[b] = dt / branch.capacitance().get();
                leak[b] = branch.leakage().get();
                g += 1.0 / r;
            }
        }
        let v_high = sys.monitor().v_high().get();
        let v_off = sys.monitor().v_off().get();
        let min_input = sys.booster().min_input().get();
        Self {
            sys,
            dt,
            n,
            rinv,
            dtc,
            leak,
            g,
            v_high,
            v_off,
            min_input,
            capable,
            counters: KernelCounters::default(),
        }
    }

    /// How this stepper has advanced its plant so far.
    #[must_use]
    pub fn counters(&self) -> KernelCounters {
        self.counters
    }

    /// True when the plant admits chunked advancement; false means every
    /// span degrades to literal [`PowerSystem::step`] calls.
    #[must_use]
    pub fn capable(&self) -> bool {
        self.capable
    }

    /// The plant being stepped, for read-only inspection between spans.
    #[must_use]
    pub fn system(&self) -> &PowerSystem {
        self.sys
    }

    /// The node voltage solved at the most recent step, as
    /// [`PowerSystem::step`]'s return would have reported it.
    #[must_use]
    pub fn last_step_v(&self) -> Volts {
        self.sys.last_v()
    }

    /// The unloaded node voltage right now (what an idle ADC would read).
    #[must_use]
    pub fn v_node(&self) -> Volts {
        self.sys.v_node()
    }

    /// Runs `steps` steps of a constant requested load, breaking per the
    /// policy, optionally feeding every step's node voltage to `sink`.
    ///
    /// Semantically equivalent (to ~1e-12 V unloaded, ~1e-11 V loaded) to
    /// calling [`PowerSystem::step`] `steps` times with the same break
    /// checks after each call.
    pub fn run_const(
        &mut self,
        i_load: Amps,
        steps: usize,
        brk: BreakOn,
        sink: Sink<'_>,
    ) -> SpanEnd {
        let plan = [Piece::Const { i: i_load, steps }];
        let run = PlanRun::new(Cow::Borrowed(&plan), None, Amps::ZERO, brk);
        self.run_plan(run, sink)
    }

    /// Runs the first `steps` grid steps of `profile` with `offset` added
    /// to every step's requested current (a profiler's own draw, charged
    /// to the task), breaking per the policy, optionally feeding every
    /// step's node voltage to `sink`.
    ///
    /// Reproduces the fixed-step idiom
    /// `sys.step(profile.current_at(k·dt) + offset, dt)` step for step,
    /// including the profile's boundary semantics at and past its end.
    pub fn run_profile_steps(
        &mut self,
        profile: &LoadProfile,
        steps: usize,
        offset: Amps,
        brk: BreakOn,
        sink: Sink<'_>,
    ) -> SpanEnd {
        let plan = plan_pieces(profile, self.dt, steps, offset);
        let run = PlanRun::new(Cow::Owned(plan), Some(profile.cursor()), offset, brk);
        self.run_plan(run, sink)
    }

    /// Runs a plan to its end, every chunk inline.
    fn run_plan(&mut self, mut run: PlanRun<'_>, mut sink: Sink<'_>) -> SpanEnd {
        run.run_inline(self, &mut sink);
        match run.broke {
            None => SpanEnd::Completed,
            Some(out) => SpanEnd::Broke { steps: run.k, out },
        }
    }

    /// Runs up to `steps` unloaded steps, stopping after the first step
    /// whose post-step [`PowerSystem::v_node`] reaches `level` (if any) or
    /// whose monitor state differs from the state at span start.
    ///
    /// Semantically equivalent (to ~1e-12 V) to the literal loop
    /// `sys.step(0, dt)` + break check, strided chunks included. Chunks
    /// stop a 1 µV band short of `level` in open-circuit terms and the
    /// crossing itself is real-stepped, so the break lands on the grid step
    /// the literal loop would pick. The output in [`SpanEnd::Broke`] is the breaking
    /// step's (synthesised from the chunk state when the crossing falls on
    /// a chunk's last step).
    pub fn run_idle_until(&mut self, steps: usize, level: Option<Volts>) -> SpanEnd {
        let plan = [Piece::Const {
            i: Amps::ZERO,
            steps,
        }];
        let mut run = PlanRun::new(Cow::Borrowed(&plan), None, Amps::ZERO, BreakOn::Never);
        run.level = level.map(Volts::get);
        run.monitor = Some(self.sys.monitor().state());
        self.run_plan(run, None)
    }

    /// Upper bound on an unloaded chunk's solved node voltage `v` that keeps
    /// every step's *pre-step* open-circuit voltage `v − i_charge/G` a guard
    /// band under `level`. Constant charge shifts the bound by `i/G`;
    /// constant power's `i = p/v_prev` is bounded below through the largest
    /// `v_prev` the chunk can see — the anchor's, or the bound itself, whose
    /// fixed point `h = L + p/(G·h)` closes the circularity.
    fn level_bound(&self, prep: &ChunkPrep, level: f64) -> f64 {
        let l = level - LEVEL_BAND_V;
        if prep.is_cp {
            let pg = prep.params.p_pow / self.g;
            let h = 0.5 * (l + (l * l + 4.0 * pg).sqrt());
            l + pg / h.max(prep.params.v_prev)
        } else {
            l + prep.ic / self.g
        }
    }

    /// Decides how the next stretch of a constant-condition span advances:
    /// `Some((charge, max_steps))` when the chunk model may try (states the
    /// policy could break on within a step, imminent `V_high` crossings,
    /// and incapable plants all force `None` → real-step).
    fn span_action(&self, i_load: Amps, remaining: usize, brk: BreakOn) -> Option<(Charge, usize)> {
        if !self.capable {
            return None;
        }
        let loaded = i_load.get() > 0.0;
        let enabled = self.sys.monitor().output_enabled();
        let policy_live = match brk {
            BreakOn::Never => false,
            BreakOn::LoadFault => loaded && !enabled,
            BreakOn::MonitorRecharging => {
                (loaded && !enabled) || self.sys.monitor().state() == MonitorState::Recharging
            }
        };
        if policy_live {
            return None;
        }
        let (charge, phase_steps) = self.harvest_phase(remaining);
        let near_high = self.sys.last_v().get() >= self.v_high - GUARD_BAND_V;
        let (charging, nonneg) = match charge {
            Charge::Const(ic) => (ic != 0.0, ic >= 0.0),
            Charge::Power(p) => (p != 0.0, p >= 0.0),
        };
        let needs_high_rail = charging || !enabled;
        if nonneg && !(needs_high_rail && near_high) {
            Some((charge, phase_steps))
        } else {
            None
        }
    }

    /// The charge mode for the system's *current* window phase and how
    /// many steps that phase still covers (both bounded by `remaining`).
    fn harvest_phase(&self, remaining: usize) -> (Charge, usize) {
        match self.sys.harvester() {
            Harvester::Off => (Charge::Const(0.0), remaining),
            Harvester::ConstantCurrent(i) => (Charge::Const(i.get()), remaining),
            Harvester::ConstantPower(p) => (Charge::Power(p.get()), remaining),
            Harvester::Windowed {
                i,
                period,
                duty,
                phase,
            } => {
                let p = period.get();
                if p <= 0.0 {
                    return (Charge::Const(0.0), remaining);
                }
                let d = duty.clamp(0.0, 1.0);
                let t = self.sys.time().get();
                let gate = |x: f64| ((x + phase.get()) / p).rem_euclid(1.0) < d;
                let cycle = ((t + phase.get()) / p).rem_euclid(1.0);
                let on = cycle < d;
                let t_flip = if on {
                    (d - cycle) * p
                } else {
                    (1.0 - cycle) * p
                };
                let mut l = (t_flip / self.dt).ceil().max(1.0) as usize;
                l = l.min(remaining).max(1);
                // Float slop near the flip: shrink until the last covered
                // step is verifiably still in this phase.
                while l > 1 && gate(clock_after(t, self.dt, l - 1)) != on {
                    l -= 1;
                }
                (Charge::Const(if on { i.get() } else { 0.0 }), l)
            }
        }
    }

    /// Anchors one chunk of at most `max_steps` steps: resolves the charge
    /// mode, solves the node
    /// exactly, expands `v(S)` to second order, and assembles the guard
    /// bounds. `None` on any model-scope guard (rail collapse, an η kink
    /// inside the validity window, fold proximity, the constant-power clamp
    /// range) — the caller must real-step.
    #[allow(clippy::too_many_lines)]
    pub(crate) fn prepare_chunk(
        &self,
        i_load: Amps,
        charge: Charge,
        max_steps: usize,
    ) -> Option<Chunk> {
        let n = self.n;
        let enabled = self.sys.monitor().output_enabled();
        let delivering = enabled && i_load.get() > 0.0;
        let booster = *self.sys.booster();

        // Resolve the charge mode. Constant-power charging is evaluated by
        // the reference at the *previous* step's solved voltage, so it is
        // an explicit recurrence the chunk loop can follow with one extra
        // division per step. Its clamps — `i = (p/max(v, 1e-3)).min(0.1)` —
        // are kept out of scope by a lower guard bound with margin, so the
        // in-chunk division is bitwise the reference's current.
        let last_v = self.sys.last_v().get();
        let (ic, p_pow, cp_lo) = match charge {
            Charge::Const(i) => (i, 0.0, f64::NEG_INFINITY),
            Charge::Power(p) => {
                let cp_lo = (10.0 * p * 1.0001).max(1.001e-3);
                if last_v <= cp_lo {
                    return None;
                }
                (p / last_v, p, cp_lo)
            }
        };
        let is_cp = matches!(charge, Charge::Power(_));

        let mut y = [0.0; MAX_BRANCHES];
        for (b, branch) in self.sys.buffer().branches().iter().enumerate() {
            y[b] = branch.v_internal().get();
        }
        let mut w0 = 0.0;
        for (&yb, &rb) in y.iter().zip(&self.rinv).take(n) {
            w0 += yb * rb;
        }

        // Anchor: exact node solve + local expansion v(S) ≈ v0 + β·dS + ½γ·dS².
        let (v0, beta, gamma, p_out) = if delivering {
            let (v_node, _, collapsed) =
                self.sys
                    .buffer()
                    .node_root(&booster, i_load, Amps::new(ic), None);
            if collapsed {
                return None;
            }
            let v0 = v_node.get();
            let p_out = (booster.v_out() * i_load).get();
            let curve = booster.efficiency();
            let (eta0, s) = curve.at_with_slope(Volts::new(v0));
            // The expansion assumes η stays on one piece of its clamped
            // line across the whole validity window; a kink inside it
            // (floor/ceiling knee) sends the span to the reference loop.
            let (el, sl) = curve.at_with_slope(Volts::new(v0 - DELTA_V));
            let (eh, sh) = curve.at_with_slope(Volts::new(v0 + DELTA_V));
            if sl != s || sh != s || (s == 0.0 && (el != eta0 || eh != eta0)) {
                return None;
            }
            // Demand D(v) = P/(η·v); with u = η·v: D' = −D·u'/u,
            // D'' = 2D·(u'² − s·u)/u². Then β = 1/(G + D'), γ = −D''·β³.
            let u0 = eta0 * v0;
            let d0 = p_out / u0;
            let up = s * v0 + eta0;
            let dp = -d0 * up / u0;
            let ddp = 2.0 * d0 * (up * up - s * u0) / (u0 * u0);
            let denom = self.g + dp;
            if denom <= FOLD_GUARD * self.g {
                return None;
            }
            let beta = 1.0 / denom;
            (v0, beta, -ddp * beta * beta * beta, p_out)
        } else {
            // Unloaded node: exact linear solve, the expansion is exact.
            ((w0 + ic) / self.g, 1.0 / self.g, 0.0, 0.0)
        };

        // Guard bounds: every live threshold plus the Taylor's own
        // validity window, all checked on v before a step commits.
        let mut lo = cp_lo;
        let mut hi = f64::INFINITY;
        if enabled {
            lo = lo.max(self.v_off + GUARD_BAND_V);
        }
        if delivering {
            lo = lo.max(self.min_input + GUARD_BAND_V).max(v0 - DELTA_V);
            hi = hi.min(v0 + DELTA_V);
        }
        if ic != 0.0 || !enabled {
            hi = hi.min(self.v_high - GUARD_BAND_V);
        }
        if is_cp && n == 1 && !delivering {
            // The stride's expansion of p/v holds within the same window
            // as the loaded Taylor's.
            lo = lo.max(v0 - DELTA_V);
            hi = hi.min(v0 + DELTA_V);
        }

        let t_base = self.sys.time().get();
        let prep = ChunkPrep {
            params: ChunkParams {
                v0,
                w0,
                beta,
                gamma,
                lo,
                hi,
                delivering,
                p_out,
                p_pow,
                ic0: ic,
                v_prev: last_v,
                rinv: self.rinv,
                dtc: self.dtc,
                leak: self.leak,
            },
            y,
            n,
            is_cp,
            ic,
            t_base,
        };
        Some(Chunk {
            prep,
            max_steps,
            tally: ChunkTally::new(),
        })
    }

    /// Commits a chunk [`run_chunk`] has run: clock, last solved
    /// voltage, delivered energy, branch charges, and the span
    /// accumulator. A zero-step result commits nothing.
    fn commit_chunk(&mut self, chunk: &Chunk, acc: &mut Acc) {
        let Chunk { prep, tally, .. } = chunk;
        let ChunkTally {
            v_last,
            v_min,
            k_min,
            done,
            ..
        } = *tally;
        if done == 0 {
            return;
        }
        self.counters.chunks += 1;
        self.counters.chunk_steps += done as u64;
        self.counters.strided_chunks += u64::from(tally.strided);
        let dt = self.dt;
        if v_min < acc.v_min {
            acc.v_min = v_min;
            acc.t_min_base = prep.t_base;
            acc.t_min_steps = k_min + 1;
        }
        self.sys.advance_steps(done, dt);
        self.sys.set_last_v(Volts::new(v_last));
        let delivered = if prep.params.delivering {
            prep.params.p_out * dt * done as f64
        } else {
            0.0
        };
        self.sys.meter_chunk(Joules::new(delivered));
        for (b, branch) in self
            .sys
            .buffer_mut()
            .branches_mut()
            .iter_mut()
            .enumerate()
            .take(self.n)
        {
            branch.set_v_internal(Volts::new(prep.y[b]));
        }
    }
}

/// An anchored chunk ready to run: the inner-loop parameters, a working
/// copy of the branch charges, and everything the commit phase needs.
#[derive(Clone, Copy)]
pub(crate) struct ChunkPrep {
    pub(crate) params: ChunkParams,
    pub(crate) y: [f64; MAX_BRANCHES],
    /// The plant's branch count: with `is_cp`, the chunk's shape.
    pub(crate) n: usize,
    pub(crate) is_cp: bool,
    pub(crate) ic: f64,
    pub(crate) t_base: f64,
}

/// Loop-invariant parameters of one chunk's inner loop.
#[derive(Clone, Copy)]
pub(crate) struct ChunkParams {
    pub(crate) v0: f64,
    pub(crate) w0: f64,
    pub(crate) beta: f64,
    pub(crate) gamma: f64,
    pub(crate) lo: f64,
    pub(crate) hi: f64,
    pub(crate) delivering: bool,
    pub(crate) p_out: f64,
    /// Constant-power mode (`CP = true`): the power, the anchor's charge
    /// current `p/v_prev`, and the entry value of the previous-step
    /// voltage. Dead when the charge is constant.
    pub(crate) p_pow: f64,
    pub(crate) ic0: f64,
    pub(crate) v_prev: f64,
    pub(crate) rinv: [f64; MAX_BRANCHES],
    pub(crate) dtc: [f64; MAX_BRANCHES],
    pub(crate) leak: [f64; MAX_BRANCHES],
}

/// What a chunk's run reports to its commit: the last and lowest node
/// voltages and the steps taken.
#[derive(Clone, Copy)]
pub(crate) struct ChunkTally {
    pub(crate) v_last: f64,
    pub(crate) v_min: f64,
    pub(crate) k_min: usize,
    pub(crate) done: usize,
    /// The chunk took a closed-form stride.
    pub(crate) strided: bool,
}

impl ChunkTally {
    /// No steps yet (`v_min` starts at `f64::MAX`).
    pub(crate) fn new() -> Self {
        Self {
            v_last: 0.0,
            v_min: f64::MAX,
            k_min: 0,
            done: 0,
            strided: false,
        }
    }
}

/// An anchored chunk on its way through the kernel: prepared, run by
/// [`run_chunk`] (which advances `prep.y` and fills `tally`), committed.
#[derive(Clone, Copy)]
pub(crate) struct Chunk {
    pub(crate) prep: ChunkPrep,
    /// Most grid steps the chunk may cover.
    pub(crate) max_steps: usize,
    pub(crate) tally: ChunkTally,
}

/// Runs one chunk: the event kernel's one dispatch table. It
/// monomorphises on the branch count and charge mode so the per-branch
/// loops unroll, every array index is bounds-check-free, and the
/// constant-charge path carries no per-step division. Single-branch
/// constant-power chunks take the closed-form stride unless `observe`
/// wants every step.
fn run_chunk(chunk: &mut Chunk, observe: Option<&mut dyn FnMut(f64)>) {
    match (chunk.prep.n, chunk.prep.is_cp) {
        (1, false) => run_shape::<1, false>(chunk, observe),
        (2, false) => run_shape::<2, false>(chunk, observe),
        (3, false) => run_shape::<3, false>(chunk, observe),
        (_, false) => run_shape::<4, false>(chunk, observe),
        (1, true) => run_shape::<1, true>(chunk, observe),
        (2, true) => run_shape::<2, true>(chunk, observe),
        (3, true) => run_shape::<3, true>(chunk, observe),
        (_, true) => run_shape::<4, true>(chunk, observe),
    }
}

fn run_shape<const N: usize, const CP: bool>(c: &mut Chunk, observe: Option<&mut dyn FnMut(f64)>) {
    c.tally = if let Some(f) = observe {
        chunk_loop::<N, CP, _>(&c.prep.params, &mut c.prep.y, c.max_steps, f)
    } else if N == 1 && CP {
        crate::stride::chunk_cp1(&c.prep.params, &mut c.prep.y, c.max_steps)
    } else {
        chunk_loop::<N, CP, _>(&c.prep.params, &mut c.prep.y, c.max_steps, &mut |_| {})
    };
}

/// One chunk's loop-invariant step coefficients and loop-carried state:
/// the cheap step [`chunk_loop`] takes.
///
/// Per-branch affine step y' = a·y + bv·v + c (algebraically the
/// reference integrator's y − (i + leak)·dt/C), plus its fold into the
/// intercept offset: ds' = Σ aw·y + bw·v + cwm. Expressing the recurrence
/// this way keeps the loop-carried critical path to three fused
/// multiply-adds (v → ds → v); branch updates fall off the path.
/// Rounding differs from the reference by ~1 ulp per step (~1e-13 V over
/// the longest chunk), far inside the budget.
#[derive(Clone, Copy)]
struct ChunkLoop<const N: usize> {
    a: [f64; N],
    bv: [f64; N],
    c: [f64; N],
    aw: [f64; N],
    bw: f64,
    cwm: f64,
    g2: f64,
    ds: f64,
    /// Constant-power mode: the reference evaluates `i = p/v` at the
    /// previous step's solved voltage, so the charge current is a second
    /// recurrence riding on v; `ds` keeps tracking only the branch fold and
    /// the charge delta joins at evaluation time.
    vprev: f64,
}

// Index loops over the first N slots of MAX_BRANCHES-sized arrays are
// deliberate: N is the const-generic branch count.
#[allow(clippy::needless_range_loop)]
impl<const N: usize> ChunkLoop<N> {
    #[inline(always)]
    fn new(p: &ChunkParams, y: &[f64; MAX_BRANCHES]) -> Self {
        let mut l = Self {
            a: [0.0; N],
            bv: [0.0; N],
            c: [0.0; N],
            aw: [0.0; N],
            bw: 0.0,
            cwm: -p.w0,
            g2: 0.5 * p.gamma,
            ds: 0.0,
            vprev: p.v_prev,
        };
        for b in 0..N {
            l.bv[b] = p.rinv[b] * p.dtc[b];
            l.a[b] = 1.0 - l.bv[b];
            l.c[b] = -(p.leak[b] * p.dtc[b]);
            l.aw[b] = p.rinv[b] * l.a[b];
            l.bw += p.rinv[b] * l.bv[b];
            l.cwm += p.rinv[b] * l.c[b];
        }
        // The anchor's fold is reproduced bitwise, so ds starts at exactly 0.
        let mut w = 0.0;
        for b in 0..N {
            w += y[b] * p.rinv[b];
        }
        l.ds = w - p.w0;
        l
    }

    /// The cheap step: fold the supply intercept, evaluate the anchored
    /// Taylor, advance the branch charges `y`. Returns the step's node
    /// voltage, or `None` — committing nothing — at a guard-bound exit or
    /// branch-charge floor.
    #[inline(always)]
    fn step<const CP: bool>(
        &mut self,
        p: &ChunkParams,
        y: &mut [f64; MAX_BRANCHES],
        s: &mut ChunkTally,
    ) -> Option<f64> {
        let dst = if CP {
            self.ds + (p.p_pow / self.vprev - p.ic0)
        } else {
            self.ds
        };
        let v = p.v0 + dst * (p.beta + self.g2 * dst);
        if !(v > p.lo && v < p.hi) {
            return None;
        }
        let mut ynew = [0.0; N];
        let mut floored = false;
        let mut t_off = self.cwm;
        for b in 0..N {
            let next = self.a[b] * y[b] + (self.bv[b] * v + self.c[b]);
            // The reference integrator clamps a depleted branch at zero
            // charge; hand that step to it instead of committing.
            floored |= next < 0.0;
            ynew[b] = next;
            t_off += self.aw[b] * y[b];
        }
        if floored {
            return None;
        }
        y[..N].copy_from_slice(&ynew);
        self.ds = self.bw * v + t_off;
        if CP {
            self.vprev = v;
        }
        if v < s.v_min {
            s.v_min = v;
            s.k_min = s.done;
        }
        s.done += 1;
        s.v_last = v;
        Some(v)
    }
}

/// The scalar chunk loop: up to `max_steps` [`ChunkLoop::step`]s,
/// reporting each committed step's node voltage to `observe`.
pub(crate) fn chunk_loop<const N: usize, const CP: bool, F: FnMut(f64) + ?Sized>(
    p: &ChunkParams,
    y: &mut [f64; MAX_BRANCHES],
    max_steps: usize,
    observe: &mut F,
) -> ChunkTally {
    let mut s = ChunkTally::new();
    let mut l = ChunkLoop::<N>::new(p, y);
    while s.done < max_steps {
        let Some(v) = l.step::<CP>(p, y, &mut s) else {
            break;
        };
        observe(v);
    }
    s
}

/// One run of equal-condition grid steps from the profile's piece plan.
#[derive(Clone, Copy)]
enum Piece {
    /// `steps` steps at one constant requested current.
    Const {
        /// The requested current of every step in the run.
        i: Amps,
        /// Run length in grid steps.
        steps: usize,
    },
    /// `steps` steps whose current must be evaluated per step (ramps, the
    /// trailing boundary of the grid).
    Each {
        /// First grid index of the run.
        k0: usize,
        /// Run length in grid steps.
        steps: usize,
    },
}

/// Splits the fixed-step grid `k ∈ [0, total)` into constant-current runs,
/// reproducing the fixed-step loop's exact per-step current choice
/// `profile.current_at(k·dt) + offset` (boundary semantics included).
/// `Piece::Const` currents carry the offset; `Piece::Each` steps add it
/// when they are evaluated.
fn plan_pieces(profile: &LoadProfile, dt: f64, total: usize, offset: Amps) -> Vec<Piece> {
    // Rebuild the cumulative segment end times with the builder's own fold
    // so boundary comparisons see bit-identical values.
    let segments = profile.segments();
    let mut ends = Vec::with_capacity(segments.len());
    let mut acc = 0.0;
    for s in segments {
        acc += s.duration().get();
        ends.push(acc);
    }

    // First grid step at or past time `e`: smallest k with k·dt ≥ e,
    // located with the exact grid expression rather than float division.
    let k_at = |e: f64| -> usize {
        let mut k = (e / dt).ceil().max(0.0) as usize;
        while k > 0 && (k - 1) as f64 * dt >= e {
            k -= 1;
        }
        while (k as f64) * dt < e {
            k += 1;
        }
        k
    };

    let mut pieces = Vec::new();
    let push_const = |pieces: &mut Vec<Piece>, i: Amps, steps: usize| {
        if steps == 0 {
            return;
        }
        if let Some(Piece::Const { i: pi, steps: ps }) = pieces.last_mut() {
            if *pi == i {
                *ps += steps;
                return;
            }
        }
        pieces.push(Piece::Const { i, steps });
    };

    let mut k = 0usize;
    for (j, seg) in segments.iter().enumerate() {
        if k >= total {
            break;
        }
        let k_end = k_at(ends[j]).min(total);
        if k_end <= k {
            continue;
        }
        let steps = k_end - k;
        match *seg {
            Segment::Constant { current, .. } => push_const(&mut pieces, current, steps),
            Segment::Burst { .. } => {
                // Run-length encode the burst's on/off lattice with the
                // profile's own evaluator, so edge steps land exactly
                // where the fixed-step cursor puts them.
                let mut run_i = profile.current_at(Seconds::new(k as f64 * dt));
                let mut run_len = 1usize;
                for kk in (k + 1)..k_end {
                    let i = profile.current_at(Seconds::new(kk as f64 * dt));
                    if i == run_i {
                        run_len += 1;
                    } else {
                        push_const(&mut pieces, run_i, run_len);
                        run_i = i;
                        run_len = 1;
                    }
                }
                push_const(&mut pieces, run_i, run_len);
            }
            Segment::Ramp { .. } => pieces.push(Piece::Each { k0: k, steps }),
        }
        k = k_end;
    }
    if k < total {
        // Steps at or past the last segment end: terminal-value/zero
        // boundary semantics, evaluated per step.
        pieces.push(Piece::Each {
            k0: k,
            steps: total - k,
        });
    }
    // Runs are merged on the profile's own currents; the offset joins
    // after, exactly as the per-step idiom adds it.
    for piece in &mut pieces {
        if let Piece::Const { i, .. } = piece {
            *i = Amps::new(i.get() + offset.get());
        }
    }
    pieces
}

/// The event kernel's one plan runner: a piece plan in progress on an
/// [`EventStepper`]. It steps `Piece::Each` steps and guard-band
/// [`REAL_BLOCK`]s itself and stops at each anchored chunk, which
/// [`PlanRun::run_inline`] runs and hands back to [`PlanRun::commit`].
/// Every call takes the same stepper.
struct PlanRun<'p> {
    plan: Cow<'p, [Piece]>,
    /// Evaluates `Piece::Each` steps; plans without them carry none.
    cursor: Option<ProfileCursor<'p>>,
    /// Added to each `Piece::Each` step's current.
    offset: Amps,
    brk: BreakOn,
    /// [`EventStepper::run_idle_until`]'s stop rule: stop after a step
    /// whose open-circuit voltage reaches `level` or whose monitor state
    /// differs from `monitor`.
    level: Option<f64>,
    monitor: Option<MonitorState>,
    /// The current piece and the steps done inside it.
    piece: usize,
    off: usize,
    /// Steps done over the whole plan.
    k: usize,
    acc: Acc,
    /// Output of the step the break policy fired on.
    broke: Option<StepOutput>,
    /// The last chunk committed nothing: real-step one block before the
    /// next anchor.
    force_real: bool,
}

impl<'p> PlanRun<'p> {
    fn new(
        plan: Cow<'p, [Piece]>,
        cursor: Option<ProfileCursor<'p>>,
        offset: Amps,
        brk: BreakOn,
    ) -> Self {
        Self {
            plan,
            cursor,
            offset,
            brk,
            level: None,
            monitor: None,
            piece: 0,
            off: 0,
            k: 0,
            acc: Acc::new(),
            broke: None,
            force_real: false,
        }
    }

    /// Advances literal steps until a chunk is anchored (returned, to be
    /// run and [`PlanRun::commit`]ted) or the plan completes or breaks
    /// (`None`, and every later call answers `None` too).
    fn next_chunk(&mut self, st: &mut EventStepper<'_>, sink: &mut Sink<'_>) -> Option<Chunk> {
        while self.broke.is_none() {
            match *self.plan.get(self.piece)? {
                Piece::Each { k0, steps } if self.off < steps => {
                    let t = Seconds::new((k0 + self.off) as f64 * st.dt);
                    let cursor = self.cursor.as_mut().expect("per-step pieces have a cursor");
                    let i = Amps::new(cursor.current_at(t).get() + self.offset.get());
                    self.real_step(st, i, sink);
                }
                Piece::Const { i, steps } if self.off < steps => {
                    let remaining = steps - self.off;
                    let chunk = self.anchor(st, i, remaining);
                    if chunk.is_some() {
                        return chunk;
                    }
                    // Guard-band (or incapable-plant) block: literal steps
                    // with the exact fixed-step break semantics.
                    for _ in 0..remaining.min(REAL_BLOCK) {
                        if self.real_step(st, i, sink) {
                            break;
                        }
                    }
                }
                _ => {
                    self.piece += 1;
                    self.off = 0;
                }
            }
        }
        None
    }

    /// Anchors a chunk of constant load `i` over at most `remaining`
    /// steps, unless the span must real-step.
    fn anchor(&mut self, st: &EventStepper<'_>, i: Amps, remaining: usize) -> Option<Chunk> {
        if std::mem::take(&mut self.force_real) {
            return None;
        }
        let (charge, max_steps) = st.span_action(i, remaining, self.brk)?;
        let mut chunk = st.prepare_chunk(i, charge, max_steps)?;
        if let Some(level) = self.level {
            let bound = st.level_bound(&chunk.prep, level);
            chunk.prep.params.hi = chunk.prep.params.hi.min(bound);
        }
        Some(chunk)
    }

    /// One literal [`PowerSystem::step`], observed and break-checked
    /// after it executes. True when the policy fired.
    fn real_step(&mut self, st: &mut EventStepper<'_>, i: Amps, sink: &mut Sink<'_>) -> bool {
        let out = st.sys.step(i, Seconds::new(st.dt));
        st.counters.real_steps += 1;
        self.acc.observe(&out);
        if let Some(f) = sink.as_mut() {
            f(out.v_node.get());
        }
        self.off += 1;
        self.k += 1;
        let left = self.monitor.is_some_and(|m| out.monitor != m);
        if left || self.reached(st.sys) || breaks(self.brk, i, &out) {
            self.broke = Some(out);
        }
        self.broke.is_some()
    }

    /// Commits a chunk from [`PlanRun::next_chunk`] once it has run. A
    /// chunk that committed nothing forces one real-step block. Only a
    /// chunk's last step can reach the level (the bound checked the rest),
    /// and chunks cross no monitor threshold.
    fn commit(&mut self, st: &mut EventStepper<'_>, chunk: &Chunk) {
        let done = chunk.tally.done;
        st.commit_chunk(chunk, &mut self.acc);
        self.off += done;
        self.k += done;
        self.force_real = done == 0;
        if done > 0 && self.reached(st.sys) {
            self.broke = Some(StepOutput {
                t: st.sys.time(),
                v_node: st.sys.last_v(),
                i_in: Amps::ZERO,
                delivering: false,
                collapsed: false,
                monitor: st.sys.monitor().state(),
            });
        }
    }

    fn reached(&self, sys: &PowerSystem) -> bool {
        self.level.is_some_and(|l| sys.v_node().get() >= l)
    }

    /// Runs the plan to its end, every chunk inline.
    fn run_inline(&mut self, st: &mut EventStepper<'_>, sink: &mut Sink<'_>) {
        while let Some(mut chunk) = self.next_chunk(st, sink) {
            let observe = sink.as_mut().map(|f| &mut **f as &mut dyn FnMut(f64));
            run_chunk(&mut chunk, observe);
            self.commit(st, &chunk);
        }
    }
}

/// The event kernel's load phase of an [`in_scope`] run: `steps ≥ 1` grid
/// steps of `profile` on the plan runner under the `run_profile` break
/// policy.
pub(crate) fn run_load(
    sys: &mut PowerSystem,
    profile: &LoadProfile,
    steps: usize,
    dt: Seconds,
) -> LoadPhase {
    let mut st = EventStepper::new(sys, dt);
    let plan = plan_pieces(profile, st.dt, steps, Amps::ZERO);
    let mut run = PlanRun::new(
        Cow::Owned(plan),
        Some(profile.cursor()),
        Amps::ZERO,
        BreakOn::MonitorRecharging,
    );
    run.run_inline(&mut st, &mut None);
    LoadPhase {
        v_min: Volts::new(run.acc.v_min),
        t_min: Seconds::new(run.acc.t_min(st.dt)),
        broke_at: run.broke.map(|out| out.t),
        collapsed: run.acc.collapsed,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::RunOutcome;
    use culpeo_units::Seconds;

    fn ma(v: f64) -> Amps {
        Amps::from_milli(v)
    }

    /// Runs `profile` on both kernels, checks they agree, and returns the
    /// event kernel's outcome.
    fn compare(sys: &PowerSystem, profile: &LoadProfile, cfg: RunConfig) -> RunOutcome {
        let mut fixed_sys = sys.clone();
        let mut event_sys = sys.clone();
        assert!(
            in_scope(sys, &cfg),
            "the comparison must reach the event kernel"
        );
        let fixed = fixed_sys.run_profile_reference(profile, cfg);
        let event = event_sys.run_profile(profile, cfg);
        assert_eq!(
            fixed.brownout.is_some(),
            event.brownout.is_some(),
            "verdict mismatch: fixed {:?} event {:?}",
            fixed.brownout,
            event.brownout
        );
        assert_eq!(fixed.collapsed, event.collapsed);
        assert!(
            (fixed.v_min - event.v_min).abs().get() < 1e-9,
            "v_min: fixed {} event {}",
            fixed.v_min,
            event.v_min
        );
        assert!(
            (fixed.v_final - event.v_final).abs().get() < 1e-9,
            "v_final: fixed {} event {}",
            fixed.v_final,
            event.v_final
        );
        assert!(
            (fixed_sys.v_node() - event_sys.v_node()).abs().get() < 1e-9,
            "plant state diverged"
        );
        event
    }

    fn probe_cfg() -> RunConfig {
        RunConfig {
            dt: Seconds::from_micro(10.0),
            ..RunConfig::default().without_trace()
        }
    }

    #[test]
    fn matches_fixed_step_on_completing_pulse() {
        let mut sys = PowerSystem::capybara_two_branch();
        sys.set_buffer_voltage(Volts::new(2.3));
        let profile = LoadProfile::constant("pulse", ma(25.0), Seconds::from_milli(10.0));
        compare(&sys, &profile, probe_cfg());
    }

    #[test]
    fn matches_fixed_step_on_brownout() {
        // Output forced on and a start well above V_off: the event kernel
        // commits chunks for milliseconds before the brownout.
        let mut sys = PowerSystem::capybara();
        sys.force_output_enabled();
        sys.set_buffer_voltage(Volts::new(2.0));
        let profile = LoadProfile::constant("lora", ma(50.0), Seconds::from_milli(100.0));
        let out = compare(&sys, &profile, probe_cfg());
        let t = out.brownout.expect("the load browns out");
        assert!(t > Seconds::from_milli(5.0), "brownout at {t}");
    }

    #[test]
    fn matches_fixed_step_on_multi_segment_profile() {
        let mut sys = PowerSystem::capybara_two_branch();
        sys.set_buffer_voltage(Volts::new(2.4));
        let profile = LoadProfile::builder("mixed")
            .hold(ma(25.0), Seconds::from_milli(10.0))
            .ramp(ma(25.0), ma(2.0), Seconds::from_milli(5.0))
            .burst(
                ma(40.0),
                ma(1.0),
                Seconds::from_milli(4.0),
                0.25,
                Seconds::from_milli(30.0),
            )
            .hold(ma(1.5), Seconds::from_milli(50.0))
            .build();
        compare(&sys, &profile, probe_cfg());
    }

    #[test]
    fn matches_fixed_step_with_harvester_and_settle() {
        let mut sys = PowerSystem::builder()
            .two_branch_bank()
            .harvester(Harvester::ConstantCurrent(ma(5.0)))
            .initial_voltage(Volts::new(2.1))
            .build();
        sys.force_output_enabled();
        let profile = LoadProfile::constant("task", ma(20.0), Seconds::from_milli(40.0));
        let cfg = RunConfig {
            settle_timeout: Seconds::new(1.0),
            ..probe_cfg()
        };
        compare(&sys, &profile, cfg);
    }

    #[test]
    fn matches_fixed_step_with_constant_power_harvester() {
        // weak_solar charges at P/V of the *previous* step's node voltage —
        // the chunk loop's second loop-carried recurrence.
        let mut sys = PowerSystem::builder()
            .two_branch_bank()
            .harvester(Harvester::weak_solar())
            .initial_voltage(Volts::new(2.1))
            .build();
        sys.force_output_enabled();
        let profile = LoadProfile::constant("task", ma(20.0), Seconds::from_milli(40.0));
        let cfg = RunConfig {
            settle_timeout: Seconds::new(1.0),
            ..probe_cfg()
        };
        compare(&sys, &profile, cfg);
    }

    #[test]
    fn unsupported_plant_falls_back_to_fixed() {
        let mut sys = PowerSystem::builder()
            .harvester(Harvester::Windowed {
                i: ma(5.0),
                period: Seconds::from_micro(20.0),
                duty: 0.5,
                phase: Seconds::ZERO,
            })
            .build();
        sys.set_buffer_voltage(Volts::new(2.2));
        let profile = LoadProfile::constant("p", ma(10.0), Seconds::from_milli(5.0));
        let cfg = probe_cfg();
        // A windowed source flipping nearly every grid step is out of the
        // chunk model's scope: the event kernel must decline rather than
        // approximate.
        assert!(!in_scope(&sys, &cfg));
        // And the public API silently produces the fixed-step result.
        let a = sys.clone().run_profile(&profile, cfg);
        let b = sys.run_profile_reference(&profile, cfg);
        assert_eq!(a, b);
    }

    #[test]
    fn in_scope_exactly_when_untraced_on_a_covered_plant() {
        let covered = PowerSystem::capybara_two_branch();
        let uncovered = PowerSystem::builder()
            .harvester(Harvester::Windowed {
                i: ma(5.0),
                period: Seconds::from_micro(20.0),
                duty: 0.5,
                phase: Seconds::ZERO,
            })
            .build();
        let dt = Seconds::from_micro(10.0);
        assert!(covers(&covered, dt.get()));
        assert!(!covers(&uncovered, dt.get()));
        for stride in [None, Some(1), Some(8), Some(usize::MAX)] {
            let cfg = RunConfig {
                dt,
                record_stride: stride,
                ..RunConfig::default()
            };
            assert_eq!(in_scope(&covered, &cfg), stride.is_none(), "{stride:?}");
            assert!(!in_scope(&uncovered, &cfg), "{stride:?}");
        }
        // The stock configurations: traced by default, untraced otherwise.
        assert!(!in_scope(&covered, &RunConfig::default()));
        assert!(in_scope(&covered, &RunConfig::coarse()));
        assert!(in_scope(&covered, &RunConfig::probe(Seconds::new(0.1))));
        assert!(in_scope(&covered, &RunConfig::default().without_trace()));
    }

    #[test]
    #[ignore = "timing smoke, run manually with --release"]
    fn perf_smoke() {
        let mut sys = PowerSystem::capybara_two_branch();
        sys.set_buffer_voltage(Volts::new(2.3));
        let profile = LoadProfile::constant("pulse", ma(25.0), Seconds::from_milli(100.0));
        let cfg = RunConfig {
            settle_timeout: Seconds::new(1.0),
            ..probe_cfg()
        };
        type Run = fn(&mut PowerSystem, &LoadProfile, RunConfig) -> RunOutcome;
        let kernels: [(&str, Run); 2] = [
            ("fixed", PowerSystem::run_profile_reference),
            ("event", PowerSystem::run_profile),
        ];
        for (name, run) in kernels {
            let t0 = std::time::Instant::now();
            let mut v = 0.0;
            for _ in 0..100 {
                let mut s = sys.clone();
                let out = run(&mut s, &profile, cfg);
                v = out.v_final.get();
            }
            println!("{name}: {:?} (v_final {v})", t0.elapsed() / 100);
        }
        let t0 = std::time::Instant::now();
        for _ in 0..100 {
            std::hint::black_box(sys.clone());
        }
        println!("clone: {:?}", t0.elapsed() / 100);
        let cfg0 = RunConfig {
            settle_timeout: Seconds::ZERO,
            ..probe_cfg()
        };
        for (name, run) in kernels {
            let t0 = std::time::Instant::now();
            for _ in 0..100 {
                let mut s = sys.clone();
                std::hint::black_box(run(&mut s, &profile, cfg0));
            }
            println!("{name} no-settle: {:?}", t0.elapsed() / 100);
        }
        let mut s = sys.clone();
        let mut stepper = EventStepper::new(&mut s, cfg.dt);
        let steps = profile.duration().steps(cfg.dt);
        let _ = stepper.run_profile_steps(
            &profile,
            steps,
            Amps::ZERO,
            BreakOn::MonitorRecharging,
            None,
        );
        println!("one run: {:?}", stepper.counters());
    }

    #[test]
    fn run_const_matches_manual_step_loop() {
        let mut manual = PowerSystem::capybara_two_branch();
        manual.set_buffer_voltage(Volts::new(2.35));
        let mut event = manual.clone();
        let dt = Seconds::from_micro(10.0);
        let steps = 2000;
        let mut v_last = Volts::ZERO;
        for _ in 0..steps {
            v_last = manual.step(ma(30.0), dt).v_node;
        }
        let mut stepper = EventStepper::new(&mut event, dt);
        assert!(stepper.capable());
        let end = stepper.run_const(ma(30.0), steps, BreakOn::LoadFault, None);
        assert_eq!(end, SpanEnd::Completed);
        assert!(
            (stepper.last_step_v() - v_last).abs().get() < 1e-9,
            "manual {} event {}",
            v_last,
            stepper.last_step_v()
        );
        assert!((manual.v_node() - event.v_node()).abs().get() < 1e-9);
    }
}
