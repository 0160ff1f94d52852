//! The energy buffer as a parallel network of capacitor branches, and the
//! node solver that finds the observable buffer voltage under load.

use culpeo_units::{Amps, Farads, Joules, Volts};

use crate::{CapacitorBranch, OutputBooster};

/// A parallel network of [`CapacitorBranch`]es sharing one observable node.
///
/// One branch models a plain supercapacitor bank; two branches model either
/// the §II-D decoupling-capacitor ablation (a small low-ESR cap beside the
/// high-ESR bank) or the two-time-constant ladder that gives real
/// supercapacitors their frequency-dependent ESR; the representation
/// generalises to any branch count.
///
/// Branches can be individually *disconnected* — the reconfigurable
/// energy-storage arrays of Capybara and Morphy (§V-B) switch capacitor
/// banks in and out at runtime. A disconnected branch holds its charge
/// (minus its own leakage) and contributes nothing to the node.
#[derive(Debug, Clone, PartialEq)]
pub struct BufferNetwork {
    branches: Vec<CapacitorBranch>,
    /// Per-branch switch state; disconnected branches float.
    connected: Vec<bool>,
}

/// The solved electrical state of the buffer node for one time step.
#[derive(Debug, Clone, PartialEq)]
pub struct NodeSolution {
    /// The observable node voltage (what the monitor and ADCs see).
    pub v_node: Volts,
    /// Current flowing into the output booster.
    pub i_in: Amps,
    /// Per-branch currents (positive = branch discharging into the node).
    pub branch_currents: BranchCurrents,
    /// True if no operating point exists — the load demands more power
    /// than the network can deliver at any voltage, so the rail collapses.
    pub collapsed: bool,
}

/// Per-branch currents for one solved step.
///
/// A `NodeSolution` is produced on every simulator step, so its branch
/// currents are stored inline for the branch counts that actually occur
/// (every plant in the workspace has ≤ 4 branches), spilling to the heap
/// only beyond that. This keeps `PowerSystem::step` allocation-free.
#[derive(Debug, Clone)]
pub struct BranchCurrents {
    inline: [Amps; Self::INLINE],
    len: usize,
    /// Holds *all* currents once the count exceeds `INLINE`; empty
    /// otherwise, so the live data is always one contiguous slice.
    spill: Vec<Amps>,
}

impl BranchCurrents {
    const INLINE: usize = 4;

    fn new() -> Self {
        Self {
            inline: [Amps::ZERO; Self::INLINE],
            len: 0,
            spill: Vec::new(),
        }
    }

    fn push(&mut self, i: Amps) {
        if !self.spill.is_empty() {
            self.spill.push(i);
        } else if self.len < Self::INLINE {
            self.inline[self.len] = i;
        } else {
            self.spill.reserve(self.len + 1);
            self.spill.extend_from_slice(&self.inline);
            self.spill.push(i);
        }
        self.len += 1;
    }

    /// The currents as one contiguous slice, in branch order.
    #[must_use]
    pub fn as_slice(&self) -> &[Amps] {
        if self.spill.is_empty() {
            &self.inline[..self.len]
        } else {
            &self.spill
        }
    }

    /// Number of branches.
    #[must_use]
    pub fn len(&self) -> usize {
        self.len
    }

    /// True when there are no branches.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// Iterates the currents in branch order.
    pub fn iter(&self) -> std::slice::Iter<'_, Amps> {
        self.as_slice().iter()
    }
}

impl std::ops::Index<usize> for BranchCurrents {
    type Output = Amps;

    fn index(&self, idx: usize) -> &Amps {
        &self.as_slice()[idx]
    }
}

impl<'a> IntoIterator for &'a BranchCurrents {
    type Item = &'a Amps;
    type IntoIter = std::slice::Iter<'a, Amps>;

    fn into_iter(self) -> Self::IntoIter {
        self.iter()
    }
}

impl FromIterator<Amps> for BranchCurrents {
    fn from_iter<I: IntoIterator<Item = Amps>>(iter: I) -> Self {
        let mut out = Self::new();
        for i in iter {
            out.push(i);
        }
        out
    }
}

impl PartialEq for BranchCurrents {
    fn eq(&self, other: &Self) -> bool {
        // Representation-insensitive: inline vs spilled storage of the
        // same currents compares equal.
        self.as_slice() == other.as_slice()
    }
}

impl BufferNetwork {
    /// Builds a network from its branches.
    ///
    /// # Panics
    ///
    /// Panics if no branches are supplied.
    #[must_use]
    pub fn new(branches: Vec<CapacitorBranch>) -> Self {
        assert!(!branches.is_empty(), "buffer needs at least one branch");
        let connected = vec![true; branches.len()];
        Self {
            branches,
            connected,
        }
    }

    /// A single-branch buffer.
    #[must_use]
    pub fn single(branch: CapacitorBranch) -> Self {
        Self::new(vec![branch])
    }

    /// The branches.
    #[must_use]
    pub fn branches(&self) -> &[CapacitorBranch] {
        &self.branches
    }

    /// Mutable access to the branches (test harness "discharge to level").
    pub fn branches_mut(&mut self) -> &mut [CapacitorBranch] {
        &mut self.branches
    }

    /// Adds a branch (e.g. bolts a decoupling capacitor onto the rail),
    /// connected.
    pub fn add_branch(&mut self, branch: CapacitorBranch) {
        self.branches.push(branch);
        self.connected.push(true);
    }

    /// Connects or disconnects branch `idx` (reconfigurable arrays,
    /// §V-B). Disconnecting is instantaneous; reconnecting a branch whose
    /// voltage differs from the node triggers the usual redistribution
    /// currents through the branch ESRs.
    ///
    /// # Panics
    ///
    /// Panics if `idx` is out of range, or if the change would leave the
    /// buffer with no connected branch.
    pub fn set_branch_connected(&mut self, idx: usize, connected: bool) {
        assert!(idx < self.branches.len(), "branch index out of range");
        self.connected[idx] = connected;
        assert!(
            self.connected.iter().any(|&c| c),
            "at least one branch must remain connected"
        );
    }

    /// Whether branch `idx` is connected.
    ///
    /// # Panics
    ///
    /// Panics if `idx` is out of range.
    #[must_use]
    pub fn branch_connected(&self, idx: usize) -> bool {
        self.connected[idx]
    }

    /// Total capacitance of the *connected* branches only.
    #[must_use]
    pub fn connected_capacitance(&self) -> Farads {
        self.branches
            .iter()
            .zip(&self.connected)
            .filter(|&(_, &c)| c)
            .map(|(b, _)| b.capacitance())
            .sum()
    }

    /// Total capacitance of all branches.
    #[must_use]
    pub fn total_capacitance(&self) -> Farads {
        self.branches.iter().map(CapacitorBranch::capacitance).sum()
    }

    /// Total stored energy across branches.
    #[must_use]
    pub fn stored_energy(&self) -> Joules {
        self.branches
            .iter()
            .map(CapacitorBranch::stored_energy)
            .sum()
    }

    /// Sets every branch's internal voltage to `v` (a fully settled buffer).
    pub fn set_voltage(&mut self, v: Volts) {
        for b in &mut self.branches {
            b.set_v_internal(v);
        }
    }

    /// The node voltage with no load and no charging: the
    /// conductance-weighted average of branch internal voltages.
    #[must_use]
    pub fn open_circuit_voltage(&self) -> Volts {
        self.node_for_external(Amps::ZERO)
    }

    /// Node voltage given a fixed external current draw `i_ext`
    /// (positive = out of the network). Exact linear solve.
    fn node_for_external(&self, i_ext: Amps) -> Volts {
        let g: f64 = self.connected_branches().map(|b| 1.0 / b.esr().get()).sum();
        let weighted: f64 = self
            .connected_branches()
            .map(|b| b.v_internal().get() / b.esr().get())
            .sum();
        Volts::new((weighted - i_ext.get()) / g)
    }

    /// Iterates the connected branches.
    fn connected_branches(&self) -> impl Iterator<Item = &CapacitorBranch> {
        self.branches
            .iter()
            .zip(&self.connected)
            .filter(|&(_, &c)| c)
            .map(|(b, _)| b)
    }

    /// Supply-minus-demand imbalance at candidate node voltage `v`.
    fn imbalance(&self, v: Volts, booster: &OutputBooster, i_load: Amps, i_charge: Amps) -> f64 {
        let supply: f64 = self
            .connected_branches()
            .map(|b| b.current_into_node(v).get())
            .sum::<f64>()
            + i_charge.get();
        let demand = booster.input_current(v, i_load).map_or(0.0, |i| i.get());
        supply - demand
    }

    /// Solves the node voltage under a booster load of `i_load` (at the
    /// regulated output) plus a harvester charge current `i_charge`.
    ///
    /// The electrical balance is
    /// `Σ (V_i − V_n)/R_i + I_charge = P_out / (η(V_n)·V_n)`;
    /// the solver finds the **largest** root (the stable operating point)
    /// via damped Newton from the open-circuit voltage, falling back to a
    /// bracketed bisection. If no root exists above the booster's minimum
    /// input voltage, the rail has collapsed and
    /// [`NodeSolution::collapsed`] is set.
    #[must_use]
    pub fn solve_node(
        &self,
        booster: &OutputBooster,
        i_load: Amps,
        i_charge: Amps,
    ) -> NodeSolution {
        self.solve_node_hinted(booster, i_load, i_charge, None)
    }

    /// [`BufferNetwork::solve_node`] with an optional warm-start: `hint`
    /// is a previous solve's root for the *same load*, used as the Newton
    /// starting point instead of the closed-form seed. Between consecutive
    /// steps of a constant load segment the root drifts by microvolts, so
    /// the warm-started iteration converges immediately; a hint outside
    /// the physical bracket is ignored.
    #[must_use]
    pub fn solve_node_hinted(
        &self,
        booster: &OutputBooster,
        i_load: Amps,
        i_charge: Amps,
        hint: Option<f64>,
    ) -> NodeSolution {
        let (v_node, i_in, collapsed) = self.node_root(booster, i_load, i_charge, hint);
        self.solution_at(v_node, i_in, collapsed)
    }

    /// The node solve of [`BufferNetwork::solve_node_hinted`] without the
    /// branch currents, for callers that read only the node: the
    /// [`NodeSolution`]'s `(v_node, i_in, collapsed)`.
    ///
    /// Inlined into both callers: called out of line, it made the
    /// fixed-step [`crate::PowerSystem::step`] about 8 ns (18 %) slower.
    #[inline(always)]
    pub(crate) fn node_root(
        &self,
        booster: &OutputBooster,
        i_load: Amps,
        i_charge: Amps,
        hint: Option<f64>,
    ) -> (Volts, Amps, bool) {
        // Supply is affine in the node voltage —
        // `Σ (V_i − V_n)/R_i = W − G·V_n` — so the branch loop folds into
        // two constants for the whole solve and every Newton iteration
        // below is pure scalar arithmetic.
        let mut g = 0.0;
        let mut w = 0.0;
        for b in self.connected_branches() {
            let r = b.esr().get();
            g += 1.0 / r;
            w += b.v_internal().get() / r;
        }
        let v_oc = Volts::new((w + i_charge.get()) / g);

        // No load → exact linear solve, no iteration.
        if i_load.get() <= 0.0 {
            return (v_oc, Amps::ZERO, false);
        }

        let floor = booster.min_input();
        if v_oc <= floor {
            // Even unloaded the node is below the booster's reach.
            return (v_oc, Amps::ZERO, true);
        }

        // Seed Newton from the closed-form largest root of the η-frozen
        // balance: holding η at η(V_oc), `(W + I_c − G·v)·v = P_out/η` is
        // quadratic in v. Since η is non-decreasing in v, freezing it at
        // V_oc under-estimates demand, which puts this root at or *above*
        // the true operating point — the safe side for a largest-root
        // descent. The seed lands within the η-slope error of the answer,
        // so Newton below needs only a couple of iterations.
        let s = w + i_charge.get();
        let p_out = (booster.v_out() * i_load).get();
        let eta_curve = booster.efficiency();
        let mut v = match hint {
            Some(h) if h > floor.get() && h < v_oc.get() => h,
            _ => {
                let disc = s * s - 4.0 * g * (p_out / eta_curve.at(v_oc));
                if disc >= 0.0 {
                    ((s + disc.sqrt()) / (2.0 * g)).max(floor.get())
                } else {
                    // No η-frozen root; start just below open circuit as
                    // before (f(v_oc) < 0 because demand is positive
                    // there).
                    v_oc.get() - 1e-6
                }
            }
        };
        // Analytic-derivative Newton: with `I_in = P_out/(η(v)·v)`,
        // `f(v) = S − G·v − I_in` and `f′(v) = −G + I_in·(η′·v + η)/(η·v)`.
        for _ in 0..40 {
            let (eta, d_eta) = eta_curve.at_with_slope(Volts::new(v));
            let denom = eta * v;
            let demand = p_out / denom;
            let f = s - g * v - demand;
            let d_demand = -demand * (d_eta * v + eta) / denom;
            let df = -g - d_demand;
            if df.abs() < 1e-12 {
                break;
            }
            let step = f / df;
            let next = v - step;
            if !(floor.get()..=v_oc.get()).contains(&next) {
                break; // left the physical bracket; fall back to bisection
            }
            if (next - v).abs() < 1e-9 {
                // First-order demand update to the converged point — the
                // shift is < 1 nV, far below any downstream resolution.
                let i_in = Amps::new(demand + d_demand * (next - v));
                return (Volts::new(next), i_in, false);
            }
            v = next;
        }

        // Newton left the bracket or stalled: bracketed bisection fallback.
        match self.bisect_root(booster, i_load, i_charge, floor, v_oc) {
            Some(v) => {
                let v = Volts::new(v);
                let i_in = booster.input_current(v, i_load).unwrap_or(Amps::ZERO);
                (v, i_in, false)
            }
            None => {
                // No operating point: the node falls to wherever the branch
                // network alone would put it with the booster cut out.
                (floor, Amps::ZERO, true)
            }
        }
    }

    /// Finds the largest root of the imbalance in `[floor, hi]` by scanning
    /// down for a sign change then bisecting.
    fn bisect_root(
        &self,
        booster: &OutputBooster,
        i_load: Amps,
        i_charge: Amps,
        floor: Volts,
        hi: Volts,
    ) -> Option<f64> {
        // f(hi) < 0 (demand exceeds zero supply at open circuit). Scan down
        // until f > 0.
        let span = hi.get() - floor.get();
        let steps = 256;
        let mut upper = hi.get();
        let mut lower = None;
        for k in 1..=steps {
            let v = hi.get() - span * (k as f64) / (steps as f64);
            if self.imbalance(Volts::new(v), booster, i_load, i_charge) > 0.0 {
                lower = Some(v);
                break;
            }
            upper = v;
        }
        let mut lo = lower?;
        let mut hi = upper;
        for _ in 0..60 {
            let mid = 0.5 * (lo + hi);
            if self.imbalance(Volts::new(mid), booster, i_load, i_charge) > 0.0 {
                lo = mid;
            } else {
                hi = mid;
            }
        }
        Some(0.5 * (lo + hi))
    }

    fn solution_at(&self, v_node: Volts, i_in: Amps, collapsed: bool) -> NodeSolution {
        let branch_currents = self
            .branches
            .iter()
            .zip(&self.connected)
            .map(|(b, &c)| {
                if c {
                    b.current_into_node(v_node)
                } else {
                    Amps::ZERO
                }
            })
            .collect();
        NodeSolution {
            v_node,
            i_in,
            branch_currents,
            collapsed,
        }
    }

    /// Advances every branch by one step given the solved node state.
    ///
    /// # Panics
    ///
    /// Panics if the solution's branch count does not match.
    pub fn integrate(&mut self, solution: &NodeSolution, dt: culpeo_units::Seconds) {
        assert_eq!(
            solution.branch_currents.len(),
            self.branches.len(),
            "solution does not match network"
        );
        for (b, &i) in self.branches.iter_mut().zip(&solution.branch_currents) {
            b.integrate(i, dt);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use culpeo_units::{Ohms, Seconds};

    fn bank(v: f64) -> CapacitorBranch {
        CapacitorBranch::ideal(Farads::from_milli(45.0), Ohms::new(3.3), Volts::new(v))
    }

    fn booster() -> OutputBooster {
        OutputBooster::capybara()
    }

    #[test]
    fn open_circuit_equals_internal_for_single_branch() {
        let n = BufferNetwork::single(bank(2.4));
        assert!(n.open_circuit_voltage().approx_eq(Volts::new(2.4), 1e-12));
    }

    #[test]
    fn open_circuit_is_conductance_weighted() {
        let a = CapacitorBranch::ideal(Farads::from_milli(10.0), Ohms::new(1.0), Volts::new(2.0));
        let b = CapacitorBranch::ideal(Farads::from_milli(10.0), Ohms::new(3.0), Volts::new(2.6));
        let n = BufferNetwork::new(vec![a, b]);
        // (2.0/1 + 2.6/3)/(1/1 + 1/3) = (2.0 + 0.8667)/1.3333 = 2.15
        assert!(n.open_circuit_voltage().approx_eq(Volts::new(2.15), 1e-9));
    }

    #[test]
    fn load_drops_node_by_esr() {
        let n = BufferNetwork::single(bank(2.4));
        let sol = n.solve_node(&booster(), Amps::from_milli(25.0), Amps::ZERO);
        assert!(!sol.collapsed);
        // The drop must equal I_in · R.
        let expected = Volts::new(2.4 - sol.i_in.get() * 3.3);
        assert!(sol.v_node.approx_eq(expected, 1e-6), "v = {}", sol.v_node);
        assert!(sol.v_node < Volts::new(2.4));
        // Balance: branch current equals booster input current.
        assert!(sol.branch_currents[0].approx_eq(sol.i_in, 1e-9));
    }

    #[test]
    fn heavier_load_drops_more() {
        let n = BufferNetwork::single(bank(2.4));
        let light = n.solve_node(&booster(), Amps::from_milli(5.0), Amps::ZERO);
        let heavy = n.solve_node(&booster(), Amps::from_milli(50.0), Amps::ZERO);
        assert!(heavy.v_node < light.v_node);
    }

    #[test]
    fn charge_current_raises_node() {
        let n = BufferNetwork::single(bank(2.0));
        let idle = n.solve_node(&booster(), Amps::ZERO, Amps::ZERO);
        let charging = n.solve_node(&booster(), Amps::ZERO, Amps::from_milli(10.0));
        assert!(charging.v_node > idle.v_node);
    }

    #[test]
    fn decoupling_capacitor_shrinks_the_instantaneous_drop() {
        let solo = BufferNetwork::single(bank(2.4));
        let mut decoupled = BufferNetwork::single(bank(2.4));
        decoupled.add_branch(CapacitorBranch::ideal(
            Farads::from_micro(400.0),
            Ohms::new(0.05),
            Volts::new(2.4),
        ));
        let i = Amps::from_milli(50.0);
        let d1 = solo.solve_node(&booster(), i, Amps::ZERO);
        let d2 = decoupled.solve_node(&booster(), i, Amps::ZERO);
        assert!(d2.v_node > d1.v_node);
    }

    #[test]
    fn impossible_load_collapses() {
        // A tiny, high-ESR cap asked for an enormous load.
        let n = BufferNetwork::single(CapacitorBranch::ideal(
            Farads::from_micro(100.0),
            Ohms::new(50.0),
            Volts::new(2.0),
        ));
        let sol = n.solve_node(&booster(), Amps::new(1.0), Amps::ZERO);
        assert!(sol.collapsed);
        assert_eq!(sol.i_in, Amps::ZERO);
    }

    #[test]
    fn integrate_discharges_toward_load() {
        let mut n = BufferNetwork::single(bank(2.4));
        let sol = n.solve_node(&booster(), Amps::from_milli(25.0), Amps::ZERO);
        let v0 = n.branches()[0].v_internal();
        n.integrate(&sol, Seconds::from_milli(1.0));
        assert!(n.branches()[0].v_internal() < v0);
    }

    #[test]
    fn charge_redistribution_between_branches() {
        // Two branches at different internal voltages, no load: current
        // flows from the higher to the lower through both ESRs.
        let a = CapacitorBranch::ideal(Farads::from_milli(20.0), Ohms::new(2.0), Volts::new(2.5));
        let b = CapacitorBranch::ideal(Farads::from_milli(20.0), Ohms::new(2.0), Volts::new(2.0));
        let mut n = BufferNetwork::new(vec![a, b]);
        for _ in 0..20_000 {
            let sol = n.solve_node(&booster(), Amps::ZERO, Amps::ZERO);
            n.integrate(&sol, Seconds::from_milli(1.0));
        }
        let va = n.branches()[0].v_internal();
        let vb = n.branches()[1].v_internal();
        assert!(va.approx_eq(vb, 1e-3), "va = {va}, vb = {vb}");
        // Energy is conserved up to ESR dissipation: final common voltage
        // is the charge-weighted mean, 2.25 V.
        assert!(va.approx_eq(Volts::new(2.25), 1e-3));
    }

    #[test]
    fn stored_energy_sums_branches() {
        let n = BufferNetwork::new(vec![bank(2.0), bank(2.0)]);
        let e = n.stored_energy();
        assert!(e.approx_eq(Joules::new(2.0 * 0.5 * 0.045 * 4.0), 1e-12));
        assert!(n
            .total_capacitance()
            .approx_eq(Farads::from_milli(90.0), 1e-12));
    }

    #[test]
    #[should_panic(expected = "at least one branch")]
    fn rejects_empty_network() {
        let _ = BufferNetwork::new(vec![]);
    }

    #[test]
    fn disconnected_branch_floats() {
        let mut n = BufferNetwork::new(vec![bank(2.4), bank(2.4)]);
        n.set_branch_connected(1, false);
        assert!(!n.branch_connected(1));
        assert!(n
            .connected_capacitance()
            .approx_eq(Farads::from_milli(45.0), 1e-12));
        // The node only sees the connected branch.
        let sol = n.solve_node(&booster(), Amps::from_milli(25.0), Amps::ZERO);
        assert_eq!(sol.branch_currents[1], Amps::ZERO);
        // Integrating leaves the floating branch's charge untouched.
        let v1_before = n.branches()[1].v_internal();
        n.integrate(&sol, Seconds::from_milli(10.0));
        assert_eq!(n.branches()[1].v_internal(), v1_before);
        assert!(n.branches()[0].v_internal() < Volts::new(2.4));
    }

    #[test]
    fn reconnecting_triggers_redistribution() {
        let mut n = BufferNetwork::new(vec![bank(2.4), bank(2.4)]);
        n.set_branch_connected(1, false);
        // Drain the connected branch.
        for _ in 0..1000 {
            let sol = n.solve_node(&booster(), Amps::from_milli(50.0), Amps::ZERO);
            n.integrate(&sol, Seconds::from_milli(1.0));
        }
        let drained = n.branches()[0].v_internal();
        assert!(drained < Volts::new(2.3));
        // Reconnect: the fresh branch recharges the drained one.
        n.set_branch_connected(1, true);
        for _ in 0..60_000 {
            let sol = n.solve_node(&booster(), Amps::ZERO, Amps::ZERO);
            n.integrate(&sol, Seconds::from_milli(1.0));
        }
        let va = n.branches()[0].v_internal();
        let vb = n.branches()[1].v_internal();
        assert!(va.approx_eq(vb, 2e-3), "va = {va}, vb = {vb}");
        assert!(va > drained);
    }

    #[test]
    #[should_panic(expected = "at least one branch must remain connected")]
    fn cannot_disconnect_everything() {
        let mut n = BufferNetwork::single(bank(2.4));
        n.set_branch_connected(0, false);
    }

    #[test]
    fn smaller_active_configuration_sags_deeper() {
        // Fewer connected branches ⇒ higher effective ESR and less C:
        // the drop under the same load grows — why V_safe must be
        // re-derived per configuration (§V-B).
        let full = BufferNetwork::new(vec![bank(2.4), bank(2.4)]);
        let mut half = BufferNetwork::new(vec![bank(2.4), bank(2.4)]);
        half.set_branch_connected(1, false);
        let i = Amps::from_milli(25.0);
        let v_full = full.solve_node(&booster(), i, Amps::ZERO).v_node;
        let v_half = half.solve_node(&booster(), i, Amps::ZERO).v_node;
        assert!(v_half < v_full);
    }
}
