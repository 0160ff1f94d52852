//! The `Lanes<W>` batch entry point, a serial loop over
//! [`PowerSystem::run_profile`].
//!
//! There is no lock-step lane executor: the event kernel's chunk step is
//! already throughput-bound, so interleaving independent runs adds no
//! parallelism, and measured on the same loads, plants and configs a
//! lock-step `W = 8` batch took 1.04–1.26× the serial time (DESIGN.md
//! §13). No crate in this workspace calls [`Lanes`]; it keeps its
//! signature for the benchmark package's per-layer probe.

use culpeo_loadgen::LoadProfile;

use crate::engine::RunConfig;
use crate::{PowerSystem, RunOutcome};

/// Batch entry point over independent simulations (see the module docs).
/// `W` is the historical lock-step width and changes nothing.
pub struct Lanes<const W: usize>(());

impl<const W: usize> Lanes<W> {
    /// Runs `systems[i].run_profile(profiles[i], cfgs[i])` for every lane,
    /// in order, and returns the outcomes in input order.
    ///
    /// # Panics
    ///
    /// Panics when the three slices' lengths differ.
    #[must_use]
    pub fn run(
        systems: &mut [PowerSystem],
        profiles: &[&LoadProfile],
        cfgs: &[RunConfig],
    ) -> Vec<RunOutcome> {
        assert_eq!(systems.len(), profiles.len(), "one profile per lane");
        assert_eq!(systems.len(), cfgs.len(), "one config per lane");
        systems
            .iter_mut()
            .zip(profiles)
            .zip(cfgs)
            .map(|((sys, profile), &cfg)| sys.run_profile(profile, cfg))
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use culpeo_units::{Amps, Seconds, Volts};

    fn ma(v: f64) -> Amps {
        Amps::from_milli(v)
    }

    #[test]
    fn probe_grid_batch_is_bitwise_serial() {
        let pulse = LoadProfile::constant("pulse", ma(25.0), Seconds::from_milli(10.0));
        let heavy = LoadProfile::constant("heavy", ma(50.0), Seconds::from_milli(100.0));
        let mut systems = Vec::new();
        let mut profiles: Vec<&LoadProfile> = Vec::new();
        for (i, v) in [2.4, 2.2, 1.9, 1.75].iter().enumerate() {
            let mut sys = PowerSystem::capybara_two_branch();
            sys.set_buffer_voltage(Volts::new(*v));
            sys.force_output_enabled();
            systems.push(sys);
            profiles.push(if i % 2 == 0 { &pulse } else { &heavy });
        }
        let cfg = RunConfig {
            dt: Seconds::from_micro(10.0),
            ..RunConfig::default().without_trace()
        };
        let cfgs = vec![cfg; systems.len()];
        let mut serial = systems.clone();
        let expected: Vec<RunOutcome> = serial
            .iter_mut()
            .zip(&profiles)
            .map(|(sys, profile)| sys.run_profile(profile, cfg))
            .collect();
        let got = Lanes::<8>::run(&mut systems, &profiles, &cfgs);
        assert_eq!(got, expected);
        for (b, s) in systems.iter().zip(&serial) {
            assert_eq!(b.v_node(), s.v_node());
        }
    }

    #[test]
    fn empty_batch_is_fine() {
        let got = Lanes::<8>::run(&mut [], &[], &[]);
        assert!(got.is_empty());
    }
}
