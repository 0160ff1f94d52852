//! Brute-force ground-truth `V_safe` search (§VI-A test-harness
//! procedure).
//!
//! The paper validates every estimator against a hardware binary search:
//! charge the bank to `V_high`, disable charging, discharge to a candidate
//! level, trigger the power system, apply the load, and observe whether
//! the minimum voltage stays above `V_off`. We run the identical procedure
//! against the simulated plant, to a 5 mV tolerance.

use std::collections::HashMap;
use std::hash::{Hash, Hasher};
use std::sync::{Mutex, OnceLock};

use culpeo_loadgen::{LoadProfile, Segment};
use culpeo_powersim::{Lanes, PowerSystem, RunConfig};
use culpeo_units::{Quantity as _, Volts};

/// The paper's search tolerance: the found `V_safe` is within 5 mV of the
/// true boundary.
pub const TOLERANCE: Volts = Volts::new(5e-3);

/// Whether a single execution of `load` from `v_start` completes on a
/// fresh plant from `make_system`.
#[must_use]
pub fn completes_from(
    make_system: &(dyn Fn() -> PowerSystem + Sync),
    load: &LoadProfile,
    v_start: Volts,
) -> bool {
    let mut sys = make_system();
    sys.set_buffer_voltage(v_start);
    sys.force_output_enabled();
    sys.run_profile(load, RunConfig::probe(load.duration()))
        .completed()
}

/// Binary-searches the smallest starting voltage from which `load`
/// completes, to within [`TOLERANCE`].
///
/// Returns `None` when the load cannot complete even from `V_high` (it is
/// infeasible on this power system).
#[must_use]
pub fn true_vsafe(
    make_system: &(dyn Fn() -> PowerSystem + Sync),
    load: &LoadProfile,
) -> Option<Volts> {
    let probe = |v: Volts| completes_from(make_system, load, v);
    let reference = make_system();
    let v_off = reference.monitor().v_off();
    let v_high = reference.monitor().v_high();

    if !probe(v_high) {
        return None;
    }
    // Starting exactly at V_off fails for any real load (the first ESR
    // millivolt crosses the threshold), so [v_off, v_high] brackets.
    let mut lo = v_off;
    let mut hi = v_high;
    while (hi - lo).get() > TOLERANCE.get() {
        let mid = lo.lerp(hi, 0.5);
        if probe(mid) {
            hi = mid;
        } else {
            lo = mid;
        }
    }
    Some(hi)
}

/// [`true_vsafe`] with every bisection probe memoised under `plant_key`:
/// the one-load case of [`true_vsafe_batch`].
///
/// The figure drivers re-run the same bisection probes many times — every
/// estimator sharing a plant triggers the same ground-truth search, and
/// the test suite invokes each driver repeatedly. A probe verdict is a
/// pure function of the plant, the load, and the start voltage, so it is
/// cached globally. `plant_key` must uniquely identify what `make_system`
/// builds; callers that mutate a shared plant family (aging sweeps, bank
/// reconfiguration) must fold those parameters into the key.
#[must_use]
pub fn true_vsafe_cached(
    plant_key: &str,
    make_system: &(dyn Fn() -> PowerSystem + Sync),
    load: &LoadProfile,
) -> Option<Volts> {
    true_vsafe_batch(plant_key, make_system, std::slice::from_ref(load))[0]
}

/// Batched, memoised [`true_vsafe`] over a whole load grid: every search
/// bisects in lock-step rounds, and each round's probes run through the
/// powersim lanes kernel so one invocation advances up to eight
/// simulations at once.
///
/// Each load follows exactly the scalar bisection's candidate sequence,
/// and the lanes kernel is bitwise-identical to the serial probe, so the
/// returned voltages equal [`true_vsafe`]'s. Every probe verdict lands in
/// the shared cache under `plant_key` (see [`true_vsafe_cached`]) — the
/// figure drivers call this once up front, then their per-load searches
/// resolve entirely from cache.
#[must_use]
pub fn true_vsafe_batch(
    plant_key: &str,
    make_system: &(dyn Fn() -> PowerSystem + Sync),
    loads: &[LoadProfile],
) -> Vec<Option<Volts>> {
    struct Search {
        lo: Volts,
        hi: Volts,
        result: Option<Option<Volts>>,
    }
    let reference = make_system();
    let v_off = reference.monitor().v_off();
    let v_high = reference.monitor().v_high();
    let fingerprints: Vec<u64> = loads.iter().map(load_fingerprint).collect();
    let mut searches: Vec<Search> = loads
        .iter()
        .map(|_| Search {
            lo: v_off,
            hi: v_high,
            result: None,
        })
        .collect();

    // Round zero: feasibility at V_high, for every load at once.
    let queries: Vec<(usize, Volts)> = (0..loads.len()).map(|i| (i, v_high)).collect();
    let verdicts = probe_round(plant_key, make_system, loads, &fingerprints, &queries);
    for (&(i, _), verdict) in queries.iter().zip(verdicts) {
        if !verdict {
            searches[i].result = Some(None);
        }
    }

    // Lock-step bisection: each live search contributes its midpoint, the
    // whole round probes in one lanes batch.
    loop {
        let mut queries = Vec::new();
        for (i, s) in searches.iter_mut().enumerate() {
            if s.result.is_some() {
                continue;
            }
            if (s.hi - s.lo).get() <= TOLERANCE.get() {
                s.result = Some(Some(s.hi));
                continue;
            }
            queries.push((i, s.lo.lerp(s.hi, 0.5)));
        }
        if queries.is_empty() {
            break;
        }
        let verdicts = probe_round(plant_key, make_system, loads, &fingerprints, &queries);
        for (&(i, mid), verdict) in queries.iter().zip(verdicts) {
            let s = &mut searches[i];
            if verdict {
                s.hi = mid;
            } else {
                s.lo = mid;
            }
        }
    }
    searches
        .into_iter()
        .map(|s| s.result.expect("every search resolved"))
        .collect()
}

/// Answers one round of probes: cache hits are read back, misses simulate
/// in 8-wide lanes packs, and every fresh verdict is cached.
/// `fingerprints[i]` is `loads[i]`'s [`load_fingerprint`].
fn probe_round(
    plant_key: &str,
    make_system: &(dyn Fn() -> PowerSystem + Sync),
    loads: &[LoadProfile],
    fingerprints: &[u64],
    queries: &[(usize, Volts)],
) -> Vec<bool> {
    let key = |(i, v): (usize, Volts)| (fingerprints[i], v.get().to_bits());
    let mut verdicts = vec![false; queries.len()];
    let mut misses: Vec<usize> = Vec::new();
    {
        let cache = truth_cache().lock().unwrap();
        let plant = cache.get(plant_key);
        for (q, &query) in queries.iter().enumerate() {
            match plant.and_then(|p| p.get(&key(query))) {
                Some(&verdict) => verdicts[q] = verdict,
                None => misses.push(q),
            }
        }
    }
    if misses.is_empty() {
        return verdicts;
    }
    let mut systems: Vec<PowerSystem> = Vec::with_capacity(misses.len());
    let mut profiles: Vec<&LoadProfile> = Vec::with_capacity(misses.len());
    let mut cfgs: Vec<RunConfig> = Vec::with_capacity(misses.len());
    for &q in &misses {
        let (i, v) = queries[q];
        let mut sys = make_system();
        sys.set_buffer_voltage(v);
        sys.force_output_enabled();
        systems.push(sys);
        profiles.push(&loads[i]);
        cfgs.push(RunConfig::probe(loads[i].duration()));
    }
    let outcomes = Lanes::<8>::run(&mut systems, &profiles, &cfgs);
    let mut cache = truth_cache().lock().unwrap();
    let plant = cache.entry(plant_key.to_owned()).or_default();
    for (&q, outcome) in misses.iter().zip(outcomes) {
        let verdict = outcome.completed();
        verdicts[q] = verdict;
        plant.insert(key(queries[q]), verdict);
    }
    verdicts
}

/// Empties the global probe-verdict cache (bench/test hook: honest
/// cold-cache timings, and determinism tests that must re-run the full
/// search).
pub fn clear_truth_cache() {
    truth_cache().lock().unwrap().clear();
}

/// Probe verdicts by plant key, then by the load's fingerprint and the
/// start voltage's bits.
type TruthCache = HashMap<String, HashMap<(u64, u64), bool>>;

fn truth_cache() -> &'static Mutex<TruthCache> {
    static CACHE: OnceLock<Mutex<TruthCache>> = OnceLock::new();
    CACHE.get_or_init(|| Mutex::new(HashMap::new()))
}

/// A structural fingerprint of a load profile: label plus every segment's
/// exact parameter bits.
fn load_fingerprint(load: &LoadProfile) -> u64 {
    let mut h = std::collections::hash_map::DefaultHasher::new();
    load.label().hash(&mut h);
    for seg in load.segments() {
        match *seg {
            Segment::Constant { current, duration } => {
                0u8.hash(&mut h);
                current.get().to_bits().hash(&mut h);
                duration.get().to_bits().hash(&mut h);
            }
            Segment::Ramp { from, to, duration } => {
                1u8.hash(&mut h);
                from.get().to_bits().hash(&mut h);
                to.get().to_bits().hash(&mut h);
                duration.get().to_bits().hash(&mut h);
            }
            Segment::Burst {
                peak,
                base,
                period,
                duty,
                duration,
            } => {
                2u8.hash(&mut h);
                peak.get().to_bits().hash(&mut h);
                base.get().to_bits().hash(&mut h);
                period.get().to_bits().hash(&mut h);
                duty.to_bits().hash(&mut h);
                duration.get().to_bits().hash(&mut h);
            }
        }
    }
    h.finish()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::reference_plant;
    use culpeo_loadgen::synthetic::UniformLoad;
    use culpeo_units::{Amps, Seconds};

    fn make() -> PowerSystem {
        reference_plant()
    }

    fn pulse(ma: f64, ms: f64) -> LoadProfile {
        UniformLoad::new(Amps::from_milli(ma), Seconds::from_milli(ms)).profile()
    }

    #[test]
    fn boundary_is_tight() {
        let load = pulse(25.0, 10.0);
        let v = true_vsafe(&make, &load).unwrap();
        // Safe at the boundary, unsafe noticeably below it (the paper
        // validated that 20 mV below reliably fails).
        assert!(completes_from(&make, &load, v));
        assert!(!completes_from(&make, &load, v - Volts::from_milli(25.0)));
    }

    #[test]
    fn heavier_load_needs_higher_vsafe() {
        let lo = true_vsafe(&make, &pulse(5.0, 10.0)).unwrap();
        let hi = true_vsafe(&make, &pulse(50.0, 10.0)).unwrap();
        assert!(hi > lo);
    }

    #[test]
    fn impossible_load_is_none() {
        // 2 A cannot be sourced through ohms of ESR at these voltages.
        let load = LoadProfile::constant("absurd", Amps::new(2.0), Seconds::from_milli(10.0));
        assert!(true_vsafe(&make, &load).is_none());
    }

    #[test]
    fn cached_search_matches_uncached() {
        let load = pulse(30.0, 8.0);
        let direct = true_vsafe(&make, &load).unwrap();
        clear_truth_cache();
        let cold = true_vsafe_cached("reference", &make, &load).unwrap();
        let warm = true_vsafe_cached("reference", &make, &load).unwrap();
        assert_eq!(direct, cold);
        assert_eq!(cold, warm);
    }

    #[test]
    fn distinct_plant_keys_do_not_collide() {
        // The same load on a weaker plant must not be served the reference
        // plant's cached verdicts.
        let weak = || {
            let mut sys = PowerSystem::capybara_with_bank(
                culpeo_units::Farads::from_milli(45.0),
                culpeo_units::Ohms::new(8.0),
            );
            sys.force_output_enabled();
            sys
        };
        let load = pulse(40.0, 10.0);
        clear_truth_cache();
        let v_ref = true_vsafe_cached("reference", &make, &load).unwrap();
        let v_weak = true_vsafe_cached("weak-bank", &weak, &load).unwrap();
        assert!(v_weak > v_ref, "weak plant {v_weak} vs reference {v_ref}");
    }

    #[test]
    fn batch_search_matches_scalar_search() {
        let loads = vec![
            pulse(25.0, 10.0),
            pulse(5.0, 10.0),
            pulse(50.0, 10.0),
            LoadProfile::constant("absurd", Amps::new(2.0), Seconds::from_milli(10.0)),
            pulse(12.0, 30.0),
        ];
        clear_truth_cache();
        let batch = true_vsafe_batch("reference", &make, &loads);
        clear_truth_cache();
        let scalar: Vec<Option<Volts>> = loads.iter().map(|l| true_vsafe(&make, l)).collect();
        assert_eq!(batch, scalar);
        // The batch left every probe verdict behind: the cached search
        // must now resolve without fresh simulations.
        clear_truth_cache();
        let warm = true_vsafe_batch("reference", &make, &loads);
        for (b, l) in warm.iter().zip(&loads) {
            assert_eq!(*b, true_vsafe_cached("reference", &make, l));
        }
    }

    #[test]
    fn trivial_load_needs_little_above_v_off() {
        let load = LoadProfile::constant("tiny", Amps::from_micro(100.0), Seconds::from_milli(1.0));
        let v = true_vsafe(&make, &load).unwrap();
        assert!(v.get() < 1.62, "V_safe = {v}");
    }
}
