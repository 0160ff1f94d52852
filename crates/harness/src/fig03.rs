//! Figure 3: volume versus ESR for 45 mF capacitor banks across
//! technologies.

use culpeo_capbank::{Catalog, Technology};
use culpeo_exec::{PhaseClock, Telemetry};
use culpeo_units::Farads;
use serde::Serialize;

/// One bank in the Figure 3 point cloud.
#[derive(Debug, Clone, PartialEq, Serialize)]
pub struct BankRow {
    /// Technology legend group.
    pub technology: String,
    /// Synthetic part number the bank stacks.
    pub part_number: String,
    /// Parts in the bank.
    pub part_count: usize,
    /// Total volume in mm³ (x-axis).
    pub volume_mm3: f64,
    /// Bank ESR in ohms (y-axis).
    pub esr_ohms: f64,
    /// Total leakage in amps (annotation).
    pub dcl_amps: f64,
}

/// Builds the full Figure 3 point cloud for 45 mF banks, with phase
/// telemetry.
#[must_use]
pub fn run() -> (Vec<BankRow>, Telemetry) {
    let mut clock = PhaseClock::new(1);
    crate::preflight::require_clean_reference();
    let catalog = Catalog::synthetic();
    let rows = catalog
        .bank_sweep(Farads::from_milli(45.0))
        .into_iter()
        .map(|b| BankRow {
            technology: b.technology().label().to_string(),
            part_number: b.part().part_number().to_string(),
            part_count: b.part_count(),
            volume_mm3: b.volume().get(),
            esr_ohms: b.esr().get(),
            dcl_amps: b.leakage().get(),
        })
        .collect();
    clock.mark("run");
    (rows, clock.finish())
}

/// Prints the per-technology design corners the paper annotates.
pub fn print_table(rows: &[BankRow]) {
    println!("Figure 3: 45 mF banks — smallest-volume design point per technology");
    println!(
        "{:<16} {:>12} {:>14} {:>12} {:>12}",
        "technology", "parts", "volume (mm³)", "ESR (Ω)", "DCL (A)"
    );
    for tech in Technology::ALL {
        if let Some(best) = rows
            .iter()
            .filter(|r| r.technology == tech.label())
            .min_by(|a, b| a.volume_mm3.total_cmp(&b.volume_mm3))
        {
            println!(
                "{:<16} {:>12} {:>14.1} {:>12.4} {:>12.3e}",
                best.technology, best.part_count, best.volume_mm3, best.esr_ohms, best.dcl_amps
            );
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn smallest(rows: &[BankRow], tech: Technology) -> &BankRow {
        rows.iter()
            .filter(|r| r.technology == tech.label())
            .min_by(|a, b| a.volume_mm3.total_cmp(&b.volume_mm3))
            .unwrap()
    }

    #[test]
    fn reproduces_the_papers_corners() {
        let rows = run().0;
        let sc = smallest(&rows, Technology::Supercapacitor);
        let ta = smallest(&rows, Technology::Tantalum);
        let cc = smallest(&rows, Technology::Ceramic);
        let el = smallest(&rows, Technology::Electrolytic);

        // Supercaps: smallest volume of all, few parts, nA leakage,
        // ohm-class ESR.
        assert!(sc.volume_mm3 < ta.volume_mm3);
        assert!(sc.volume_mm3 < cc.volume_mm3);
        assert!(sc.volume_mm3 < el.volume_mm3);
        assert!(sc.part_count <= 10);
        assert!(sc.dcl_amps < 1e-7);
        assert!(sc.esr_ohms > 0.1);

        // Tantalum: mA-class leakage for the densest banks.
        assert!(ta.dcl_amps > 1e-3);

        // Ceramic: thousands of parts, µΩ-class bank ESR.
        assert!(cc.part_count > 2000);
        assert!(cc.esr_ohms < 1e-4);
    }

    #[test]
    fn point_cloud_covers_all_technologies() {
        let rows = run().0;
        for tech in Technology::ALL {
            let n = rows.iter().filter(|r| r.technology == tech.label()).count();
            assert!(n >= 100, "{tech}: {n} points");
        }
    }

    #[test]
    fn every_bank_reaches_45mf() {
        let catalog = Catalog::synthetic();
        for bank in catalog.bank_sweep(Farads::from_milli(45.0)) {
            assert!(bank.capacitance().get() >= 45e-3 - 1e-9);
        }
    }
}
