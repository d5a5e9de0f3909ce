//! Golden output pins for cold HiDaP jobs at Fast effort.
//!
//! Each pin records what one cold `hidap` job produces on a fixed design
//! and seed: an FNV-1a checksum of the full macro placement (every macro's
//! cell, location and orientation, then every top-level block rectangle),
//! the bit pattern of the HPWL in meters, and the GRC overflow percentage
//! bits. The values were captured from the code before the annealers and
//! the target-area search were made incremental; any refactor of those hot
//! paths must leave every pin unchanged. A change that is *meant* to move
//! results re-baselines the pins deliberately and lists each one it moved.
//!
//! The debug-build suite runs the small designs. The `large_soc` pin is
//! `#[ignore]`d for its runtime; CI runs it in release:
//! `cargo test --release -p bench --test golden_pins -- --include-ignored`.

use eval::EvalConfig;
use hidap::MacroPlacement;
use netlist::design::Design;
use netlist::Fnv1a;
use placer_core::{EffortLevel, PlaceJob, PlacementService};
use workload::{
    adversarial_design, fig1_design, large_soc, presets::service_fleet, ADVERSARIAL_PRESETS,
};

/// One pinned job result.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
struct Pin {
    design: &'static str,
    seed: u64,
    checksum: u64,
    hpwl_m_bits: u64,
    grc_pct_bits: u64,
}

/// FNV-1a over the whole placement, in its stored order.
fn checksum(placement: &MacroPlacement) -> u64 {
    let mut h = Fnv1a::new();
    for m in &placement.macros {
        h.write_u64(m.cell.0 as u64);
        h.write_u64(m.location.x as u64);
        h.write_u64(m.location.y as u64);
        h.write_bytes(format!("{:?}", m.orientation).as_bytes());
        h.write_sep();
    }
    for (name, r) in &placement.top_blocks {
        h.write_bytes(name.as_bytes());
        h.write_sep();
        for v in [r.llx, r.lly, r.urx, r.ury] {
            h.write_u64(v as u64);
        }
    }
    h.finish()
}

/// Runs one cold Fast-effort HiDaP job per seed on `design`.
fn run(name: &'static str, design: Design, seeds: &[u64]) -> Vec<Pin> {
    let mut svc = PlacementService::new(baselines::default_registry());
    let handle = svc.intern(design);
    seeds
        .iter()
        .map(|&seed| {
            let id = svc.submit(
                PlaceJob::new(handle, "hidap")
                    .with_effort(EffortLevel::Fast)
                    .with_seeds(vec![seed])
                    .with_evaluation(EvalConfig::standard()),
            );
            svc.run_all();
            let result = svc.take_result(id).expect("job ran").expect("job succeeded");
            let outcome = result.outcome;
            let metrics = outcome.metrics.as_ref().expect("job evaluated");
            Pin {
                design: name,
                seed,
                checksum: checksum(&outcome.placement),
                hpwl_m_bits: metrics.wirelength_m.to_bits(),
                grc_pct_bits: metrics.grc_percent().to_bits(),
            }
        })
        .collect()
}

fn assert_pins(actual: &[Pin], expected: &[Pin]) {
    let listing: Vec<String> = actual.iter().map(|p| format!("{p:?},")).collect();
    assert_eq!(actual, expected, "golden pins moved; this run produced:\n{}", listing.join("\n"));
}

const FIG1: [Pin; 2] = [
    Pin {
        design: "fig1",
        seed: 1,
        checksum: 2049495311592919388,
        hpwl_m_bits: 4586902438020838541,
        grc_pct_bits: 4634290877982834688,
    },
    Pin {
        design: "fig1",
        seed: 2,
        checksum: 9451942543176136763,
        hpwl_m_bits: 4586387019418172468,
        grc_pct_bits: 4634957456907173888,
    },
];

const ADVERSARIAL: [Pin; 4] = [
    Pin {
        design: "adv_fanout",
        seed: 7,
        checksum: 17946679890728011097,
        hpwl_m_bits: 4584502183854879661,
        grc_pct_bits: 4631958813820321792,
    },
    Pin {
        design: "adv_aspect",
        seed: 7,
        checksum: 18145911790253565929,
        hpwl_m_bits: 4583172390932868821,
        grc_pct_bits: 4631422801901780992,
    },
    Pin {
        design: "adv_macro_heavy",
        seed: 7,
        checksum: 15817253581627068957,
        hpwl_m_bits: 4588878591164249297,
        grc_pct_bits: 4634061629808443392,
    },
    Pin {
        design: "adv_packed",
        seed: 7,
        checksum: 6319526369048783309,
        hpwl_m_bits: 4585896881934144225,
        grc_pct_bits: 4635706499203596288,
    },
];

const FLEET: [Pin; 3] = [
    Pin {
        design: "fleet_0",
        seed: 3,
        checksum: 6867400921150737691,
        hpwl_m_bits: 4575245972001887664,
        grc_pct_bits: 4631202899576225792,
    },
    Pin {
        design: "fleet_1",
        seed: 3,
        checksum: 8581988175805962626,
        hpwl_m_bits: 4576422357764956269,
        grc_pct_bits: 4631464033587822592,
    },
    Pin {
        design: "fleet_2",
        seed: 3,
        checksum: 15629895587341046405,
        hpwl_m_bits: 4578287334543562599,
        grc_pct_bits: 4632302411204001792,
    },
];

const LARGE_SOC: [Pin; 4] = [
    Pin {
        design: "large_soc",
        seed: 1,
        checksum: 14335598103639042738,
        hpwl_m_bits: 4610737616879549800,
        grc_pct_bits: 4636524260976754688,
    },
    Pin {
        design: "large_soc",
        seed: 2,
        checksum: 17487429558245821212,
        hpwl_m_bits: 4610631099493063488,
        grc_pct_bits: 4636641084087205888,
    },
    Pin {
        design: "large_soc",
        seed: 3,
        checksum: 10309968876367789324,
        hpwl_m_bits: 4610717359283101921,
        grc_pct_bits: 4636730419406962688,
    },
    Pin {
        design: "large_soc",
        seed: 4,
        checksum: 12818570719472986186,
        hpwl_m_bits: 4611768122628956572,
        grc_pct_bits: 4636558620715122688,
    },
];

#[test]
fn fig1_design_pins() {
    assert_pins(&run("fig1", fig1_design().design, &[1, 2]), &FIG1);
}

#[test]
fn adversarial_preset_pins() {
    let actual: Vec<Pin> = ADVERSARIAL_PRESETS
        .iter()
        .flat_map(|&name| run(name, adversarial_design(name), &[7]))
        .collect();
    assert_pins(&actual, &ADVERSARIAL);
}

#[test]
fn small_service_fleet_pins() {
    // scale 0.1: the debug-build fleet size the service tests use
    let actual: Vec<Pin> = service_fleet(FLEET.len(), 0.1)
        .into_iter()
        .zip(FLEET)
        .flat_map(|(g, pin)| run(pin.design, g.design, &[pin.seed]))
        .collect();
    assert_pins(&actual, &FLEET);
}

#[test]
#[ignore = "large_soc takes seconds per seed even in release; CI runs it with --include-ignored"]
fn large_soc_pins() {
    assert_pins(&run("large_soc", large_soc().design, &[1, 2, 3, 4]), &LARGE_SOC);
}
