//! Workload inputs: generated designs emitted to Verilog, LEF and DEF text,
//! and the set-up that parses that text back and interns it.

use crate::trace::Clock;
use netlist::design::Design;
use placer_core::{builtin_registry, DesignHandle, PlacementService};
use std::collections::HashMap;
use workload::GeneratedDesign;

/// DBU per micron of the emitted LEF and DEF.
const DBU_PER_MICRON: i64 = 1000;

/// One design as the program receives it: text only.
pub struct DesignText {
    pub verilog: String,
    pub lef: String,
    pub def: String,
}

impl DesignText {
    pub fn emit(generated: &GeneratedDesign) -> Self {
        let design = &generated.design;
        Self {
            verilog: workload::emit::emit_verilog(design),
            lef: workload::emit::emit_lef(design, &generated.library, DBU_PER_MICRON),
            def: workload::emit::emit_def(design, DBU_PER_MICRON, &HashMap::new()),
        }
    }
}

/// Seconds spent in each set-up layer, summed over the designs of one
/// set-up.
#[derive(Debug, Default, Clone, Copy)]
pub struct SetupLayers {
    pub parse_lef: f64,
    pub parse_verilog: f64,
    pub parse_def: f64,
    pub csr_build: f64,
    pub intern: f64,
}

/// Parses every design's text and interns it into a fresh one-worker
/// service. The CSR view is built by its own call before interning, so its
/// cost is reported apart from the store's bookkeeping.
pub fn setup(
    texts: &[DesignText],
    clock: &Clock,
) -> Result<(PlacementService, Vec<DesignHandle>, SetupLayers), String> {
    let mut svc = PlacementService::new(builtin_registry()).with_jobs(1);
    let mut handles = Vec::with_capacity(texts.len());
    let mut layers = SetupLayers::default();
    for text in texts {
        let t0 = clock.now();
        let lef = netlist::lef::parse_lef(&text.lef).map_err(|e| format!("LEF: {e}"))?;
        let t1 = clock.now();
        let opts =
            netlist::verilog::ElaborateOptions { library: lef.library, ..Default::default() };
        let mut design: Design = netlist::verilog::parse_verilog(&text.verilog, None, &opts)
            .map_err(|e| format!("Verilog: {e}"))?;
        let t2 = clock.now();
        netlist::def::parse_def(&text.def).map_err(|e| format!("DEF: {e}"))?.apply_to(&mut design);
        let t3 = clock.now();
        design.connectivity();
        let t4 = clock.now();
        handles.push(svc.intern(design));
        let t5 = clock.now();
        layers.parse_lef += secs(t0, t1);
        layers.parse_verilog += secs(t1, t2);
        layers.parse_def += secs(t2, t3);
        layers.csr_build += secs(t3, t4);
        layers.intern += secs(t4, t5);
    }
    Ok((svc, handles, layers))
}

pub fn secs(start: u64, end: u64) -> f64 {
    end.saturating_sub(start) as f64 * 1e-9
}
