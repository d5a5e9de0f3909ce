//! The three workloads: a fixed, seeded list of placement jobs each, driven
//! by a closed-loop client (submit one job, wait for it, submit the next)
//! through a one-worker `PlacementService`.

use crate::calib::Calibrator;
use crate::inputs::{secs, setup, DesignText, SetupLayers};
use crate::trace::{Clock, JobCounts, Recorder, Trace};
use eval::congestion::estimate_congestion;
use eval::timing::estimate_timing;
use eval::{
    place_standard_cells, place_standard_cells_warm, total_hpwl, CellPlacement, DensityMap,
    DesignKey, EvalConfig, PlacementMetrics,
};
use graphs::seqgraph::SeqGraphConfig;
use graphs::{NetGraph, SeqGraph};
use hidap::MacroPlacement;
use netlist::design::{CellId, CellKind, Design};
use netlist::DesignEdit;
use placer_core::{
    builtin_registry, DesignHandle, EffortLevel, JobId, JobResult, PlaceContext, PlaceError,
    PlaceJob, PlaceRequest, PlacementService, Placer,
};
use std::collections::BTreeMap;
use std::sync::Arc;

/// A workload of the benchmark.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    /// Cold HiDaP jobs on `large_soc`: the annealers dominate.
    SocPlace,
    /// Short λ×seed jobs across eight small designs in one store.
    FleetSweep,
    /// A chain of warm `replace` jobs carrying apply/undo edit pairs.
    EcoStream,
}

impl Workload {
    pub const ALL: [Workload; 3] = [Workload::SocPlace, Workload::FleetSweep, Workload::EcoStream];

    pub fn name(self) -> &'static str {
        match self {
            Workload::SocPlace => "soc_place",
            Workload::FleetSweep => "fleet_sweep",
            Workload::EcoStream => "eco_stream",
        }
    }

    pub fn parse(name: &str) -> Option<Self> {
        Self::ALL.into_iter().find(|w| w.name() == name)
    }

    /// Nominal seconds per job. They fix a run's job count at `seconds /
    /// nominal`, so a run does the same work whenever it gets the same
    /// `--seconds`, however fast the machine is. At 20 s that is 14, 111 and
    /// 222 jobs, about half a minute per run on a 2-vCPU x86-64 machine.
    fn nominal_job_s(self) -> f64 {
        match self {
            Workload::SocPlace => 1.45,
            Workload::FleetSweep => 0.18,
            Workload::EcoStream => 0.09,
        }
    }

    /// Jobs in the timed drain for a run of `seconds`.
    pub fn jobs(self, seconds: u64) -> usize {
        let n = (seconds as f64 / self.nominal_job_s()).round() as usize;
        match self {
            // whole pairs of runs of one placement seed
            Workload::SocPlace => n.max(2).div_ceil(2) * 2,
            Workload::FleetSweep => n.max(2),
            // whole apply/undo pairs
            Workload::EcoStream => n.max(2).div_ceil(2) * 2,
        }
    }

    /// Set-ups timed per run; `setup_s` is their median.
    pub fn setups(self) -> usize {
        match self {
            Workload::SocPlace => 9,
            Workload::FleetSweep => 5,
            Workload::EcoStream => 3,
        }
    }

    /// Generates the workload's designs and emits them as text. The designs
    /// are fixed presets; the seed only drives the job list.
    pub fn inputs(self) -> Vec<DesignText> {
        match self {
            Workload::SocPlace | Workload::EcoStream => {
                vec![DesignText::emit(&workload::large_soc())]
            }
            Workload::FleetSweep => {
                workload::presets::service_fleet(8, 1.0).iter().map(DesignText::emit).collect()
            }
        }
    }
}

/// The evaluation every job requests (the Table III metrics).
fn eval_config() -> EvalConfig {
    EvalConfig::standard()
}

/// SplitMix64: the benchmark's own seeded generator for job lists and edits.
#[derive(Debug, Clone)]
pub struct Rng(u64);

impl Rng {
    pub fn new(seed: u64) -> Self {
        Self(seed)
    }

    pub fn next(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// Fisher–Yates shuffle.
    pub fn shuffle<T>(&mut self, items: &mut [T]) {
        for i in (1..items.len()).rev() {
            items.swap(i, self.below(i + 1));
        }
    }

    /// Uniform in `0..n` (`n > 0`).
    pub fn below(&mut self, n: usize) -> usize {
        (self.next() % n as u64) as usize
    }
}

/// One placement's Table III quality: wirelength (m), GRC overflow (%) and
/// critical-path delay as a share of the clock period (100 − WNS%).
pub type Quality = [f64; 3];

fn quality_of(m: &PlacementMetrics) -> Quality {
    [m.wirelength_m, m.grc_percent(), 100.0 - m.wns_percent()]
}

/// What one pass over a workload's job list measured.
#[derive(Default)]
pub struct Pass {
    /// Quality of every job's winning placement, in job order.
    pub quality: Vec<Quality>,
    pub attempted: u64,
    pub failed: u64,
    /// One line per failed job or check.
    pub problems: Vec<String>,
    /// Present on the traced pass only.
    pub traced: Option<Traced>,
    /// Submit-to-result clock interval of every job, in job order.
    pub intervals: Vec<(u64, u64)>,
}

impl Pass {
    /// Wall seconds of every job, in job order.
    pub fn latencies(&self) -> Vec<f64> {
        self.intervals.iter().map(|&(a, b)| secs(a, b)).collect()
    }

    fn fail(&mut self, problem: String) {
        self.failed += 1;
        self.problems.push(problem);
    }
}

/// Sequential graphs for re-called timing, built by the benchmark itself
/// (so the service's artifact counters see no extra fetches) and timed as
/// the `graphs` layer.
#[derive(Default)]
struct Graphs {
    memo: Vec<(DesignKey, SeqGraph)>,
    gnet_s: f64,
    gseq_s: f64,
    builds: u64,
}

impl Graphs {
    fn seq(&mut self, design: &Design, clock: &Clock) -> &SeqGraph {
        let key = DesignKey::of(design);
        if let Some(i) = self.memo.iter().position(|(k, _)| *k == key) {
            return &self.memo[i].1;
        }
        let t0 = clock.now();
        let gnet = NetGraph::from_design(design);
        let t1 = clock.now();
        let gseq = SeqGraph::from_netgraph(design, &gnet, &SeqGraphConfig::default());
        let t2 = clock.now();
        self.gnet_s += secs(t0, t1);
        self.gseq_s += secs(t1, t2);
        self.builds += 1;
        if self.memo.len() >= 8 {
            self.memo.remove(0);
        }
        self.memo.push((key, gseq));
        &self.memo[self.memo.len() - 1].1
    }
}

/// Everything the traced pass records besides the timed numbers.
pub struct Traced {
    recorder: Arc<Recorder>,
    pub trace: Trace,
    pub counts: JobCounts,
    pub jobs: u64,
    pub recalls: u64,
    pub warm_sweeps: u64,
    graphs: Graphs,
    pub apply_edits_s: f64,
    pub artifact_hits: u64,
    pub artifact_misses: u64,
    pub peak_resident_bytes: usize,
}

impl Traced {
    fn new(clock: Clock) -> Self {
        Self {
            recorder: Recorder::new(clock),
            trace: Trace::default(),
            counts: JobCounts::default(),
            jobs: 0,
            recalls: 0,
            warm_sweeps: 0,
            graphs: Graphs::default(),
            apply_edits_s: 0.0,
            artifact_hits: 0,
            artifact_misses: 0,
            peak_resident_bytes: 0,
        }
    }

    pub fn gnet_build_s(&self) -> f64 {
        self.graphs.gnet_s / self.graphs.builds.max(1) as f64
    }

    pub fn gseq_build_s(&self) -> f64 {
        self.graphs.gseq_s / self.graphs.builds.max(1) as f64
    }

    fn record_job(&mut self, op: u64, submit: u64, done: u64, warm: bool) {
        let events = self.recorder.drain();
        let c = self.trace.record_job(op, submit, done, &events, warm);
        self.jobs += 1;
        self.counts.levels += c.levels;
        self.counts.blocks += c.blocks;
        self.counts.moved += c.moved;
        self.counts.flipped += c.flipped;
        self.counts.fallbacks += c.fallbacks;
    }

    /// Re-runs each evaluation step on a job's output through the `eval`
    /// crate's public functions, timing each as a span of operation `op`,
    /// and checks that together they reproduce the job's metrics.
    fn recall_eval(
        &mut self,
        clock: &Clock,
        op: u64,
        design: &Design,
        placement: &MacroPlacement,
        warm: Option<&CellPlacement>,
        metrics: &PlacementMetrics,
    ) -> Result<(), String> {
        let cfg = eval_config();
        let gseq = self.graphs.seq(design, clock);
        let t0 = clock.now();
        let cells = match warm {
            Some(seed) => {
                let (cells, sweeps) =
                    place_standard_cells_warm(design, placement, &cfg.placer, seed);
                self.warm_sweeps += sweeps as u64;
                cells
            }
            None => place_standard_cells(design, placement, &cfg.placer),
        };
        let t1 = clock.now();
        let hpwl = total_hpwl(design, &cells);
        let t2 = clock.now();
        let congestion = estimate_congestion(design, &cells, placement, &cfg.congestion);
        let t3 = clock.now();
        let timing = estimate_timing(design, gseq, &cells, &cfg.timing);
        let t4 = clock.now();
        let density = DensityMap::compute(design, &cells, placement, cfg.density_bins);
        let t5 = clock.now();
        let root = self.trace.push("eval.recall", t0, t5, None, op);
        for (name, a, b) in [
            ("eval.cell_place", t0, t1),
            ("eval.hpwl", t1, t2),
            ("eval.congestion", t2, t3),
            ("eval.timing", t3, t4),
            ("eval.density", t4, t5),
        ] {
            self.trace.push(name, a, b, Some(root), op);
        }
        self.recalls += 1;
        let same = cells == metrics.cell_placement
            && hpwl == metrics.hpwl
            && congestion == metrics.congestion
            && timing == metrics.timing
            && density == metrics.density;
        if same {
            Ok(())
        } else {
            Err(format!("job {op}: re-called evaluation steps disagree with the job's metrics"))
        }
    }

    fn note_service(&mut self, svc: &PlacementService, before: &eval::ArtifactCacheStats) {
        let stats = svc.stats();
        self.artifact_hits = stats.artifacts.hits() - before.hits();
        self.artifact_misses = stats.artifacts.misses() - before.misses();
        self.peak_resident_bytes = stats.peak_resident_bytes;
    }
}

/// The closed-loop client: one job at a time, submit, drain and (unless the
/// result must stay in the service as a replace base) take the result.
struct Client<'k> {
    clock: Clock,
    traced: Option<Traced>,
    calib: &'k mut Calibrator,
}

impl Client<'_> {
    fn timed(
        &mut self,
        svc: &mut PlacementService,
        job: PlaceJob,
        take: bool,
    ) -> (JobId, Option<Result<JobResult, PlaceError>>, u64, u64) {
        let job = match &self.traced {
            Some(t) => job.with_observer(t.recorder.clone()),
            None => job,
        };
        let t0 = self.clock.now();
        let id = svc.submit(job);
        svc.run_all();
        let result = if take { svc.take_result(id) } else { None };
        let t1 = self.clock.now();
        (id, result, t0, t1)
    }

    /// Records job `op`'s submit-to-result interval, and its spans when
    /// tracing.
    fn note(&mut self, pass: &mut Pass, op: usize, t0: u64, t1: u64, warm: bool) {
        pass.intervals.push((t0, t1));
        if let Some(t) = self.traced.as_mut() {
            t.record_job(op as u64, t0, t1, warm);
        }
        self.calib.after(secs(t0, t1));
    }
}

/// Every set-up of one run: its clock interval and per-layer seconds.
#[derive(Debug, Default)]
pub struct Setups {
    pub intervals: Vec<(u64, u64)>,
    pub layers: Vec<SetupLayers>,
}

/// A set-up's result: the service holding the interned designs, their
/// handles and, on `eco_stream`, the base job every replace starts from.
pub struct Prepared {
    svc: PlacementService,
    handles: Vec<DesignHandle>,
    base: Option<JobId>,
}

/// One set-up of a workload: parse and intern (and, on `eco_stream`, the
/// base placement).
fn set_up(
    workload: Workload,
    texts: &[DesignText],
    calib: &mut Calibrator,
    setups: &mut Setups,
) -> Result<Prepared, String> {
    let clock = calib.clock();
    let t0 = clock.now();
    let (mut svc, handles, layers) = setup(texts, &clock)?;
    let base = (workload == Workload::EcoStream).then(|| {
        let id = svc.submit(hidap_job(handles[0]));
        svc.run_all();
        id
    });
    let t1 = clock.now();
    setups.intervals.push((t0, t1));
    setups.layers.push(layers);
    calib.after(secs(t0, t1));
    Ok(Prepared { svc, handles, base })
}

/// Runs `count` set-ups and keeps the last one for the drain.
pub fn set_up_repeatedly(
    workload: Workload,
    texts: &[DesignText],
    calib: &mut Calibrator,
    count: usize,
    setups: &mut Setups,
) -> Result<Prepared, String> {
    let mut last = set_up(workload, texts, calib, setups)?;
    for _ in 1..count {
        drop(last);
        last = set_up(workload, texts, calib, setups)?;
    }
    Ok(last)
}

/// Drives one pass over the workload's job list on a freshly set-up service.
pub fn drive(
    workload: Workload,
    seed: u64,
    jobs: usize,
    calib: &mut Calibrator,
    traced: bool,
    prepared: &mut Prepared,
) -> Pass {
    let clock = calib.clock();
    let mut client = Client { clock, traced: traced.then(|| Traced::new(clock)), calib };
    let Prepared { svc, handles, base } = prepared;
    let before = svc.stats().artifacts;
    let mut pass = match (workload, *base) {
        (Workload::SocPlace, _) => soc_place(&mut client, seed, jobs, svc, handles[0]),
        (Workload::FleetSweep, _) => fleet_sweep(&mut client, seed, jobs, svc, handles),
        (Workload::EcoStream, Some(base)) => {
            eco_stream(&mut client, seed, jobs, svc, handles[0], base)
        }
        (Workload::EcoStream, None) => unreachable!("eco_stream set-ups place a base job"),
    };
    if let Some(mut t) = client.traced.take() {
        t.note_service(svc, &before);
        pass.traced = Some(t);
    }
    pass
}

fn hidap_job(handle: DesignHandle) -> PlaceJob {
    PlaceJob::new(handle, "hidap").with_effort(EffortLevel::Fast).with_evaluation(eval_config())
}

/// Samples `jobs` jobs at about `samples` evenly spaced indices.
fn sampled(index: usize, jobs: usize, samples: usize) -> bool {
    index.is_multiple_of((jobs / samples).max(1))
}

fn soc_place(
    d: &mut Client,
    seed: u64,
    jobs: usize,
    svc: &mut PlacementService,
    handle: DesignHandle,
) -> Pass {
    // A fixed set of placement seeds, each run twice: the workload seed
    // only shuffles the order, so every run places the same set and the
    // quality medians are constants of the program.
    let mut rng = Rng::new(seed ^ 0x5EED_50C0);
    let distinct = (jobs / 2).max(1) as u64;
    let mut order: Vec<u64> = Vec::with_capacity(jobs);
    while order.len() < jobs {
        let mut round: Vec<u64> = (1..=distinct).collect();
        rng.shuffle(&mut round);
        order.extend(round.into_iter().take(jobs - order.len()));
    }
    let mut first: BTreeMap<u64, MacroPlacement> = BTreeMap::new();
    let mut pass = Pass::default();
    for (i, &s) in order.iter().enumerate() {
        pass.attempted += 1;
        let (_, result, t0, t1) = d.timed(svc, hidap_job(handle).with_seeds(vec![s]), true);
        d.note(&mut pass, i, t0, t1, false);
        let op = i as u64;
        let outcome = match result {
            Some(Ok(r)) => r.outcome,
            other => {
                pass.fail(format!("soc_place job {i} (seed {s}) failed: {other:?}"));
                continue;
            }
        };
        let design = svc.store().design(handle);
        let Some(metrics) = outcome.metrics.as_ref() else {
            pass.fail(format!("soc_place job {i} returned no metrics"));
            continue;
        };
        pass.quality.push(quality_of(metrics));
        let mut problems = Vec::new();
        if !outcome.placement.is_legal(design) {
            problems.push(format!("soc_place job {i} (seed {s}) is not legal"));
        }
        match first.get(&s) {
            Some(p) if *p != outcome.placement => {
                problems.push(format!("soc_place seed {s} did not reproduce its placement"))
            }
            Some(_) => {}
            None => {
                first.insert(s, outcome.placement.clone());
            }
        }
        if let Some(t) = d.traced.as_mut() {
            if let Err(e) = t.recall_eval(&d.clock, op, design, &outcome.placement, None, metrics) {
                problems.push(e);
            }
        }
        if !problems.is_empty() {
            pass.fail(problems.join("; "));
        }
    }
    pass
}

const LAMBDAS: [f64; 5] = [0.2, 0.35, 0.5, 0.65, 0.8];

fn fleet_sweep(
    d: &mut Client,
    seed: u64,
    jobs: usize,
    svc: &mut PlacementService,
    handles: &[DesignHandle],
) -> Pass {
    // A fixed set of λ×seed jobs across the designs, in an order the
    // workload seed shuffles.
    let mut specs: Vec<(usize, u64, f64, f64)> = (0..jobs)
        .map(|j| {
            let l = j % LAMBDAS.len();
            (
                j % handles.len(),
                1 + (j / handles.len()) as u64,
                LAMBDAS[l],
                LAMBDAS[(l + 2) % LAMBDAS.len()],
            )
        })
        .collect();
    Rng::new(seed ^ 0xF1EE_7000).shuffle(&mut specs);
    let placer = builtin_registry().create("hidap").expect("the hidap flow is registered");
    let mut direct_ctx = PlaceContext::new();
    let mut pass = Pass::default();
    for (i, &(design, s, la, lb)) in specs.iter().enumerate() {
        let handle = handles[design];
        let job = hidap_job(handle).with_seeds(vec![s]).with_lambdas(vec![la, lb]);
        pass.attempted += 1;
        let (_, result, t0, t1) = d.timed(svc, job, true);
        d.note(&mut pass, i, t0, t1, false);
        let op = i as u64;
        let outcome = match result {
            Some(Ok(r)) => r.outcome,
            other => {
                pass.fail(format!("fleet_sweep job {i} failed: {other:?}"));
                continue;
            }
        };
        let design = svc.store().design(handle);
        let Some(metrics) = outcome.metrics.as_ref() else {
            pass.fail(format!("fleet_sweep job {i} returned no metrics"));
            continue;
        };
        pass.quality.push(quality_of(metrics));
        let mut problems = Vec::new();
        if !outcome.placement.is_legal(design) {
            problems.push(format!("fleet_sweep job {i} is not legal"));
        }
        if sampled(i, jobs, 8) {
            let mut req = PlaceRequest::new(design)
                .with_seed(outcome.seed)
                .with_effort(EffortLevel::Fast)
                .with_evaluation(eval_config());
            if let Some(l) = outcome.lambda {
                req = req.with_lambda(l);
            }
            match placer.place(&req, &mut direct_ctx) {
                Ok(direct)
                    if direct.placement == outcome.placement
                        && direct.metrics == outcome.metrics => {}
                Ok(_) => {
                    problems.push(format!("fleet_sweep job {i}: winner differs from a direct run"))
                }
                Err(e) => problems.push(format!("fleet_sweep job {i}: direct run failed: {e}")),
            }
        }
        if let Some(t) = d.traced.as_mut() {
            if let Err(e) = t.recall_eval(&d.clock, op, design, &outcome.placement, None, metrics) {
                problems.push(e);
            }
        }
        if !problems.is_empty() {
            pass.fail(problems.join("; "));
        }
    }
    pass
}

/// A placement and its metrics; the evaluated cell placement is the warm
/// seed a replace job hands to the next one.
struct Placed {
    placement: MacroPlacement,
    metrics: PlacementMetrics,
}

fn placed(result: Option<Result<JobResult, PlaceError>>) -> Result<Placed, String> {
    match result {
        Some(Ok(r)) => placed_outcome(r.outcome.placement, r.outcome.metrics),
        other => Err(format!("{other:?}")),
    }
}

fn placed_outcome(
    placement: MacroPlacement,
    metrics: Option<PlacementMetrics>,
) -> Result<Placed, String> {
    let metrics = metrics.ok_or("no metrics")?;
    Ok(Placed { placement, metrics })
}

/// Every sixteenth pair rewires a net: a fixed minority of one job in
/// sixteen, which invalidates the cached circuit graphs.
const REWIRE_EVERY: usize = 16;

/// `dim` changed by ±1–3 %.
fn nudge(rng: &mut Rng, dim: i64) -> i64 {
    let pct = 1 + rng.below(3) as i64;
    let signed = if rng.next().is_multiple_of(2) { pct } else { -pct };
    (dim + dim * signed / 100).max(1)
}

/// The apply and undo edits of pair `pair` against the base design and its
/// base placement.
fn pair_edit(
    rng: &mut Rng,
    pair: usize,
    design: &Design,
    base: &MacroPlacement,
) -> (Vec<DesignEdit>, Vec<DesignEdit>) {
    let macros: Vec<CellId> = design.macros().collect();
    let m = macros[rng.below(macros.len())];
    let cell = design.cell(m);
    if pair % REWIRE_EVERY == REWIRE_EVERY - 1 {
        let nets: Vec<_> = design
            .net_ids()
            .filter(|&n| {
                let net = design.net(n);
                net.driver_cell.is_some() && (1..=8).contains(&net.sink_cells.len())
            })
            .collect();
        let net_id = nets[rng.below(nets.len())];
        let net = design.net(net_id);
        let comb: Vec<CellId> =
            design.cells().filter(|(_, c)| c.kind == CellKind::Comb).map(|(id, _)| id).collect();
        let mut sinks = net.sink_cells.clone();
        sinks[0] = comb[rng.below(comb.len())];
        let undo = DesignEdit::RewireNet {
            net: net_id,
            driver: net.driver_cell,
            sinks: net.sink_cells.clone(),
        };
        let apply = DesignEdit::RewireNet { net: net_id, driver: net.driver_cell, sinks };
        return (vec![apply], vec![undo]);
    }
    match rng.below(4) {
        0 => {
            let at = base.placement_of(m).map_or(design.die().lower_left(), |p| p.location);
            let dx = nudge(rng, cell.width) - cell.width;
            let dy = nudge(rng, cell.height) - cell.height;
            let to = geometry::Point::new(at.x + dx, at.y + dy);
            (
                vec![DesignEdit::MoveMacro { cell: m, to }],
                vec![DesignEdit::MoveMacro { cell: m, to: at }],
            )
        }
        1 => {
            let ports: Vec<_> = design.ports().filter(|(_, p)| p.position.is_some()).collect();
            let (port, p) = ports[rng.below(ports.len())];
            let at = p.position.expect("filtered to placed ports");
            let die = design.die();
            let step = nudge(rng, die.height() / 50) - die.height() / 50;
            let to = if at.x == die.llx || at.x == die.urx {
                geometry::Point::new(at.x, (at.y + step).clamp(die.lly, die.ury))
            } else {
                geometry::Point::new((at.x + step).clamp(die.llx, die.urx), at.y)
            };
            (
                vec![DesignEdit::MovePort { port, to: Some(to) }],
                vec![DesignEdit::MovePort { port, to: p.position }],
            )
        }
        2 => {
            let (w, h) = (nudge(rng, cell.width), nudge(rng, cell.height));
            (
                vec![DesignEdit::SwapMaster {
                    cell: m,
                    lib_cell: format!("{}_ECO", cell.lib_cell),
                    width: w,
                    height: h,
                }],
                vec![DesignEdit::SwapMaster {
                    cell: m,
                    lib_cell: cell.lib_cell.clone(),
                    width: cell.width,
                    height: cell.height,
                }],
            )
        }
        _ => {
            let (w, h) = (nudge(rng, cell.width), nudge(rng, cell.height));
            (
                vec![DesignEdit::ResizeCell { cell: m, width: w, height: h }],
                vec![DesignEdit::ResizeCell { cell: m, width: cell.width, height: cell.height }],
            )
        }
    }
}

/// The warm-start seed a replace job derives from its base: the base
/// placement with the edit script's macro moves folded in.
fn moved_seed(base: &MacroPlacement, edits: &[DesignEdit]) -> MacroPlacement {
    let mut seed = base.clone();
    for edit in edits {
        if let DesignEdit::MoveMacro { cell, to } = edit {
            if let Some(m) = seed.macros.iter_mut().find(|m| m.cell == *cell) {
                m.location = *to;
            }
        }
    }
    seed
}

fn eco_stream(
    d: &mut Client,
    seed: u64,
    jobs: usize,
    svc: &mut PlacementService,
    handle: DesignHandle,
    base: JobId,
) -> Pass {
    let mut rng = Rng::new(seed ^ 0xEC0_5EED);
    let placer = builtin_registry().create("hidap").expect("the hidap flow is registered");
    let mut pass = Pass::default();
    // The client's copy of the design, edited in step with the service's.
    let mut mirror = svc.store().design(handle).clone();
    // The base job's result stays in the service for every apply job, so
    // the client learns the base placement from the same cold run, direct.
    let base_placed = match placer.place(&base_request(&mirror), &mut PlaceContext::new()) {
        Ok(out) => placed_outcome(out.placement, out.metrics),
        Err(e) => Err(e.to_string()),
    };
    let base_placed = match base_placed {
        Ok(p) => p,
        Err(e) => {
            pass.fail(format!("eco_stream direct base placement failed: {e}"));
            return pass;
        }
    };
    for pair in 0..jobs / 2 {
        let (apply, undo) = pair_edit(&mut rng, pair, &mirror, &base_placed.placement);
        let (j_apply, j_undo) = (2 * pair, 2 * pair + 1);
        pass.attempted += 2;
        let job = hidap_job(handle).with_replace(base, apply.clone());
        let (apply_id, _, t0, t1) = d.timed(svc, job, false);
        d.note(&mut pass, j_apply, t0, t1, true);
        let job = hidap_job(handle).with_replace(apply_id, undo.clone());
        let (_, undone, t0, t1) = d.timed(svc, job, true);
        d.note(&mut pass, j_undo, t0, t1, true);

        let applied = placed(svc.take_result(apply_id));
        let (applied, undone) = match (applied, placed(undone)) {
            (Ok(a), Ok(u)) => (a, u),
            (a, u) => {
                pass.fail(format!("eco_stream pair {pair} failed: {:?} / {:?}", a.err(), u.err()));
                return pass;
            }
        };
        for (j, edits, job_base, done) in
            [(j_apply, &apply, &base_placed, &applied), (j_undo, &undo, &applied, &undone)]
        {
            let t0 = d.clock.now();
            if let Err(e) = mirror.apply_edits(edits) {
                pass.fail(format!(
                    "eco_stream job {j}: edits do not apply to the client copy: {e}"
                ));
                return pass;
            }
            if let Some(t) = d.traced.as_mut() {
                t.apply_edits_s += secs(t0, d.clock.now());
            }
            pass.quality.push(quality_of(&done.metrics));
            let problems = check_eco_job(d, j, jobs, &mirror, job_base, edits, done, &*placer);
            if !problems.is_empty() {
                pass.fail(problems.join("; "));
            }
        }
    }
    match placed(svc.take_result(base)) {
        Ok(b) if b.placement == base_placed.placement && b.metrics == base_placed.metrics => {}
        other => pass
            .fail(format!("eco_stream base job differs from a direct cold run: {:?}", other.err())),
    }
    pass
}

/// The cold request the `eco_stream` base job makes.
fn base_request(design: &Design) -> PlaceRequest<'_> {
    PlaceRequest::new(design)
        .with_seed(1)
        .with_effort(EffortLevel::Fast)
        .with_evaluation(eval_config())
}

/// Checks replace job `j` against the client's copy of the design after its
/// edits: legality, and on a sample, equality with the warm flow run
/// directly from the same seed placement.
#[allow(clippy::too_many_arguments)]
fn check_eco_job(
    d: &mut Client,
    j: usize,
    jobs: usize,
    design: &Design,
    base: &Placed,
    edits: &[DesignEdit],
    done: &Placed,
    placer: &dyn Placer,
) -> Vec<String> {
    let mut problems = Vec::new();
    if !done.placement.is_legal(design) {
        problems.push(format!("eco_stream job {j} is not legal"));
    }
    if sampled(j, jobs, 8) {
        let warm = moved_seed(&base.placement, edits);
        let req = PlaceRequest::new(design)
            .with_seed(1)
            .with_effort(EffortLevel::Fast)
            .with_evaluation(eval_config())
            .with_warm_start(&warm)
            .with_warm_cells(&base.metrics.cell_placement);
        match placer.place(&req, &mut PlaceContext::new()) {
            Ok(direct)
                if direct.placement == done.placement
                    && direct.metrics.as_ref() == Some(&done.metrics) => {}
            Ok(_) => {
                problems.push(format!("eco_stream job {j}: replace differs from a direct warm run"))
            }
            Err(e) => problems.push(format!("eco_stream job {j}: direct warm run failed: {e}")),
        }
    }
    if let Some(t) = d.traced.as_mut() {
        let r = t.recall_eval(
            &d.clock,
            j as u64,
            design,
            &done.placement,
            Some(&base.metrics.cell_placement),
            &done.metrics,
        );
        if let Err(e) = r {
            problems.push(e);
        }
    }
    problems
}
