//! Benchmark-side tracing: stage checkpoints timestamped by an observer,
//! turned into nested spans kept in memory and written out once at the end.

use placer_core::{FlowObserver, StageEvent};
use std::collections::BTreeMap;
use std::sync::{Arc, Mutex};
use std::time::Instant;

/// Monotonic nanoseconds since a fixed epoch, shared by every timestamp of
/// one process.
#[derive(Debug, Clone, Copy)]
pub struct Clock {
    epoch: Instant,
}

impl Clock {
    pub fn new() -> Self {
        Self { epoch: Instant::now() }
    }

    pub fn now(&self) -> u64 {
        self.epoch.elapsed().as_nanos() as u64
    }
}

/// A [`FlowObserver`] that stamps every stage event with the clock.
pub struct Recorder {
    clock: Clock,
    events: Mutex<Vec<(u64, StageEvent)>>,
}

impl Recorder {
    pub fn new(clock: Clock) -> Arc<Self> {
        Arc::new(Self { clock, events: Mutex::new(Vec::new()) })
    }

    /// Takes every event recorded since the last call.
    pub fn drain(&self) -> Vec<(u64, StageEvent)> {
        std::mem::take(&mut *self.events.lock().expect("recorder lock poisoned"))
    }
}

impl FlowObserver for Recorder {
    fn on_event(&self, event: &StageEvent) {
        let t = self.clock.now();
        self.events.lock().expect("recorder lock poisoned").push((t, event.clone()));
    }
}

/// One timed interval. `parent` indexes the enclosing span in the same
/// [`Trace`]; spans of one operation share `op`.
#[derive(Debug, Clone)]
pub struct Span {
    pub name: String,
    pub start: u64,
    pub end: u64,
    pub parent: Option<usize>,
    pub op: u64,
}

impl Span {
    pub fn seconds(&self) -> f64 {
        self.end.saturating_sub(self.start) as f64 * 1e-9
    }
}

/// Names of the spans that partition a job's wall time.
pub const JOB_SPAN: &str = "placer_core.job";
pub const QUEUE_WAIT: &str = "placer_core.queue_wait";
const RUN: &str = "hidap.run";
const FLOORPLAN: &str = "hidap.floorplan";
const COVERING: [&str; 7] = [
    QUEUE_WAIT,
    "hidap.hierarchy",
    "hidap.shape_curves",
    FLOORPLAN,
    "hidap.legalize",
    "hidap.flip",
    "eval.evaluate",
];

/// Deepest floorplan level reported on its own; deeper levels fold into it.
pub const MAX_DEPTH: usize = 3;

/// Per-job counts read off the stage events.
#[derive(Debug, Default, Clone, Copy)]
pub struct JobCounts {
    pub levels: u64,
    pub blocks: u64,
    pub moved: u64,
    pub flipped: u64,
    /// Runs that went through the full flow after starting warm.
    pub fallbacks: u64,
}

/// Every span of one benchmark pass, in recording order.
#[derive(Debug, Default)]
pub struct Trace {
    pub spans: Vec<Span>,
}

impl Trace {
    pub fn push(
        &mut self,
        name: &str,
        start: u64,
        end: u64,
        parent: Option<usize>,
        op: u64,
    ) -> usize {
        self.spans.push(Span { name: name.to_string(), start, end, parent, op });
        self.spans.len() - 1
    }

    /// Turns one job's stage events into spans under a job span covering
    /// `submit..done`. Each checkpoint closes the interval the previous one
    /// opened, as the engine's own stage timings do. `warm` marks a job
    /// that starts on the warm path, whose hierarchy checkpoint means it
    /// fell back to the full flow.
    pub fn record_job(
        &mut self,
        op: u64,
        submit: u64,
        done: u64,
        events: &[(u64, StageEvent)],
        warm: bool,
    ) -> JobCounts {
        let job = self.push(JOB_SPAN, submit, done, None, op);
        let mut counts = JobCounts::default();
        let mut cursor = submit;
        let mut run: Option<usize> = None;
        let mut floorplan: Option<usize> = None;
        let mut started = false;
        for (t, event) in events {
            let t = *t;
            let parent = run.or(Some(job));
            match event {
                StageEvent::FlowStarted { .. } => {
                    if !started {
                        started = true;
                        self.push(QUEUE_WAIT, submit, t, Some(job), op);
                    }
                    run = Some(self.push(RUN, t, t, Some(job), op));
                }
                StageEvent::HierarchyBuilt { .. } => {
                    counts.fallbacks += u64::from(warm);
                    self.push("hidap.hierarchy", cursor, t, parent, op);
                }
                StageEvent::ShapeCurvesReady { .. } => {
                    self.push("hidap.shape_curves", cursor, t, parent, op);
                }
                StageEvent::LevelFloorplanned { depth, blocks, .. } => {
                    let fp = *floorplan
                        .get_or_insert_with(|| self.push(FLOORPLAN, cursor, t, parent, op));
                    self.spans[fp].end = t;
                    let name = format!("hidap.floorplan_d{}", (*depth).min(MAX_DEPTH));
                    self.push(&name, cursor, t, Some(fp), op);
                    counts.levels += 1;
                    counts.blocks += *blocks as u64;
                }
                StageEvent::LegalizationDone { moved } => {
                    floorplan = None;
                    counts.moved += *moved as u64;
                    self.push("hidap.legalize", cursor, t, parent, op);
                }
                StageEvent::FlippingDone { flipped } => {
                    counts.flipped += *flipped as u64;
                    self.push("hidap.flip", cursor, t, parent, op);
                }
                StageEvent::FlowFinished { .. } => {
                    self.push("eval.evaluate", cursor, t, parent, op);
                    if let Some(r) = run.take() {
                        self.spans[r].end = t;
                    }
                }
                StageEvent::BatchRunStarted { .. } | StageEvent::BatchRunFinished { .. } => {
                    continue;
                }
            }
            cursor = t;
        }
        counts
    }

    /// Sum of span seconds by name.
    pub fn totals(&self) -> BTreeMap<&str, f64> {
        let mut totals = BTreeMap::new();
        for s in &self.spans {
            *totals.entry(s.name.as_str()).or_insert(0.0) += s.seconds();
        }
        totals
    }

    /// Seconds of job wall time covered by the spans that partition a job,
    /// and the total job wall time.
    pub fn job_coverage(&self) -> (f64, f64) {
        let totals = self.totals();
        let covered = COVERING.iter().map(|n| totals.get(n).copied().unwrap_or(0.0)).sum();
        (covered, totals.get(JOB_SPAN).copied().unwrap_or(0.0))
    }

    /// The spans in Chrome trace-event JSON (open in Perfetto or
    /// `chrome://tracing`); each operation is its own track.
    pub fn to_chrome_json(&self) -> String {
        let mut out = String::from("{\"traceEvents\":[\n");
        for (i, s) in self.spans.iter().enumerate() {
            let parent = s.parent.map_or("null".to_string(), |p| p.to_string());
            out.push_str(&format!(
                "{}{{\"name\":\"{}\",\"ph\":\"X\",\"pid\":1,\"tid\":{},\"ts\":{:.3},\"dur\":{:.3},\
                 \"args\":{{\"span\":{i},\"parent\":{parent},\"op\":{}}}}}",
                if i == 0 { "" } else { ",\n" },
                s.name,
                s.op,
                s.start as f64 / 1e3,
                s.end.saturating_sub(s.start) as f64 / 1e3,
                s.op
            ));
        }
        out.push_str("\n]}\n");
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ev(t: u64, e: StageEvent) -> (u64, StageEvent) {
        (t, e)
    }

    #[test]
    fn cold_job_spans_partition_the_job() {
        let events = vec![
            ev(10, StageEvent::FlowStarted { flow: "hidap".into(), seed: 1, lambda: None }),
            ev(20, StageEvent::HierarchyBuilt { nodes: 3, macros: 2 }),
            ev(50, StageEvent::ShapeCurvesReady { curves: 3 }),
            ev(70, StageEvent::LevelFloorplanned { depth: 0, node: String::new(), blocks: 2 }),
            ev(90, StageEvent::LevelFloorplanned { depth: 1, node: "u".into(), blocks: 3 }),
            ev(95, StageEvent::LegalizationDone { moved: 1 }),
            ev(96, StageEvent::FlippingDone { flipped: 2 }),
            ev(120, StageEvent::FlowFinished { wall_s: 0.0, legal: true }),
        ];
        let mut trace = Trace::default();
        let counts = trace.record_job(7, 0, 125, &events, false);
        assert_eq!((counts.levels, counts.blocks, counts.moved, counts.flipped), (2, 5, 1, 2));
        assert_eq!(counts.fallbacks, 0);
        let totals = trace.totals();
        assert_eq!(totals["hidap.floorplan"], 40e-9);
        assert_eq!(totals["hidap.floorplan_d0"], 20e-9);
        assert_eq!(totals[QUEUE_WAIT], 10e-9);
        let (covered, wall) = trace.job_coverage();
        assert!((covered - 120e-9).abs() < 1e-15 && (wall - 125e-9).abs() < 1e-15);
        assert!(trace.spans.iter().all(|s| s.op == 7 && s.start <= s.end));
        let fp = trace.spans.iter().position(|s| s.name == "hidap.floorplan").unwrap();
        assert_eq!(trace.spans.iter().filter(|s| s.parent == Some(fp)).count(), 2);
    }

    #[test]
    fn warm_job_counts_a_fallback_only_when_it_rebuilds_the_hierarchy() {
        let warm = vec![
            ev(5, StageEvent::FlowStarted { flow: "hidap".into(), seed: 1, lambda: None }),
            ev(6, StageEvent::LegalizationDone { moved: 0 }),
            ev(7, StageEvent::FlippingDone { flipped: 0 }),
            ev(30, StageEvent::FlowFinished { wall_s: 0.0, legal: true }),
        ];
        let mut trace = Trace::default();
        assert_eq!(trace.record_job(0, 0, 31, &warm, true).fallbacks, 0);
        let mut fallback = warm.clone();
        fallback.insert(2, ev(6, StageEvent::HierarchyBuilt { nodes: 1, macros: 1 }));
        assert_eq!(trace.record_job(1, 40, 80, &fallback, true).fallbacks, 1);
    }

    #[test]
    fn chrome_json_names_parents() {
        let mut trace = Trace::default();
        let root = trace.push("a", 0, 2000, None, 3);
        trace.push("b", 1000, 1500, Some(root), 3);
        let json = trace.to_chrome_json();
        assert!(json.contains("\"parent\":null"));
        assert!(json.contains("\"name\":\"b\",\"ph\":\"X\",\"pid\":1,\"tid\":3,\"ts\":1.000"));
        assert!(json.contains("\"parent\":0,\"op\":3"));
    }
}
