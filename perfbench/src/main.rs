//! `perfbench`: the HiDaP reproduction's end-to-end and per-layer benchmark.
//!
//! ```text
//! cargo run --release --manifest-path perfbench/Cargo.toml -- \
//!     --workload <soc_place|fleet_sweep|eco_stream> --seed <n> --seconds <s> --trace <0|1>
//! ```
//!
//! Each run generates its workload's designs, emits them as Verilog, LEF and
//! DEF text, times several set-ups (parse + intern) and then drains a fixed,
//! seeded list of placement jobs through a one-worker `PlacementService`,
//! checking every result outside the timed intervals. The last line of
//! standard output is one JSON object: the end-to-end metrics with
//! `--trace 0`, the per-layer metrics with `--trace 1`. See `METRICS.md`.

mod calib;
mod inputs;
mod stats;
mod trace;
mod workloads;

use calib::Calibrator;
use inputs::{secs, SetupLayers};
use stats::{median, quartiles, tail_percentile, valid_metric_name};
use std::process::ExitCode;
use trace::{Clock, QUEUE_WAIT};
use workloads::{drive, set_up_repeatedly, Pass, Setups, Workload};

struct Args {
    workload: Workload,
    seed: u64,
    seconds: u64,
    trace: bool,
}

const USAGE: &str = "usage: perfbench --workload <soc_place|fleet_sweep|eco_stream> \
                     --seed <u64> --seconds <1..=60> --trace <0|1>";

fn parse_args() -> Result<Args, String> {
    let mut workload = None;
    let mut seed = None;
    let mut seconds = None;
    let mut trace = None;
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        match flag.as_str() {
            "--workload" => {
                workload = Some(
                    Workload::parse(&value).ok_or_else(|| format!("unknown workload {value}"))?,
                )
            }
            "--seed" => seed = Some(value.parse().map_err(|_| format!("bad seed {value}"))?),
            "--seconds" => {
                let s: u64 = value.parse().map_err(|_| format!("bad seconds {value}"))?;
                if !(1..=60).contains(&s) {
                    return Err(format!("--seconds must be 1..=60, got {s}"));
                }
                seconds = Some(s);
            }
            "--trace" => {
                trace = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(format!("--trace must be 0 or 1, got {value}")),
                })
            }
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    Ok(Args {
        workload: workload.ok_or("missing --workload")?,
        seed: seed.ok_or("missing --seed")?,
        seconds: seconds.ok_or("missing --seconds")?,
        trace: trace.ok_or("missing --trace")?,
    })
}

/// One reported metric.
struct Metric {
    name: String,
    value: f64,
    unit: &'static str,
}

fn metric(name: &str, value: f64, unit: &'static str) -> Metric {
    Metric { name: name.to_string(), value, unit }
}

/// Peak resident set of this process in MiB (`VmHWM`).
fn peak_rss_mib() -> Option<f64> {
    let status = std::fs::read_to_string("/proc/self/status").ok()?;
    let line = status.lines().find(|l| l.starts_with("VmHWM:"))?;
    let kib: f64 = line.split_whitespace().nth(1)?.parse().ok()?;
    Some(kib / 1024.0)
}

fn quality_median(pass: &Pass, i: usize) -> f64 {
    let v: Vec<f64> = pass.quality.iter().map(|q| q[i]).collect();
    median(&v).unwrap_or(f64::NAN)
}

/// Each interval in reference seconds (see [`calib`]).
fn reference(calib: &Calibrator, intervals: &[(u64, u64)]) -> Vec<f64> {
    intervals.iter().map(|&(a, b)| calib.reference_s(a, b)).collect()
}

fn end_to_end(calib: &Calibrator, setups: &Setups, pass: &Pass) -> Vec<Metric> {
    let jobs = reference(calib, &pass.intervals);
    vec![
        metric("setup_s", median(&reference(calib, &setups.intervals)).unwrap_or(f64::NAN), "s"),
        metric("place_s", median(&jobs).unwrap_or(f64::NAN), "s"),
        metric("placements_per_s", jobs.len() as f64 / jobs.iter().sum::<f64>(), "1/s"),
        metric("peak_rss_mib", peak_rss_mib().unwrap_or(f64::NAN), "MiB"),
        metric("hpwl_m", quality_median(pass, 0), "m"),
        metric("grc_pct", quality_median(pass, 1), "%"),
        metric("crit_path_pct", quality_median(pass, 2), "%"),
    ]
}

fn per_layer(calib: &Calibrator, setups: &Setups, timed: &Pass, traced: &Pass) -> Vec<Metric> {
    let t = traced.traced.as_ref().expect("the traced pass records a trace");
    let layer = |f: fn(&SetupLayers) -> f64| {
        median(&setups.layers.iter().map(f).collect::<Vec<_>>()).unwrap_or(f64::NAN)
    };
    let totals = t.trace.totals();
    let span = |name: &str| totals.get(name).copied().unwrap_or(0.0);
    let jobs = t.jobs.max(1) as f64;
    let recalls = t.recalls.max(1) as f64;
    let per_job = |name: &str| span(name) / jobs;
    let per_recall = |name: &str| span(name) / recalls;
    let (covered, wall) = t.trace.job_coverage();
    let wall = wall.max(f64::MIN_POSITIVE);
    let fetches = (t.artifact_hits + t.artifact_misses).max(1) as f64;
    let traced_place = median(&traced.latencies()).unwrap_or(f64::NAN);
    let timed_place = median(&timed.latencies()).unwrap_or(f64::NAN);
    let setup_wall: Vec<f64> = setups.intervals.iter().map(|&(a, b)| secs(a, b)).collect();
    let mut m = vec![
        metric("netlist.parse_verilog_s", layer(|l| l.parse_verilog), "s"),
        metric("netlist.parse_lef_s", layer(|l| l.parse_lef), "s"),
        metric("netlist.parse_def_s", layer(|l| l.parse_def), "s"),
        metric("netlist.csr_build_s", layer(|l| l.csr_build), "s"),
        metric("placer_core.intern_s", layer(|l| l.intern), "s"),
        metric("netlist.apply_edits_s", t.apply_edits_s / jobs, "s"),
        metric("graphs.gnet_build_s", t.gnet_build_s(), "s"),
        metric("graphs.gseq_build_s", t.gseq_build_s(), "s"),
        metric("eval.artifact_misses", t.artifact_misses as f64, "count"),
        metric("eval.artifact_hit_ratio", t.artifact_hits as f64 / fetches, "ratio"),
        metric("hidap.hierarchy_s", per_job("hidap.hierarchy"), "s"),
        metric("hidap.shape_curves_s", per_job("hidap.shape_curves"), "s"),
        metric("hidap.floorplan_s", per_job("hidap.floorplan"), "s"),
    ];
    for depth in 0..=trace::MAX_DEPTH {
        let name = format!("hidap.floorplan_d{depth}");
        m.push(Metric { name: format!("{name}_s"), value: per_job(&name), unit: "s" });
    }
    m.extend([
        metric("hidap.floorplan_levels", t.counts.levels as f64 / jobs, "count/job"),
        metric("hidap.blocks", t.counts.blocks as f64 / jobs, "count/job"),
        metric("hidap.warm_fallbacks", t.counts.fallbacks as f64, "count"),
        metric("hidap.legalize_s", per_job("hidap.legalize"), "s"),
        metric("hidap.legalize_moved", t.counts.moved as f64 / jobs, "count/job"),
        metric("hidap.flip_s", per_job("hidap.flip"), "s"),
        metric("hidap.flipped", t.counts.flipped as f64 / jobs, "count/job"),
        metric("eval.evaluate_s", per_job("eval.evaluate"), "s"),
        metric("eval.cell_place_s", per_recall("eval.cell_place"), "s"),
        metric("eval.hpwl_s", per_recall("eval.hpwl"), "s"),
        metric("eval.congestion_s", per_recall("eval.congestion"), "s"),
        metric("eval.timing_s", per_recall("eval.timing"), "s"),
        metric("eval.density_s", per_recall("eval.density"), "s"),
        metric("eval.warm_sweeps", t.warm_sweeps as f64 / recalls, "count/job"),
        metric("placer_core.queue_wait_s", per_job(QUEUE_WAIT), "s"),
        metric("placer_core.job_overhead_s", (wall - covered) / jobs, "s"),
        metric("placer_core.failed_jobs", traced.failed as f64, "count"),
        metric("placer_core.peak_resident_mib", t.peak_resident_bytes as f64 / 1048576.0, "MiB"),
        metric("trace.span_coverage", covered / wall, "ratio"),
        metric(
            "trace.anneal_share",
            (span("hidap.shape_curves") + span("hidap.floorplan")) / wall,
            "ratio",
        ),
        metric("trace.eval_share", span("eval.evaluate") / wall, "ratio"),
        metric("trace.place_s", traced_place, "s"),
        metric("trace.overhead_s", traced_place - timed_place, "s"),
        metric("wall.setup_s", median(&setup_wall).unwrap_or(f64::NAN), "s"),
        metric("wall.place_s", timed_place, "s"),
        metric("machine.kernel_s", calib.kernel_s(), "s"),
    ]);
    m
}

/// Human-readable summary on standard error: sample counts, quartiles and
/// the tail where enough samples lie beyond it.
fn summarize(label: &str, pass: &Pass) {
    let latencies = pass.latencies();
    let n = latencies.len();
    let q = quartiles(&latencies).unwrap_or((f64::NAN, f64::NAN));
    let p90 = tail_percentile(&latencies, 90.0)
        .map_or("n/a (fewer than 10 samples beyond it)".to_string(), |v| format!("{v:.4} s"));
    eprintln!(
        "{label}: {n} jobs, place_s median {:.4} s (q1 {:.4}, q3 {:.4}), p90 {p90}, drain {:.2} s",
        median(&latencies).unwrap_or(f64::NAN),
        q.0,
        q.1,
        latencies.iter().sum::<f64>()
    );
    let each: Vec<String> = latencies.iter().map(|v| format!("{v:.3}")).collect();
    eprintln!("{label}: latencies [{}]", each.join(" "));
    for p in &pass.problems {
        eprintln!("{label}: FAILED: {p}");
    }
}

fn json_line(correct: bool, attempted: u64, failed: u64, metrics: &[Metric]) -> String {
    let body: Vec<String> = metrics
        .iter()
        .map(|m| format!("\"{}\": {{\"value\": {}, \"unit\": \"{}\"}}", m.name, m.value, m.unit))
        .collect();
    format!(
        "{{\"correct\": {correct}, \"attempted\": {attempted}, \"failed\": {failed}, \
         \"metrics\": {{{}}}}}",
        body.join(", ")
    )
}

fn write_trace(args: &Args, pass: &Pass) {
    let Some(t) = pass.traced.as_ref() else { return };
    let dir = std::path::Path::new(env!("CARGO_MANIFEST_DIR")).join("traces");
    let path = dir.join(format!("{}-seed{}.json", args.workload.name(), args.seed));
    let written = std::fs::create_dir_all(&dir)
        .and_then(|()| std::fs::write(&path, t.trace.to_chrome_json()));
    match written {
        Ok(()) => eprintln!("trace: {} spans written to {}", t.trace.spans.len(), path.display()),
        Err(e) => eprintln!("trace: could not write {}: {e}", path.display()),
    }
}

fn run(args: &Args) -> Result<String, String> {
    let w = args.workload;
    match calib::pin_to_current_cpu() {
        Some(cpu) => eprintln!("{}: pinned to CPU {cpu}", w.name()),
        None => eprintln!("{}: not pinned to a CPU", w.name()),
    }
    let jobs = w.jobs(args.seconds);
    eprintln!("{}: generating inputs ({jobs} jobs, seed {}) ...", w.name(), args.seed);
    let texts = w.inputs();

    let mut calib = Calibrator::new(Clock::new());
    let mut setups = Setups::default();
    let mut prepared = set_up_repeatedly(w, &texts, &mut calib, w.setups(), &mut setups)?;
    let timed = drive(w, args.seed, jobs, &mut calib, false, &mut prepared);
    drop(prepared);
    summarize(w.name(), &timed);
    let mut attempted = timed.attempted;
    let mut failed = timed.failed;

    let metrics = if args.trace {
        let mut extra = Setups::default();
        let mut prepared = set_up_repeatedly(w, &texts, &mut calib, 1, &mut extra)?;
        let traced = drive(w, args.seed, jobs, &mut calib, true, &mut prepared);
        drop(prepared);
        summarize(&format!("{} (traced)", w.name()), &traced);
        attempted += traced.attempted;
        failed += traced.failed;
        let bits = |p: &Pass| p.quality.iter().flatten().map(|v| v.to_bits()).collect::<Vec<_>>();
        if bits(&traced) != bits(&timed) {
            eprintln!("{}: FAILED: traced and timed quality metrics differ", w.name());
            failed += 1;
        }
        write_trace(args, &traced);
        per_layer(&calib, &setups, &timed, &traced)
    } else {
        end_to_end(&calib, &setups, &timed)
    };

    let mut correct = failed == 0;
    for m in &metrics {
        eprintln!("  {:<32} {:>16.6} {}", m.name, m.value, m.unit);
        if !valid_metric_name(&m.name) || !m.value.is_finite() {
            eprintln!("{}: FAILED: metric {} is malformed ({})", w.name(), m.name, m.value);
            correct = false;
        }
    }
    let metrics: Vec<Metric> = metrics.into_iter().filter(|m| m.value.is_finite()).collect();
    Ok(json_line(correct, attempted, failed, &metrics))
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perfbench: {e}\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    match run(&args) {
        Ok(line) => {
            println!("{line}");
            ExitCode::SUCCESS
        }
        Err(e) => {
            eprintln!("perfbench: {e}");
            ExitCode::FAILURE
        }
    }
}
