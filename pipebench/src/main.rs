//! Benchmark of the paper's pipeline (advise → decode → verify) and of its
//! serving front-end.
//!
//! ```text
//! pipebench --workload <paper-cold|decode-hot|serve-hot> --seed <n> --seconds <s> --trace <0|1>
//! ```
//!
//! With `--trace 0` the named workload sets up five times, then runs
//! operations in a closed loop (one client, next operation after the last
//! one ends) for `--seconds` and at least 40 operations, and the last
//! stdout line is a JSON object with the end-to-end metrics.  With
//! `--trace 1` every workload runs for a third of `--seconds`, alternating
//! untraced and traced blocks of operations, and the JSON holds the
//! per-layer metrics and the tracing overhead; spans and counts are
//! written to `out/trace-<seed>.jsonl` beside this package's manifest.
//! See README.md for the inputs, the metrics and why they were chosen.
#![allow(clippy::print_stdout, clippy::print_stderr)]

mod reference;
mod trace;
mod workloads;

use std::fmt::Write as _;
use std::process::ExitCode;
use std::time::{Duration, Instant};
use trace::Tracer;
use workloads::{schemes, Kind, Workload, PAPER_N};

/// Set-ups per end-to-end run; `setup_s` is their median.
const SETUP_REPEATS: usize = 5;
/// Operations an end-to-end run makes at least, so that `op_tail_ms` has
/// ten samples above it and still lies in the upper quarter.
const MIN_OPS: u64 = 40;
/// A traced run alternates blocks of this many untraced and traced
/// operations; counts come from the first traced block, ops 4..8, which is
/// a whole `decode-hot` rotation and the same inputs on every run.
const BLOCK: u64 = 4;

struct Args {
    kind: Kind,
    seed: u64,
    seconds: u64,
    trace: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut kind = None;
    let (mut seed, mut seconds, mut trace) = (1, 10, false);
    let mut args = std::env::args().skip(1);
    while let Some(flag) = args.next() {
        let value = args.next().ok_or_else(|| format!("{flag} needs a value"))?;
        let number = || {
            value
                .parse::<u64>()
                .map_err(|e| format!("{flag} {value}: {e}"))
        };
        match flag.as_str() {
            "--workload" => {
                kind = Some(Kind::from_name(&value).ok_or_else(|| {
                    format!(
                        "unknown workload {value}; expected paper-cold, decode-hot or serve-hot"
                    )
                })?);
            }
            "--seed" => seed = number()?,
            "--seconds" => seconds = number()?.max(1),
            "--trace" => {
                trace = match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(format!("--trace takes 0 or 1, not {value}")),
                }
            }
            _ => return Err(format!("unknown argument {flag}")),
        }
    }
    Ok(Args {
        kind: kind.ok_or("--workload is required")?,
        seed,
        seconds,
        trace,
    })
}

fn median(values: &[f64]) -> Option<f64> {
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let mid = v.len() / 2;
    match v.len() {
        0 => None,
        len if len % 2 == 1 => Some(v[mid]),
        _ => Some((v[mid - 1] + v[mid]) / 2.0),
    }
}

/// The 90th percentile (nearest rank), or the highest sample with ten
/// samples above it when the run is too short to put ten above the 90th
/// (the maximum when there are ten or fewer).  A fixed percentile keeps the
/// statistic the same when faster code fits more operations into a run;
/// the p95–p97 that "ten above" gives on a long run follows the host's
/// slow spells instead of the program.
fn tail(values: &[f64]) -> Option<f64> {
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let p90 = (v.len() * 9).div_ceil(10).checked_sub(1);
    let ten_above = v.len().checked_sub(11).or(v.len().checked_sub(1));
    p90.zip(ten_above).map(|(a, b)| v[a.min(b)])
}

fn mean(values: &[f64]) -> Option<f64> {
    (!values.is_empty()).then(|| values.iter().sum::<f64>() / values.len() as f64)
}

/// Peak resident set of this process (its server threads included), MB.
fn peak_rss_mb() -> Result<f64, String> {
    let status = std::fs::read_to_string("/proc/self/status")
        .map_err(|e| format!("cannot read /proc/self/status: {e}"))?;
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .map(|kb| kb / 1024.0)
        .ok_or_else(|| "no VmHWM in /proc/self/status".to_string())
}

/// One closed-loop measuring window.
#[derive(Default)]
struct Window {
    /// Latencies of the operations run with the tracer off.
    plain_ms: Vec<f64>,
    /// Latencies of the operations run with the tracer on.
    traced_ms: Vec<f64>,
    attempted: u64,
    failed: u64,
    seconds: f64,
}

/// Runs operations back to back for `length` and at least `min_ops` of
/// them; with `alternate`, odd blocks of [`BLOCK`] operations are traced.
fn measure(
    w: &mut dyn Workload,
    kind: Kind,
    length: Duration,
    min_ops: u64,
    alternate: bool,
    tr: &mut Tracer,
) -> Window {
    let mut window = Window::default();
    let start = Instant::now();
    while window.attempted < min_ops || start.elapsed() < length {
        let i = window.attempted;
        let traced = alternate && (i / BLOCK) % 2 == 1;
        tr.set_enabled(traced);
        tr.at(kind.name(), Some(i));
        let began = Instant::now();
        let result = tr.span("bench.op", |tr| w.op(i, tr));
        let ms = began.elapsed().as_secs_f64() * 1e3;
        if traced {
            window.traced_ms.push(ms);
        } else {
            window.plain_ms.push(ms);
        }
        window.attempted += 1;
        if let Err(e) = result {
            if window.failed < 3 {
                eprintln!("{} op {i} failed: {e}", kind.name());
            }
            window.failed += 1;
        }
    }
    window.seconds = start.elapsed().as_secs_f64();
    window
}

/// Metrics in print order: name → (value, unit).
#[derive(Default)]
struct Metrics(Vec<(String, f64, &'static str)>);

impl Metrics {
    fn put(&mut self, name: &str, value: Option<f64>, unit: &'static str) -> Result<(), String> {
        match value {
            Some(v) if v.is_finite() => {
                self.0.push((name.to_string(), v, unit));
                Ok(())
            }
            _ => Err(format!("metric {name} has no samples")),
        }
    }

    fn json(&self, correct: bool, attempted: u64, failed: u64) -> String {
        let mut out = format!(
            r#"{{"correct": {correct}, "attempted": {attempted}, "failed": {failed}, "metrics": {{"#
        );
        for (i, (name, value, unit)) in self.0.iter().enumerate() {
            let sep = if i == 0 { "" } else { ", " };
            let _ = write!(
                out,
                r#"{sep}"{name}": {{"value": {value}, "unit": "{unit}"}}"#
            );
        }
        out + "}}"
    }
}

fn end_to_end(args: &Args) -> Result<String, String> {
    let mut tr = Tracer::new(false);
    let mut setups = Vec::new();
    let mut state: Option<Box<dyn Workload>> = None;
    for _ in 0..SETUP_REPEATS {
        if let Some(previous) = state.take() {
            previous.close()?;
        }
        let began = Instant::now();
        state = Some(args.kind.setup(args.seed, &mut tr)?);
        setups.push(began.elapsed().as_secs_f64());
    }
    let mut w = state.ok_or("no set-up ran")?;
    let length = Duration::from_secs(args.seconds);
    let window = measure(w.as_mut(), args.kind, length, MIN_OPS, false, &mut tr);
    w.close()?;
    let ok = window.attempted - window.failed;
    let mut m = Metrics::default();
    m.put("setup_s", median(&setups), "s")?;
    m.put("ops_per_s", Some(ok as f64 / window.seconds), "1/s")?;
    m.put("op_p50_ms", median(&window.plain_ms), "ms")?;
    m.put("op_tail_ms", tail(&window.plain_ms), "ms")?;
    m.put("peak_rss_mb", Some(peak_rss_mb()?), "MB")?;
    eprintln!(
        "{} seed {}: {} ops in {:.2} s, {} failed; set-ups {:?} s",
        args.kind.name(),
        args.seed,
        window.attempted,
        window.seconds,
        window.failed,
        setups
    );
    Ok(m.json(window.failed == 0, window.attempted, window.failed))
}

fn traced(args: &Args) -> Result<String, String> {
    let mut tr = Tracer::new(true);
    let share = Duration::from_secs(args.seconds) / 3;
    let (mut attempted, mut failed) = (0, 0);
    let mut m = Metrics::default();
    let mut overheads = Vec::new();
    for kind in Kind::ALL {
        tr.set_enabled(true);
        let mut w = kind.setup(args.seed, &mut tr)?;
        let window = measure(w.as_mut(), kind, share, 2 * BLOCK, true, &mut tr);
        tr.set_enabled(true);
        w.record_totals(&mut tr)?;
        w.close()?;
        attempted += window.attempted;
        failed += window.failed;
        let overhead = median(&window.traced_ms)
            .zip(median(&window.plain_ms))
            .map(|(t, p)| (t / p - 1.0) * 100.0);
        overheads.push((kind, overhead));
    }

    let pc = Kind::PaperCold.name();
    let dh = Kind::DecodeHot.name();
    let sh = Kind::ServeHot.name();
    let counted = |w: &str, name: &str| mean(&tr.window(w, name, BLOCK..2 * BLOCK));
    m.put(
        "graph.generate_ms",
        median(&tr.op_ms(pc, "graph.generate")),
        "ms",
    )?;
    for s in schemes() {
        m.put(
            &format!("advice.advise_ms.{}", s.key),
            median(&tr.op_ms(pc, s.advise)),
            "ms",
        )?;
        m.put(
            &format!("advice.decode_ms.{}", s.key),
            median(&tr.op_ms(pc, s.decode)),
            "ms",
        )?;
    }
    for s in schemes() {
        m.put(s.max_bits, counted(pc, s.max_bits), "bits")?;
        m.put(s.avg_bits, counted(pc, s.avg_bits), "bits")?;
        // A zero-round decode sends nothing; its 0 rounds are checked on
        // every operation instead.
        if s.sends_messages(PAPER_N) {
            m.put(s.rounds, counted(pc, s.rounds), "count")?;
            m.put(s.messages, counted(pc, s.messages), "count")?;
            m.put(s.message_bits, counted(pc, s.message_bits), "bits")?;
        }
    }
    m.put(
        "sim.active_node_rounds",
        counted(pc, "sim.active_node_rounds"),
        "count",
    )?;
    let decode_ns: f64 = tr.op_ms(dh, "advice.decode.constant").iter().sum::<f64>() * 1e6;
    let node_rounds: f64 = tr.window(dh, "sim.node_rounds", 0..u64::MAX).iter().sum();
    m.put("sim.ns_per_node_round", Some(decode_ns / node_rounds), "ns")?;
    let mut verify = tr.op_ms(pc, "mst.verify");
    verify.extend(tr.op_ms(dh, "mst.verify"));
    m.put("mst.verify_ms", median(&verify), "ms")?;

    let per_request = |name: &str| tr.window(sh, name, 0..u64::MAX);
    let (queue, run, client) = (
        per_request("serve.queue_ns"),
        per_request("serve.run_ns"),
        per_request("serve.client_ns"),
    );
    let stack: Vec<f64> = client
        .iter()
        .zip(&queue)
        .zip(&run)
        .map(|((c, q), r)| c - q - r)
        .collect();
    m.put("serve.queue_ms", median(&queue).map(|v| v / 1e6), "ms")?;
    m.put("serve.run_ms", median(&run).map(|v| v / 1e6), "ms")?;
    m.put("serve.stack_ms", median(&stack).map(|v| v / 1e6), "ms")?;
    m.put(
        "serve.batch_width",
        mean(&per_request("serve.lanes")),
        "count",
    )?;
    for name in [
        "serve.graph_hits",
        "serve.graph_misses",
        "serve.oracle_hits",
        "serve.oracle_misses",
    ] {
        m.put(name, tr.last(sh, name), "count")?;
    }
    m.put(
        "check.reference_mst_ms",
        median(&tr.op_ms(pc, "check.reference_mst")),
        "ms",
    )?;
    for (kind, overhead) in overheads {
        m.put(
            &format!("trace.overhead_pct.{}", kind.name().replace('-', "_")),
            overhead,
            "%",
        )?;
    }

    eprint!("{}", layer_report(&tr));
    let dir = concat!(env!("CARGO_MANIFEST_DIR"), "/out");
    let path = format!("{dir}/trace-{}.jsonl", args.seed);
    std::fs::create_dir_all(dir)
        .and_then(|()| std::fs::write(&path, tr.to_jsonl()))
        .map_err(|e| format!("cannot write {path}: {e}"))?;
    eprintln!("spans and counts written to {path}");
    Ok(m.json(failed == 0, attempted, failed))
}

/// Self time per layer of each workload's traced operations, with its
/// share of the operations' total time.
fn layer_report(tr: &Tracer) -> String {
    let self_ms = tr.self_ms();
    let mut out = String::from("workload    layer   self ms   share\n");
    for kind in Kind::ALL {
        let total: f64 = tr.op_ms(kind.name(), "bench.op").iter().sum();
        for ((w, layer), ms) in &self_ms {
            if *w == kind.name() {
                let _ = writeln!(
                    out,
                    "{w:<11} {layer:<7} {ms:>8.1} {:>6.1}%",
                    ms / total * 100.0
                );
            }
        }
    }
    out
}

fn main() -> ExitCode {
    let result = parse_args().and_then(|args| {
        if args.trace {
            traced(&args)
        } else {
            end_to_end(&args)
        }
    });
    match result {
        Ok(line) => {
            println!("{line}");
            ExitCode::SUCCESS
        }
        Err(e) => {
            eprintln!("pipebench: {e}");
            ExitCode::FAILURE
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn tail_is_p90_with_ten_samples_above_it() {
        let v: Vec<f64> = (1..=40).map(f64::from).collect();
        assert_eq!(tail(&v), Some(30.0));
        assert_eq!(tail(&[3.0, 1.0, 2.0]), Some(3.0));
        let v: Vec<f64> = (1..=200).map(f64::from).collect();
        assert_eq!(tail(&v), Some(180.0));
        let v: Vec<f64> = (1..=110).map(f64::from).collect();
        assert_eq!(tail(&v), Some(99.0));
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), Some(2.5));
        assert_eq!(median(&[]), None);
    }
}
