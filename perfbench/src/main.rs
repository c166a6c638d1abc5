//! The COMPAQT repository benchmark.
//!
//! ```text
//! perfbench --workload <qec_wire|recal_store|compile_fleet> --seed <n> --seconds <s> --trace <0|1>
//! ```
//!
//! `--trace 0` runs the named workload with tracing off and prints its
//! end-to-end metrics. `--trace 1` runs every workload's traced pass
//! (the named one first), so each traced run reports the full
//! per-layer table. The last stdout line is one JSON object with the
//! keys `correct`, `attempted`, `failed` and `metrics`; the process
//! exits nonzero if any served decode was not bit-exact. See
//! `README.md` beside this crate for what each workload stresses.

mod common;
mod compile_fleet;
mod qec_wire;
mod recal_store;

use std::process::ExitCode;

use common::{Metric, Opts, Outcome};

const WORKLOADS: [&str; 3] = ["qec_wire", "recal_store", "compile_fleet"];

#[derive(Debug)]
struct Args {
    workload: String,
    seed: u64,
    seconds: f64,
    trace: bool,
}

fn parse_args(mut args: impl Iterator<Item = String>) -> Result<Args, String> {
    let (mut workload, mut seed, mut seconds, mut trace) = (None, None, None, None);
    while let Some(flag) = args.next() {
        let value = args.next().ok_or_else(|| format!("{flag} needs a value"))?;
        let bad = |e: &dyn std::fmt::Display| format!("{flag} {value}: {e}");
        match flag.as_str() {
            "--workload" if WORKLOADS.contains(&value.as_str()) => workload = Some(value),
            "--workload" => return Err(format!("unknown workload {value}; one of {WORKLOADS:?}")),
            "--seed" => seed = Some(value.parse::<u64>().map_err(|e| bad(&e))?),
            "--seconds" => {
                let s = value.parse::<f64>().map_err(|e| bad(&e))?;
                if !(s.is_finite() && s > 0.0 && s <= 600.0) {
                    return Err(format!("--seconds {value}: outside (0, 600]"));
                }
                seconds = Some(s);
            }
            "--trace" => match value.as_str() {
                "0" => trace = Some(false),
                "1" => trace = Some(true),
                _ => return Err(format!("--trace {value}: expected 0 or 1")),
            },
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

fn run_workload(name: &str, opts: &Opts, traced: bool) -> Outcome {
    match (name, traced) {
        ("qec_wire", false) => qec_wire::run(opts),
        ("qec_wire", true) => qec_wire::run_traced(opts),
        ("recal_store", false) => recal_store::run(opts),
        ("recal_store", true) => recal_store::run_traced(opts),
        ("compile_fleet", false) => compile_fleet::run(opts),
        ("compile_fleet", true) => compile_fleet::run_traced(opts),
        _ => unreachable!("workload names are validated at parse time"),
    }
}

/// Runs one untraced workload, or every traced workload (the named one
/// first) sharing the window equally.
fn run(args: &Args, corrupt_reference: bool) -> Outcome {
    let opts = Opts { seed: args.seed, seconds: args.seconds, corrupt_reference };
    if !args.trace {
        return run_workload(&args.workload, &opts, false);
    }
    let share = Opts { seconds: args.seconds / WORKLOADS.len() as f64, ..opts };
    let mut order = vec![args.workload.as_str()];
    order.extend(WORKLOADS.iter().filter(|w| **w != args.workload));
    let mut out = Outcome::default();
    for name in order {
        out.absorb(run_workload(name, &share, true));
    }
    out
}

/// x86 feature flags that select or bound the codec kernels.
fn cpu_flags() -> Vec<&'static str> {
    #[cfg(target_arch = "x86_64")]
    {
        let mut flags = Vec::new();
        macro_rules! probe {
            ($($f:tt),*) => {$(if std::arch::is_x86_feature_detected!($f) { flags.push($f); })*};
        }
        probe!("sse2", "sse4.2", "avx", "avx2", "fma", "bmi2", "avx512f", "pclmulqdq");
        flags
    }
    #[cfg(not(target_arch = "x86_64"))]
    Vec::new()
}

/// The commit this tree was checked out at, read from `.git` in the
/// working directory without leaving it; "unknown" outside a git
/// checkout.
fn git_revision() -> String {
    let read = |p: &str| std::fs::read_to_string(p).ok().map(|s| s.trim().to_string());
    let Some(head) = read(".git/HEAD") else { return "unknown".into() };
    let Some(reference) = head.strip_prefix("ref: ") else { return head };
    read(&format!(".git/{reference}"))
        .or_else(|| {
            read(".git/packed-refs")?
                .lines()
                .find_map(|l| l.strip_suffix(reference)?.strip_suffix(' ').map(str::to_string))
        })
        .unwrap_or_else(|| "unknown".into())
}

fn json_str(s: &str) -> String {
    let mut out = String::with_capacity(s.len() + 2);
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
            c => out.push(c),
        }
    }
    out.push('"');
    out
}

fn host_line(args: &Args) -> String {
    let parallelism = std::thread::available_parallelism().map_or(0, |n| n.get());
    format!(
        "host {{\"available_parallelism\": {parallelism}, \"cpu_flags\": {}, \"kernel_tier\": {}, \
         \"git_revision\": {}, \"workload\": {}, \"seed\": {}, \"seconds\": {}, \"trace\": {}}}",
        json_str(&cpu_flags().join(" ")),
        json_str(&format!("{:?}", compaqt::dsp::batched::KernelTier::detected())),
        json_str(&git_revision()),
        json_str(&args.workload),
        args.seed,
        args.seconds,
        u8::from(args.trace),
    )
}

/// The result line: exactly `correct`, `attempted`, `failed`, `metrics`.
fn result_line(out: &Outcome) -> String {
    let metrics: Vec<String> = out
        .metrics
        .iter()
        .map(|Metric { name, value, unit }| {
            assert!(value.is_finite(), "metric {name} is not finite: {value}");
            format!("{}: {{\"value\": {value}, \"unit\": {}}}", json_str(name), json_str(unit))
        })
        .collect();
    format!(
        "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
        out.failed == 0,
        out.attempted,
        out.failed,
        metrics.join(", ")
    )
}

fn main() -> ExitCode {
    let args = match parse_args(std::env::args().skip(1)) {
        Ok(args) => args,
        Err(e) => {
            eprintln!("perfbench: {e}");
            eprintln!(
                "usage: perfbench --workload <{}> --seed <n> --seconds <s> --trace <0|1>",
                WORKLOADS.join("|")
            );
            return ExitCode::from(2);
        }
    };
    println!("{}", host_line(&args));
    let out = run(&args, false);
    // Best effort: fails, harmlessly, if the directory was never made.
    let _ = std::fs::remove_dir(compile_fleet::TMP_DIR);
    for note in &out.notes {
        println!("# {note}");
    }
    for m in &out.metrics {
        println!("{:<40} {:>16.4} {}", m.name, m.value, m.unit);
    }
    println!("{}", result_line(&out));
    if out.failed == 0 {
        ExitCode::SUCCESS
    } else {
        eprintln!("perfbench: {} of {} operations failed", out.failed, out.attempted);
        ExitCode::FAILURE
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn args(workload: &str, trace: bool) -> Args {
        Args { workload: workload.to_string(), seed: 7, seconds: 0.3, trace }
    }

    #[test]
    fn count_metrics_repeat_exactly_for_a_fixed_seed() {
        assert_eq!(qec_wire::cycle_counts(11), qec_wire::cycle_counts(11));
        let (bytes, samples, crc_checked) = compile_fleet::pass_counts(11);
        assert_eq!((bytes, samples, crc_checked), compile_fleet::pass_counts(11));
        assert!(bytes > 0 && samples > 0 && crc_checked > 0);
    }

    #[test]
    fn a_corrupted_reference_is_reported_failed() {
        for workload in WORKLOADS {
            let clean = run(&args(workload, false), false);
            assert_eq!(clean.failed, 0, "{workload}: a clean run must pass");
            let broken = run(&args(workload, false), true);
            assert!(broken.failed > 0, "{workload}: a corrupted reference must fail the run");
            assert!(result_line(&broken).starts_with("{\"correct\": false"));
        }
    }

    #[test]
    fn every_run_reports_the_same_metric_names() {
        let names = |o: &Outcome| o.metrics.iter().map(|m| m.name.clone()).collect::<Vec<_>>();
        let e2e: Vec<Vec<String>> =
            WORKLOADS.iter().map(|w| names(&run(&args(w, false), false))).collect();
        assert!(e2e.windows(2).all(|w| w[0] == w[1]), "{e2e:?}");
        let traced = names(&run(&args("qec_wire", true), false));
        let mut sorted = traced.clone();
        sorted.sort();
        sorted.dedup();
        assert_eq!(sorted.len(), traced.len(), "per-layer names are unique");
        assert_eq!(traced.len(), 26);
    }

    #[test]
    fn arguments_are_validated() {
        let parse = |s: &str| parse_args(s.split_whitespace().map(str::to_string));
        assert!(parse("--workload qec_wire --seed 1 --seconds 10 --trace 0").is_ok());
        assert!(parse("--workload nope --seed 1 --seconds 10 --trace 0").is_err());
        assert!(parse("--workload qec_wire --seed 1 --seconds 0 --trace 0").is_err());
        assert!(parse("--workload qec_wire --seed 1 --seconds 10 --trace 2").is_err());
        assert!(parse("--workload qec_wire --seconds 10 --trace 0").is_err());
    }
}
