//! Front-door benchmark of the Cheetah reproduction.
//!
//! ```sh
//! cargo run --release --offline --manifest-path frontbench/Cargo.toml -- \
//!     --workload dashboard --seed 1 --seconds 10 --trace 0
//! ```
//!
//! `--trace 0` serves one seeded workload through `cheetah_serve::Session`
//! and prints the end-to-end metrics; `--trace 1` is the separate traced
//! run that prints the per-layer metrics. Every answer is checked
//! against the baseline engine; the last stdout line is the JSON result.
//! See `METRICS.md` for the workloads, metrics and blind spots.

mod layers;
mod measure;
mod report;
mod serve;
mod span;
mod workload;

use report::{result_line, Metrics};
use serve::{Ledger, Watchdog};
use std::process::{Command, ExitCode};
use workload::{Scale, Workload};

struct Args {
    workload: Workload,
    seed: u64,
    seconds: f64,
    trace: bool,
}

fn parse_args() -> Result<Args, String> {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let (mut workload, mut seed, mut seconds, mut trace) = (None, None, None, None);
    let mut it = argv.iter();
    while let Some(flag) = it.next() {
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        match flag.as_str() {
            "--workload" => {
                workload = Some(
                    Workload::parse(value).ok_or_else(|| format!("unknown workload {value}"))?,
                )
            }
            "--seed" => seed = Some(value.parse().map_err(|_| format!("bad --seed {value}"))?),
            "--seconds" => {
                seconds = Some(value.parse().map_err(|_| format!("bad --seconds {value}"))?)
            }
            "--trace" => {
                trace = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(format!("--trace takes 0 or 1, not {value}")),
                })
            }
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    Ok(Args {
        workload: workload.ok_or("--workload is required")?,
        seed: seed.ok_or("--seed is required")?,
        seconds: seconds.unwrap_or(10.0),
        trace: trace.unwrap_or(false),
    })
}

/// `program args...`'s first stdout line, or `unknown`. Waits for the
/// child to exit.
fn probe(program: &str, args: &[&str]) -> String {
    Command::new(program)
        .args(args)
        .output()
        .ok()
        .filter(|o| o.status.success())
        .and_then(|o| String::from_utf8(o.stdout).ok())
        .and_then(|s| s.lines().next().map(str::to_string))
        .unwrap_or_else(|| "unknown".to_string())
}

/// Run one workload; returns (metrics, attempted, failed, wrong answers).
pub fn run(
    workload: Workload,
    seed: u64,
    seconds: f64,
    trace: bool,
    scale: &Scale,
) -> (Metrics, u64, u64, Vec<String>) {
    let ledger = Ledger::new(workload, seed);
    let watchdog = Watchdog::new();
    let out_dir = std::path::Path::new(env!("CARGO_MANIFEST_DIR")).join("out");
    let metrics = std::thread::scope(|scope| {
        let guard = scope.spawn(|| watchdog.watch(&ledger));
        let m = if trace {
            layers::run(workload, seed, seconds, scale, &ledger, &watchdog, &out_dir)
        } else {
            measure::run(workload, seed, seconds, scale, &ledger, &watchdog)
        };
        watchdog.stop();
        guard.join().expect("watchdog thread");
        m
    });
    (metrics, ledger.attempted(), ledger.failed(), ledger.wrong())
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("frontbench: {e}\nusage: --workload scan-large|dashboard|fresh-tables --seed N [--seconds S] [--trace 0|1]");
            return ExitCode::from(2);
        }
    };
    let nproc = std::thread::available_parallelism().map_or(0, |n| n.get());
    let rustc = env!("FRONTBENCH_RUSTC");
    // Only the working directory's own `.git`: never a repository above it.
    let commit = probe("git", &["--git-dir=.git", "rev-parse", "HEAD"]);
    let (metrics, attempted, failed, wrong) =
        run(args.workload, args.seed, args.seconds, args.trace, &Scale::full());

    let mut correct = wrong.is_empty();
    let off = metrics.off_contract(args.trace);
    if !off.is_empty() {
        eprintln!("frontbench: metrics off the declared list: {off:?}");
        correct = false;
    }
    println!(
        "frontbench {} seed {} trace {} seconds {}: nproc {nproc}, {rustc}, commit {commit}",
        args.workload.name(),
        args.seed,
        args.trace as u8,
        args.seconds
    );
    print!("{}", metrics.table());
    let line = result_line(correct, attempted, failed, &metrics);
    let record = format!(
        "{{\"workload\": \"{}\", \"seed\": {}, \"trace\": {}, \"nproc\": {nproc}, \"rustc\": \"{rustc}\", \"commit\": \"{commit}\", \"result\": {line}}}\n",
        args.workload.name(),
        args.seed,
        args.trace
    );
    let out_dir = std::path::Path::new(env!("CARGO_MANIFEST_DIR")).join("out");
    let path = out_dir.join(format!(
        "run-{}-{}-trace{}.json",
        args.workload.name(),
        args.seed,
        args.trace as u8
    ));
    if let Err(e) = std::fs::create_dir_all(&out_dir).and_then(|_| std::fs::write(&path, record)) {
        eprintln!("frontbench: could not write {}: {e}", path.display());
    }
    println!("{line}");
    if correct {
        ExitCode::SUCCESS
    } else {
        ExitCode::from(1)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The metric names of BENCHMARK.json's `end_to_end` and `per_layer`
    /// lists, read with a scan for `"name": "…"` inside each list.
    fn declared(section: &str) -> Vec<String> {
        let path = std::path::Path::new(env!("CARGO_MANIFEST_DIR")).join("../BENCHMARK.json");
        let text = std::fs::read_to_string(path).expect("BENCHMARK.json at the repository root");
        let start = text.find(&format!("\"{section}\"")).expect("section present");
        let body = &text[start..];
        let end = body.find(']').expect("section closes");
        body[..end]
            .split("\"name\":")
            .skip(1)
            .map(|s| {
                s.trim_start()
                    .trim_start_matches('"')
                    .split('"')
                    .next()
                    .expect("quoted name")
                    .to_string()
            })
            .collect()
    }

    fn sorted(mut v: Vec<String>) -> Vec<String> {
        v.sort();
        v
    }

    #[test]
    fn printed_metrics_are_exactly_the_declared_ones() {
        let scale = Scale::tiny();
        for w in Workload::ALL {
            let (m, attempted, failed, wrong) = run(w, 5, 0.3, false, &scale);
            assert!(wrong.is_empty() && failed == 0 && attempted > 0, "{}: {wrong:?}", w.name());
            assert!(m.missing().is_empty(), "{}: {:?}", w.name(), m.missing());
            let printed: Vec<String> = m.names().into_iter().map(str::to_string).collect();
            assert_eq!(sorted(printed), sorted(declared("end_to_end")), "{}", w.name());
            let (m, _, _, wrong) = run(w, 5, 0.3, true, &scale);
            assert!(wrong.is_empty(), "{}: {wrong:?}", w.name());
            assert!(m.missing().is_empty(), "{}: {:?}", w.name(), m.missing());
            let printed: Vec<String> = m.names().into_iter().map(str::to_string).collect();
            assert_eq!(sorted(printed), sorted(declared("per_layer")), "{}", w.name());
        }
    }

    #[test]
    fn declared_units_match_the_printed_ones() {
        let text = std::fs::read_to_string(
            std::path::Path::new(env!("CARGO_MANIFEST_DIR")).join("../BENCHMARK.json"),
        )
        .expect("BENCHMARK.json");
        for (name, unit) in
            report::END_TO_END.iter().map(|(n, u)| (n.to_string(), *u)).chain(report::per_layer())
        {
            let pat = format!("\"name\": \"{name}\", \"unit\": \"{unit}\"");
            assert!(text.contains(&pat), "BENCHMARK.json lacks {pat}");
        }
    }
}
