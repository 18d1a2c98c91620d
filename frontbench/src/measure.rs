//! The measured run (`--trace 0`): set-up, then closed-loop clients for
//! the run's seconds, then the end-to-end metrics.

use crate::report::{median, quantile, Metrics, END_TO_END};
use crate::serve::{self, peak_rss_kb, Client, Ledger, Sample, Served, Watchdog};
use crate::workload::{self, Family, Scale, Workload};
use cheetah_net::ENTRY_WIRE_BYTES;

/// Set-ups per run of the resident workloads (the median is reported).
fn setup_reps(w: Workload) -> usize {
    match w {
        Workload::ScanLarge => 3,
        _ => 5,
    }
}

pub fn run(
    workload: Workload,
    seed: u64,
    seconds: f64,
    scale: &Scale,
    ledger: &Ledger,
    watchdog: &Watchdog,
) -> Metrics {
    let mut served = Served::default();
    let client = Client {
        ledger,
        watchdog,
        tracer: None,
        submit: workload == Workload::Dashboard,
        paired: true,
    };
    match workload {
        Workload::ScanLarge => {
            let shapes = workload::scan_large(seed, scale);
            let session =
                serve::set_up_resident(&client, &shapes, setup_reps(workload), &mut served);
            let pick = |i: u64| (i % shapes.len() as u64) as usize;
            serve::serve_resident(&client, &session, &shapes, &pick, seconds, &mut served);
        }
        Workload::Dashboard => {
            let shapes = workload::dashboard(seed, scale);
            let session =
                serve::set_up_resident(&client, &shapes, setup_reps(workload), &mut served);
            let pick = move |i: u64| workload::dashboard_pick(seed, i);
            serve::serve_resident(&client, &session, &shapes, &pick, seconds, &mut served);
        }
        Workload::FreshTables => {
            serve::serve_fresh(&client, seed, scale, &mut 0, seconds, 3, &mut served);
        }
    }
    end_to_end(&served)
}

/// The median over `samples` of the session's latency divided by its
/// paired baseline latency.
fn median_ratio(samples: &[Sample]) -> Option<f64> {
    let ratios: Vec<f64> = samples
        .iter()
        .filter_map(|x| x.base_secs.filter(|b| *b > 0.0).map(|b| x.secs / b))
        .collect();
    median(&ratios)
}

/// A round of the seven families at their median latencies, the
/// session's over the baseline's: Σ over families of the session's
/// median ÷ Σ of the paired baseline's median. Unlike [`median_ratio`]
/// it weighs each family by its time, so the heavy families count
/// most; medians keep bursts of host contention out of it.
fn round_ratio(samples: &[Sample]) -> Option<f64> {
    let (mut session, mut base) = (0.0, 0.0);
    for f in Family::ALL {
        let fam: Vec<&Sample> = samples.iter().filter(|x| x.family == f).collect();
        let secs: Vec<f64> = fam.iter().map(|x| x.secs).collect();
        let base_secs: Vec<f64> = fam.iter().filter_map(|x| x.base_secs).collect();
        session += median(&secs)?;
        base += median(&base_secs)?;
    }
    (base > 0.0).then(|| session / base)
}

fn end_to_end(served: &Served) -> Metrics {
    let s = &served.samples;
    let rows: u64 = s.iter().map(|x| x.rows).sum();
    let entries: u64 = s.iter().map(|x| x.entries).sum();
    let mut m = Metrics::default();
    let unit = |name: &str| END_TO_END.iter().find(|(n, _)| *n == name).expect("declared").1;
    let mut put = |name: &str, v: Option<f64>| m.put(name, unit(name), v);
    put("setup_s", median(&served.setups));
    put("latency_vs_baseline", median_ratio(s));
    put("round_vs_baseline", round_ratio(s));
    put("peak_rss_mb", Some(peak_rss_kb() / 1024.0));
    put(
        "wire_bytes_per_row",
        (rows > 0).then(|| (entries * ENTRY_WIRE_BYTES) as f64 / rows as f64),
    );
    // Absolute latencies: shown for reading, not reported as metrics,
    // because they follow the host's speed (see METRICS.md).
    let ms = |f: &dyn Fn(&Sample) -> Option<f64>| {
        let v: Vec<f64> = s.iter().filter_map(f).map(|x| x * 1e3).collect();
        (quantile(&v, 0.5).unwrap_or(0.0), quantile(&v, 0.99).unwrap_or(0.0))
    };
    let (session_p50, session_p99) = ms(&|x| Some(x.secs));
    let (base_p50, base_p99) = ms(&|x| x.base_secs);
    eprintln!(
        "frontbench: {} samples (per family: {:?}), set-ups {:?} s, {:.3} s measured; session p50 {session_p50:.4} ms p99 {session_p99:.4} ms, baseline p50 {base_p50:.4} ms p99 {base_p99:.4} ms",
        s.len(),
        Family::ALL.map(|f| s.iter().filter(|x| x.family == f).count()),
        served.setups,
        served.wall
    );
    m
}
