//! End-to-end and per-layer benchmark of the FDW reproduction: the live
//! science path (`fakequakes`) and the sim path (`fdw_core`, `htcsim`,
//! `dagman`, `fdw_service`), driven through their public functions.
//!
//! ```text
//! cargo run --release --manifest-path perfbench/Cargo.toml -- \
//!     --workload <name> --seed <n> --seconds <s> --trace <0|1> [--corrupt <kind>]
//! ```
//!
//! `--trace 0` measures one workload with tracing off and prints its
//! end-to-end metrics, at one worker thread unless `FDW_THREADS` or
//! `RAYON_NUM_THREADS` says otherwise. `--trace 1` runs every workload at
//! the default thread count, each once untraced and once traced, and
//! prints the per-layer table. Every item's
//! output is checked; the last stdout line is one JSON object with the
//! keys `correct`, `attempted`, `failed` and `metrics`, and the exit code
//! is 1 when any check failed. `--corrupt <kind>` damages every timed
//! item's output in a named way, to show the checks catch it. See
//! `perfbench/README.md`.

#![forbid(unsafe_code)]

mod osg;
mod runner;
mod rupture;
mod service;
mod sys;
mod trace;
mod waveform;

use std::collections::BTreeMap;
use std::process::ExitCode;

use runner::{Corrupt, Phase, Tally, Workload};
use trace::{Summary, Tracer};

const WORKLOADS: [&str; 4] = [
    waveform::WaveformJobs::NAME,
    rupture::RuptureJobs::NAME,
    osg::OsgCampaign::NAME,
    service::ServiceOverload::NAME,
];

/// Set-ups a traced run makes of each workload, all traced, before its
/// phases.
const TRACED_SETUPS: usize = 3;

/// Where traced runs write their spans, relative to the checkout root.
const SPANS_DIR: &str = "perfbench/out";

/// The variables the program reads its thread count from.
const THREAD_VARS: [&str; 2] = ["FDW_THREADS", "RAYON_NUM_THREADS"];

/// Pin an end-to-end run to one worker thread unless the caller chose a
/// count. At more threads the vendored `rayon::join` starts a thread on
/// every call, and on a shared host its latency follows the scheduler
/// more than the program. The traced run keeps the default count, so the
/// per-layer figures still show that cost. Must run before anything asks
/// `rayon` for its thread count, which is cached on first use.
fn pin_threads(args: &mut Args) {
    if !args.trace && THREAD_VARS.iter().all(|v| std::env::var_os(v).is_none()) {
        std::env::set_var(THREAD_VARS[0], "1");
        args.pinned = true;
    }
}

struct Args {
    workload: &'static str,
    seed: u64,
    seconds: f64,
    trace: bool,
    corrupt: Option<String>,
    /// Whether the benchmark, not the caller, set the thread count.
    pinned: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut kv = BTreeMap::new();
    let mut it = std::env::args().skip(1);
    while let Some(k) = it.next() {
        let key = k
            .strip_prefix("--")
            .filter(|k| ["workload", "seed", "seconds", "trace", "corrupt"].contains(k))
            .ok_or_else(|| format!("unknown argument '{k}'"))?
            .to_string();
        let v = it.next().ok_or_else(|| format!("{k} needs a value"))?;
        kv.insert(key, v);
    }
    let need = |k: &str| kv.get(k).ok_or_else(|| format!("--{k} is required"));
    let workload = need("workload")?;
    let workload = WORKLOADS
        .into_iter()
        .find(|w| w == workload)
        .ok_or_else(|| format!("unknown workload '{workload}' (one of {WORKLOADS:?})"))?;
    let seed = need("seed")?
        .parse()
        .map_err(|_| "--seed takes a whole number".to_string())?;
    let seconds: u64 = need("seconds")?
        .parse()
        .map_err(|_| "--seconds takes a whole number".to_string())?;
    if !(1..=3600).contains(&seconds) {
        return Err("--seconds must be 1 to 3600".into());
    }
    let trace = match need("trace")?.as_str() {
        "0" => false,
        "1" => true,
        t => return Err(format!("--trace takes 0 or 1, not '{t}'")),
    };
    Ok(Args {
        workload,
        seed,
        seconds: seconds as f64,
        trace,
        corrupt: kv.get("corrupt").cloned(),
        pinned: false,
    })
}

struct Metric {
    name: &'static str,
    unit: &'static str,
    value: f64,
}

fn m(name: &'static str, unit: &'static str, value: f64) -> Metric {
    Metric { name, unit, value }
}

fn json_num(v: f64) -> String {
    if v.is_finite() {
        format!("{v}")
    } else {
        "null".into()
    }
}

/// Look a `--corrupt` kind up among the workload's corruptions.
fn corruption<W: Workload>(kind: Option<&str>) -> Result<Option<Corrupt<W::Out>>, String> {
    let Some(kind) = kind else { return Ok(None) };
    let all = W::corruptions();
    all.iter()
        .find(|(n, _)| *n == kind)
        .map(|(_, f)| Some(*f))
        .ok_or_else(|| {
            let names: Vec<_> = all.iter().map(|(n, _)| *n).collect();
            format!("{} has no corruption '{kind}' (one of {names:?})", W::NAME)
        })
}

/// One workload measured with tracing off.
struct EndToEnd {
    phase: Phase,
    setup_s: Vec<f64>,
    rerun: &'static str,
}

fn end_to_end<W: Workload>(args: &Args, tally: &mut Tally) -> Result<EndToEnd, String> {
    let corrupt = corruption::<W>(args.corrupt.as_deref())?;
    let mut off = Tracer::new(false);
    let mut ready = runner::setup::<W>(args.seed, 1, &mut off, tally)?;
    let plan = runner::Plan {
        seconds: args.seconds,
        min_items: runner::MIN_ITEMS,
        setups: runner::SETUP_REPS - 1,
    };
    let phase = runner::run_phase(&mut ready, 1, &plan, &mut off, tally, corrupt)?;
    let same = runner::rerun_identity(&mut ready, tally)?;
    Ok(EndToEnd {
        phase,
        setup_s: ready.setup_s,
        rerun: rerun_note::<W>(same),
    })
}

/// One workload's traced run: traced set-ups, then an untraced and a
/// traced phase of equal length.
struct Traced {
    untraced: Phase,
    traced: Phase,
    summary: Summary,
    tracer: Tracer,
    rerun: &'static str,
}

fn traced<W: Workload>(
    seed: u64,
    seconds: f64,
    corrupt: Option<&str>,
    tally: &mut Tally,
) -> Result<Traced, String> {
    let corrupt = corruption::<W>(corrupt)?;
    let mut tr = Tracer::new(true);
    let mut ready = runner::setup::<W>(seed, TRACED_SETUPS, &mut tr, tally)?;
    let plan = runner::Plan {
        seconds,
        min_items: 1,
        setups: 0,
    };
    tr.set_on(false);
    let untraced = runner::run_phase(&mut ready, 1, &plan, &mut tr, tally, corrupt)?;
    tr.set_on(true);
    let next = 1 + untraced.items;
    let traced = runner::run_phase(&mut ready, next, &plan, &mut tr, tally, corrupt)?;
    // Set-ups ran traced, so this untraced rerun also shows that tracing
    // leaves outputs unchanged.
    let same = runner::rerun_identity(&mut ready, tally)?;
    Ok(Traced {
        untraced,
        traced,
        summary: tr.summary(),
        tracer: tr,
        rerun: rerun_note::<W>(same),
    })
}

/// The per-layer metrics: each layer's from the workload that exercises
/// it, and the process and trace figures from the named workload.
fn per_layer(named: &str, runs: &BTreeMap<&str, Traced>) -> Vec<Metric> {
    let w = &runs[waveform::WaveformJobs::NAME].summary;
    let r = &runs[rupture::RuptureJobs::NAME].summary;
    let o = &runs[osg::OsgCampaign::NAME].summary;
    let s = &runs[service::ServiceOverload::NAME].summary;
    let n = &runs[named];
    let ratio = |a: f64, b: f64| if b > 0.0 { a / b } else { f64::NAN };
    vec![
        m(
            "fakequakes.waveform.ms_per_item",
            "ms",
            w.ms_per_item("fakequakes.waveform"),
        ),
        m(
            "fakequakes.waveform.msamples_per_s",
            "Msample/s",
            ratio(
                w.counter("fakequakes.waveform.samples") / 1e6,
                w.self_s("fakequakes.waveform"),
            ),
        ),
        m(
            "fakequakes.noise.probe_ms_per_item",
            "ms",
            w.probe_ms_per_item("fakequakes.noise.probe"),
        ),
        m(
            "fakequakes.mseed.encode_ms_per_item",
            "ms",
            w.ms_per_item("fakequakes.mseed.encode"),
        ),
        m(
            "fakequakes.mseed.mb_per_item",
            "MB",
            w.per_item("fakequakes.mseed.bytes") / 1e6,
        ),
        m(
            "fakequakes.stochastic.factor_ms",
            "ms",
            r.ms_per_call("fakequakes.stochastic.factor"),
        ),
        m(
            "fakequakes.stochastic.cache_hit_ratio",
            "ratio",
            1.0 - ratio(
                w.counter("fakequakes.stochastic.misses"),
                w.counter("fakequakes.stochastic.fetches"),
            ),
        ),
        m(
            "fakequakes.rupture.draw_us",
            "us",
            ratio(
                r.self_s("fakequakes.rupture.draw") * 1e6,
                r.counter("fakequakes.rupture.draws"),
            ),
        ),
        m(
            "fakequakes.rupture.draws_per_item",
            "count",
            r.per_item("fakequakes.rupture.draws"),
        ),
        m(
            "fakequakes.npy.decode_ms_per_item",
            "ms",
            r.ms_per_item("fakequakes.npy.decode"),
        ),
        m(
            "fakequakes.npy.encode_ms_per_item",
            "ms",
            r.ms_per_item("fakequakes.npy.encode"),
        ),
        m(
            "fakequakes.npy.mb_per_item",
            "MB",
            r.per_item("fakequakes.npy.bytes") / 1e6,
        ),
        m(
            "fakequakes.distance.ms",
            "ms",
            w.setup_ms_per_call("fakequakes.distance"),
        ),
        m(
            "fakequakes.greens.ms",
            "ms",
            w.setup_ms_per_call("fakequakes.greens"),
        ),
        m(
            "fdw_core.phases.build_ms_per_item",
            "ms",
            o.ms_per_item("fdw_core.phases.build"),
        ),
        m(
            "fdw_core.phases.nodes_per_item",
            "count",
            o.per_item("fdw_core.phases.nodes"),
        ),
        m(
            "htcsim.cluster.self_ms_per_item",
            "ms",
            o.ms_per_item("htcsim.cluster"),
        ),
        m(
            "htcsim.cluster.events_per_item",
            "count",
            o.per_item("htcsim.cluster.events"),
        ),
        m(
            "htcsim.cluster.events_per_s",
            "1/s",
            ratio(
                o.counter("htcsim.cluster.events"),
                o.self_s("htcsim.cluster"),
            ),
        ),
        m(
            "htcsim.cluster.negotiation_cycles_per_item",
            "count",
            o.per_item("htcsim.cluster.negotiation_cycles"),
        ),
        m(
            "htcsim.cluster.evictions_per_item",
            "count",
            o.per_item("htcsim.cluster.evictions"),
        ),
        m(
            "dagman.driver.ms_per_item",
            "ms",
            o.ms_per_item("dagman.driver"),
        ),
        m(
            "dagman.driver.polls_per_item",
            "count",
            o.per_item("dagman.driver.polls"),
        ),
        m(
            "dagman.driver.submits_per_item",
            "count",
            o.per_item("dagman.driver.submits"),
        ),
        m(
            "dagman.monitor.ms_per_item",
            "ms",
            o.ms_per_item("dagman.monitor"),
        ),
        m(
            "htcsim.condor_log.render_ms_per_item",
            "ms",
            o.ms_per_item("htcsim.condor_log.render"),
        ),
        m(
            "htcsim.condor_log.mb_per_item",
            "MB",
            o.per_item("htcsim.condor_log.bytes") / 1e6,
        ),
        m(
            "fdw_service.engine.ms_per_item",
            "ms",
            s.ms_per_item("fdw_service.engine"),
        ),
        m(
            "fdw_service.engine.requests_per_s",
            "1/s",
            ratio(
                s.counter("fdw_service.requests"),
                s.self_s("fdw_service.engine"),
            ),
        ),
        m(
            "fdw_service.store.hit_ratio",
            "ratio",
            ratio(
                s.counter("fdw_service.store.hits"),
                s.counter("fdw_service.store.lookups"),
            ),
        ),
        m(
            "fdw_service.engine.admitted_frac",
            "ratio",
            ratio(
                s.counter("fdw_service.admitted"),
                s.counter("fdw_service.requests"),
            ),
        ),
        m(
            "process.cpu_ms_per_item",
            "ms",
            ratio(n.untraced.cpu_ns as f64 / 1e6, n.untraced.items as f64),
        ),
        m(
            "trace.unattributed_frac",
            "ratio",
            n.summary.unattributed_frac(),
        ),
        m(
            "trace.overhead_frac",
            "ratio",
            1.0 - ratio(n.traced.items_per_s(), n.untraced.items_per_s()),
        ),
    ]
}

fn print_layer_table(name: &str, t: &Traced) {
    let s = &t.summary;
    let items = s.items.max(1) as f64;
    println!(
        "layer table: {name} ({} traced items, {} untraced; {:.3} ms per traced item)",
        s.items,
        t.untraced.items,
        s.item_ns as f64 / 1e6 / items
    );
    println!(
        "  {:<36} {:>12} {:>12} {:>8}",
        "layer", "self ms/item", "calls/item", "share"
    );
    for (layer, l) in &s.layers {
        println!(
            "  {:<36} {:>12.3} {:>12.1} {:>7.1}%",
            layer,
            l.self_ns as f64 / 1e6 / items,
            l.calls as f64 / items,
            100.0 * l.self_ns as f64 / s.item_ns.max(1) as f64
        );
    }
    println!(
        "  {:<36} {:>12.3} {:>12} {:>7.1}%",
        "(unattributed)",
        s.unattributed_frac() * s.item_ns as f64 / 1e6 / items,
        "",
        100.0 * s.unattributed_frac()
    );
    for (layer, l) in &s.setup {
        println!(
            "  set-up {:<29} {:>12.3} ms per call, {} calls",
            layer,
            l.total_ns as f64 / 1e6 / l.calls.max(1) as f64,
            l.calls
        );
    }
    for (probe, l) in &s.probes {
        println!(
            "  probe {:<30} {:>12.3} ms per item (not part of the item)",
            probe,
            l.total_ns as f64 / 1e6 / items
        );
    }
    for (c, v) in &s.counters {
        println!("  count {:<30} {:>12.1} per item", c, v / items);
    }
    println!(
        "  untraced {:.3} items/s, traced {:.3} items/s, cpu {:.3} ms/item untraced",
        t.untraced.items_per_s(),
        t.traced.items_per_s(),
        t.untraced.cpu_ns as f64 / 1e6 / t.untraced.items.max(1) as f64
    );
}

fn manifest(args: &Args, items: &[(&str, u64)]) -> String {
    let items: Vec<String> = items.iter().map(|(w, n)| format!("\"{w}\":{n}")).collect();
    format!(
        "{{\"git_rev\":\"{}\",\"nproc\":{},\"rayon_threads\":{},\"fdw_threads\":\"{}\",\
         \"threads_pinned\":{},\"target_cpu\":\"{}\",\"workload\":\"{}\",\"seed\":{},\"seconds\":{},\"trace\":{},\
         \"corrupt\":\"{}\",\"items\":{{{}}}}}",
        sys::git_rev(),
        sys::nproc(),
        rayon::current_num_threads(),
        fdw_obs::json::escape(&std::env::var("FDW_THREADS").unwrap_or_else(|_| "unset".into())),
        args.pinned,
        sys::target_cpu(),
        args.workload,
        args.seed,
        args.seconds,
        u8::from(args.trace),
        fdw_obs::json::escape(args.corrupt.as_deref().unwrap_or("")),
        items.join(",")
    )
}

fn rerun_note<W: Workload>(same: bool) -> &'static str {
    match (same, W::RERUN_GATED) {
        (true, _) => "identical",
        (false, true) => "DIFFERS (a failure)",
        (false, false) => "differs (reported only: known defect, see README)",
    }
}

fn run_end_to_end(args: &Args, tally: &mut Tally) -> Result<(Vec<Metric>, String), String> {
    let e = match args.workload {
        waveform::WaveformJobs::NAME => end_to_end::<waveform::WaveformJobs>(args, tally),
        rupture::RuptureJobs::NAME => end_to_end::<rupture::RuptureJobs>(args, tally),
        osg::OsgCampaign::NAME => end_to_end::<osg::OsgCampaign>(args, tally),
        _ => end_to_end::<service::ServiceOverload>(args, tally),
    }?;
    let ph = &e.phase;
    let windows = ph.windows();
    let over_windows =
        |f: fn(&Phase) -> f64| runner::median(&windows.iter().map(f).collect::<Vec<_>>());
    let beyond = windows
        .iter()
        .map(|w| w.percentile_ms(0.9).1)
        .min()
        .unwrap_or(0);
    let setup_s = runner::median(&e.setup_s);
    let metrics = vec![
        m("items_per_s", "1/s", over_windows(Phase::items_per_s)),
        m(
            "item_p50_ms",
            "ms",
            over_windows(|w| w.percentile_ms(0.5).0),
        ),
        m(
            "item_p90_ms",
            "ms",
            over_windows(|w| w.percentile_ms(0.9).0),
        ),
        m("setup_s", "s", setup_s),
        m("peak_rss_mb", "MiB", ph.peak_rss_mib),
    ];
    println!(
        "workload {} seed {}: {} timed items",
        args.workload, args.seed, ph.items
    );
    for mt in &metrics {
        println!("  {:<14} {:>14.4} {}", mt.name, mt.value, mt.unit);
    }
    println!(
        "  items_per_s, item_p50_ms and item_p90_ms are medians over {} windows of {}+ items",
        windows.len(),
        windows
            .iter()
            .map(|w| w.latencies_ns.len())
            .min()
            .unwrap_or(0)
    );
    println!(
        "  item_p90_ms has at least {beyond} samples beyond it in each window ({})",
        if beyond >= 10 {
            "valid"
        } else {
            "NOT valid: fewer than 10"
        }
    );
    let deciles: Vec<String> = (1..10)
        .map(|d| format!("{:.2}", ph.percentile_ms(d as f64 / 10.0).0))
        .collect();
    println!("  item latency deciles, ms: {}", deciles.join(" "));
    let setups: Vec<String> = e.setup_s.iter().map(|s| format!("{s:.4}")).collect();
    println!("  setup_s is the median of [{}]", setups.join(", "));
    println!(
        "  failed_frac    {:>14.4} ({} of {} attempted, set-ups and reruns included)",
        tally.failed as f64 / tally.attempted.max(1) as f64,
        tally.failed,
        tally.attempted
    );
    println!("  rerun of item 0: {}", e.rerun);
    Ok((metrics, manifest(args, &[(args.workload, ph.items)])))
}

fn run_traced(args: &Args, tally: &mut Tally) -> Result<(Vec<Metric>, String), String> {
    // An eighth of the budget to each workload's untraced and traced
    // phases, so a traced run of the four measures for `--seconds`.
    let share = args.seconds / 8.0;
    let mut runs = BTreeMap::new();
    for name in WORKLOADS {
        let corrupt = (name == args.workload)
            .then_some(args.corrupt.as_deref())
            .flatten();
        let t = match name {
            waveform::WaveformJobs::NAME => {
                traced::<waveform::WaveformJobs>(args.seed, share, corrupt, tally)
            }
            rupture::RuptureJobs::NAME => {
                traced::<rupture::RuptureJobs>(args.seed, share, corrupt, tally)
            }
            osg::OsgCampaign::NAME => traced::<osg::OsgCampaign>(args.seed, share, corrupt, tally),
            _ => traced::<service::ServiceOverload>(args.seed, share, corrupt, tally),
        }?;
        runs.insert(name, t);
    }
    let mut events = Vec::new();
    for (pid, name) in WORKLOADS.iter().enumerate() {
        let t = &runs[name];
        print_layer_table(name, t);
        println!("  rerun of item 0: {}", t.rerun);
        t.tracer.chrome_events(pid, &mut events);
    }
    let metrics = per_layer(args.workload, &runs);
    println!(
        "per-layer metrics (process and trace figures: {}):",
        args.workload
    );
    for mt in &metrics {
        println!("  {:<44} {:>14.4} {}", mt.name, mt.value, mt.unit);
    }
    let items: Vec<(&str, u64)> = WORKLOADS
        .iter()
        .map(|w| (*w, runs[w].untraced.items + runs[w].traced.items))
        .collect();
    let manifest = manifest(args, &items);
    let path = format!("{SPANS_DIR}/spans-{}-seed{}.json", args.workload, args.seed);
    std::fs::create_dir_all(SPANS_DIR).map_err(|e| format!("create {SPANS_DIR}: {e}"))?;
    let doc = format!(
        "{{\"manifest\":{manifest},\"traceEvents\":[\n{}\n]}}\n",
        events.join(",\n")
    );
    std::fs::write(&path, doc).map_err(|e| format!("write {path}: {e}"))?;
    println!("spans: {} written to {path}", events.len());
    Ok((metrics, manifest))
}

fn main() -> ExitCode {
    let mut args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perfbench: {e}");
            return ExitCode::from(2);
        }
    };
    pin_threads(&mut args);
    let mut tally = Tally::default();
    let run = if args.trace {
        run_traced(&args, &mut tally)
    } else {
        run_end_to_end(&args, &mut tally)
    };
    let (metrics, manifest) = match run {
        Ok(r) => r,
        Err(e) => {
            eprintln!("perfbench: {e}");
            return ExitCode::FAILURE;
        }
    };
    for msg in &tally.messages {
        println!("check failed: {msg}");
    }
    let correct = tally.failed == 0 && metrics.iter().all(|m| m.value.is_finite());
    println!("manifest {manifest}");
    let body: Vec<String> = metrics
        .iter()
        .map(|m| {
            format!(
                "\"{}\":{{\"value\":{},\"unit\":\"{}\"}}",
                m.name,
                json_num(m.value),
                m.unit
            )
        })
        .collect();
    println!(
        "{{\"correct\":{correct},\"attempted\":{},\"failed\":{},\"metrics\":{{{}}}}}",
        tally.attempted,
        tally.failed,
        body.join(",")
    );
    if correct {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn empty_trace() -> Traced {
        Traced {
            untraced: Phase::default(),
            traced: Phase::default(),
            summary: Summary::default(),
            tracer: Tracer::new(false),
            rerun: "identical",
        }
    }

    /// Every metric the benchmark prints is declared, with its unit, in
    /// the repository's `BENCHMARK.json`, and nothing else is.
    #[test]
    fn metrics_match_benchmark_json() {
        let spec =
            std::fs::read_to_string(concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json"))
                .expect("BENCHMARK.json at the repository root");
        let runs: BTreeMap<&str, Traced> = WORKLOADS.iter().map(|w| (*w, empty_trace())).collect();
        let mut names: Vec<(&str, &str)> = per_layer(WORKLOADS[0], &runs)
            .iter()
            .map(|m| (m.name, m.unit))
            .collect();
        names.extend([
            ("items_per_s", "1/s"),
            ("item_p50_ms", "ms"),
            ("item_p90_ms", "ms"),
            ("setup_s", "s"),
            ("peak_rss_mb", "MiB"),
        ]);
        for (name, unit) in &names {
            let decl = format!("\"name\": \"{name}\", \"unit\": \"{unit}\"");
            assert!(spec.contains(&decl), "BENCHMARK.json lacks {decl}");
        }
        assert_eq!(spec.matches("\"unit\":").count(), names.len());
        for w in WORKLOADS {
            assert!(spec.contains(&format!("\"name\": \"{w}\"")), "workload {w}");
        }
    }
}
