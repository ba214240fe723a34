//! The closed loop shared by every workload: one client, no think time,
//! the next item starting when the previous one (and its output check)
//! has finished.

use std::time::Instant;

use crate::sys;
use crate::trace::{Tracer, ITEM, SETUP};

/// One benchmark workload: its inputs, one item of work against the
/// program's public API, and the invariants that item's output must hold.
pub trait Workload: Sized {
    const NAME: &'static str;
    /// Whether an item rerun with the same inputs must give the same
    /// bytes. `false` only where the program is known not to, so the
    /// identity is reported instead of gated.
    const RERUN_GATED: bool = true;
    type Out;

    /// Build the inputs every item shares, from the workload seed.
    fn setup(seed: u64, tr: &mut Tracer) -> Result<Self, String>;
    /// Run item `idx`; its inputs derive from the workload seed and `idx`.
    fn item(&mut self, idx: u64, tr: &mut Tracer) -> Result<Self::Out, String>;
    /// Work timed beside item `idx`, outside the item's own time.
    fn probe(&mut self, _idx: u64, _tr: &mut Tracer) {}
    /// The invariants of item `idx`'s output.
    fn check(&mut self, idx: u64, out: &Self::Out) -> Result<(), String>;
    /// The bytes a rerun of the item must reproduce.
    fn identity(out: &Self::Out) -> Vec<u8>;
    /// Named ways to corrupt an output, each of which `check` must catch.
    fn corruptions() -> Vec<(&'static str, Corrupt<Self::Out>)>;
}

/// Damage done to an output before its check, to show the check fails.
pub type Corrupt<O> = fn(&mut O);

/// Items a measured phase runs at least, so the p90 latency has ten
/// samples beyond it.
pub const MIN_ITEMS: usize = 100;
/// A phase stops at this multiple of its time budget even when short of
/// its item minimum.
const MAX_OVERRUN: f64 = 3.0;
/// Set-ups per end-to-end run; `setup_s` is their median. The first runs
/// before the timed phase and the rest are spread evenly through it, so
/// they sample the host over the whole run rather than its first second.
pub const SETUP_REPS: usize = 11;
/// Failure messages kept per run.
const MAX_MESSAGES: usize = 5;

/// Counts and failures shared by every phase of a run.
#[derive(Debug, Default)]
pub struct Tally {
    pub attempted: u64,
    pub failed: u64,
    pub messages: Vec<String>,
}

impl Tally {
    pub fn fail(&mut self, what: String) {
        self.failed += 1;
        if self.messages.len() < MAX_MESSAGES {
            self.messages.push(what);
        }
    }
}

/// What one measured phase saw.
#[derive(Debug, Default)]
pub struct Phase {
    /// Wall time of each completed item, ns.
    pub latencies_ns: Vec<u64>,
    /// Summed wall time of every item call, ns: the phase clock, which
    /// stops during probes and output checks.
    pub timed_ns: u64,
    /// Process CPU time spent inside item calls, ns.
    pub cpu_ns: u64,
    /// Items run, completed or not.
    pub items: u64,
    /// Largest peak resident set size seen during an item call, MiB: the
    /// peak is reset before each call and read right after it, so what
    /// probes and output checks allocate is left out.
    pub peak_rss_mib: f64,
}

impl Phase {
    pub fn items_per_s(&self) -> f64 {
        self.latencies_ns.len() as f64 / (self.timed_ns as f64 / 1e9)
    }

    /// Nearest-rank percentile `p` of completed-item latency, ms, and the
    /// number of samples above it.
    pub fn percentile_ms(&self, p: f64) -> (f64, usize) {
        let mut v = self.latencies_ns.clone();
        v.sort_unstable();
        if v.is_empty() {
            return (f64::NAN, 0);
        }
        let rank = ((p * v.len() as f64).ceil() as usize).clamp(1, v.len());
        (v[rank - 1] as f64 / 1e6, v.len() - rank)
    }

    /// The completed items cut, in order, into consecutive windows of at
    /// least [`MIN_ITEMS`] each (one window when there are fewer), each
    /// timed by its items' summed latency. A metric taken as the median
    /// over windows is not moved by a burst of host noise that covers
    /// less than half of them.
    pub fn windows(&self) -> Vec<Phase> {
        let len = self.latencies_ns.len();
        let n = (len / MIN_ITEMS).max(1);
        (0..n)
            .map(|i| {
                let lat = self.latencies_ns[i * len / n..(i + 1) * len / n].to_vec();
                Phase {
                    timed_ns: lat.iter().sum(),
                    items: lat.len() as u64,
                    latencies_ns: lat,
                    ..Phase::default()
                }
            })
            .collect()
    }
}

/// A workload after set-up, with what set-up measured.
pub struct Ready<W: Workload> {
    /// The set-up workload; empty only while it is being set up again.
    w: Option<W>,
    seed: u64,
    /// Wall time of each set-up, s.
    pub setup_s: Vec<f64>,
    /// Identity bytes of item 0 from the first set-up's warm-up. Later
    /// warm-ups are compared with it as they finish and not kept, so the
    /// benchmark's own memory does not grow with the set-ups.
    identity: Vec<u8>,
    /// Whether every later warm-up gave the same bytes.
    warmups_agree: bool,
}

/// Set the workload up `reps` times (at least once), keeping the last.
pub fn setup<W: Workload>(
    seed: u64,
    reps: usize,
    tr: &mut Tracer,
    tally: &mut Tally,
) -> Result<Ready<W>, String> {
    let (w, secs, identity) = set_up_once::<W>(seed, tr, tally)?;
    let mut ready = Ready {
        w: Some(w),
        seed,
        setup_s: vec![secs],
        identity,
        warmups_agree: true,
    };
    for _ in 1..reps {
        ready.setup_again(tr, tally)?;
    }
    Ok(ready)
}

/// Build the inputs from scratch and run item 0 as an untimed, checked
/// warm-up, so lazy initialisation and caches are filled before the
/// first timed item. Returns the workload, the set-up's wall time in s
/// and item 0's identity bytes.
fn set_up_once<W: Workload>(
    seed: u64,
    tr: &mut Tracer,
    tally: &mut Tally,
) -> Result<(W, f64, Vec<u8>), String> {
    let t0 = Instant::now();
    let root = tr.begin(SETUP, None);
    let built = W::setup(seed, tr).and_then(|mut w| {
        let out = w.item(0, tr)?;
        Ok((w, out))
    });
    tr.end(root);
    let secs = t0.elapsed().as_secs_f64();
    tally.attempted += 1;
    let (mut w, out) = built.map_err(|e| format!("{} set-up: {e}", W::NAME))?;
    if let Err(e) = w.check(0, &out) {
        tally.fail(format!("{} warm-up item 0: {e}", W::NAME));
    }
    Ok((w, secs, W::identity(&out)))
}

impl<W: Workload> Ready<W> {
    fn w(&mut self) -> &mut W {
        self.w.as_mut().expect("a set-up workload")
    }

    /// Set the workload up once more and carry on with the new one. The
    /// old one is dropped first, so the two never share the heap.
    fn setup_again(&mut self, tr: &mut Tracer, tally: &mut Tally) -> Result<(), String> {
        drop(self.w.take());
        let (w, secs, identity) = set_up_once::<W>(self.seed, tr, tally)?;
        self.w = Some(w);
        self.setup_s.push(secs);
        self.warmups_agree &= identity == self.identity;
        Ok(())
    }
}

/// How long a phase runs and what else it does.
pub struct Plan {
    pub seconds: f64,
    /// Items the phase runs at least.
    pub min_items: usize,
    /// Set-ups repeated during the phase, evenly spaced on the phase
    /// clock, outside it.
    pub setups: usize,
}

/// Run items from `first_idx` in a closed loop until the phase clock
/// reaches `plan.seconds` and at least `plan.min_items` items ran.
pub fn run_phase<W: Workload>(
    ready: &mut Ready<W>,
    first_idx: u64,
    plan: &Plan,
    tr: &mut Tracer,
    tally: &mut Tally,
    corrupt: Option<Corrupt<W::Out>>,
) -> Result<Phase, String> {
    let budget_ns = (plan.seconds * 1e9) as u64;
    let cap_ns = (plan.seconds * MAX_OVERRUN * 1e9) as u64;
    let mut ph = Phase::default();
    let mut idx = first_idx;
    let mut setups_done = 0;
    while (ph.timed_ns < budget_ns || (ph.items as usize) < plan.min_items) && ph.timed_ns < cap_ns
    {
        // The k-th repeated set-up runs once the phase clock passes
        // k/(setups+1) of the budget.
        let due = budget_ns as u128 * (setups_done + 1) as u128 / (plan.setups + 1) as u128;
        if setups_done < plan.setups && ph.timed_ns as u128 >= due {
            ready.setup_again(tr, tally)?;
            setups_done += 1;
        }
        sys::reset_peak_rss()?;
        let cpu0 = sys::cpu_ns()?;
        let t0 = Instant::now();
        let root = tr.begin(ITEM, Some(idx));
        let res = ready.w().item(idx, tr);
        tr.end(root);
        let lat = t0.elapsed().as_nanos() as u64;
        ph.cpu_ns += sys::cpu_ns()?.saturating_sub(cpu0);
        ph.peak_rss_mib = ph.peak_rss_mib.max(sys::peak_rss_mib()?);
        ph.timed_ns += lat;
        ph.items += 1;
        tally.attempted += 1;
        ready.w().probe(idx, tr);
        match res {
            Ok(mut out) => {
                if let Some(c) = corrupt {
                    c(&mut out);
                }
                match ready.w().check(idx, &out) {
                    Ok(()) => ph.latencies_ns.push(lat),
                    Err(e) => tally.fail(format!("{} item {idx}: {e}", W::NAME)),
                }
            }
            Err(e) => tally.fail(format!("{} item {idx} erred: {e}", W::NAME)),
        }
        idx += 1;
    }
    Ok(ph)
}

/// Rerun item 0 once more and compare its identity bytes with every
/// warm-up's. Returns whether all agree; a disagreement is a failure
/// unless the workload's rerun identity is report-only.
pub fn rerun_identity<W: Workload>(
    ready: &mut Ready<W>,
    tally: &mut Tally,
) -> Result<bool, String> {
    let mut off = Tracer::new(false);
    tally.attempted += 1;
    let out = ready
        .w()
        .item(0, &mut off)
        .map_err(|e| format!("{} rerun of item 0: {e}", W::NAME))?;
    let again = W::identity(&out);
    let same = ready.warmups_agree && again == ready.identity;
    if !same && W::RERUN_GATED {
        tally.fail(format!(
            "{}: a rerun of item 0 gave different bytes",
            W::NAME
        ));
    }
    Ok(same)
}

pub fn median(xs: &[f64]) -> f64 {
    let mut v = xs.to_vec();
    v.sort_by(f64::total_cmp);
    match v.len() {
        0 => f64::NAN,
        n if n % 2 == 1 => v[n / 2],
        n => (v[n / 2 - 1] + v[n / 2]) / 2.0,
    }
}

/// The inputs seed of item `idx`: a splitmix64 finaliser over the
/// workload seed and the index, so neighbouring items share no stream.
pub fn item_seed(seed: u64, idx: u64) -> u64 {
    let mut z = seed
        .wrapping_mul(0x9E37_79B9_7F4A_7C15)
        .wrapping_add(idx.wrapping_add(1).wrapping_mul(0xBF58_476D_1CE4_E5B9));
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// Serialises tests that use process-wide state: the factor cache and
/// the peak resident set size.
#[cfg(test)]
pub static PROCESS_STATE_LOCK: std::sync::Mutex<()> = std::sync::Mutex::new(());

/// Check that an honest output of `W` passes and that every corruption
/// `W` names makes its check fail.
#[cfg(test)]
pub fn assert_checks_catch<W: Workload>() {
    let _guard = PROCESS_STATE_LOCK.lock().unwrap_or_else(|p| p.into_inner());
    let mut tr = Tracer::new(false);
    let mut w = W::setup(7, &mut tr).expect("set-up");
    let idx = 4;
    let out = w.item(idx, &mut tr).expect("item");
    w.check(idx, &out)
        .expect("an honest output passes its check");
    for (name, corrupt) in W::corruptions() {
        let mut out = w.item(idx, &mut tr).expect("item");
        corrupt(&mut out);
        assert!(
            w.check(idx, &out).is_err(),
            "{}: check missed corruption '{name}'",
            W::NAME
        );
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// A workload whose item 0 gives new bytes on every run.
    struct Drifting(u8);

    impl Workload for Drifting {
        const NAME: &'static str = "drifting";
        type Out = u8;
        fn setup(_seed: u64, _tr: &mut Tracer) -> Result<Self, String> {
            Ok(Self(0))
        }
        fn item(&mut self, _idx: u64, _tr: &mut Tracer) -> Result<u8, String> {
            self.0 += 1;
            Ok(self.0)
        }
        fn check(&mut self, _idx: u64, _out: &u8) -> Result<(), String> {
            Ok(())
        }
        fn identity(out: &u8) -> Vec<u8> {
            vec![*out]
        }
        fn corruptions() -> Vec<(&'static str, Corrupt<u8>)> {
            Vec::new()
        }
    }

    #[test]
    fn rerun_that_differs_fails_the_run() {
        let mut tally = Tally::default();
        let mut tr = Tracer::new(false);
        let mut ready = setup::<Drifting>(1, 3, &mut tr, &mut tally).expect("set-up");
        assert_eq!(tally.failed, 0);
        assert!(!rerun_identity(&mut ready, &mut tally).expect("rerun"));
        assert_eq!(tally.failed, 1);
        assert_eq!(tally.attempted, 3 + 1);
    }

    #[test]
    fn repeated_setups_run_during_the_phase() {
        let mut tally = Tally::default();
        let mut tr = Tracer::new(false);
        let mut ready = setup::<Drifting>(1, 1, &mut tr, &mut tally).expect("set-up");
        let plan = Plan {
            seconds: 1e-6,
            min_items: 50,
            setups: 4,
        };
        let ph = run_phase(&mut ready, 1, &plan, &mut tr, &mut tally, None).expect("phase");
        assert_eq!(ready.setup_s.len(), 5);
        assert_eq!(tally.attempted, 5 + ph.items);
        assert!(ph.peak_rss_mib > 0.0);
    }

    #[test]
    fn nearest_rank_percentiles() {
        let ph = Phase {
            latencies_ns: (1..=100).map(|i| i * 1_000_000).collect(),
            ..Phase::default()
        };
        assert_eq!(ph.percentile_ms(0.5), (50.0, 50));
        assert_eq!(ph.percentile_ms(0.9), (90.0, 10));
    }

    #[test]
    fn windows_hold_at_least_min_items() {
        let ph = Phase {
            latencies_ns: (1..=350).collect(),
            ..Phase::default()
        };
        let w = ph.windows();
        assert_eq!(
            w.iter().map(|w| w.latencies_ns.len()).collect::<Vec<_>>(),
            [116, 117, 117]
        );
        assert_eq!(w[0].timed_ns, (1..=116).sum::<u64>());
        let joined: Vec<u64> = w.iter().flat_map(|w| w.latencies_ns.clone()).collect();
        assert_eq!(joined, ph.latencies_ns);
        let short = Phase {
            latencies_ns: vec![5; 40],
            ..Phase::default()
        };
        assert_eq!(short.windows().len(), 1);
    }

    #[test]
    fn median_of_even_and_odd() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 2.0, 3.0]), 2.5);
    }

    #[test]
    fn item_seeds_differ() {
        assert_ne!(item_seed(1, 0), item_seed(1, 1));
        assert_ne!(item_seed(1, 0), item_seed(2, 0));
        assert_eq!(item_seed(5, 9), item_seed(5, 9));
    }
}
