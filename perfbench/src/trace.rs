//! In-memory spans and counters recorded around calls into the program's
//! layers, plus the per-layer roll-up they feed.
//!
//! A span is `(name, start, end, parent, item)`. Three kinds of root span
//! exist: `setup` (input building and the warm-up item), `item` (one timed
//! item) and probes (work timed beside an item, such as the noise probe,
//! whose time is not part of the item). A layer's self time is its span's
//! duration minus the time its child spans cover. An aggregate span
//! stands for many short calls (the DAGMan driver's polls): its duration
//! is their summed time, laid from its parent's start, and `calls` counts
//! them. Spans are written out once, at the end of the run.

use std::collections::BTreeMap;
use std::time::Instant;

/// Root span of one timed item.
pub const ITEM: &str = "item";
/// Root span of one set-up, warm-up item included.
pub const SETUP: &str = "setup";

struct Span {
    name: &'static str,
    start_ns: u64,
    end_ns: u64,
    parent: Option<usize>,
    item: Option<u64>,
    calls: u64,
}

/// Span recorder. When off, every method is a no-op apart from running
/// the closure it is given.
pub struct Tracer {
    on: bool,
    epoch: Instant,
    spans: Vec<Span>,
    open: Vec<usize>,
    /// `(root span, counter, value)`.
    counters: Vec<(usize, &'static str, f64)>,
}

impl Tracer {
    pub fn new(on: bool) -> Self {
        Self {
            on,
            epoch: Instant::now(),
            spans: Vec::new(),
            open: Vec::new(),
            counters: Vec::new(),
        }
    }

    pub fn is_on(&self) -> bool {
        self.on
    }

    pub fn set_on(&mut self, on: bool) {
        self.on = on;
    }

    fn now_ns(&self) -> u64 {
        self.epoch.elapsed().as_nanos() as u64
    }

    /// Open a span under the innermost open one; `item` is inherited from
    /// the parent unless given.
    pub fn begin(&mut self, name: &'static str, item: Option<u64>) -> Option<usize> {
        if !self.on {
            return None;
        }
        let parent = self.open.last().copied();
        let item = item.or_else(|| parent.and_then(|p| self.spans[p].item));
        let start_ns = self.now_ns();
        self.spans.push(Span {
            name,
            start_ns,
            end_ns: start_ns,
            parent,
            item,
            calls: 1,
        });
        let id = self.spans.len() - 1;
        self.open.push(id);
        Some(id)
    }

    pub fn end(&mut self, id: Option<usize>) {
        if let Some(id) = id {
            self.spans[id].end_ns = self.now_ns();
            let top = self.open.pop();
            debug_assert_eq!(top, Some(id), "spans must close innermost first");
        }
    }

    /// Time `f` as a span named `name`.
    pub fn span<T>(&mut self, name: &'static str, f: impl FnOnce() -> T) -> T {
        let id = self.begin(name, None);
        let out = f();
        self.end(id);
        out
    }

    /// Record `calls` calls totalling `busy_ns` as one child of the
    /// innermost open span.
    pub fn aggregate(&mut self, name: &'static str, busy_ns: u64, calls: u64) {
        if !self.on {
            return;
        }
        let parent = self.open.last().copied();
        let (start_ns, item) = parent.map_or((0, None), |p| {
            let s = &self.spans[p];
            (s.start_ns, s.item)
        });
        self.spans.push(Span {
            name,
            start_ns,
            end_ns: start_ns + busy_ns,
            parent,
            item,
            calls,
        });
    }

    /// Add `value` to counter `name` of the enclosing root span.
    pub fn count(&mut self, name: &'static str, value: f64) {
        if !self.on {
            return;
        }
        if let Some(&first) = self.open.first() {
            self.counters.push((first, name, value));
        }
    }

    fn root_of(&self, mut i: usize) -> usize {
        while let Some(p) = self.spans[i].parent {
            i = p;
        }
        i
    }

    /// Roll the recorded spans up by root kind and layer name.
    pub fn summary(&self) -> Summary {
        let mut s = Summary::default();
        let mut child_ns = vec![0u64; self.spans.len()];
        for sp in &self.spans {
            if let Some(p) = sp.parent {
                child_ns[p] += sp.end_ns - sp.start_ns;
            }
        }
        for (i, sp) in self.spans.iter().enumerate() {
            let dur = sp.end_ns - sp.start_ns;
            let root = self.spans[self.root_of(i)].name;
            let layer = match (root, sp.parent) {
                (ITEM, None) => {
                    s.items += 1;
                    s.item_ns += dur;
                    continue;
                }
                (ITEM, Some(_)) => s.layers.entry(sp.name).or_default(),
                (SETUP, Some(_)) => s.setup.entry(sp.name).or_default(),
                (SETUP, None) => continue,
                (_, _) => s.probes.entry(sp.name).or_default(),
            };
            layer.self_ns += dur.saturating_sub(child_ns[i]);
            layer.total_ns += dur;
            layer.calls += sp.calls;
        }
        for &(root, name, v) in &self.counters {
            if self.spans[root].name == ITEM {
                *s.counters.entry(name).or_default() += v;
            }
        }
        s
    }

    /// The spans as Chrome trace-event objects on process lane `pid`.
    pub fn chrome_events(&self, pid: usize, out: &mut Vec<String>) {
        for (i, sp) in self.spans.iter().enumerate() {
            let parent = sp.parent.map_or("null".to_string(), |p| p.to_string());
            let item = sp.item.map_or("null".to_string(), |x| x.to_string());
            out.push(format!(
                "{{\"name\":\"{}\",\"ph\":\"X\",\"pid\":{pid},\"tid\":0,\"ts\":{:.3},\"dur\":{:.3},\
                 \"args\":{{\"id\":{i},\"parent\":{parent},\"item\":{item},\"calls\":{}}}}}",
                sp.name,
                sp.start_ns as f64 / 1e3,
                (sp.end_ns - sp.start_ns) as f64 / 1e3,
                sp.calls
            ));
        }
    }
}

/// Time of one layer, summed over its spans.
#[derive(Debug, Default, Clone, Copy)]
pub struct Layer {
    pub self_ns: u64,
    pub total_ns: u64,
    pub calls: u64,
}

/// Per-layer roll-up of one workload's spans.
#[derive(Debug, Default)]
pub struct Summary {
    /// Timed items traced, and their summed duration.
    pub items: u64,
    pub item_ns: u64,
    /// Layers under `item` roots.
    pub layers: BTreeMap<&'static str, Layer>,
    /// Layers under `setup` roots.
    pub setup: BTreeMap<&'static str, Layer>,
    /// Probe roots.
    pub probes: BTreeMap<&'static str, Layer>,
    /// Counters of `item` roots.
    pub counters: BTreeMap<&'static str, f64>,
}

impl Summary {
    /// Self time of `layer` per traced item, ms.
    pub fn ms_per_item(&self, layer: &str) -> f64 {
        self.layers
            .get(layer)
            .map_or(0.0, |l| l.self_ns as f64 / 1e6)
            / self.items.max(1) as f64
    }

    /// Self time of `layer` summed over traced items, s.
    pub fn self_s(&self, layer: &str) -> f64 {
        self.layers
            .get(layer)
            .map_or(0.0, |l| l.self_ns as f64 / 1e9)
    }

    /// Mean self time of one call of `layer`, ms.
    pub fn ms_per_call(&self, layer: &str) -> f64 {
        self.layers
            .get(layer)
            .map_or(0.0, |l| l.self_ns as f64 / 1e6 / l.calls.max(1) as f64)
    }

    /// Mean duration of one set-up call of `layer`, ms.
    pub fn setup_ms_per_call(&self, layer: &str) -> f64 {
        self.setup
            .get(layer)
            .map_or(0.0, |l| l.total_ns as f64 / 1e6 / l.calls.max(1) as f64)
    }

    /// Probe time per traced item, ms.
    pub fn probe_ms_per_item(&self, probe: &str) -> f64 {
        self.probes
            .get(probe)
            .map_or(0.0, |l| l.total_ns as f64 / 1e6)
            / self.items.max(1) as f64
    }

    pub fn counter(&self, name: &str) -> f64 {
        self.counters.get(name).copied().unwrap_or(0.0)
    }

    pub fn per_item(&self, counter: &str) -> f64 {
        self.counter(counter) / self.items.max(1) as f64
    }

    /// Share of item time no layer span covers.
    pub fn unattributed_frac(&self) -> f64 {
        let attributed: u64 = self.layers.values().map(|l| l.self_ns).sum();
        1.0 - attributed as f64 / self.item_ns.max(1) as f64
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn self_time_excludes_children_and_aggregates() {
        let mut tr = Tracer::new(true);
        let item = tr.begin(ITEM, Some(7));
        let outer = tr.begin("outer", None);
        tr.span("inner", || {
            std::thread::sleep(std::time::Duration::from_millis(2))
        });
        // Five calls totalling 1 ms, made inside `outer` but outside `inner`.
        std::thread::sleep(std::time::Duration::from_millis(2));
        tr.aggregate("agg", 1_000_000, 5);
        tr.count("n", 3.0);
        tr.end(outer);
        tr.end(item);
        let s = tr.summary();
        assert_eq!(s.items, 1);
        let outer = s.layers["outer"];
        let inner = s.layers["inner"];
        assert_eq!(s.layers["agg"].calls, 5);
        assert_eq!(s.layers["agg"].self_ns, 1_000_000);
        assert!(inner.self_ns >= 2_000_000);
        assert_eq!(
            outer.self_ns,
            outer.total_ns - inner.total_ns - 1_000_000,
            "outer self time must exclude both children"
        );
        assert_eq!(s.counter("n"), 3.0);
        assert!(s.unattributed_frac() >= 0.0 && s.unattributed_frac() < 1.0);
    }

    #[test]
    fn off_records_nothing() {
        let mut tr = Tracer::new(false);
        let id = tr.begin(ITEM, Some(0));
        assert_eq!(tr.span("x", || 4), 4);
        tr.count("n", 1.0);
        tr.end(id);
        assert_eq!(tr.summary().items, 0);
    }
}
