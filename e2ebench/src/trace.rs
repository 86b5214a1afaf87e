//! In-memory span recorder for the traced run.
//!
//! Spans wrap only the benchmark's own calls into each layer's public
//! functions (plug-in load/eval/drain, the network-service handler, the
//! governor, the app server, the cluster). Each span keeps its name, start,
//! end, parent span and interaction id; self time is a span's duration
//! minus its direct children's. When tracing is off a span costs one
//! thread-local flag check.

use std::cell::{Cell, RefCell};
use std::collections::BTreeMap;
use std::io::Write;
use std::time::Instant;

const NO_PARENT: u32 = u32::MAX;

pub struct Span {
    pub name: &'static str,
    pub start_ns: u64,
    pub end_ns: u64,
    pub parent: u32,
    pub interaction: u64,
    /// Segment the span ran in (selects its speed factor).
    pub seg: u32,
}

#[derive(Default)]
struct Tracer {
    spans: Vec<Span>,
    stack: Vec<u32>,
    interaction: u64,
    seg: u32,
}

thread_local! {
    static ENABLED: Cell<bool> = const { Cell::new(false) };
    static EPOCH: Instant = Instant::now();
    static TRACER: RefCell<Tracer> = RefCell::new(Tracer::default());
}

fn now_ns() -> u64 {
    EPOCH.with(|e| e.elapsed().as_nanos() as u64)
}

pub fn set_enabled(on: bool) {
    ENABLED.with(|e| e.set(on));
}

pub fn enabled() -> bool {
    ENABLED.with(Cell::get)
}

/// Tags the spans that follow with an interaction id and segment.
pub fn set_interaction(interaction: u64, seg: u32) {
    TRACER.with(|t| {
        let mut t = t.borrow_mut();
        t.interaction = interaction;
        t.seg = seg;
    });
}

/// Opens a span; returns its handle, or `None` when tracing is off.
pub fn enter(name: &'static str) -> Option<u32> {
    if !enabled() {
        return None;
    }
    let start_ns = now_ns();
    TRACER.with(|t| {
        let mut t = t.borrow_mut();
        let id = t.spans.len() as u32;
        let parent = t.stack.last().copied().unwrap_or(NO_PARENT);
        let (interaction, seg) = (t.interaction, t.seg);
        t.spans.push(Span {
            name,
            start_ns,
            end_ns: start_ns,
            parent,
            interaction,
            seg,
        });
        t.stack.push(id);
        Some(id)
    })
}

/// Closes a span opened by [`enter`].
pub fn exit(id: Option<u32>) {
    let Some(id) = id else { return };
    let end_ns = now_ns();
    TRACER.with(|t| {
        let mut t = t.borrow_mut();
        let popped = t.stack.pop();
        debug_assert_eq!(popped, Some(id), "spans must nest");
        t.spans[id as usize].end_ns = end_ns;
    });
}

/// Renames an open or closed span (e.g. an `advance` tick that turned out
/// to run the scrubber).
pub fn relabel(id: Option<u32>, name: &'static str) {
    if let Some(id) = id {
        TRACER.with(|t| t.borrow_mut().spans[id as usize].name = name);
    }
}

/// Runs `f` inside a span named `name`.
pub fn span<R>(name: &'static str, f: impl FnOnce() -> R) -> R {
    let id = enter(name);
    let r = f();
    exit(id);
    r
}

/// Takes every recorded span, leaving the recorder empty.
pub fn take() -> Vec<Span> {
    TRACER.with(|t| std::mem::take(&mut t.borrow_mut().spans))
}

/// Per-name duration and self-time samples in nanoseconds, each scaled by
/// its segment's speed factor.
#[derive(Default)]
pub struct LayerTimes {
    pub total: BTreeMap<&'static str, Vec<f64>>,
    pub self_time: BTreeMap<&'static str, Vec<f64>>,
}

pub fn layer_times(spans: &[Span], seg_factor: &dyn Fn(u32) -> f64) -> LayerTimes {
    let mut child_ns = vec![0u64; spans.len()];
    for s in spans {
        if s.parent != NO_PARENT {
            child_ns[s.parent as usize] += s.end_ns - s.start_ns;
        }
    }
    let mut out = LayerTimes::default();
    for (s, children) in spans.iter().zip(child_ns) {
        let f = seg_factor(s.seg);
        let dur = (s.end_ns - s.start_ns) as f64;
        out.total.entry(s.name).or_default().push(dur * f);
        out.self_time
            .entry(s.name)
            .or_default()
            .push((dur - children as f64).max(0.0) * f);
    }
    out
}

/// Writes the spans as tab-separated lines: id, name, start, end, parent,
/// interaction, segment (times in ns since the recorder's epoch, raw).
pub fn write_tsv(path: &std::path::Path, spans: &[Span]) -> std::io::Result<()> {
    if let Some(dir) = path.parent() {
        std::fs::create_dir_all(dir)?;
    }
    let mut w = std::io::BufWriter::new(std::fs::File::create(path)?);
    writeln!(
        w,
        "id\tname\tstart_ns\tend_ns\tparent\tinteraction\tsegment"
    )?;
    for (i, s) in spans.iter().enumerate() {
        let parent = if s.parent == NO_PARENT {
            -1
        } else {
            i64::from(s.parent)
        };
        writeln!(
            w,
            "{i}\t{}\t{}\t{}\t{parent}\t{}\t{}",
            s.name, s.start_ns, s.end_ns, s.interaction, s.seg
        )?;
    }
    w.flush()
}
