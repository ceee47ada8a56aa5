//! Outside-in tracing: spans around the harness's calls into each layer's
//! public functions, kept in memory and written out when the run ends.
//!
//! Nothing inside the program is instrumented (that is ROADMAP item 4).
//! A span is `{name, layer, iteration, parent, wall start/end}`; after a
//! traced call the runtime's profiling events are drained and attached to
//! the span as virtual-time command records, so one artefact holds the wall
//! timeline and the simulated one side by side.

use std::sync::Arc;
use std::time::Instant;

use skelcl::SkelCl;

use crate::json::Json;

/// One simulator command, in virtual nanoseconds.
#[derive(Debug, Clone, PartialEq)]
pub struct Cmd {
    pub device: usize,
    pub kind: String,
    pub queued_ns: u64,
    pub start_ns: u64,
    pub end_ns: u64,
    pub bytes: usize,
    pub is_kernel: bool,
}

#[derive(Debug, Clone, PartialEq)]
pub struct Span {
    pub name: &'static str,
    /// The crate the call goes into (`core`, `serving`, `osem`, …) or
    /// `harness` for the iteration root.
    pub layer: &'static str,
    pub iteration: u32,
    /// Which runtime's virtual clock the span's commands are on (0 unless a
    /// workload runs several runtimes per iteration).
    pub domain: u8,
    pub parent: Option<usize>,
    pub start_ns: u64,
    pub end_ns: u64,
    pub cmds: Vec<Cmd>,
}

impl Span {
    pub fn wall_ns(&self) -> u64 {
        self.end_ns - self.start_ns
    }
}

/// Span handle returned by [`Tracer::begin`]; `None` while tracing is off.
#[derive(Debug, Clone, Copy)]
pub struct SpanId(Option<usize>);

pub struct Tracer {
    enabled: bool,
    epoch: Instant,
    iteration: u32,
    domain: u8,
    stack: Vec<usize>,
    pub spans: Vec<Span>,
}

impl Tracer {
    /// A tracer that records nothing: every call is one branch.
    pub fn off() -> Tracer {
        Tracer::new(false)
    }

    pub fn on() -> Tracer {
        Tracer::new(true)
    }

    fn new(enabled: bool) -> Tracer {
        Tracer {
            enabled,
            epoch: Instant::now(),
            iteration: 0,
            domain: 0,
            stack: Vec::new(),
            spans: Vec::new(),
        }
    }

    pub fn enabled(&self) -> bool {
        self.enabled
    }

    pub fn set_iteration(&mut self, iteration: u32) {
        self.iteration = iteration;
    }

    pub fn set_domain(&mut self, domain: u8) {
        self.domain = domain;
    }

    pub fn begin(&mut self, layer: &'static str, name: &'static str) -> SpanId {
        if !self.enabled {
            return SpanId(None);
        }
        let id = self.spans.len();
        self.spans.push(Span {
            name,
            layer,
            iteration: self.iteration,
            domain: self.domain,
            parent: self.stack.last().copied(),
            start_ns: self.epoch.elapsed().as_nanos() as u64,
            end_ns: 0,
            cmds: Vec::new(),
        });
        self.stack.push(id);
        SpanId(Some(id))
    }

    /// Close a span. With a runtime, its queues' profiling events are
    /// drained *after* the end timestamp is taken (so the drain is not
    /// billed to the call) and attached as the span's commands.
    pub fn end(&mut self, id: SpanId, rt: Option<&Arc<SkelCl>>) {
        let Some(id) = id.0 else { return };
        self.spans[id].end_ns = self.epoch.elapsed().as_nanos() as u64;
        let top = self.stack.pop();
        debug_assert_eq!(top, Some(id), "spans close innermost first");
        if let Some(rt) = rt {
            self.spans[id].cmds = drain_cmds(rt);
        }
    }

    /// Trace one leaf call into `layer`.
    pub fn call<R>(
        &mut self,
        layer: &'static str,
        name: &'static str,
        rt: &Arc<SkelCl>,
        f: impl FnOnce() -> R,
    ) -> R {
        if !self.enabled {
            return f();
        }
        let id = self.begin(layer, name);
        let out = f();
        self.end(id, Some(rt));
        out
    }

    /// Sum of self time per `(layer, name)` over all iterations, divided by
    /// the number of iterations traced: milliseconds per iteration.
    pub fn self_ms_per_iteration(
        &self,
        iterations: u32,
    ) -> Vec<((&'static str, &'static str), f64)> {
        let selfs = self_times(&self.spans);
        let mut acc: Vec<((&'static str, &'static str), u64)> = Vec::new();
        for (span, ns) in self.spans.iter().zip(selfs) {
            let key = (span.layer, span.name);
            match acc.iter_mut().find(|(k, _)| *k == key) {
                Some((_, total)) => *total += ns,
                None => acc.push((key, ns)),
            }
        }
        acc.into_iter()
            .map(|(k, ns)| (k, ns as f64 / 1e6 / f64::from(iterations.max(1))))
            .collect()
    }

    /// All commands of one iteration on one clock domain, in drain order.
    pub fn cmds_of(&self, iteration: u32, domain: u8) -> impl Iterator<Item = &Cmd> {
        self.spans
            .iter()
            .filter(move |s| s.iteration == iteration && s.domain == domain)
            .flat_map(|s| s.cmds.iter())
    }

    pub fn to_json(&self, workload: &str, seed: u64) -> Json {
        let selfs = self_times(&self.spans);
        let spans = self
            .spans
            .iter()
            .enumerate()
            .map(|(id, s)| {
                Json::obj([
                    ("id", Json::Num(id as f64)),
                    (
                        "parent",
                        s.parent.map_or(Json::Null, |p| Json::Num(p as f64)),
                    ),
                    ("name", Json::str(s.name)),
                    ("layer", Json::str(s.layer)),
                    ("workload", Json::str(workload)),
                    ("iteration", Json::Num(f64::from(s.iteration))),
                    ("domain", Json::Num(f64::from(s.domain))),
                    ("wall_start_ns", Json::Num(s.start_ns as f64)),
                    ("wall_end_ns", Json::Num(s.end_ns as f64)),
                    ("self_ns", Json::Num(selfs[id] as f64)),
                    (
                        "cmds",
                        Json::Arr(
                            s.cmds
                                .iter()
                                .map(|c| {
                                    Json::obj([
                                        ("device", Json::Num(c.device as f64)),
                                        ("kind", Json::str(&c.kind)),
                                        ("virt_queued_ns", Json::Num(c.queued_ns as f64)),
                                        ("virt_start_ns", Json::Num(c.start_ns as f64)),
                                        ("virt_end_ns", Json::Num(c.end_ns as f64)),
                                        ("bytes", Json::Num(c.bytes as f64)),
                                    ])
                                })
                                .collect(),
                        ),
                    ),
                ])
            })
            .collect();
        Json::obj([
            ("workload", Json::str(workload)),
            ("seed", Json::Num(seed as f64)),
            ("spans", Json::Arr(spans)),
        ])
    }
}

/// Wall nanoseconds of each span not covered by its direct children.
pub fn self_times(spans: &[Span]) -> Vec<u64> {
    let mut selfs: Vec<u64> = spans.iter().map(Span::wall_ns).collect();
    for span in spans {
        if let Some(p) = span.parent {
            selfs[p] = selfs[p].saturating_sub(span.wall_ns());
        }
    }
    selfs
}

/// Drain every queue's profiling log into flat command records.
pub fn drain_cmds(rt: &Arc<SkelCl>) -> Vec<Cmd> {
    rt.drain_events()
        .into_iter()
        .flatten()
        .map(|e| Cmd {
            device: e.device,
            kind: match &e.kind {
                oclsim::CommandKind::Kernel(name) => format!("kernel:{name}"),
                other => format!("{other:?}"),
            },
            queued_ns: e.queued.as_nanos(),
            start_ns: e.start.as_nanos(),
            end_ns: e.end.as_nanos(),
            bytes: e.bytes,
            is_kernel: e.is_kernel(),
        })
        .collect()
}

/// Virtual-time accounting of one device over a window `[t0, t1]`.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct DeviceTime {
    pub kernel_ns: u64,
    pub transfer_ns: u64,
    pub idle_ns: u64,
}

impl DeviceTime {
    pub fn busy_ns(&self) -> u64 {
        self.kernel_ns + self.transfer_ns
    }
}

/// Split `[t0, t1]` on one device into kernel, transfer and idle time.
///
/// Idle is measured, not derived: it is the sum of the gaps before, between
/// and after the commands. So `kernel + transfer + idle == t1 - t0` holds
/// exactly only if the commands lie inside the window and never overlap —
/// which is what the in-order queue model promises. `Err` names the
/// violation.
pub fn device_time<'a>(
    cmds: impl IntoIterator<Item = &'a Cmd>,
    t0: u64,
    t1: u64,
) -> Result<DeviceTime, String> {
    let mut cmds: Vec<&Cmd> = cmds.into_iter().collect();
    cmds.sort_by_key(|c| (c.start_ns, c.end_ns));
    let mut out = DeviceTime::default();
    let mut cursor = t0;
    for c in cmds {
        if c.start_ns < cursor {
            return Err(format!(
                "{} on device {} starts at {} ns, before {} ns (overlap or outside the window)",
                c.kind, c.device, c.start_ns, cursor
            ));
        }
        out.idle_ns += c.start_ns - cursor;
        let dur = c.end_ns - c.start_ns;
        if c.is_kernel {
            out.kernel_ns += dur;
        } else {
            out.transfer_ns += dur;
        }
        cursor = c.end_ns;
    }
    if cursor > t1 {
        return Err(format!(
            "commands end at {cursor} ns, after the window's {t1} ns"
        ));
    }
    out.idle_ns += t1 - cursor;
    debug_assert_eq!(out.busy_ns() + out.idle_ns, t1 - t0);
    Ok(out)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(parent: Option<usize>, start: u64, end: u64) -> Span {
        Span {
            name: "s",
            layer: "core",
            iteration: 0,
            domain: 0,
            parent,
            start_ns: start,
            end_ns: end,
            cmds: Vec::new(),
        }
    }

    #[test]
    fn self_time_is_span_minus_direct_children() {
        // root 0..100 with children 10..40 and 50..90; the first child has a
        // grandchild 20..30 that must not be subtracted from the root twice.
        let spans = vec![
            span(None, 0, 100),
            span(Some(0), 10, 40),
            span(Some(1), 20, 30),
            span(Some(0), 50, 90),
        ];
        assert_eq!(self_times(&spans), vec![30, 20, 10, 40]);
        let total: u64 = self_times(&spans).iter().sum();
        assert_eq!(total, 100, "self times partition the root");
    }

    #[test]
    fn disabled_tracer_records_nothing() {
        let mut t = Tracer::off();
        let id = t.begin("core", "x");
        t.end(id, None);
        assert!(t.spans.is_empty());
    }

    #[test]
    fn enabled_tracer_nests_by_stack() {
        let mut t = Tracer::on();
        t.set_iteration(3);
        let root = t.begin("harness", "iteration");
        let child = t.begin("core", "call");
        t.end(child, None);
        t.end(root, None);
        assert_eq!(t.spans.len(), 2);
        assert_eq!(t.spans[1].parent, Some(0));
        assert_eq!(t.spans[0].parent, None);
        assert_eq!(t.spans[1].iteration, 3);
        assert!(t.spans[0].end_ns >= t.spans[1].end_ns);
    }

    fn cmd(kernel: bool, start: u64, end: u64) -> Cmd {
        Cmd {
            device: 0,
            kind: "c".into(),
            queued_ns: start,
            start_ns: start,
            end_ns: end,
            bytes: 0,
            is_kernel: kernel,
        }
    }

    #[test]
    fn device_time_sums_to_the_window_exactly() {
        let cmds = [cmd(false, 5, 10), cmd(true, 10, 40), cmd(false, 45, 50)];
        let t = device_time(&cmds, 0, 60).unwrap();
        assert_eq!((t.kernel_ns, t.transfer_ns, t.idle_ns), (30, 10, 20));
        assert_eq!(t.busy_ns() + t.idle_ns, 60);
        assert_eq!(device_time(&[], 7, 19).unwrap().idle_ns, 12);
    }

    #[test]
    fn device_time_flags_overlap_and_escape() {
        assert!(device_time(&[cmd(true, 0, 10), cmd(true, 5, 15)], 0, 20).is_err());
        assert!(device_time(&[cmd(true, 0, 30)], 0, 20).is_err());
        assert!(device_time(&[cmd(true, 0, 5)], 2, 20).is_err());
    }
}
