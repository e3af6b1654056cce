//! In-memory spans recorded by the benchmark around its calls into each
//! layer, written out as one JSON file when the run ends.
//!
//! A span has a name, a start and an end (nanoseconds since the trace's
//! epoch), the index of the span that caused it, and the id of the pass
//! or request it belongs to. A span's *self time* is its duration minus
//! the part of that interval its children cover.

use std::fmt::Write as _;
use std::time::Instant;

/// One recorded interval.
#[derive(Debug, Clone)]
pub struct Span {
    /// Layer boundary this span covers, e.g. `service.wait`.
    pub name: String,
    /// Start, in ns since the trace epoch.
    pub start_ns: u64,
    /// End, in ns since the trace epoch (never before `start_ns`).
    pub end_ns: u64,
    /// Index of the parent span in [`Trace::spans`].
    pub parent: Option<usize>,
    /// The pass or request this span belongs to.
    pub id: u64,
}

impl Span {
    /// Duration in nanoseconds.
    pub fn dur_ns(&self) -> u64 {
        self.end_ns - self.start_ns
    }
}

/// A single-owner span store.
#[derive(Debug)]
pub struct Trace {
    epoch: Instant,
    spans: Vec<Span>,
}

impl Trace {
    /// An empty trace whose clock starts at `epoch`.
    pub fn new(epoch: Instant) -> Trace {
        Trace {
            epoch,
            spans: Vec::new(),
        }
    }

    /// Nanoseconds from the epoch to `t` (0 for instants before it).
    pub fn ns(&self, t: Instant) -> u64 {
        t.saturating_duration_since(self.epoch).as_nanos() as u64
    }

    /// Record a span from `start` to `end` and return its index. An end
    /// before the start is recorded as an empty span.
    pub fn push(
        &mut self,
        name: &str,
        start: Instant,
        end: Instant,
        parent: Option<usize>,
        id: u64,
    ) -> usize {
        let start_ns = self.ns(start);
        let end_ns = self.ns(end).max(start_ns);
        self.spans.push(Span {
            name: name.to_string(),
            start_ns,
            end_ns,
            parent,
            id,
        });
        self.spans.len() - 1
    }

    /// All spans, in recording order.
    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    /// Self time of every span, indexed like [`Trace::spans`]: the span's
    /// duration minus the union of its children's intervals, clipped to
    /// the span.
    pub fn self_times(&self) -> Vec<u64> {
        let mut children: Vec<Vec<usize>> = vec![Vec::new(); self.spans.len()];
        for (i, s) in self.spans.iter().enumerate() {
            if let Some(p) = s.parent {
                children[p].push(i);
            }
        }
        self.spans
            .iter()
            .enumerate()
            .map(|(i, s)| {
                let mut iv: Vec<(u64, u64)> = children[i]
                    .iter()
                    .map(|&c| {
                        let c = &self.spans[c];
                        (c.start_ns.max(s.start_ns), c.end_ns.min(s.end_ns))
                    })
                    .filter(|(a, b)| a < b)
                    .collect();
                iv.sort_unstable();
                let mut covered = 0;
                let mut cur: Option<(u64, u64)> = None;
                for (a, b) in iv {
                    match cur {
                        Some((ca, cb)) if a <= cb => cur = Some((ca, cb.max(b))),
                        _ => {
                            if let Some((ca, cb)) = cur {
                                covered += cb - ca;
                            }
                            cur = Some((a, b));
                        }
                    }
                }
                if let Some((ca, cb)) = cur {
                    covered += cb - ca;
                }
                s.dur_ns() - covered
            })
            .collect()
    }

    /// Serialize every span, with its self time, as a JSON document:
    /// one array per span in the order `fields` names.
    pub fn to_json(&self) -> String {
        let self_ns = self.self_times();
        let mut out = String::from(
            "{\"fields\":[\"name\",\"start_ns\",\"end_ns\",\"self_ns\",\"parent\",\"id\"],\"spans\":[\n",
        );
        for (i, s) in self.spans.iter().enumerate() {
            let parent = s.parent.map_or("null".to_string(), |p| p.to_string());
            let _ = write!(
                out,
                "[\"{}\",{},{},{},{parent},{}]",
                s.name, s.start_ns, s.end_ns, self_ns[i], s.id
            );
            out.push_str(if i + 1 < self.spans.len() {
                ",\n"
            } else {
                "\n"
            });
        }
        out.push_str("]}\n");
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::time::Duration;

    #[test]
    fn self_time_subtracts_the_union_of_children() {
        let t0 = Instant::now();
        let at = |us: u64| t0 + Duration::from_micros(us);
        let mut tr = Trace::new(t0);
        let root = tr.push("root", at(0), at(100), None, 7);
        tr.push("a", at(10), at(40), Some(root), 7);
        // Overlaps `a`: the union, not the sum, is subtracted.
        tr.push("b", at(30), at(50), Some(root), 7);
        let c = tr.push("c", at(60), at(90), Some(root), 7);
        tr.push("c.inner", at(70), at(80), Some(c), 7);
        let st = tr.self_times();
        assert_eq!(st[root], 100_000 - 40_000 - 30_000);
        assert_eq!(st[c], 20_000);
        assert_eq!(st[4], 10_000);
        assert!(tr.to_json().contains("[\"c.inner\",70000,80000,10000,3,7]"));
    }
}
