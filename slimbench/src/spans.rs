//! Self time per span name from the in-memory sg-obs trace.
//!
//! A span's parent is the innermost span enclosing it on the same thread.
//! A span with no parent on its own thread is attached across threads to
//! the innermost enclosing span carrying the same trace id (the client's
//! `bench.request` for a daemon's `serve.request`; `fed.run` for a
//! `fed.shard`). A worker's `serve.request` for a shard carries
//! `<id>/s<k>` and is matched on `<id>`. Self time is a span's duration
//! minus the union of its children's intervals.

use crate::report::SelfTime;
use std::collections::{BTreeMap, HashMap};

struct Ev {
    tid: u64,
    name: String,
    start: u64,
    end: u64,
    trace: Option<String>,
}

impl Ev {
    fn contains(&self, other: &Ev) -> bool {
        self.start <= other.start
            && other.end <= self.end
            && self.end - self.start > other.end - other.start
    }
}

pub fn self_times(threads: Vec<(u64, String, Vec<sg_obs::trace::TraceEvent>)>) -> Vec<SelfTime> {
    let mut evs: Vec<Ev> = Vec::new();
    for (tid, _, events) in threads {
        for e in events {
            let trace = e.args.iter().find(|(k, _)| k == "trace").map(|(_, v)| v.clone());
            evs.push(Ev { tid, name: e.name, start: e.ts_us, end: e.ts_us + e.dur_us, trace });
        }
    }
    let mut parent: Vec<Option<usize>> = vec![None; evs.len()];

    // Same-thread nesting: a stack sweep in (start asc, end desc) order.
    let mut by_thread: BTreeMap<u64, Vec<usize>> = BTreeMap::new();
    for (i, e) in evs.iter().enumerate() {
        by_thread.entry(e.tid).or_default().push(i);
    }
    for idx in by_thread.values_mut() {
        idx.sort_by(|&a, &b| evs[a].start.cmp(&evs[b].start).then(evs[b].end.cmp(&evs[a].end)));
        let mut stack: Vec<usize> = Vec::new();
        for &i in idx.iter() {
            while let Some(&top) = stack.last() {
                if evs[top].start <= evs[i].start && evs[i].end <= evs[top].end {
                    break;
                }
                stack.pop();
            }
            parent[i] = stack.last().copied();
            stack.push(i);
        }
    }

    // Cross-thread attachment by trace id.
    let mut by_trace: HashMap<&str, Vec<usize>> = HashMap::new();
    for (i, e) in evs.iter().enumerate() {
        if let Some(t) = &e.trace {
            by_trace.entry(t.as_str()).or_default().push(i);
        }
    }
    for i in 0..evs.len() {
        if parent[i].is_some() {
            continue;
        }
        let Some(trace) = evs[i].trace.as_deref() else { continue };
        let mut keys = vec![trace];
        if let Some((prefix, _)) = trace.rsplit_once('/') {
            keys.push(prefix);
        }
        for key in keys {
            let best = by_trace
                .get(key)
                .into_iter()
                .flatten()
                .copied()
                .filter(|&j| evs[j].tid != evs[i].tid && evs[j].contains(&evs[i]))
                .min_by_key(|&j| evs[j].end - evs[j].start);
            if best.is_some() {
                parent[i] = best;
                break;
            }
        }
    }

    let mut children: Vec<Vec<(u64, u64)>> = vec![Vec::new(); evs.len()];
    for (i, p) in parent.iter().enumerate() {
        if let Some(p) = *p {
            children[p].push((evs[i].start, evs[i].end));
        }
    }
    let mut totals: BTreeMap<&str, (usize, u64, u64)> = BTreeMap::new();
    for (i, e) in evs.iter().enumerate() {
        let kids = &mut children[i];
        kids.sort_unstable();
        let (mut covered, mut cursor) = (0u64, e.start);
        for &(s, t) in kids.iter() {
            let (s, t) = (s.max(cursor), t.min(e.end));
            if t > s {
                covered += t - s;
                cursor = t;
            }
        }
        let slot = totals.entry(e.name.as_str()).or_default();
        slot.0 += 1;
        slot.1 += (e.end - e.start) - covered;
        slot.2 += e.end - e.start;
    }
    totals
        .into_iter()
        .map(|(name, (count, self_us, total_us))| SelfTime {
            name: name.to_string(),
            count,
            self_ms: self_us as f64 / 1e3,
            total_ms: total_us as f64 / 1e3,
        })
        .collect()
}
