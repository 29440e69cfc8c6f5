//! Per-transaction structured event recording and Chrome trace export.
//!
//! Events live in a bounded ring buffer ([`TraceBuffer`]); when full, the
//! *oldest* events are dropped and counted, so a long run keeps its tail
//! and the exporter can report exactly how much was lost. The export format
//! is the Chrome `trace_event` JSON array (`{"traceEvents": [...]}`):
//! complete spans (`ph:"X"`) with microsecond timestamps, one track (`tid`)
//! per processor, loadable directly in Perfetto or `chrome://tracing`.

use std::collections::VecDeque;

use ringsim_types::Time;

/// One trace event. Timestamps/durations are picoseconds of simulated time
/// (converted to fractional microseconds on export, as the format requires).
#[derive(Debug, Clone, PartialEq)]
pub struct TraceEvent {
    /// Event name (e.g. `"miss"`, `"probe"`, `"retry"`).
    pub name: &'static str,
    /// Category (e.g. `"txn"`, `"phase"`).
    pub cat: &'static str,
    /// Phase: `'X'` complete span, `'i'` instant.
    pub ph: char,
    /// Start timestamp in picoseconds.
    pub ts_ps: u64,
    /// Duration in picoseconds (0 for instants).
    pub dur_ps: u64,
    /// Track id: the processor/node index.
    pub tid: u32,
    /// Extra `args` rendered as string values.
    pub args: Vec<(&'static str, String)>,
}

/// Bounded FIFO of trace events; drops (and counts) the oldest when full.
#[derive(Debug, Clone)]
pub struct TraceBuffer {
    events: VecDeque<TraceEvent>,
    cap: usize,
    dropped: u64,
}

/// Default event capacity — comfortably holds every event of the default
/// CLI run while bounding pathological ones.
pub const DEFAULT_TRACE_CAPACITY: usize = 1 << 20;

impl TraceBuffer {
    /// Creates an empty buffer holding at most `cap` events. A zero
    /// capacity records nothing: [`push`](Self::push) is a no-op.
    #[must_use]
    pub fn new(cap: usize) -> Self {
        Self { events: VecDeque::new(), cap, dropped: 0 }
    }

    /// Appends an event, evicting the oldest (and counting it in
    /// [`dropped`](Self::dropped)) if at capacity. Whoever drains the
    /// buffer decides how to report drops; `ringsim sim` warns on stderr.
    pub fn push(&mut self, ev: TraceEvent) {
        if self.cap == 0 {
            return;
        }
        if self.events.len() == self.cap {
            self.events.pop_front();
            self.dropped += 1;
        }
        self.events.push_back(ev);
    }

    /// Retained events, oldest first.
    pub fn events(&self) -> impl Iterator<Item = &TraceEvent> {
        self.events.iter()
    }

    /// Number of retained events.
    #[must_use]
    pub fn len(&self) -> usize {
        self.events.len()
    }

    /// Whether no events are retained.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.events.is_empty()
    }

    /// Number of events evicted because the buffer was full.
    #[must_use]
    pub fn dropped(&self) -> u64 {
        self.dropped
    }

    /// Renders the buffer as Chrome `trace_event` JSON.
    ///
    /// Timestamps are microseconds with 6 decimal places — exact picosecond
    /// precision survives the round-trip. `pid` is always 1 (one simulated
    /// machine); `tid` is the processor index, with thread-name metadata so
    /// Perfetto labels tracks `P0`, `P1`, ….
    #[must_use]
    pub fn to_chrome_json(&self) -> String {
        let mut out = String::with_capacity(128 * (self.events.len() + 2));
        out.push_str("{\"displayTimeUnit\":\"ns\",\"traceEvents\":[\n");
        out.push_str(
            "{\"name\":\"process_name\",\"ph\":\"M\",\"ts\":0,\"pid\":1,\"tid\":0,\
             \"args\":{\"name\":\"ringsim\"}}",
        );
        let mut tids: Vec<u32> = self.events.iter().map(|e| e.tid).collect();
        tids.sort_unstable();
        tids.dedup();
        for tid in tids {
            out.push_str(&format!(
                ",\n{{\"name\":\"thread_name\",\"ph\":\"M\",\"ts\":0,\"pid\":1,\
                 \"tid\":{tid},\"args\":{{\"name\":\"P{tid}\"}}}}"
            ));
        }
        for ev in &self.events {
            out.push_str(",\n");
            out.push_str(&Self::event_json(ev));
        }
        out.push_str("\n]");
        // Always present, so truncated traces are detectable (a missing
        // counter is indistinguishable from zero in older files).
        out.push_str(&format!(",\"droppedEvents\":{}", self.dropped));
        out.push_str("}\n");
        out
    }

    fn event_json(ev: &TraceEvent) -> String {
        // Microseconds with full picosecond precision (1 ps = 1e-6 us).
        let ts_us = format!("{:.6}", ev.ts_ps as f64 / 1e6);
        let mut s = format!(
            "{{\"name\":\"{}\",\"cat\":\"{}\",\"ph\":\"{}\",\"ts\":{},\"pid\":1,\"tid\":{}",
            ev.name, ev.cat, ev.ph, ts_us, ev.tid
        );
        if ev.ph == 'X' {
            s.push_str(&format!(",\"dur\":{:.6}", ev.dur_ps as f64 / 1e6));
        }
        if !ev.args.is_empty() {
            s.push_str(",\"args\":{");
            for (i, (k, v)) in ev.args.iter().enumerate() {
                if i > 0 {
                    s.push(',');
                }
                s.push_str(&format!("\"{k}\":\"{}\"", escape(v)));
            }
            s.push('}');
        }
        s.push('}');
        s
    }
}

fn escape(s: &str) -> String {
    let mut out = String::with_capacity(s.len());
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
            c => out.push(c),
        }
    }
    out
}

/// Convenience: builds a complete-span event.
#[must_use]
pub fn span(name: &'static str, cat: &'static str, tid: u32, start: Time, end: Time) -> TraceEvent {
    TraceEvent {
        name,
        cat,
        ph: 'X',
        ts_ps: start.as_ps(),
        dur_ps: end.as_ps().saturating_sub(start.as_ps()),
        tid,
        args: Vec::new(),
    }
}

/// Convenience: builds an instant event.
#[must_use]
pub fn instant(name: &'static str, cat: &'static str, tid: u32, at: Time) -> TraceEvent {
    TraceEvent { name, cat, ph: 'i', ts_ps: at.as_ps(), dur_ps: 0, tid, args: Vec::new() }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn bounded_fifo_counts_drops() {
        let mut b = TraceBuffer::new(2);
        for i in 0..5u64 {
            b.push(instant("x", "t", 0, Time::from_ns(i)));
        }
        assert_eq!(b.len(), 2);
        assert_eq!(b.dropped(), 3);
        // Tail retained.
        let ts: Vec<u64> = b.events().map(|e| e.ts_ps).collect();
        assert_eq!(ts, vec![3000, 4000]);
    }

    #[test]
    fn chrome_json_has_required_fields() {
        let mut b = TraceBuffer::new(16);
        b.push(span("miss", "txn", 3, Time::from_ns(10), Time::from_ns(25)));
        let json = b.to_chrome_json();
        assert!(json.contains("\"traceEvents\""));
        assert!(json.contains("\"ph\":\"X\""));
        assert!(json.contains("\"pid\":1"));
        assert!(json.contains("\"tid\":3"));
        // 10 ns = 0.01 us; 15 ns dur = 0.015 us.
        assert!(json.contains("\"ts\":0.010000"));
        assert!(json.contains("\"dur\":0.015000"));
        let parsed = serde_json::parse_value(&json).expect("chrome export must be valid JSON");
        assert!(parsed.get("traceEvents").is_some());
        // The drop counter is always in the footer, even when zero.
        assert_eq!(parsed.get("droppedEvents").and_then(serde::Value::as_u64), Some(0));
    }

    #[test]
    fn chrome_json_reports_drop_count() {
        let mut b = TraceBuffer::new(2);
        for i in 0..5u64 {
            b.push(instant("x", "t", 0, Time::from_ns(i)));
        }
        let parsed = serde_json::parse_value(&b.to_chrome_json()).unwrap();
        assert_eq!(parsed.get("droppedEvents").and_then(serde::Value::as_u64), Some(3));
    }

    #[test]
    fn escape_quotes() {
        assert_eq!(escape("a\"b\\c"), "a\\\"b\\\\c");
    }
}
