//! Per-request span traces and critical-path attribution.
//!
//! The auditor proves a run is *correct*; this module explains why it
//! is *slow*. Every request decomposes into queue wait → service
//! (prefill → per-step decode), and every boundary is quantized onto
//! `simcore::trace`'s integer picosecond lattice so the three
//! attribution buckets — queue-bound, compute-bound, transfer-bound —
//! partition the end-to-end latency *exactly*:
//! `queue + compute + transfer == e2e` is a `u64` equality, never a
//! float tolerance.
//!
//! Attribution is computed unconditionally (it reads only instants
//! the simulators already produce, so it costs a handful of integer
//! subtractions per request and never perturbs the f64 timing
//! stream). Span *trees* are collected only when the caller asks for
//! them (a `*_traced` entry point), and every report is bit-identical
//! to the untraced run because the reports never contain the spans —
//! traces travel on a separate channel.
//!
//! Coalesced cluster runs never re-run per-step: decode boundaries
//! are synthesized from the calibrated service model's span
//! arithmetic (`prefill(b) + k * decode_step(b)`), which is the same
//! arithmetic the per-step engine uses to schedule its events, so the
//! synthesized tree is byte-identical to the per-step tree by
//! construction.

use simcore::trace::{validate_nesting, NestingError, TraceSpan};

/// Critical-path attribution: an exact partition of elapsed time into
/// queue-bound, compute-bound, and transfer-bound ticks.
///
/// All fields are integer picoseconds on the `simcore::trace`
/// lattice. The invariant `queue + compute + transfer == total` holds
/// as an equality (see [`Attribution::is_exact`]) because every
/// bucket is a telescoping sum of converted boundaries. Buckets are
/// `u128`: a single request's ticks fit comfortably in `u64`, but a
/// run-level aggregate sums latencies over up to 1e5+ requests, and
/// 1e5 × ~5e16 ticks overflows `u64` — the wider type keeps
/// [`Attribution::absorb`] exact at any scale.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct Attribution {
    /// Ticks spent waiting for admission (zero for offline runs).
    pub queue_ticks: u128,
    /// Ticks where compute bound the critical path.
    pub compute_ticks: u128,
    /// Ticks where weight/KV transfer bound the critical path.
    pub transfer_ticks: u128,
    /// Total attributed ticks (end-to-end latency, or run makespan
    /// when aggregated).
    pub total_ticks: u128,
}

impl Attribution {
    /// Exactness invariant: the three buckets partition the total.
    pub fn is_exact(&self) -> bool {
        self.queue_ticks + self.compute_ticks + self.transfer_ticks == self.total_ticks
    }

    /// Adds another attribution bucket-wise (per-run aggregation).
    pub fn absorb(&mut self, other: Attribution) {
        self.queue_ticks += other.queue_ticks;
        self.compute_ticks += other.compute_ticks;
        self.transfer_ticks += other.transfer_ticks;
        self.total_ticks += other.total_ticks;
    }

    /// Fraction of attributed time that was queue-bound (0 when no
    /// time was attributed).
    pub fn queue_fraction(&self) -> f64 {
        self.fraction(self.queue_ticks)
    }

    /// Fraction of attributed time that was compute-bound.
    pub fn compute_fraction(&self) -> f64 {
        self.fraction(self.compute_ticks)
    }

    /// Fraction of attributed time that was transfer-bound — the
    /// paper's overlap claim in one number: HeLM placements stay
    /// below 0.5, All-CPU baselines do not.
    pub fn transfer_fraction(&self) -> f64 {
        self.fraction(self.transfer_ticks)
    }

    fn fraction(&self, bucket: u128) -> f64 {
        if self.total_ticks == 0 {
            0.0
        } else {
            bucket as f64 / self.total_ticks as f64
        }
    }
}

/// The span tree and attribution of one request.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct RequestTrace {
    /// Request identity (completion order within the run).
    pub id: u64,
    /// Pipeline (offline: always 0) the request was served on.
    pub pipe: u32,
    /// Pre-order, depth-encoded span tree.
    pub spans: Vec<TraceSpan>,
    /// Exact critical-path attribution for this request.
    pub attribution: Attribution,
}

/// All span trees collected from one run.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct Trace {
    /// One entry per completed request, in completion order.
    pub requests: Vec<RequestTrace>,
}

impl Trace {
    /// Total number of spans across all requests.
    pub fn span_count(&self) -> usize {
        self.requests.iter().map(|r| r.spans.len()).sum()
    }

    /// Validates every request's span tree nests without overlap.
    ///
    /// # Errors
    ///
    /// Returns the first structural fault with its request id.
    pub fn validate(&self) -> Result<(), (u64, NestingError)> {
        for req in &self.requests {
            validate_nesting(&req.spans).map_err(|e| (req.id, e))?;
        }
        Ok(())
    }

    /// Renders the trace as chrome-trace JSON (the "trace event
    /// format" loaded by `chrome://tracing` / Perfetto): one complete
    /// (`"ph":"X"`) event per span, with the pipeline as the process
    /// id and the request as the thread id. Timestamps are
    /// microseconds, the format's native unit.
    pub fn to_chrome_json(&self) -> String {
        let mut out = String::with_capacity(64 + self.span_count() * 96);
        out.push_str("{\"displayTimeUnit\":\"ms\",\"traceEvents\":[");
        let mut first = true;
        for req in &self.requests {
            for span in &req.spans {
                if !first {
                    out.push(',');
                }
                first = false;
                out.push_str(&format!(
                    "\n{{\"name\":\"{}\",\"cat\":\"helm\",\"ph\":\"X\",\"ts\":{},\"dur\":{},\
                     \"pid\":{},\"tid\":{}}}",
                    span.name,
                    ticks_to_us(span.start),
                    ticks_to_us(span.end - span.start),
                    req.pipe,
                    req.id,
                ));
            }
        }
        out.push_str("\n]}\n");
        out
    }
}

/// Picosecond ticks → microseconds for chrome-trace timestamps.
fn ticks_to_us(ticks: u64) -> f64 {
    ticks as f64 / 1e6 // lint: allow(raw-unit-arith): tick-lattice to chrome-trace µs encoding
}

/// Summary returned by [`validate_chrome_trace`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ChromeTraceStats {
    /// Number of `"ph":"X"` events in the file.
    pub events: usize,
    /// Number of distinct (pid, tid) tracks.
    pub tracks: usize,
}

/// Parses an exported chrome-trace JSON file and checks that, within
/// each (pid, tid) track, spans nest without overlap. The parser is
/// deliberately minimal — it accepts exactly the subset of JSON that
/// [`Trace::to_chrome_json`] emits (flat complete events with numeric
/// `ts`/`dur`/`pid`/`tid` and string `name`) — because the workspace
/// takes no serde dependency.
///
/// # Errors
///
/// Returns a description of the first parse or nesting fault.
pub fn validate_chrome_trace(text: &str) -> Result<ChromeTraceStats, String> {
    let events_start = text
        .find("\"traceEvents\"")
        .ok_or("missing \"traceEvents\" key")?;
    let open = text[events_start..]
        .find('[')
        .ok_or("missing traceEvents array")?
        + events_start;
    let close = text.rfind(']').ok_or("unterminated traceEvents array")?;
    if close < open {
        return Err("malformed traceEvents array".into());
    }
    // (pid, tid) -> events, kept in file order per track.
    type Track = ((u64, u64), Vec<(f64, f64)>);
    let mut tracks: Vec<Track> = Vec::new();
    let mut events = 0usize;
    for raw in split_objects(&text[open + 1..close]) {
        let ph = field_str(raw, "ph").ok_or_else(|| format!("event missing \"ph\": {raw}"))?;
        if ph != "X" {
            return Err(format!("unsupported event phase {ph:?}"));
        }
        field_str(raw, "name").ok_or_else(|| format!("event missing \"name\": {raw}"))?;
        let ts = field_num(raw, "ts").ok_or_else(|| format!("event missing \"ts\": {raw}"))?;
        let dur = field_num(raw, "dur").ok_or_else(|| format!("event missing \"dur\": {raw}"))?;
        let pid = field_num(raw, "pid").ok_or_else(|| format!("event missing \"pid\": {raw}"))?;
        let tid = field_num(raw, "tid").ok_or_else(|| format!("event missing \"tid\": {raw}"))?;
        if !(ts.is_finite() && dur.is_finite()) || ts < 0.0 || dur < 0.0 {
            return Err(format!("event has invalid ts/dur: {raw}"));
        }
        let key = (pid as u64, tid as u64);
        match tracks.iter_mut().find(|(k, _)| *k == key) {
            Some((_, list)) => list.push((ts, ts + dur)),
            None => tracks.push((key, vec![(ts, ts + dur)])),
        }
        events += 1;
    }
    for ((pid, tid), list) in &tracks {
        check_track_nesting(list).map_err(|e| format!("track pid={pid} tid={tid}: {e}"))?;
    }
    Ok(ChromeTraceStats {
        events,
        tracks: tracks.len(),
    })
}

/// Half a tick in microseconds. True span boundaries are integer
/// picosecond ticks, so a real overlap is at least one full tick
/// (1e-6 µs); the µs float encoding (`ts`, `ts + dur`) carries only
/// rounding noise. Comparing with [`boundary_slack`] therefore
/// rejects every genuine overlap and accepts every genuine nesting.
const HALF_TICK_US: f64 = 0.5e-6; // lint: allow(untyped-unit-const): chrome-trace µs comparison slack, not a simulated quantity

/// Comparison slack for one encoded boundary: half a tick plus a few
/// ULPs at the boundary's own magnitude. `ts` and `dur` are rounded
/// separately and summed, so an event's end carries up to ~2 ULPs of
/// float error — at late timestamps (1e9+ µs) one ULP already
/// exceeds the fixed half-tick term. Eight ULPs stays sub-nanosecond
/// out to 1e8 s of simulated time, orders of magnitude below the
/// shortest attributed segment (~250 µs), so genuine overlaps still
/// fail the check.
fn boundary_slack(at: f64) -> f64 {
    HALF_TICK_US + 8.0 * f64::EPSILON * at.abs()
}

/// Spans in one track must form a proper nesting: each event either
/// nests inside the enclosing open event or starts at/after its end
/// (boundaries compared with [`boundary_slack`]).
fn check_track_nesting(events: &[(f64, f64)]) -> Result<(), String> {
    let mut stack: Vec<(f64, f64)> = Vec::new();
    for &(start, end) in events {
        while let Some(&(_, open_end)) = stack.last() {
            if start >= open_end - boundary_slack(open_end) {
                stack.pop();
            } else {
                break;
            }
        }
        if let Some(&(open_start, open_end)) = stack.last() {
            if start < open_start - boundary_slack(open_start)
                || end > open_end + boundary_slack(open_end)
            {
                return Err(format!(
                    "span [{start}, {end}] overlaps enclosing span [{open_start}, {open_end}]"
                ));
            }
        }
        stack.push((start, end));
    }
    Ok(())
}

/// Splits the inside of a JSON array into top-level `{...}` objects.
/// Tolerates whitespace and trailing commas; rejects nesting deeper
/// than one level (the exporter emits flat objects).
fn split_objects(body: &str) -> impl Iterator<Item = &str> {
    let mut objects = Vec::new();
    let mut depth = 0usize;
    let mut start = None;
    let mut in_string = false;
    let mut escaped = false;
    for (i, c) in body.char_indices() {
        if in_string {
            if escaped {
                escaped = false;
            } else if c == '\\' {
                escaped = true;
            } else if c == '"' {
                in_string = false;
            }
            continue;
        }
        match c {
            '"' => in_string = true,
            '{' => {
                if depth == 0 {
                    start = Some(i);
                }
                depth += 1;
            }
            '}' => {
                depth = depth.saturating_sub(1);
                if depth == 0 {
                    if let Some(s) = start.take() {
                        objects.push(&body[s..=i]);
                    }
                }
            }
            _ => {}
        }
    }
    objects.into_iter()
}

/// Extracts a string field value from a flat JSON object.
fn field_str<'a>(obj: &'a str, key: &str) -> Option<&'a str> {
    let needle = format!("\"{key}\":");
    let at = obj.find(&needle)? + needle.len();
    let rest = obj[at..].trim_start();
    let rest = rest.strip_prefix('"')?;
    let end = rest.find('"')?;
    Some(&rest[..end])
}

/// Extracts a numeric field value from a flat JSON object.
fn field_num(obj: &str, key: &str) -> Option<f64> {
    let needle = format!("\"{key}\":");
    let at = obj.find(&needle)? + needle.len();
    let rest = obj[at..].trim_start();
    let end = rest
        .find(|c: char| !(c.is_ascii_digit() || matches!(c, '.' | '-' | '+' | 'e' | 'E')))
        .unwrap_or(rest.len());
    rest[..end].parse().ok()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(name: &'static str, depth: u32, start: u64, end: u64) -> TraceSpan {
        TraceSpan {
            name,
            depth,
            start,
            end,
        }
    }

    fn sample_trace() -> Trace {
        Trace {
            requests: vec![
                RequestTrace {
                    id: 0,
                    pipe: 0,
                    spans: vec![
                        span("request", 0, 0, 1_000_000),
                        span("queue", 1, 0, 250_000),
                        span("service", 1, 250_000, 1_000_000),
                        span("prefill", 2, 250_000, 500_000),
                        span("decode", 2, 500_000, 1_000_000),
                    ],
                    attribution: Attribution {
                        queue_ticks: 250_000,
                        compute_ticks: 500_000,
                        transfer_ticks: 250_000,
                        total_ticks: 1_000_000,
                    },
                },
                RequestTrace {
                    id: 1,
                    pipe: 1,
                    spans: vec![span("request", 0, 100, 900), span("service", 1, 100, 900)],
                    attribution: Attribution {
                        queue_ticks: 0,
                        compute_ticks: 800,
                        transfer_ticks: 0,
                        total_ticks: 800,
                    },
                },
            ],
        }
    }

    #[test]
    fn attribution_exactness_and_fractions() {
        let a = Attribution {
            queue_ticks: 10,
            compute_ticks: 60,
            transfer_ticks: 30,
            total_ticks: 100,
        };
        assert!(a.is_exact());
        assert_eq!(a.queue_fraction(), 0.1);
        assert_eq!(a.compute_fraction(), 0.6);
        assert_eq!(a.transfer_fraction(), 0.3);
        let empty = Attribution::default();
        assert!(empty.is_exact());
        assert_eq!(empty.transfer_fraction(), 0.0);
    }

    #[test]
    fn absorb_accumulates_bucketwise() {
        let mut total = Attribution::default();
        for _ in 0..3 {
            total.absorb(Attribution {
                queue_ticks: 1,
                compute_ticks: 2,
                transfer_ticks: 3,
                total_ticks: 6,
            });
        }
        assert_eq!(total.total_ticks, 18);
        assert!(total.is_exact());
    }

    #[test]
    fn trace_validates_and_counts() {
        let trace = sample_trace();
        assert_eq!(trace.span_count(), 7);
        trace.validate().unwrap();
    }

    #[test]
    fn broken_tree_reports_request_id() {
        let mut trace = sample_trace();
        trace.requests[1].spans.push(span("bad", 1, 0, 5_000));
        let (id, err) = trace.validate().unwrap_err();
        assert_eq!(id, 1);
        assert!(err.reason.contains("sibling") || err.reason.contains("escapes"));
    }

    #[test]
    fn chrome_export_round_trips_through_validator() {
        let json = sample_trace().to_chrome_json();
        let stats = validate_chrome_trace(&json).unwrap();
        assert_eq!(stats.events, 7);
        assert_eq!(stats.tracks, 2);
    }

    #[test]
    fn validator_rejects_overlapping_spans() {
        let json = "{\"traceEvents\":[\
            {\"name\":\"a\",\"cat\":\"x\",\"ph\":\"X\",\"ts\":0,\"dur\":10,\"pid\":0,\"tid\":0},\
            {\"name\":\"b\",\"cat\":\"x\",\"ph\":\"X\",\"ts\":5,\"dur\":10,\"pid\":0,\"tid\":0}\
            ]}";
        let err = validate_chrome_trace(json).unwrap_err();
        assert!(err.contains("overlaps"), "unexpected error: {err}");
    }

    #[test]
    fn validator_rejects_missing_fields_and_garbage() {
        assert!(validate_chrome_trace("not json").is_err());
        assert!(validate_chrome_trace("{\"other\":[]}").is_err());
        let missing_ts = "{\"traceEvents\":[\
            {\"name\":\"a\",\"ph\":\"X\",\"dur\":10,\"pid\":0,\"tid\":0}]}";
        assert!(validate_chrome_trace(missing_ts).is_err());
    }

    #[test]
    fn validator_accepts_empty_trace() {
        let stats = validate_chrome_trace("{\"traceEvents\":[]}").unwrap();
        assert_eq!(stats.events, 0);
        assert_eq!(stats.tracks, 0);
    }
}
