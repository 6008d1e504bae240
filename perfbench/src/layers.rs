//! The traced run. A traced op is a fresh process of this benchmark
//! (`perfbench trace-op`) that calls each layer's public function in the
//! CLI's order and with the CLI's settings, recording a span (and, per
//! stage, the peak-RSS delta) around every call. Running it as its own
//! process gives the layers the same cold heap the CLI child has.

use crate::stats::{digest, quantile};
use crate::sys::{peak_rss_kb, reset_peak_rss, rss_kb};
use autofocus::{aggregate_patterns, CausalRelation, Pattern, PatternConfig};
use microscope::{
    diagnoses_to_relations, find_victims_with, DiagnosisConfig, DiagnosisIndex, LatencyThreshold,
    Microscope,
};
use msc_collector::{load_bundle, BundleChunkReader};
use msc_stream::{StreamConfig, StreamEngine};
use msc_trace::{
    assemble, match_all, EdgeStreams, Reconstruction, ReconstructionConfig, Timelines,
};
use nf_types::{parse_topology, NfId, NfKind, Topology};
use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::path::Path;
use std::time::Instant;

/// The CLI's relation sample cap (`report_diagnosis`'s `MAX_RELATIONS`).
pub const CLI_MAX_RELATIONS: usize = 2_000;

/// The CLI's victim cap.
pub const CLI_MAX_VICTIMS: usize = 5_000;

/// One timed layer call.
#[derive(Debug, Clone, PartialEq)]
pub struct Span {
    pub name: String,
    pub op: u32,
    pub parent: Option<usize>,
    pub start_ns: u64,
    pub end_ns: u64,
    /// Peak RSS above the RSS at the span's start, KiB (stage spans only:
    /// resetting the peak costs a page-table walk, too much per chunk).
    pub rss_peak_delta_kb: Option<i64>,
}

impl Span {
    pub fn ms(&self) -> f64 {
        (self.end_ns - self.start_ns) as f64 / 1e6
    }
}

/// In-memory span recorder.
pub struct Tracer {
    epoch: Instant,
    pub spans: Vec<Span>,
    open: Vec<(usize, Option<u64>)>,
}

impl Tracer {
    pub fn new() -> Self {
        Self {
            epoch: Instant::now(),
            spans: Vec::new(),
            open: Vec::new(),
        }
    }

    fn now_ns(&self) -> u64 {
        u64::try_from(self.epoch.elapsed().as_nanos()).unwrap_or(u64::MAX)
    }

    /// Opens a span under the innermost open one.
    pub fn begin(&mut self, name: &str) -> usize {
        self.open_span(name, None)
    }

    /// [`Tracer::begin`] for a stage, also tracking its peak-RSS delta.
    pub fn begin_stage(&mut self, name: &str) -> usize {
        reset_peak_rss();
        self.open_span(name, Some(rss_kb()))
    }

    fn open_span(&mut self, name: &str, rss0: Option<u64>) -> usize {
        let id = self.spans.len();
        self.spans.push(Span {
            name: name.to_string(),
            op: 0,
            parent: self.open.last().map(|&(p, _)| p),
            start_ns: self.now_ns(),
            end_ns: 0,
            rss_peak_delta_kb: None,
        });
        self.open.push((id, rss0));
        id
    }

    pub fn end(&mut self, id: usize) {
        let end = self.now_ns();
        let (top, rss0) = self.open.pop().expect("an open span");
        assert_eq!(top, id, "spans close innermost first");
        let s = &mut self.spans[id];
        s.end_ns = end;
        if let Some(rss0) = rss0 {
            s.rss_peak_delta_kb = Some(peak_rss_kb() as i64 - rss0 as i64);
        }
    }

    /// Adds another process's spans as op `op`.
    pub fn adopt(&mut self, op: u32, spans: Vec<Span>) {
        let base = self.spans.len();
        self.spans.extend(spans.into_iter().map(|s| Span {
            op,
            parent: s.parent.map(|p| p + base),
            ..s
        }));
    }

    /// One JSON object per span.
    pub fn to_jsonl(&self) -> String {
        let mut out = String::new();
        for (i, s) in self.spans.iter().enumerate() {
            let parent = s.parent.map_or("null".to_string(), |p| p.to_string());
            let rss = s
                .rss_peak_delta_kb
                .map_or("null".to_string(), |k| k.to_string());
            let _ = writeln!(
                out,
                "{{\"id\": {i}, \"op\": {}, \"name\": \"{}\", \"parent\": {parent}, \
                 \"start_ns\": {}, \"end_ns\": {}, \"rss_peak_delta_kb\": {rss}}}",
                s.op, s.name, s.start_ns, s.end_ns
            );
        }
        out
    }
}

/// Which layers a traced process runs, in this order.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct Steps {
    /// `diagnose`'s reconstruction: load, streams, match, assemble,
    /// timelines.
    pub offline: bool,
    /// `stream`'s reconstruction: chunk reads, pushes, finish.
    pub stream: bool,
    /// Victims, index, walk, relations, on the first reconstruction.
    pub core: bool,
    /// The CLI's aggregation: of a uniform-stride sample of at most
    /// [`CLI_MAX_RELATIONS`] of the core's relations.
    pub aggregate: bool,
    /// Exact aggregation of every relation in `relations.txt`, first, on
    /// the same fresh heap the untraced `bug-patterns` op has.
    pub relations_file: bool,
    pub max_victims: usize,
}

impl Steps {
    pub fn to_args(self) -> Vec<String> {
        let mut v: Vec<&str> = Vec::new();
        for (on, name) in [
            (self.offline, "offline"),
            (self.stream, "stream"),
            (self.core, "core"),
            (self.aggregate, "aggregate"),
            (self.relations_file, "relations-file"),
        ] {
            if on {
                v.push(name);
            }
        }
        vec![v.join(","), self.max_victims.to_string()]
    }

    pub fn parse(steps: &str, max_victims: &str) -> Result<Steps, String> {
        let mut s = Steps {
            max_victims: max_victims
                .parse()
                .map_err(|_| format!("bad victim cap {max_victims:?}"))?,
            ..Default::default()
        };
        for w in steps.split(',').filter(|w| !w.is_empty()) {
            match w {
                "offline" => s.offline = true,
                "stream" => s.stream = true,
                "core" => s.core = true,
                "aggregate" => s.aggregate = true,
                "relations-file" => s.relations_file = true,
                _ => return Err(format!("unknown step {w:?}")),
            }
        }
        Ok(s)
    }
}

/// Digest of a pattern list, exact to the bit of every score.
pub fn patterns_digest(patterns: &[Pattern]) -> String {
    let mut s = String::new();
    for p in patterns {
        let _ = writeln!(s, "{p} {:016x}", p.score.to_bits());
    }
    digest(s.as_bytes())
}

/// The CLI's diagnosis settings (`--threads 1`, cache on, p99 victims)
/// with the given victim cap.
pub fn diagnosis_config(max_victims: usize) -> DiagnosisConfig {
    let mut dc = DiagnosisConfig {
        threads: 1,
        cache: true,
        ..Default::default()
    };
    dc.victims.latency = LatencyThreshold::Quantile(0.99);
    dc.victims.max_victims = Some(max_victims);
    dc
}

fn load_deployment(path: &Path) -> Result<(Topology, Vec<f64>), String> {
    let text =
        std::fs::read_to_string(path).map_err(|e| format!("read {}: {e}", path.display()))?;
    parse_topology(&text).map_err(|e| format!("{}: {e}", path.display()))
}

/// `diagnose`'s reconstruction half.
fn offline_path(
    tr: &mut Tracer,
    topology: &Topology,
    whole: &Path,
) -> Result<(Reconstruction, Timelines), String> {
    let s = tr.begin_stage("collector.load");
    let bundle = load_bundle(whole).map_err(|e| format!("load {}: {e}", whole.display()))?;
    tr.end(s);
    let s = tr.begin_stage("trace.streams");
    let streams = EdgeStreams::build(topology, &bundle);
    tr.end(s);
    let cfg = ReconstructionConfig {
        threads: 1,
        ..Default::default()
    };
    let s = tr.begin_stage("trace.match");
    let matches = match_all(&streams, topology, &cfg);
    tr.end(s);
    let s = tr.begin_stage("trace.assemble");
    let recon = assemble(topology, &bundle, streams, &matches);
    tr.end(s);
    let s = tr.begin_stage("trace.timelines");
    let timelines = Timelines::build(&recon);
    tr.end(s);
    Ok((recon, timelines))
}

/// `stream`'s reconstruction half. Also returns the frontier peak and the
/// traces committed before finish.
fn stream_path(
    tr: &mut Tracer,
    topology: &Topology,
    chunked: &Path,
) -> Result<(Reconstruction, Timelines, usize, usize), String> {
    let mut engine = StreamEngine::new(topology, StreamConfig::default());
    let ingest = tr.begin_stage("stream.ingest");
    let s = tr.begin("collector.chunk_read");
    let opened = BundleChunkReader::open(chunked);
    tr.end(s);
    let mut rdr = opened.map_err(|e| format!("open {}: {e}", chunked.display()))?;
    loop {
        let s = tr.begin("collector.chunk_read");
        let chunk = rdr.next_chunk();
        tr.end(s);
        let Some(chunk) = chunk.map_err(|e| format!("read {}: {e}", chunked.display()))? else {
            break;
        };
        let s = tr.begin("stream.push");
        let pushed = engine.push_chunk(&chunk);
        tr.end(s);
        pushed.map_err(|e| format!("{e}"))?;
    }
    tr.end(ingest);
    let frontier = engine.working_set_peak();
    let committed = engine.committed();
    let s = tr.begin_stage("stream.finish");
    let (recon, timelines) = engine.finish();
    tr.end(s);
    Ok((recon, timelines, frontier, committed))
}

/// The diagnosis core up to relation building, as `report_diagnosis`
/// calls it. Victim selection and the index are timed as their own calls
/// before `diagnose_all_stats` repeats them internally; the walk is its
/// self time.
fn core_path(
    tr: &mut Tracer,
    topology: &Topology,
    rates: Vec<f64>,
    recon: &Reconstruction,
    timelines: &Timelines,
    dc: DiagnosisConfig,
    values: &mut BTreeMap<String, f64>,
) -> Vec<CausalRelation> {
    let s = tr.begin_stage("core.victims");
    drop(find_victims_with(recon, &dc.victims, dc.threads));
    tr.end(s);
    let s = tr.begin_stage("core.index");
    drop(DiagnosisIndex::build(recon, timelines));
    tr.end(s);
    let engine = Microscope::new(topology.clone(), rates, dc);
    let s = tr.begin_stage("core.walk");
    let (diagnoses, stats) = engine.diagnose_all_stats(recon, timelines);
    tr.end(s);
    let s = tr.begin_stage("core.relations");
    let relations = diagnoses_to_relations(recon, &diagnoses);
    tr.end(s);
    values.insert("core.cache_hit_ratio".into(), stats.hit_rate());
    values.insert("core.victims".into(), diagnoses.len() as f64);
    values.insert("core.relations".into(), relations.len() as f64);
    relations
}

/// `aggregate_patterns` at th = 1%, as the CLI calls it; returns the
/// pattern digest.
fn aggregate(
    tr: &mut Tracer,
    relations: &[CausalRelation],
    kinds: &[NfKind],
    values: &mut BTreeMap<String, f64>,
) -> String {
    let s = tr.begin_stage("autofocus.aggregate");
    let patterns = aggregate_patterns(relations, &PatternConfig::default(), &|id: NfId| {
        kinds[id.0 as usize]
    });
    tr.end(s);
    values.insert("autofocus.relations_in".into(), relations.len() as f64);
    values.insert("autofocus.patterns_out".into(), patterns.len() as f64);
    patterns_digest(&patterns)
}

/// The metric a span's duration adds to, if any.
fn span_metric(name: &str) -> Option<&'static str> {
    Some(match name {
        "collector.load" => "collector.load_ms",
        "collector.chunk_read" => "collector.chunk_read_ms",
        "trace.streams" => "trace.streams_ms",
        "trace.match" => "trace.match_ms",
        "trace.assemble" => "trace.assemble_ms",
        "trace.timelines" => "trace.timelines_ms",
        "stream.push" => "stream.push_ms",
        "stream.finish" => "stream.finish_ms",
        "core.victims" => "core.victims_ms",
        "core.index" => "core.index_ms",
        "core.walk" => "core.walk_ms",
        "core.relations" => "core.relations_ms",
        "autofocus.aggregate" => "autofocus.aggregate_ms",
        _ => return None,
    })
}

/// Per-layer times, per-stage RSS deltas and per-window push percentiles
/// from one process's spans.
pub fn span_values(spans: &[Span], values: &mut BTreeMap<String, f64>) {
    let mut pushes = Vec::new();
    for s in spans {
        if let Some(key) = span_metric(&s.name) {
            *values.entry(key.to_string()).or_insert(0.0) += s.ms();
        }
        if s.name == "stream.push" {
            pushes.push(s.ms());
        }
        if let Some(kb) = s.rss_peak_delta_kb {
            let stage = if s.name == "stream.ingest" {
                "stream.push"
            } else {
                &s.name
            };
            values.insert(format!("{stage}.rss_peak_delta_mb"), kb as f64 / 1024.0);
        }
    }
    if !pushes.is_empty() {
        values.insert("stream.window_p50_ms".into(), quantile(&pushes, 0.5));
        values.insert("stream.window_p90_ms".into(), quantile(&pushes, 0.9));
    }
    if let Some(walk) = values.get("core.walk_ms").copied() {
        let repeated = values["core.victims_ms"] + values["core.index_ms"];
        values.insert("core.walk_ms".into(), walk - repeated);
    }
}

/// `perfbench trace-op`: runs `steps` on the recording in `dir` and
/// prints its spans, values and pattern digest, one per line.
pub fn trace_op(dir: &Path, steps: Steps) -> Result<String, String> {
    let mut tr = Tracer::new();
    let root = tr.begin("op");
    let (topology, rates) = load_deployment(&dir.join("topology.txt"))?;
    let kinds: Vec<NfKind> = topology.nfs().iter().map(|n| n.kind).collect();
    let mut values = BTreeMap::new();
    let mut digest_line = String::new();
    if steps.relations_file {
        let path = dir.join("relations.txt");
        let text =
            std::fs::read_to_string(&path).map_err(|e| format!("read {}: {e}", path.display()))?;
        let relations = crate::workload::parse_relations(&text)?;
        digest_line = aggregate(&mut tr, &relations, &kinds, &mut values);
    }
    let mut recon = None;
    if steps.offline {
        let (r, t) = offline_path(&mut tr, &topology, &dir.join("run.msc"))?;
        let traces = r.report.total.max(1) as f64;
        values.insert(
            "trace.ambiguity_ratio".into(),
            r.report.ambiguities as f64 / traces,
        );
        recon = Some((r, t));
    }
    if steps.stream {
        let (r, t, frontier, committed) = stream_path(&mut tr, &topology, &dir.join("run.mscs"))?;
        let traces = r.report.total.max(1) as f64;
        values.insert("stream.frontier_peak_bytes".into(), frontier as f64);
        values.insert(
            "stream.committed_early_ratio".into(),
            committed as f64 / traces,
        );
        recon.get_or_insert((r, t));
    }
    if steps.core {
        let (r, t) = recon.as_ref().ok_or("core needs a reconstruction step")?;
        // The counts the CLI prints, from the reconstruction it diagnoses.
        values.insert("count.traces".into(), r.report.total as f64);
        values.insert("count.ambiguities".into(), r.report.ambiguities as f64);
        let dc = diagnosis_config(steps.max_victims);
        let mut relations = core_path(&mut tr, &topology, rates, r, t, dc, &mut values);
        if steps.aggregate {
            if relations.len() > CLI_MAX_RELATIONS {
                let stride = relations.len() / CLI_MAX_RELATIONS + 1;
                relations = relations.into_iter().step_by(stride).collect();
            }
            digest_line = aggregate(&mut tr, &relations, &kinds, &mut values);
        }
    }
    tr.end(root);
    span_values(&tr.spans, &mut values);

    let mut out = String::new();
    for s in &tr.spans {
        let opt = |v: Option<String>| v.unwrap_or_else(|| "-".to_string());
        let _ = writeln!(
            out,
            "span {} {} {} {} {}",
            s.name,
            opt(s.parent.map(|p| p.to_string())),
            s.start_ns,
            s.end_ns,
            opt(s.rss_peak_delta_kb.map(|k| k.to_string()))
        );
    }
    for (k, v) in &values {
        let _ = writeln!(out, "value {k} {v:?}");
    }
    let _ = writeln!(out, "digest {digest_line}");
    Ok(out)
}

/// What one `trace-op` process printed.
#[derive(Debug, Default)]
pub struct TraceOutput {
    pub spans: Vec<Span>,
    pub values: BTreeMap<String, f64>,
    pub patterns_digest: String,
}

pub fn parse_trace_output(text: &str) -> Result<TraceOutput, String> {
    let mut out = TraceOutput::default();
    let bad = |l: &str| format!("bad trace-op line {l:?}");
    for line in text.lines() {
        let w: Vec<&str> = line.split_whitespace().collect();
        match w.first().copied() {
            Some("span") if w.len() == 6 => {
                let num = |s: &str| s.parse::<u64>().map_err(|_| bad(line));
                out.spans.push(Span {
                    name: w[1].to_string(),
                    op: 0,
                    parent: if w[2] == "-" {
                        None
                    } else {
                        Some(num(w[2])? as usize)
                    },
                    start_ns: num(w[3])?,
                    end_ns: num(w[4])?,
                    rss_peak_delta_kb: if w[5] == "-" {
                        None
                    } else {
                        Some(w[5].parse().map_err(|_| bad(line))?)
                    },
                });
            }
            Some("value") if w.len() == 3 => {
                out.values
                    .insert(w[1].to_string(), w[2].parse().map_err(|_| bad(line))?);
            }
            Some("digest") => out.patterns_digest = w.get(1).unwrap_or(&"").to_string(),
            _ => return Err(bad(line)),
        }
    }
    Ok(out)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn steps_round_trip() {
        let s = Steps {
            offline: true,
            core: true,
            aggregate: true,
            max_victims: 7,
            ..Default::default()
        };
        let a = s.to_args();
        assert_eq!(Steps::parse(&a[0], &a[1]).unwrap(), s);
        assert!(Steps::parse("warp", "1").is_err());
    }

    #[test]
    fn walk_is_self_time_and_spans_survive_the_pipe() {
        let mut tr = Tracer::new();
        let root = tr.begin("op");
        for name in [
            "core.victims",
            "core.index",
            "core.walk",
            "stream.push",
            "stream.push",
        ] {
            let s = tr.begin(name);
            std::thread::sleep(std::time::Duration::from_millis(2));
            tr.end(s);
        }
        tr.end(root);
        let mut v = BTreeMap::new();
        span_values(&tr.spans, &mut v);
        let total_walk = tr.spans[3].ms();
        assert!(
            (v["core.walk_ms"] - (total_walk - tr.spans[1].ms() - tr.spans[2].ms())).abs() < 1e-9
        );
        assert!(v["stream.window_p90_ms"] >= v["stream.window_p50_ms"]);

        let mut text = String::new();
        for s in &tr.spans {
            let p = s.parent.map_or("-".to_string(), |p| p.to_string());
            text.push_str(&format!(
                "span {} {p} {} {} -\n",
                s.name, s.start_ns, s.end_ns
            ));
        }
        text.push_str("value core.victims 12.0\ndigest abc\n");
        let parsed = parse_trace_output(&text).unwrap();
        assert_eq!(parsed.spans, tr.spans);
        assert_eq!(parsed.values["core.victims"], 12.0);
        assert_eq!(parsed.patterns_digest, "abc");
        assert!(parse_trace_output("span x").is_err());
    }
}
