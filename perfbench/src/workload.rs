//! Set-up, the timed closed loop, and the traced run of each workload.

use crate::check::{check_op, parse_recorded, parse_report, Expected};
use crate::layers::{
    diagnosis_config, parse_trace_output, patterns_digest, Steps, Tracer, CLI_MAX_VICTIMS,
};
use crate::reference;
use crate::spec::{Kind, Size, Workload, BUG_SCENARIO_SEED, INTERRUPT_NF, INTERRUPT_US, PER_LAYER};
use crate::stats::{digest, median, quantile};
use crate::sys::{run_child, ChildRun};
use autofocus::{aggregate_patterns, CausalRelation, Location, PatternConfig};
use microscope::{diagnoses_to_relations, Microscope};
use msc_collector::{chunk_bundle, save_bundle, save_bundle_chunked};
use msc_experiments::inject::{paper_bug_aggregate, paper_bug_flows, BugSpec, InjectionPlan};
use msc_trace::{reconstruct, ReconstructionConfig, Timelines};
use nf_sim::{paper_nf_configs, SimConfig, Simulation};
use nf_traffic::{CaidaLike, CaidaLikeConfig, Schedule};
use nf_types::{
    emit_topology, paper_topology, parse_topology, FiveTuple, NfId, NfKind, Proto, MICROS, MILLIS,
};
use std::collections::BTreeMap;
use std::path::{Path, PathBuf};
use std::time::{Duration, Instant};

/// Set-ups per untraced run; `setup_s` is their median.
const SETUPS: usize = 3;

/// One run's settings.
pub struct RunArgs<'a> {
    pub workload: &'a Workload,
    pub size: Size,
    pub seed: u64,
    pub seconds: f64,
    pub trace: bool,
    /// The `microscope` binary, built from the current tree.
    pub cli: &'a Path,
    /// Scratch directory for this run's recording.
    pub work: &'a Path,
}

type MetricRow = (&'static str, f64, &'static str, usize);

/// What one run measured.
pub struct Outcome {
    pub attempted: u64,
    pub failed: u64,
    /// (name, value, unit, samples)
    pub metrics: Vec<MetricRow>,
    /// Human-readable lines: digests, sample spreads, failures.
    pub notes: Vec<String>,
    pub spans: Option<Tracer>,
}

/// Failure accounting over a run's ops.
#[derive(Default)]
pub struct Tally {
    pub attempted: u64,
    pub failed: u64,
    pub first_failure: Option<String>,
}

impl Tally {
    /// Counts one op; a failed op yields `None`.
    pub fn record<T>(&mut self, verdict: Result<T, String>) -> Option<T> {
        self.attempted += 1;
        match verdict {
            Ok(v) => Some(v),
            Err(e) => {
                self.failed += 1;
                self.first_failure.get_or_insert(e);
                None
            }
        }
    }
}

/// Untraced samples of one run.
#[derive(Default)]
struct Samples {
    walls: Vec<f64>,
    rss_mb: Vec<f64>,
}

fn s(v: impl ToString) -> String {
    v.to_string()
}

fn path_arg(p: &Path) -> String {
    p.to_string_lossy().into_owned()
}

/// Repeats `op` until `seconds` have passed (at least once).
fn closed_loop(seconds: f64, mut op: impl FnMut() -> Result<(), String>) -> Result<(), String> {
    let until = Instant::now() + Duration::from_secs_f64(seconds);
    loop {
        op()?;
        if Instant::now() >= until {
            return Ok(());
        }
    }
}

pub fn run(a: &RunArgs) -> Result<Outcome, String> {
    match a.workload.kind {
        Kind::Offline | Kind::Stream => run_cli_workload(a),
        Kind::Patterns => run_patterns_workload(a),
    }
}

/// What the timed loop collected besides the untraced samples.
struct Measured {
    ops: Vec<TracedOp>,
    spans: Option<Tracer>,
    /// Wall seconds of the reference job run before each untraced op.
    refs: Vec<f64>,
}

/// The timed loop: the reference job, then one untraced op, for the whole
/// run. Traced, each untraced op is followed by the reference job again
/// and one traced op, so both halves see the same host conditions and the
/// same lead-in: an op that follows the traced op's memory-heavy off-path
/// process directly runs ~15% slower.
fn measure(
    a: &RunArgs,
    tally: &mut Tally,
    mut untraced: impl FnMut(&mut Tally) -> Result<(), String>,
    dir: &Path,
    (on, off): (Steps, Steps),
    check: impl Fn(&TracedOp) -> Result<(), String>,
) -> Result<Measured, String> {
    let mut m = Measured {
        ops: Vec::new(),
        spans: a.trace.then(Tracer::new),
        refs: Vec::new(),
    };
    let mut n = 0;
    closed_loop(a.seconds, || {
        m.refs.push(reference::run());
        untraced(tally)?;
        let Some(tr) = m.spans.as_mut() else {
            return Ok(());
        };
        reference::run();
        n += 1;
        // The off-path layers run once per run: they cost 2–4 times the op.
        let off = if n == 1 { off } else { Steps::default() };
        let verdict = traced_op(tr, n, dir, on, off).and_then(|op| check(&op).map(|()| op));
        if let Some(op) = tally.record(verdict) {
            m.ops.push(op);
        }
        Ok(())
    })?;
    Ok(m)
}

// ---------------------------------------------------------------- CLI ops

/// `microscope record` of the paper-16 scenario with one mid-run `nat2`
/// interrupt. Returns the set-up time and the source packet count.
fn record(a: &RunArgs, dir: &Path, chunked: bool) -> Result<(f64, u64), String> {
    let _ = std::fs::remove_dir_all(dir);
    let z = a.size;
    let mut args = vec![
        s("record"),
        s("--out"),
        path_arg(dir),
        s("--millis"),
        s(z.millis),
        s("--rate"),
        s(z.rate_mpps),
        s("--seed"),
        s(a.seed),
        s("--interrupt"),
        format!("{INTERRUPT_NF}:{}:{INTERRUPT_US}", z.millis / 2),
    ];
    if chunked {
        args.extend([s("--chunk-ms"), s(z.chunk_ms)]);
    }
    let r = run_child(a.cli, &args)?;
    if r.code != Some(0) {
        return Err(format!(
            "record failed: {}",
            String::from_utf8_lossy(&r.stderr)
        ));
    }
    Ok((
        r.wall_s,
        parse_recorded(&String::from_utf8_lossy(&r.stdout))?,
    ))
}

fn cli_op(cli: &Path, cmd: &str, topology: &Path, bundle: &Path) -> Result<ChildRun, String> {
    let args = [
        s(cmd),
        s("--topology"),
        path_arg(topology),
        s("--bundle"),
        path_arg(bundle),
        s("--threads"),
        s(1),
    ];
    run_child(cli, &args)
}

fn run_cli_workload(a: &RunArgs) -> Result<Outcome, String> {
    let dir = a.work.join("rec");
    let stream = a.workload.kind == Kind::Stream;
    let mut setups = Vec::new();
    let mut packets = 0;
    let mut bundle_digest: Option<String> = None;
    for _ in 0..if a.trace { 1 } else { SETUPS } {
        // The traced run streams the recording on both workloads.
        let (t, n) = record(a, &dir, stream || a.trace)?;
        setups.push(t);
        packets = n;
        // The same seed must give the same recording.
        let bytes = std::fs::read(dir.join("run.msc")).map_err(|e| format!("read run.msc: {e}"))?;
        let d = digest(&bytes);
        if *bundle_digest.get_or_insert_with(|| d.clone()) != d {
            return Err("two recordings from one seed differ".to_string());
        }
    }
    let topology = dir.join("topology.txt");
    let whole = dir.join("run.msc");
    let chunked = dir.join("run.mscs");

    // Untimed reference: `diagnose` on the whole-run bundle. `stream` must
    // print the same bytes on the same recording.
    let reference = cli_op(a.cli, "diagnose", &topology, &whole)?;
    let expected = Expected {
        digest: digest(&reference.stdout),
        source_packets: packets,
    };
    let printed = parse_report(
        &String::from_utf8_lossy(&reference.stdout),
        &String::from_utf8_lossy(&reference.stderr),
    )
    .map_err(|e| format!("reference report: {e}"))?;
    let (cmd, input) = if stream {
        ("stream", &chunked)
    } else {
        ("diagnose", &whole)
    };

    let mut tally = Tally::default();
    let mut sm = Samples::default();
    let untraced = |tally: &mut Tally| {
        let r = cli_op(a.cli, cmd, &topology, input)?;
        if tally.record(check_op(&r, &expected)).is_some() {
            sm.walls.push(r.wall_s);
            sm.rss_mb.push(r.peak_rss_kb as f64 / 1024.0);
        }
        Ok(())
    };
    // Traced: the op's own reconstruction path, the core and the CLI's
    // sampled aggregation; off the path, the other reconstruction.
    let own = Steps {
        offline: !stream,
        stream,
        ..Steps::default()
    };
    let on = Steps {
        core: true,
        aggregate: true,
        max_victims: CLI_MAX_VICTIMS,
        ..own
    };
    let off = Steps {
        offline: stream,
        stream: !stream,
        ..Steps::default()
    };
    let check = |op: &TracedOp| {
        let v = |k: &str| op.values.get(k).map_or(u64::MAX, |&x| x as u64);
        let traced = [
            v("count.traces"),
            v("count.ambiguities"),
            v("core.victims"),
            v("core.relations"),
            v("autofocus.relations_in"),
            v("autofocus.patterns_out"),
        ];
        let p = &printed;
        let cli = [
            p.traces,
            p.ambiguities,
            p.victims,
            p.relations,
            p.aggregated,
            p.patterns,
        ];
        if traced == cli {
            Ok(())
        } else {
            Err(format!(
                "traced layers counted {traced:?}, the CLI printed {cli:?}"
            ))
        }
    };
    let m = measure(a, &mut tally, untraced, &dir, (on, off), check)?;

    let mut out = Outcome {
        attempted: tally.attempted,
        failed: tally.failed,
        metrics: Vec::new(),
        notes: vec![
            format!(
                "recording: {packets} source packets, run.msc digest {}",
                bundle_digest.unwrap_or_default()
            ),
            format!("reference `diagnose` stdout digest {}", expected.digest),
        ],
        spans: m.spans,
    };
    if a.trace {
        layer_metrics(
            &mut out,
            m.ops,
            if stream { &chunked } else { &whole },
            packets,
            &sm.walls,
        );
    } else {
        e2e_metrics(&mut out, &sm, &m.refs, &setups, (packets, "pkts_per_s"));
    }
    finish(&mut out, &sm, tally);
    Ok(out)
}

// ---------------------------------------------------------- bug-patterns

/// The paper's §6.4 bug: `fw2`'s slow path, hit by the trigger flows.
fn bug_plan() -> InjectionPlan {
    let fw2 = paper_topology()
        .by_name("fw2")
        .expect("paper topology has fw2");
    InjectionPlan {
        bug: Some(BugSpec {
            nf: fw2,
            matches: paper_bug_aggregate(),
            per_packet_ns: 20 * MICROS,
            trigger_flows: paper_bug_flows(),
            period: 30 * MILLIS,
            flow_size: 100,
        }),
        ..Default::default()
    }
}

struct BugInputs {
    relations: Vec<CausalRelation>,
    kinds: Vec<NfKind>,
    packets: u64,
}

fn flow_text(f: Option<FiveTuple>) -> String {
    f.map_or("-".to_string(), |f| {
        format!(
            "{},{},{},{},{}",
            f.src_ip, f.dst_ip, f.src_port, f.dst_port, f.proto.0
        )
    })
}

fn flow_parse(t: &str) -> Option<Option<FiveTuple>> {
    if t == "-" {
        return Some(None);
    }
    let v: Vec<&str> = t.split(',').collect();
    let [src, dst, sp, dp, proto] = v.as_slice() else {
        return None;
    };
    Some(Some(FiveTuple {
        src_ip: src.parse().ok()?,
        dst_ip: dst.parse().ok()?,
        src_port: sp.parse().ok()?,
        dst_port: dp.parse().ok()?,
        proto: Proto(proto.parse().ok()?),
    }))
}

fn loc_text(l: Location) -> String {
    match l {
        Location::Source => "source".to_string(),
        Location::Nf(id) => id.0.to_string(),
    }
}

fn loc_parse(t: &str) -> Option<Location> {
    if t == "source" {
        return Some(Location::Source);
    }
    Some(Location::Nf(NfId(t.parse().ok()?)))
}

/// One relation per line, scores to the bit, so the op's input survives
/// the trip from the set-up process unchanged.
fn relations_text(relations: &[CausalRelation]) -> String {
    let mut out = String::new();
    for r in relations {
        out.push_str(&format!(
            "{} {} {} {} {:016x}\n",
            flow_text(r.culprit_flow),
            loc_text(r.culprit_loc),
            flow_text(r.victim_flow),
            loc_text(r.victim_loc),
            r.score.to_bits()
        ));
    }
    out
}

pub fn parse_relations(text: &str) -> Result<Vec<CausalRelation>, String> {
    text.lines()
        .map(|line| {
            let w: Vec<&str> = line.split_whitespace().collect();
            let [cf, cl, vf, vl, score] = w.as_slice() else {
                return None;
            };
            Some(CausalRelation {
                culprit_flow: flow_parse(cf)?,
                culprit_loc: loc_parse(cl)?,
                victim_flow: flow_parse(vf)?,
                victim_loc: loc_parse(vl)?,
                score: f64::from_bits(u64::from_str_radix(score, 16).ok()?),
            })
        })
        .collect::<Option<Vec<_>>>()
        .ok_or_else(|| "malformed relations file".to_string())
}

/// `perfbench bug-setup`: simulates the pinned scenario, writes
/// `topology.txt` and `run.msc`, runs the diagnosis pass (on the
/// deployment as written, as the CLI reads it) and writes the relations
/// the op aggregates to `relations.txt`. It runs as its own process so that
/// the set-up's heap never sits under the op's peak RSS.
pub fn bug_setup(dir: &Path, size: Size) -> Result<String, String> {
    let seed = BUG_SCENARIO_SEED;
    let topology = paper_topology();
    let cfgs = paper_nf_configs(&topology);
    let rates: Vec<f64> = cfgs.iter().map(|c| c.service.peak_rate_pps()).collect();
    let plan = bug_plan();
    let duration = size.millis * MILLIS;
    let mut gen = CaidaLike::new(
        CaidaLikeConfig {
            rate_pps: size.rate_mpps * 1e6,
            ..Default::default()
        },
        seed,
    );
    let schedule = Schedule::merge([gen.generate(0, duration), plan.extra_traffic(duration)]);
    let sim_cfg = SimConfig {
        seed: seed.wrapping_add(1),
        record_fates: false,
        ..Default::default()
    };
    let mut sim = Simulation::new(topology.clone(), cfgs, sim_cfg);
    for f in plan.faults() {
        sim.add_fault(f);
    }
    let bundle = sim.run(&schedule.finalize(0)).bundle;

    std::fs::create_dir_all(dir).map_err(|e| format!("mkdir {}: {e}", dir.display()))?;
    let text = emit_topology(&topology, &rates);
    std::fs::write(dir.join("topology.txt"), &text).map_err(|e| format!("write topology: {e}"))?;
    save_bundle(&dir.join("run.msc"), &bundle).map_err(|e| format!("{e}"))?;

    let (topology, rates) = parse_topology(&text).map_err(|e| format!("{e}"))?;
    let recon_cfg = ReconstructionConfig {
        threads: 1,
        ..Default::default()
    };
    let recon = reconstruct(&topology, &bundle, &recon_cfg);
    let timelines = Timelines::build(&recon);
    let dc = diagnosis_config(size.max_victims);
    let diagnoses = Microscope::new(topology, rates, dc).diagnose_all(&recon, &timelines);
    let relations = diagnoses_to_relations(&recon, &diagnoses);
    std::fs::write(dir.join("relations.txt"), relations_text(&relations))
        .map_err(|e| format!("write relations: {e}"))?;
    Ok(format!("packets {}", bundle.source_flows.len()))
}

/// Runs [`bug_setup`] as a child process; returns its time and the
/// inputs it wrote.
fn bug_setup_child(a: &RunArgs, dir: &Path) -> Result<(f64, BugInputs), String> {
    let exe = std::env::current_exe().map_err(|e| format!("current exe: {e}"))?;
    let z = a.size;
    let args = [
        s("bug-setup"),
        path_arg(dir),
        s(z.millis),
        s(z.rate_mpps),
        s(z.max_victims),
    ];
    let r = run_child(&exe, &args)?;
    let out = String::from_utf8_lossy(&r.stdout);
    let packets = out
        .trim()
        .strip_prefix("packets ")
        .and_then(|n| n.parse().ok());
    let (Some(0), Some(packets)) = (r.code, packets) else {
        return Err(format!(
            "bug-setup failed: {}",
            String::from_utf8_lossy(&r.stderr).trim()
        ));
    };
    let read = |name: &str| {
        std::fs::read_to_string(dir.join(name)).map_err(|e| format!("read {name}: {e}"))
    };
    let (topology, _) = parse_topology(&read("topology.txt")?).map_err(|e| format!("{e}"))?;
    let inputs = BugInputs {
        relations: parse_relations(&read("relations.txt")?)?,
        kinds: topology.nfs().iter().map(|n| n.kind).collect(),
        packets,
    };
    Ok((r.wall_s, inputs))
}

/// `perfbench aggregate`: the `bug-patterns` op. A fresh process reads the
/// set-up's relations and times one exact `aggregate_patterns` call, as an
/// operator's tool would run it; its peak RSS comes back through `wait4`.
pub fn aggregate_op(dir: &Path) -> Result<String, String> {
    let read = |name: &str| {
        std::fs::read_to_string(dir.join(name)).map_err(|e| format!("read {name}: {e}"))
    };
    let (topology, _) = parse_topology(&read("topology.txt")?).map_err(|e| format!("{e}"))?;
    let relations = parse_relations(&read("relations.txt")?)?;
    let t0 = Instant::now();
    let patterns = aggregate_patterns(&relations, &PatternConfig::default(), &|id: NfId| {
        topology.nf(id).kind
    });
    let wall = t0.elapsed().as_secs_f64();
    Ok(format!(
        "wall_s {wall:?}\ndigest {}",
        patterns_digest(&patterns)
    ))
}

fn run_patterns_workload(a: &RunArgs) -> Result<Outcome, String> {
    let dir = a.work.join("bug");
    let mut setups = Vec::new();
    let mut inputs = None;
    for _ in 0..if a.trace { 1 } else { SETUPS } {
        let (t, i) = bug_setup_child(a, &dir)?;
        setups.push(t);
        inputs = Some(i);
    }
    let inputs = inputs.expect("at least one set-up");
    let kind_of = |id: NfId| inputs.kinds[id.0 as usize];
    let cfg = PatternConfig::default();

    // Untimed reference aggregation; every op must reproduce it exactly,
    // and it must name the injected trigger flows.
    let reference = aggregate_patterns(&inputs.relations, &cfg, &kind_of);
    let ref_digest = patterns_digest(&reference);
    let bug_flows = paper_bug_flows();
    let culprit_found = reference
        .iter()
        .any(|p| bug_flows.iter().any(|f| p.culprit.flow.matches(f)));
    if a.trace {
        // The traced run also streams the recording.
        let bundle =
            msc_collector::load_bundle(&dir.join("run.msc")).map_err(|e| format!("{e}"))?;
        let chunks = chunk_bundle(&bundle, a.size.chunk_ms * MILLIS);
        save_bundle_chunked(&dir.join("run.mscs"), &chunks).map_err(|e| format!("{e}"))?;
    }

    let mut tally = Tally::default();
    let mut sm = Samples::default();
    let exe = std::env::current_exe().map_err(|e| format!("current exe: {e}"))?;
    let untraced = |tally: &mut Tally| {
        let r = run_child(&exe, &[s("aggregate"), path_arg(&dir)])?;
        let out = String::from_utf8_lossy(&r.stdout);
        let field = |k: &str| out.lines().find_map(|l| l.strip_prefix(k));
        let wall = field("wall_s ").and_then(|w| w.parse::<f64>().ok());
        let verdict = match (r.code, wall) {
            _ if !culprit_found => Err("no pattern names the injected bug-trigger flows".into()),
            (Some(0), Some(wall)) if field("digest ") == Some(ref_digest.as_str()) => Ok(wall),
            (Some(0), Some(_)) => Err("pattern list differs from the reference".to_string()),
            _ => Err(format!(
                "aggregate failed: {}",
                String::from_utf8_lossy(&r.stderr).trim()
            )),
        };
        if let Some(wall) = tally.record(verdict) {
            sm.walls.push(wall);
            sm.rss_mb.push(r.peak_rss_kb as f64 / 1024.0);
        }
        Ok(())
    };
    // Traced: the exact aggregation of the set-up's relations (the op);
    // off the path, the pipeline that yields them and the streaming
    // reconstruction.
    let on = Steps {
        relations_file: true,
        ..Steps::default()
    };
    let off = Steps {
        offline: true,
        stream: true,
        core: true,
        max_victims: a.size.max_victims,
        ..Steps::default()
    };
    let n_relations = inputs.relations.len() as f64;
    let check = |op: &TracedOp| {
        // The pipeline's counts come with the off-path process only.
        let differs = |k: &str, want: f64| op.values.get(k).is_some_and(|&x| x != want);
        if op.patterns_digest != ref_digest {
            Err("traced pattern list differs from the reference".to_string())
        } else if differs("core.relations", n_relations)
            || differs("count.traces", inputs.packets as f64)
        {
            Err("traced pipeline's relation or trace count differs from set-up".to_string())
        } else {
            Ok(())
        }
    };
    let m = measure(a, &mut tally, untraced, &dir, (on, off), check)?;

    let mut out = Outcome {
        attempted: tally.attempted,
        failed: tally.failed,
        metrics: Vec::new(),
        notes: vec![
            format!(
                "{} relations from {} source packets -> {} patterns",
                inputs.relations.len(),
                inputs.packets,
                reference.len()
            ),
            format!("reference pattern digest {ref_digest}"),
        ],
        spans: m.spans,
    };
    if a.trace {
        layer_metrics(
            &mut out,
            m.ops,
            &dir.join("run.msc"),
            inputs.packets,
            &sm.walls,
        );
    } else {
        let items = (inputs.relations.len() as u64, "relations_per_s");
        e2e_metrics(&mut out, &sm, &m.refs, &setups, items);
    }
    finish(&mut out, &sm, tally);
    Ok(out)
}

// ----------------------------------------------------------- traced ops

/// One traced op: the per-layer values of its two processes.
pub struct TracedOp {
    values: BTreeMap<String, f64>,
    /// Time in the layers the untraced op runs, ms.
    layers_ms: f64,
    /// The traced op's own time, less the victim and index calls it
    /// repeats, ms.
    traced_ms: f64,
    patterns_digest: String,
}

/// Runs `on` (the op's own path, as the untraced op runs it) and then
/// `off` (the remaining layers, on the same recording) as two `trace-op`
/// processes, and adopts their spans as op `op`.
fn traced_op(
    tr: &mut Tracer,
    op: u32,
    dir: &Path,
    on: Steps,
    off: Steps,
) -> Result<TracedOp, String> {
    let exe = std::env::current_exe().map_err(|e| format!("current exe: {e}"))?;
    let mut values = BTreeMap::new();
    let mut on_wall_ms = 0.0;
    let mut patterns_digest = String::new();
    for (steps, root) in [(on, "op"), (off, "offpath")] {
        if steps == Steps::default() {
            continue;
        }
        let mut args = vec![s("trace-op"), path_arg(dir)];
        args.extend(steps.to_args());
        let r = run_child(&exe, &args)?;
        if r.code != Some(0) {
            let err = String::from_utf8_lossy(&r.stderr);
            return Err(format!("trace-op exit {:?}: {}", r.code, err.trim()));
        }
        let mut t = parse_trace_output(&String::from_utf8_lossy(&r.stdout))?;
        if let Some(first) = t.spans.first_mut() {
            first.name = root.to_string();
        }
        tr.adopt(op, t.spans);
        values.append(&mut t.values);
        if root == "op" {
            on_wall_ms = r.wall_s * 1e3;
            patterns_digest = t.patterns_digest;
        }
    }
    let v = |k: &str| values.get(k).copied().unwrap_or(0.0);
    let (layers_ms, traced_ms) = if on.aggregate {
        // A CLI op: every layer of the on-path process is on the op's path.
        let own: &[&str] = if on.offline {
            &[
                "collector.load_ms",
                "trace.streams_ms",
                "trace.match_ms",
                "trace.assemble_ms",
                "trace.timelines_ms",
            ]
        } else {
            &[
                "collector.chunk_read_ms",
                "stream.push_ms",
                "stream.finish_ms",
            ]
        };
        let core = [
            "core.victims_ms",
            "core.index_ms",
            "core.walk_ms",
            "core.relations_ms",
            "autofocus.aggregate_ms",
        ];
        let layers: f64 = own.iter().chain(core.iter()).map(|k| v(k)).sum();
        (
            layers,
            on_wall_ms - v("core.victims_ms") - v("core.index_ms"),
        )
    } else {
        // bug-patterns: the op is the aggregation call alone.
        (v("autofocus.aggregate_ms"), v("autofocus.aggregate_ms"))
    };
    Ok(TracedOp {
        values,
        layers_ms,
        traced_ms,
        patterns_digest,
    })
}

// ------------------------------------------------------------- reporting

/// The end-to-end metrics of an untraced run: op wall time as a ratio to
/// the reference job's in the same run (see `reference`), peak RSS and
/// set-up time. The raw time and the throughput (`items` per wall second)
/// are printed beside them.
fn e2e_metrics(
    out: &mut Outcome,
    sm: &Samples,
    refs: &[f64],
    setups: &[f64],
    (items, per_s_name): (u64, &str),
) {
    let n = sm.walls.len();
    let (wall, ref_wall) = (median(&sm.walls), median(refs));
    out.metrics = vec![
        ("wall_rel", wall / ref_wall, "ratio", n),
        ("peak_rss_mb", median(&sm.rss_mb), "MB", n),
        ("setup_s", median(setups), "s", setups.len()),
    ];
    let per_s: Vec<f64> = sm.walls.iter().map(|w| items as f64 / w).collect();
    out.notes.push(format!(
        "wall_s {wall:.4} s, {per_s_name} {:.1} (medians of {n}); \
         reference job {ref_wall:.4} s (median of {})",
        median(&per_s),
        refs.len()
    ));
}

/// Per-layer medians over the traced ops, plus the residual against the
/// untraced wall time.
fn layer_metrics(
    out: &mut Outcome,
    mut ops: Vec<TracedOp>,
    input: &Path,
    packets: u64,
    walls: &[f64],
) {
    let bytes = std::fs::metadata(input).map_or(0, |m| m.len());
    for op in &mut ops {
        let per_pkt = bytes as f64 / packets.max(1) as f64;
        op.values.insert("collector.bytes_per_pkt".into(), per_pkt);
    }
    let n = ops.len();
    for &(name, unit, _) in PER_LAYER {
        let v: Vec<f64> = ops
            .iter()
            .filter_map(|o| o.values.get(name).copied())
            .collect();
        if !v.is_empty() {
            out.metrics.push((name, median(&v), unit, v.len()));
        }
    }
    let untraced_ms = median(walls) * 1e3;
    let layers = median(&ops.iter().map(|o| o.layers_ms).collect::<Vec<_>>());
    let traced = median(&ops.iter().map(|o| o.traced_ms).collect::<Vec<_>>());
    let other = untraced_ms - layers;
    out.metrics.push(("cli.other_ms", other, "ms", walls.len()));
    out.metrics
        .push(("trace_overhead_ratio", traced / untraced_ms, "ratio", n));
    out.notes.push(format!(
        "untraced wall {untraced_ms:.3} ms (n {}) = on-path layers {layers:.3} ms + cli.other {other:.3} ms",
        walls.len()
    ));
}

fn finish(out: &mut Outcome, sm: &Samples, tally: Tally) {
    let w = &sm.walls;
    out.notes.push(format!(
        "untraced wall_s: n {} min {:.4} q1 {:.4} median {:.4} q3 {:.4} max {:.4}",
        w.len(),
        quantile(w, 0.0),
        quantile(w, 0.25),
        median(w),
        quantile(w, 0.75),
        quantile(w, 1.0)
    ));
    out.notes.push(format!(
        "fail_ratio {} ({} of {} ops failed)",
        tally.failed as f64 / tally.attempted.max(1) as f64,
        tally.failed,
        tally.attempted
    ));
    if let Some(e) = tally.first_failure {
        out.notes.push(format!("first failure: {e}"));
    }
}

/// This run's scratch directory under the benchmark's own `work/`.
pub fn work_dir(root: &Path, workload: &str, seed: u64) -> PathBuf {
    root.join("perfbench")
        .join("work")
        .join(format!("{workload}-{seed}-{}", std::process::id()))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn relations_survive_the_file_bit_for_bit() {
        let flow = FiveTuple {
            src_ip: 0x6400_0001,
            dst_ip: 0x2000_0001,
            src_port: 2003,
            dst_port: 6003,
            proto: Proto::TCP,
        };
        let rels = vec![
            CausalRelation {
                culprit_flow: Some(flow),
                culprit_loc: Location::Nf(NfId(5)),
                victim_flow: None,
                victim_loc: Location::Source,
                score: 0.1 + 0.2,
            },
            CausalRelation {
                culprit_flow: None,
                culprit_loc: Location::Source,
                victim_flow: Some(flow),
                victim_loc: Location::Nf(NfId(15)),
                score: f64::MIN_POSITIVE,
            },
        ];
        let back = parse_relations(&relations_text(&rels)).unwrap();
        assert_eq!(relations_text(&back), relations_text(&rels));
        assert_eq!(back[0].score.to_bits(), (0.1f64 + 0.2).to_bits());
        assert_eq!(back[1].victim_flow, Some(flow));
        assert!(parse_relations("- source - 3").is_err());
    }
}
