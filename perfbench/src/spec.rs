//! The benchmark's fixed definitions: workloads, their input sizes, and
//! every metric with its unit. `BENCHMARK.json` is rendered from these
//! tables (`perfbench manifest`), so the manifest and the program that
//! fills it cannot drift apart.

/// Seconds one run measures (the manifest's `run_seconds`).
pub const RUN_SECONDS: u64 = 20;

/// Which pipeline a workload's op runs.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Kind {
    /// `microscope diagnose` on a whole-run `run.msc`.
    Offline,
    /// `microscope stream` on a chunked `run.mscs`.
    Stream,
    /// Exact `autofocus::aggregate_patterns` over every relation.
    Patterns,
}

/// Input size of a recorded paper-16 scenario.
#[derive(Clone, Copy, Debug)]
pub struct Size {
    /// Simulated run length.
    pub millis: u64,
    /// Offered load, Mpps.
    pub rate_mpps: f64,
    /// Chunk length of `run.mscs`, ms (`millis / chunk_ms` windows).
    pub chunk_ms: u64,
    /// Victim cap of the diagnosis pass that yields `bug-patterns`'
    /// relations (the `offline`/`stream` ops use the CLI's own cap).
    pub max_victims: usize,
}

pub struct Workload {
    pub name: &'static str,
    pub why: &'static str,
    pub kind: Kind,
    pub size: Size,
    /// A few-millisecond variant for the benchmark's own tests.
    pub tiny: Size,
}

pub const WORKLOADS: &[Workload] = &[
    Workload {
        name: "paper16-offline",
        why: "record then diagnose on the 16-NF topology; bundle decode, matching, assembly and timelines do most of the work",
        kind: Kind::Offline,
        size: Size { millis: 300, rate_mpps: 1.4, chunk_ms: 2, max_victims: 5_000 },
        tiny: Size { millis: 20, rate_mpps: 1.4, chunk_ms: 2, max_victims: 5_000 },
    },
    Workload {
        name: "paper16-stream",
        why: "the same scenario as a chunked recording through microscope stream: windowed matcher, incremental timelines, chunk reader",
        kind: Kind::Stream,
        size: Size { millis: 200, rate_mpps: 1.4, chunk_ms: 2, max_victims: 5_000 },
        tiny: Size { millis: 20, rate_mpps: 1.4, chunk_ms: 2, max_victims: 5_000 },
    },
    Workload {
        name: "bug-patterns",
        why: "the fw2 slow-path bug of paper section 6.4 on one pinned scenario; exact unsampled AutoFocus aggregation, which the CLI never runs, does the work",
        kind: Kind::Patterns,
        size: Size { millis: 300, rate_mpps: 1.2, chunk_ms: 2, max_victims: 150 },
        tiny: Size { millis: 60, rate_mpps: 1.2, chunk_ms: 2, max_victims: 20 },
    },
];

pub fn workload(name: &str) -> Option<&'static Workload> {
    WORKLOADS.iter().find(|w| w.name == name)
}

/// The NF the offline and stream scenarios interrupt, halfway through the
/// run, for `INTERRUPT_US`.
pub const INTERRUPT_NF: &str = "nat2";
pub const INTERRUPT_US: u64 = 1_000;

pub struct Metric {
    pub name: &'static str,
    pub unit: &'static str,
    pub better: &'static str,
    /// Share of the parent's median the metric may worsen by.
    pub bound: f64,
}

/// The scenario seed of `bug-patterns`. Aggregation cost swings by orders
/// of magnitude between traffic seeds (and by ±15% when the same relations
/// are merely reordered), so that workload pins its scenario and `--seed`
/// does not change its inputs.
pub const BUG_SCENARIO_SEED: u64 = 3;

/// End-to-end metrics, reported with tracing off. The op's wall time is
/// gated as a ratio to a fixed reference job timed before every op in the
/// same run (see `reference`), because the host's shared cores move
/// absolute times by 10–20% between runs. Even the ratio's run medians
/// spread by 7–13% over ten seeds, hence its wide bound.
pub const END_TO_END: &[Metric] = &[
    Metric {
        name: "wall_rel",
        unit: "ratio",
        better: "lower",
        bound: 0.25,
    },
    Metric {
        name: "peak_rss_mb",
        unit: "MB",
        better: "lower",
        bound: 0.1,
    },
    Metric {
        name: "setup_s",
        unit: "s",
        better: "lower",
        bound: 0.25,
    },
];

/// Per-layer metrics of the traced run: name, unit, and which direction
/// is better (counts of work done are better lower).
pub const PER_LAYER: &[(&str, &str, &str)] = &[
    ("collector.load_ms", "ms", "lower"),
    ("collector.chunk_read_ms", "ms", "lower"),
    ("collector.bytes_per_pkt", "B", "lower"),
    ("trace.streams_ms", "ms", "lower"),
    ("trace.match_ms", "ms", "lower"),
    ("trace.assemble_ms", "ms", "lower"),
    ("trace.timelines_ms", "ms", "lower"),
    ("trace.ambiguity_ratio", "ratio", "lower"),
    ("stream.push_ms", "ms", "lower"),
    ("stream.window_p50_ms", "ms", "lower"),
    ("stream.window_p90_ms", "ms", "lower"),
    ("stream.finish_ms", "ms", "lower"),
    ("stream.frontier_peak_bytes", "B", "lower"),
    ("stream.committed_early_ratio", "ratio", "higher"),
    ("core.victims_ms", "ms", "lower"),
    ("core.index_ms", "ms", "lower"),
    ("core.walk_ms", "ms", "lower"),
    ("core.cache_hit_ratio", "ratio", "higher"),
    ("core.victims", "count", "lower"),
    ("core.relations_ms", "ms", "lower"),
    ("core.relations", "count", "lower"),
    ("autofocus.aggregate_ms", "ms", "lower"),
    ("autofocus.relations_in", "count", "lower"),
    ("autofocus.patterns_out", "count", "lower"),
    ("cli.other_ms", "ms", "lower"),
    ("trace_overhead_ratio", "ratio", "lower"),
    ("collector.load.rss_peak_delta_mb", "MB", "lower"),
    ("trace.streams.rss_peak_delta_mb", "MB", "lower"),
    ("trace.match.rss_peak_delta_mb", "MB", "lower"),
    ("trace.assemble.rss_peak_delta_mb", "MB", "lower"),
    ("trace.timelines.rss_peak_delta_mb", "MB", "lower"),
    ("stream.push.rss_peak_delta_mb", "MB", "lower"),
    ("stream.finish.rss_peak_delta_mb", "MB", "lower"),
    ("core.victims.rss_peak_delta_mb", "MB", "lower"),
    ("core.index.rss_peak_delta_mb", "MB", "lower"),
    ("core.walk.rss_peak_delta_mb", "MB", "lower"),
    ("core.relations.rss_peak_delta_mb", "MB", "lower"),
    ("autofocus.aggregate.rss_peak_delta_mb", "MB", "lower"),
];

/// `BENCHMARK.json`, byte for byte.
pub fn manifest() -> String {
    let mut s = String::from("{\n");
    s.push_str(
        "  \"command\": [\"cargo\", \"run\", \"--release\", \"--offline\", \
         \"--manifest-path\", \"perfbench/Cargo.toml\", \"--\"],\n",
    );
    s.push_str("  \"paths\": [\"perfbench\"],\n");
    s.push_str(&format!("  \"run_seconds\": {RUN_SECONDS},\n"));
    s.push_str("  \"workloads\": [\n");
    for (i, w) in WORKLOADS.iter().enumerate() {
        let sep = if i + 1 < WORKLOADS.len() { "," } else { "" };
        s.push_str(&format!(
            "    {{\"name\": \"{}\", \"why\": \"{}\"}}{sep}\n",
            w.name, w.why
        ));
    }
    s.push_str("  ],\n  \"end_to_end\": [\n");
    for (i, m) in END_TO_END.iter().enumerate() {
        let sep = if i + 1 < END_TO_END.len() { "," } else { "" };
        s.push_str(&format!(
            "    {{\"name\": \"{}\", \"unit\": \"{}\", \"better\": \"{}\", \"bound\": {}}}{sep}\n",
            m.name, m.unit, m.better, m.bound
        ));
    }
    s.push_str("  ],\n  \"per_layer\": [\n");
    for (i, (name, unit, better)) in PER_LAYER.iter().enumerate() {
        let sep = if i + 1 < PER_LAYER.len() { "," } else { "" };
        s.push_str(&format!(
            "    {{\"name\": \"{name}\", \"unit\": \"{unit}\", \"better\": \"{better}\"}}{sep}\n"
        ));
    }
    s.push_str("  ]\n}\n");
    s
}
