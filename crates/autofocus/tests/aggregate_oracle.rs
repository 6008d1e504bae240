//! Bit-identity of the item-driven AutoFocus aggregation against the
//! implementation it replaced.
//!
//! `mod oracle` is a verbatim copy (import paths aside) of the
//! cross-product `hhh_1d`, `aggregate_side`, `aggregate_patterns` and
//! `merge_adjacent_port_patterns` as they stood before the rewrite: every
//! candidate of the pruned cross product, stably sorted by specificity,
//! scanned against a shrinking list of unclaimed items. The library must return the same pattern lists, with
//! every score equal to the bit, on drawn relation sets that exercise the
//! corners of the hierarchies: flow-less relations, `Location::Source`,
//! duplicate exact keys, many equal weights, ports on both sides of the
//! 1024 static-range edge and several NFs of one kind.

use autofocus::cluster::{ClusterConfig, Location, LocationAgg, SideAggregate, SideItem};
use autofocus::{CausalRelation, Pattern, PatternConfig};
use nf_types::{parse_ip, FiveTuple, NfId, NfKind, Prefix, Proto};
use proptest::prelude::*;

mod oracle {
    use autofocus::cluster::{ClusterConfig, Location, LocationAgg, SideAggregate, SideItem};
    use autofocus::{CausalRelation, Pattern, PatternConfig};
    use nf_types::{FiveTuple, FlowAggregate, NfId, NfKind, PortRange, Prefix, ProtoMatch};
    use std::collections::HashMap;
    use std::hash::Hash;

    /// Computes one-dimensional hierarchical heavy hitters.
    ///
    /// * `items` — weighted exact values (duplicates allowed; weights add up).
    /// * `parent` — one generalisation step; `None` at the root.
    /// * `threshold` — absolute weight needed to report a node.
    ///
    /// Returns `(value, residual_weight)` pairs, most specific first. The root
    /// is always reported last with whatever weight remains unclaimed, so the
    /// output always accounts for the full input weight.
    pub fn hhh_1d<K, I, P>(items: I, parent: P, threshold: f64) -> Vec<(K, f64)>
    where
        K: Eq + Hash + Ord + Clone,
        I: IntoIterator<Item = (K, f64)>,
        P: Fn(&K) -> Option<K>,
    {
        // Accumulate exact weights.
        let mut weights: HashMap<K, f64> = HashMap::new();
        for (k, w) in items {
            // float: canonical-order(per-key accumulation follows the caller's iteration order)
            *weights.entry(k).or_insert(0.0) += w;
        }
        if weights.is_empty() {
            return Vec::new();
        }

        // Depth of each key = number of generalisation steps to the root.
        let depth = |k: &K| -> usize {
            let mut d = 0;
            let mut cur = k.clone();
            while let Some(p) = parent(&cur) {
                d += 1;
                cur = p;
            }
            d
        };

        // Bucket keys by depth so every node is processed strictly before its
        // parent (parent depth = child depth − 1).
        let mut levels: std::collections::BTreeMap<usize, Vec<K>> =
            std::collections::BTreeMap::new();
        // lint: order-insensitive(keys are bucketed into the BTreeMap above and every level is sorted before use below)
        for k in weights.keys() {
            levels.entry(depth(k)).or_default().push(k.clone());
        }

        let mut out: Vec<(K, f64)> = Vec::new();
        while let Some((&d, _)) = levels.iter().next_back() {
            let mut keys = levels.remove(&d).expect("level exists");
            // The level was populated from HashMap iteration (and roll-up
            // insertion) order; sort so the output order and the float roll-up
            // accumulation are identical on every run.
            keys.sort_unstable();
            for k in keys {
                let w = weights[&k];
                match parent(&k) {
                    Some(_) if w >= threshold => out.push((k, w)),
                    Some(p) => {
                        // Roll the unreported weight up one level.
                        if !weights.contains_key(&p) {
                            levels.entry(d - 1).or_default().push(p.clone());
                            weights.insert(p.clone(), 0.0);
                        }
                        // float: canonical-order(children were sorted above, so each parent accumulates in canonical child order)
                        *weights.get_mut(&p).expect("just ensured") += w;
                    }
                    None => {
                        // Root: report the remainder (even below threshold) so
                        // weights are conserved.
                        if w > 0.0 {
                            out.push((k, w));
                        }
                    }
                }
            }
        }
        out
    }

    /// The least common generalisation (meet) of a set of items in our
    /// lattice: longest common IP prefixes, tightest static port level, exact
    /// or wildcard protocol, and the location ladder (exact → kind → any).
    fn meet_of(items: &[SideItem], kind_of: &impl Fn(NfId) -> NfKind) -> SideAggregate {
        fn common_prefix(a: Prefix, ip: u32) -> Prefix {
            let mut p = a;
            while !p.contains(ip) {
                match p.parent() {
                    Some(q) => p = q,
                    // /0 contains everything, so the loop guard has already
                    // failed by the time parent() runs dry; stop widening.
                    None => break,
                }
            }
            p
        }
        let mut it = items.iter();
        let Some(first) = it.next() else {
            // Meet of the empty set is the lattice top: matches nothing was
            // asked about, claims no weight.
            return SideAggregate {
                flow: FlowAggregate::ANY,
                loc: LocationAgg::Any,
            };
        };
        let mut loc = LocationAgg::Exact(first.loc);
        let mut flow = first
            .flow
            .map_or(FlowAggregate::ANY, |f| FlowAggregate::exact(&f));
        for i in it {
            if !loc.matches(i.loc, kind_of) {
                loc = match (loc, i.loc) {
                    (LocationAgg::Exact(Location::Nf(a)), Location::Nf(b))
                        if kind_of(a) == kind_of(b) =>
                    {
                        LocationAgg::Kind(kind_of(a))
                    }
                    (LocationAgg::Kind(k), Location::Nf(b)) if k == kind_of(b) => {
                        LocationAgg::Kind(k)
                    }
                    _ => LocationAgg::Any,
                };
            }
            match i.flow {
                None => flow = FlowAggregate::ANY,
                Some(f) => {
                    flow.src = common_prefix(flow.src, f.src_ip);
                    flow.dst = common_prefix(flow.dst, f.dst_ip);
                    if !flow.proto.contains(f.proto) {
                        flow.proto = ProtoMatch::Any;
                    }
                    while !flow.src_port.contains(f.src_port) {
                        match flow.src_port.static_parent() {
                            Some(p) => flow.src_port = p,
                            None => break, // ANY contains all; nothing wider exists
                        }
                    }
                    while !flow.dst_port.contains(f.dst_port) {
                        match flow.dst_port.static_parent() {
                            Some(p) => flow.dst_port = p,
                            None => break, // ANY contains all; nothing wider exists
                        }
                    }
                }
            }
        }
        SideAggregate { flow, loc }
    }

    fn top<K: Clone>(mut v: Vec<(K, f64)>, cap: usize) -> Vec<K> {
        v.sort_by(|a, b| b.1.total_cmp(&a.1));
        v.truncate(cap);
        v.into_iter().map(|(k, _)| k).collect()
    }

    /// Aggregates one side of the relations into significant
    /// (flow, location) clusters with descendant-exclusion scores.
    ///
    /// Returned clusters are sorted by descending weight; their weights sum to
    /// (almost) the input weight — every item is claimed by exactly one
    /// reported cluster, with an `(ANY, ANY)` catch-all absorbing the scraps.
    pub fn aggregate_side(
        items: &[SideItem],
        cfg: &ClusterConfig,
        kind_of: &impl Fn(NfId) -> NfKind,
    ) -> Vec<(SideAggregate, f64)> {
        // float: canonical-order(summed over the caller's slice in input order)
        let total: f64 = items.iter().map(|i| i.weight).sum();
        if total <= 0.0 {
            return Vec::new();
        }
        let th = cfg.threshold * total;

        // Fast path: when every distinct exact value already clears the
        // threshold (typical for the small per-culprit victim groups of the
        // §4.4 phase-1 pass), the full lattice machinery provably reports
        // exactly the distinct values — most-specific candidates claim their
        // items first and nothing is left to generalise. Emit them directly.
        {
            let mut exact: HashMap<(Option<FiveTuple>, Location), f64> = HashMap::new();
            for i in items {
                // float: canonical-order(per-key accumulation follows the input slice order)
                *exact.entry((i.flow, i.loc)).or_insert(0.0) += i.weight;
            }
            // lint: order-insensitive(`all` is a pure predicate — true/false regardless of visit order)
            if exact.len() <= 16 && exact.values().all(|&w| w >= th) {
                let mut out: Vec<(SideAggregate, f64)> = exact
                    .into_iter()
                    .map(|((flow, loc), w)| {
                        (
                            SideAggregate {
                                flow: flow.map_or(FlowAggregate::ANY, |f| FlowAggregate::exact(&f)),
                                loc: LocationAgg::Exact(loc),
                            },
                            w,
                        )
                    })
                    .collect();
                // Full tie-break: the entries come out of a HashMap, so a
                // weight-only sort would leave equal-weight clusters in
                // per-process-random order.
                out.sort_by(|a, b| b.1.total_cmp(&a.1).then_with(|| a.0.cmp(&b.0)));
                return out;
            }
        }

        // Second fast path: when the threshold is at (or above) the whole
        // group's weight, only a cluster matching *every* item can be reported
        // and the most specific such cluster is the items' meet (least common
        // generalisation). This happens constantly in the §4.4 phase-2 pass,
        // where small victim groups get a globally-scaled threshold.
        if th >= total * 0.999 {
            return vec![(meet_of(items, kind_of), total)];
        }

        // 1. Unidimensional HHH per dimension.
        let src: Vec<Prefix> = top(
            hhh_1d(
                items
                    .iter()
                    .filter_map(|i| i.flow.map(|f| (Prefix::host(f.src_ip), i.weight))),
                |p: &Prefix| p.parent(),
                th,
            ),
            cfg.max_per_dim,
        );
        let dst: Vec<Prefix> = top(
            hhh_1d(
                items
                    .iter()
                    .filter_map(|i| i.flow.map(|f| (Prefix::host(f.dst_ip), i.weight))),
                |p: &Prefix| p.parent(),
                th,
            ),
            cfg.max_per_dim,
        );
        let sport: Vec<PortRange> = top(
            hhh_1d(
                items
                    .iter()
                    .filter_map(|i| i.flow.map(|f| (PortRange::exact(f.src_port), i.weight))),
                |p: &PortRange| p.static_parent(),
                th,
            ),
            cfg.max_per_dim,
        );
        let dport: Vec<PortRange> = top(
            hhh_1d(
                items
                    .iter()
                    .filter_map(|i| i.flow.map(|f| (PortRange::exact(f.dst_port), i.weight))),
                |p: &PortRange| p.static_parent(),
                th,
            ),
            cfg.max_per_dim,
        );
        let proto: Vec<ProtoMatch> = top(
            hhh_1d(
                items
                    .iter()
                    .filter_map(|i| i.flow.map(|f| (ProtoMatch::Exact(f.proto), i.weight))),
                |p: &ProtoMatch| match p {
                    ProtoMatch::Exact(_) => Some(ProtoMatch::Any),
                    ProtoMatch::Any => None,
                },
                th,
            ),
            cfg.max_per_dim,
        );
        let locs: Vec<LocationAgg> = top(
            hhh_1d(
                items.iter().map(|i| (LocationAgg::Exact(i.loc), i.weight)),
                |l: &LocationAgg| l.parent(kind_of),
                th,
            ),
            cfg.max_per_dim,
        );

        // Always include the wildcard in every dimension so the catch-all
        // cluster exists.
        let with_any = |mut v: Vec<Prefix>| {
            if !v.contains(&Prefix::ANY) {
                v.push(Prefix::ANY);
            }
            v
        };
        let src = with_any(src);
        let dst = with_any(dst);
        let add_any_port = |mut v: Vec<PortRange>| {
            if !v.contains(&PortRange::ANY) {
                v.push(PortRange::ANY);
            }
            v
        };
        let sport = add_any_port(sport);
        let dport = add_any_port(dport);
        let mut proto = proto;
        if !proto.contains(&ProtoMatch::Any) {
            proto.push(ProtoMatch::Any);
        }
        let mut locs = locs;
        if !locs.contains(&LocationAgg::Any) {
            locs.push(LocationAgg::Any);
        }

        // Per-dimension weight of each kept value (total weight of the items it
        // matches). A multi-dimensional cluster can never claim more than the
        // weight of any single value it is built from, so the minimum over its
        // dimensions is an upper bound — AutoFocus's candidate-pruning trick,
        // which keeps the cross product tractable.
        let weight_of = |pred: &dyn Fn(&SideItem) -> bool| -> f64 {
            // float: canonical-order(summed over the input slice in its stored order)
            items.iter().filter(|i| pred(i)).map(|i| i.weight).sum()
        };
        let src_w: Vec<f64> = src
            .iter()
            .map(|p| weight_of(&|i: &SideItem| i.flow.map_or(p.is_any(), |f| p.contains(f.src_ip))))
            .collect();
        let dst_w: Vec<f64> = dst
            .iter()
            .map(|p| weight_of(&|i: &SideItem| i.flow.map_or(p.is_any(), |f| p.contains(f.dst_ip))))
            .collect();
        let sport_w: Vec<f64> = sport
            .iter()
            .map(|r| {
                weight_of(&|i: &SideItem| i.flow.map_or(r.is_any(), |f| r.contains(f.src_port)))
            })
            .collect();
        let dport_w: Vec<f64> = dport
            .iter()
            .map(|r| {
                weight_of(&|i: &SideItem| i.flow.map_or(r.is_any(), |f| r.contains(f.dst_port)))
            })
            .collect();
        let proto_w: Vec<f64> = proto
            .iter()
            .map(|p| {
                weight_of(&|i: &SideItem| {
                    i.flow
                        .map_or(matches!(p, ProtoMatch::Any), |f| p.contains(f.proto))
                })
            })
            .collect();
        let locs_w: Vec<f64> = locs
            .iter()
            .map(|l| weight_of(&|i: &SideItem| l.matches(i.loc, kind_of)))
            .collect();

        // 2. Candidate cross product, pruned by the upper bound.
        let mut candidates: Vec<SideAggregate> = Vec::new();
        for (si, &s) in src.iter().enumerate() {
            for (di, &d) in dst.iter().enumerate() {
                let b2 = src_w[si].min(dst_w[di]);
                if b2 < th {
                    continue;
                }
                for (pi, &pr) in proto.iter().enumerate() {
                    let b3 = b2.min(proto_w[pi]);
                    if b3 < th {
                        continue;
                    }
                    for (spi, &sp) in sport.iter().enumerate() {
                        let b4 = b3.min(sport_w[spi]);
                        if b4 < th {
                            continue;
                        }
                        for (dpi, &dp) in dport.iter().enumerate() {
                            let b5 = b4.min(dport_w[dpi]);
                            if b5 < th {
                                continue;
                            }
                            for (li, &l) in locs.iter().enumerate() {
                                if b5.min(locs_w[li]) < th {
                                    continue;
                                }
                                candidates.push(SideAggregate {
                                    flow: FlowAggregate {
                                        src: s,
                                        dst: d,
                                        proto: pr,
                                        src_port: sp,
                                        dst_port: dp,
                                    },
                                    loc: l,
                                });
                            }
                        }
                    }
                }
            }
        }
        // The catch-all must always be present even when its bound fell under
        // the threshold (weights must be conserved).
        let catch_all = SideAggregate {
            flow: FlowAggregate::ANY,
            loc: LocationAgg::Any,
        };
        if !candidates.contains(&catch_all) {
            candidates.push(catch_all);
        }

        // 3. Compression: most specific first; a candidate claims the items it
        // matches that no reported cluster has claimed; report if the claim
        // reaches the threshold. The (ANY, ANY) catch-all is always reported
        // last with the remainder. Claimed items leave the working list, so
        // later candidates scan ever-shorter lists.
        candidates.sort_by_key(|c| std::cmp::Reverse(c.specificity()));
        let mut remaining: Vec<&SideItem> = items.iter().collect();
        let mut out: Vec<(SideAggregate, f64)> = Vec::new();
        for cand in candidates {
            if remaining.is_empty() {
                break;
            }
            let is_catch_all = cand == catch_all;
            let claim: f64 = remaining
                .iter()
                .filter(|item| cand.matches(item.flow.as_ref(), item.loc, kind_of))
                .map(|item| item.weight)
                .sum(); // float: canonical-order(`remaining` is a Vec walked in stored order)
            if claim >= th || (is_catch_all && claim > 0.0) {
                remaining.retain(|item| !cand.matches(item.flow.as_ref(), item.loc, kind_of));
                out.push((cand, claim));
            }
        }
        out.sort_by(|a, b| b.1.total_cmp(&a.1).then_with(|| a.0.cmp(&b.0)));
        out
    }

    /// Exact culprit key for phase-1 grouping.
    type CulpritKey = (Option<FiveTuple>, Location);

    /// Runs the two-phase aggregation.
    pub fn aggregate_patterns(
        relations: &[CausalRelation],
        cfg: &PatternConfig,
        kind_of: &impl Fn(NfId) -> NfKind,
    ) -> Vec<Pattern> {
        if relations.is_empty() {
            return Vec::new();
        }

        // Phase 1: per exact culprit, aggregate the victim side. Groups are
        // kept in first-seen order (side index map), NOT HashMap iteration
        // order: group order decides the phase-2 item order and therefore every
        // downstream float accumulation and tie ordering — iterating the map
        // directly would leak the per-process hasher seed into the output.
        let mut group_idx: HashMap<CulpritKey, usize> = HashMap::new();
        let mut groups: Vec<(CulpritKey, Vec<SideItem>)> = Vec::new();
        for r in relations {
            let key = (r.culprit_flow, r.culprit_loc);
            let i = *group_idx.entry(key).or_insert_with(|| {
                groups.push((key, Vec::new()));
                groups.len() - 1
            });
            groups[i].1.push(SideItem {
                flow: r.victim_flow,
                loc: r.victim_loc,
                weight: r.score,
            });
        }
        // Intermediate: (victim aggregate) -> culprit-side items, again in
        // first-seen order.
        let mut victim_idx: HashMap<SideAggregate, usize> = HashMap::new();
        let mut by_victim: Vec<(SideAggregate, Vec<SideItem>)> = Vec::new();
        for ((c_flow, c_loc), victims) in groups {
            let aggs = aggregate_side(&victims, &cfg.cluster, kind_of);
            for (victim_agg, weight) in aggs {
                let i = *victim_idx.entry(victim_agg).or_insert_with(|| {
                    by_victim.push((victim_agg, Vec::new()));
                    by_victim.len() - 1
                });
                by_victim[i].1.push(SideItem {
                    flow: c_flow,
                    loc: c_loc,
                    weight,
                });
            }
        }

        // Phase 2: per victim aggregate, aggregate the culprit side. The
        // threshold is applied against the global score mass so tiny victim
        // groups don't spawn patterns.
        // float: canonical-order(summed over the relations slice in input order)
        let total: f64 = relations.iter().map(|r| r.score).sum();
        let mut out: Vec<Pattern> = Vec::new();
        for (victim_agg, culprits) in by_victim {
            // float: canonical-order(summed over the per-victim Vec in insertion order)
            let group_total: f64 = culprits.iter().map(|c| c.weight).sum();
            // Scale the per-group threshold so that it corresponds to the
            // global `th * total` cut.
            let local_cfg = ClusterConfig {
                threshold: (cfg.cluster.threshold * total / group_total).min(1.0),
                ..cfg.cluster.clone()
            };
            for (culprit_agg, weight) in aggregate_side(&culprits, &local_cfg, kind_of) {
                if weight >= cfg.cluster.threshold * total {
                    out.push(Pattern {
                        culprit: culprit_agg,
                        victim: victim_agg,
                        score: weight,
                    });
                }
            }
        }
        out.sort_by(|a, b| {
            b.score
                .partial_cmp(&a.score)
                .expect("finite scores")
                .then_with(|| (a.culprit, a.victim).cmp(&(b.culprit, b.victim)))
        });
        if cfg.adaptive_ports {
            out = merge_adjacent_port_patterns(out, 16);
        }
        out
    }

    /// Merges patterns that are identical except for nearby exact culprit port
    /// values into single range patterns — e.g. the paper's bug-trigger flows
    /// `sport 2000-2008 / dport 6000-6008`, which the static hierarchy reports
    /// as nine separate rows.
    pub fn merge_adjacent_port_patterns(patterns: Vec<Pattern>, max_gap: u16) -> Vec<Pattern> {
        // Group key: everything except the culprit ports.
        #[derive(PartialEq, Eq, Hash)]
        struct Key {
            c_src: nf_types::Prefix,
            c_dst: nf_types::Prefix,
            c_proto: nf_types::ProtoMatch,
            c_loc: LocationAgg,
            victim: SideAggregate,
        }
        // First-seen group order (index map), for the same reason as in
        // aggregate_patterns: map iteration order would randomise the relative
        // order of equal-score merged patterns.
        let mut grouped_idx: HashMap<Key, usize> = HashMap::new();
        let mut grouped: Vec<Vec<Pattern>> = Vec::new();
        let mut passthrough: Vec<Pattern> = Vec::new();
        for p in patterns {
            if p.culprit.flow.src_port.is_exact() || p.culprit.flow.dst_port.is_exact() {
                let key = Key {
                    c_src: p.culprit.flow.src,
                    c_dst: p.culprit.flow.dst,
                    c_proto: p.culprit.flow.proto,
                    c_loc: p.culprit.loc,
                    victim: p.victim,
                };
                let i = *grouped_idx.entry(key).or_insert_with(|| {
                    grouped.push(Vec::new());
                    grouped.len() - 1
                });
                grouped[i].push(p);
            } else {
                passthrough.push(p);
            }
        }

        for mut group in grouped {
            group.sort_by_key(|p| (p.culprit.flow.src_port.lo, p.culprit.flow.dst_port.lo));
            let mut merged: Vec<Pattern> = Vec::new();
            for p in group {
                match merged.last_mut() {
                    Some(last)
                        if p.culprit.flow.src_port.lo
                            <= last.culprit.flow.src_port.hi.saturating_add(max_gap)
                            && p.culprit.flow.dst_port.lo
                                <= last.culprit.flow.dst_port.hi.saturating_add(max_gap) =>
                    {
                        last.culprit.flow.src_port = PortRange::new(
                            last.culprit
                                .flow
                                .src_port
                                .lo
                                .min(p.culprit.flow.src_port.lo),
                            last.culprit
                                .flow
                                .src_port
                                .hi
                                .max(p.culprit.flow.src_port.hi),
                        );
                        last.culprit.flow.dst_port = PortRange::new(
                            last.culprit
                                .flow
                                .dst_port
                                .lo
                                .min(p.culprit.flow.dst_port.lo),
                            last.culprit
                                .flow
                                .dst_port
                                .hi
                                .max(p.culprit.flow.dst_port.hi),
                        );
                        // float: canonical-order(merge walks patterns sorted by port range)
                        last.score += p.score;
                    }
                    _ => merged.push(p),
                }
            }
            passthrough.extend(merged);
        }
        passthrough.sort_by(|a, b| {
            b.score
                .partial_cmp(&a.score)
                .expect("finite scores")
                .then_with(|| (a.culprit, a.victim).cmp(&(b.culprit, b.victim)))
        });
        passthrough
    }
}

/// The thresholds every property runs at.
const THRESHOLDS: [f64; 5] = [0.005, 0.01, 0.05, 0.3, 1.0];

/// Four NATs, five firewalls, the rest VPNs: several instances per kind.
fn kind_of(id: NfId) -> NfKind {
    match id.0 {
        0..=3 => NfKind::Nat,
        4..=8 => NfKind::Firewall,
        _ => NfKind::Vpn,
    }
}

/// Small pools, so exact keys repeat and prefixes share long stems.
const SRC: [&str; 8] = [
    "10.0.0.1",
    "10.0.0.2",
    "10.0.0.3",
    "10.0.1.7",
    "10.128.0.1",
    "192.168.1.1",
    "100.0.0.1",
    "100.0.0.9",
];
const DST: [&str; 5] = ["32.0.0.1", "32.0.0.2", "32.0.1.1", "8.8.8.8", "1.2.3.4"];
/// Both sides of the 0-1023 / 1024-65535 static split, and its ends.
const PORTS: [u16; 14] = [
    0, 80, 443, 1022, 1023, 1024, 1025, 2000, 2001, 2008, 6000, 6004, 40_000, 65_535,
];
/// Equal weights are common in real relation sets; the rest are drawn so
/// that summation order shows in the low bits.
const WEIGHTS: [f64; 4] = [1.0, 0.5, 2.0, 0.25];

/// A flow, absent one time in six.
fn flow() -> impl Strategy<Value = Option<FiveTuple>> {
    (
        0usize..6,
        0usize..SRC.len(),
        0usize..DST.len(),
        (0usize..PORTS.len(), 0usize..PORTS.len()),
        any::<bool>(),
    )
        .prop_map(|(some, s, d, (sp, dp), tcp)| {
            (some > 0).then(|| {
                FiveTuple::new(
                    parse_ip(SRC[s]).unwrap(),
                    parse_ip(DST[d]).unwrap(),
                    PORTS[sp],
                    PORTS[dp],
                    if tcp { Proto::TCP } else { Proto::UDP },
                )
            })
        })
}

/// The source one time in fourteen, else one of thirteen NFs.
fn location() -> impl Strategy<Value = Location> {
    (0u16..14).prop_map(|k| {
        if k == 0 {
            Location::Source
        } else {
            Location::Nf(NfId(k - 1))
        }
    })
}

/// One of a few fixed weights half the time, else a drawn one.
fn weight() -> impl Strategy<Value = f64> {
    (0usize..8, 0.01f64..5.0).prop_map(|(k, w)| WEIGHTS.get(k).copied().unwrap_or(w))
}

/// A culprit: one of three hot culprits six times in ten, so per-culprit
/// victim groups grow past the exact-value fast path; else any culprit.
fn culprit() -> impl Strategy<Value = (Option<FiveTuple>, Location)> {
    (0usize..10, flow(), location()).prop_map(|(k, flow, loc)| match k {
        0 | 1 => (Some(hot_flow(2000)), Location::Nf(NfId(5))),
        2 | 3 => (Some(hot_flow(2008)), Location::Nf(NfId(5))),
        4 | 5 => (None, Location::Source),
        _ => (flow, loc),
    })
}

fn hot_flow(sport: u16) -> FiveTuple {
    FiveTuple::new(
        parse_ip("100.0.0.1").unwrap(),
        parse_ip("32.0.0.1").unwrap(),
        sport,
        6000,
        Proto::TCP,
    )
}

fn relation() -> impl Strategy<Value = CausalRelation> {
    (culprit(), flow(), location(), weight()).prop_map(
        |((culprit_flow, culprit_loc), victim_flow, victim_loc, score)| CausalRelation {
            culprit_flow,
            culprit_loc,
            victim_flow,
            victim_loc,
            score,
        },
    )
}

fn item() -> impl Strategy<Value = SideItem> {
    (flow(), location(), weight()).prop_map(|(flow, loc, weight)| SideItem { flow, loc, weight })
}

/// A pattern list with every score as its bit pattern.
fn bits(patterns: &[Pattern]) -> Vec<(SideAggregate, SideAggregate, u64)> {
    patterns
        .iter()
        .map(|p| (p.culprit, p.victim, p.score.to_bits()))
        .collect()
}

/// `(value, weight)` pairs with every weight as its bit pattern.
fn weight_bits<K: Clone>(out: &[(K, f64)]) -> Vec<(K, u64)> {
    out.iter().map(|(k, w)| (k.clone(), w.to_bits())).collect()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]

    #[test]
    fn patterns_match_the_cross_product_oracle(
        relations in proptest::collection::vec(relation(), 0..120),
    ) {
        for th in THRESHOLDS {
            for adaptive_ports in [false, true] {
                let cfg = PatternConfig {
                    cluster: ClusterConfig { threshold: th, ..Default::default() },
                    adaptive_ports,
                };
                let got = autofocus::aggregate_patterns(&relations, &cfg, &kind_of);
                let want = oracle::aggregate_patterns(&relations, &cfg, &kind_of);
                prop_assert_eq!(bits(&got), bits(&want), "th {} adaptive {}", th, adaptive_ports);
            }
        }
    }

    #[test]
    fn side_clusters_match_the_cross_product_oracle(
        items in proptest::collection::vec(item(), 0..90),
    ) {
        for th in THRESHOLDS {
            let cfg = ClusterConfig { threshold: th, ..Default::default() };
            let got = autofocus::aggregate_side(&items, &cfg, &kind_of);
            let want = oracle::aggregate_side(&items, &cfg, &kind_of);
            prop_assert_eq!(weight_bits(&got), weight_bits(&want), "th {}", th);
        }
    }

    #[test]
    fn hhh_1d_matches_the_map_based_oracle(
        items in proptest::collection::vec(item(), 0..120),
        decimal in proptest::collection::vec((0u32..400, weight()), 0..120),
    ) {
        let total: f64 = items.iter().map(|i| i.weight).sum();
        for th in THRESHOLDS {
            let th = th * total;
            let prefixes = || {
                items
                    .iter()
                    .filter_map(|i| i.flow.map(|f| (Prefix::host(f.src_ip), i.weight)))
            };
            let got = autofocus::hierarchy::hhh_1d(
                prefixes(),
                |p: &Prefix| p.parent(),
                |p: &Prefix| usize::from(p.len()),
                th,
            );
            let want = oracle::hhh_1d(prefixes(), |p: &Prefix| p.parent(), th);
            prop_assert_eq!(weight_bits(&got), weight_bits(&want), "prefixes at {}", th);

            // The source sits one level above the NF instances, beside the
            // kinds, so the levels mix leaves and rolled-up values.
            let locations = || items.iter().map(|i| (LocationAgg::Exact(i.loc), i.weight));
            let got = autofocus::hierarchy::hhh_1d(
                locations(),
                |l: &LocationAgg| l.parent(&kind_of),
                LocationAgg::depth,
                th,
            );
            let want = oracle::hhh_1d(locations(), |l: &LocationAgg| l.parent(&kind_of), th);
            prop_assert_eq!(weight_bits(&got), weight_bits(&want), "locations at {}", th);
        }

        // Decimal digits, parent n / 10: inputs on every level, so a value
        // can be both an input and a parent that weight rolls up into.
        // float: canonical-order(summed in the drawn order)
        let total: f64 = decimal.iter().map(|(_, w)| w).sum();
        let parent = |n: &u32| (*n > 0).then(|| n / 10);
        let depth = |n: &u32| match n {
            0 => 0,
            1..=9 => 1,
            10..=99 => 2,
            _ => 3,
        };
        for th in THRESHOLDS {
            let got = autofocus::hierarchy::hhh_1d(decimal.iter().copied(), parent, depth, th * total);
            let want = oracle::hhh_1d(decimal.iter().copied(), parent, th * total);
            prop_assert_eq!(weight_bits(&got), weight_bits(&want), "decimal at {}", th);
        }
    }
}
