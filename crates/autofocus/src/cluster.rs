//! Multi-dimensional clustering of one side of a causal relation
//! (flow five-tuple × location).
//!
//! Following AutoFocus: first find the unidimensionally significant values
//! per dimension (exact 1-D HHH), then form candidate multi-dimensional
//! clusters from their cross product, then *compress* — walk candidates from
//! most specific to most general, report a candidate when the weight of the
//! items it matches that are not already claimed by a reported (more
//! specific) cluster reaches the threshold.

use crate::hierarchy::hhh_1d;
use nf_types::{FiveTuple, FlowAggregate, NfId, NfKind, PortRange, Prefix, ProtoMatch};
use serde::{Deserialize, Serialize};
use std::cmp::{Ordering, Reverse};
use std::collections::HashMap;
use std::fmt;

/// Where a culprit or victim lives: the traffic source or an NF instance.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord, Serialize, Deserialize)]
pub enum Location {
    /// The traffic source.
    Source,
    /// One NF instance.
    Nf(NfId),
}

/// The location generalisation ladder: instance → NF kind → anywhere.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord, Serialize, Deserialize)]
pub enum LocationAgg {
    /// Exactly this location.
    Exact(Location),
    /// Any instance of this NF kind.
    Kind(NfKind),
    /// Anywhere.
    Any,
}

impl LocationAgg {
    /// One generalisation step; needs the instance→kind mapping.
    pub fn parent(&self, kind_of: &impl Fn(NfId) -> NfKind) -> Option<LocationAgg> {
        match self {
            LocationAgg::Exact(Location::Nf(id)) => Some(LocationAgg::Kind(kind_of(*id))),
            LocationAgg::Exact(Location::Source) => Some(LocationAgg::Any),
            LocationAgg::Kind(_) => Some(LocationAgg::Any),
            LocationAgg::Any => None,
        }
    }

    /// Generalisation steps up to [`LocationAgg::Any`].
    pub fn depth(&self) -> usize {
        match self {
            LocationAgg::Exact(Location::Nf(_)) => 2,
            LocationAgg::Exact(Location::Source) | LocationAgg::Kind(_) => 1,
            LocationAgg::Any => 0,
        }
    }

    /// Does this aggregate match a concrete location?
    pub fn matches(&self, loc: Location, kind_of: &impl Fn(NfId) -> NfKind) -> bool {
        match self {
            LocationAgg::Exact(l) => *l == loc,
            LocationAgg::Kind(k) => matches!(loc, Location::Nf(id) if kind_of(id) == *k),
            LocationAgg::Any => true,
        }
    }
}

impl fmt::Display for Location {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Location::Source => write!(f, "source"),
            Location::Nf(id) => write!(f, "{id}"),
        }
    }
}

impl fmt::Display for LocationAgg {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            LocationAgg::Exact(l) => write!(f, "{l}"),
            LocationAgg::Kind(k) => write!(f, "{k}*"),
            LocationAgg::Any => write!(f, "*"),
        }
    }
}

/// An aggregated side: flow aggregate plus location aggregate.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord, Serialize, Deserialize)]
pub struct SideAggregate {
    /// Flow-space part (ANY when the items carried no flow).
    pub flow: FlowAggregate,
    /// Location part.
    pub loc: LocationAgg,
}

impl SideAggregate {
    /// Does this aggregate match a concrete (flow, location) item?
    pub fn matches(
        &self,
        flow: Option<&FiveTuple>,
        loc: Location,
        kind_of: &impl Fn(NfId) -> NfKind,
    ) -> bool {
        let flow_ok = match flow {
            Some(ft) => self.flow.matches(ft),
            // Flow-less items are matched only by the ANY flow aggregate.
            None => self.flow == FlowAggregate::ANY,
        };
        flow_ok && self.loc.matches(loc, kind_of)
    }

    /// Specificity for most-specific-first compression ordering.
    pub fn specificity(&self) -> u32 {
        self.flow.specificity()
            + match self.loc {
                LocationAgg::Exact(_) => 16,
                LocationAgg::Kind(_) => 8,
                LocationAgg::Any => 0,
            }
    }
}

/// Clustering parameters.
#[derive(Debug, Clone)]
pub struct ClusterConfig {
    /// Fraction of the total weight a cluster must claim (the paper's `th`,
    /// 1% in the evaluation). Must be positive: compression never looks at
    /// candidates that match no item, which is exact only because a zero
    /// claim cannot reach a positive threshold.
    pub threshold: f64,
    /// Cap on unidimensionally significant values kept per dimension
    /// (safety valve against candidate blow-up). Values above 511 act as
    /// 511, so that a dimension index fits the packed candidate key.
    pub max_per_dim: usize,
}

impl Default for ClusterConfig {
    fn default() -> Self {
        Self {
            threshold: 0.01,
            max_per_dim: 48,
        }
    }
}

/// One weighted input item for side aggregation.
#[derive(Debug, Clone, Copy)]
pub struct SideItem {
    /// Exact flow, if the relation carries one.
    pub flow: Option<FiveTuple>,
    /// Concrete location.
    pub loc: Location,
    /// Score mass.
    pub weight: f64,
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
                (LocationAgg::Kind(k), Location::Nf(b)) if k == kind_of(b) => LocationAgg::Kind(k),
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
    let max_kept = cfg.max_per_dim.min(MAX_KEPT - 1);
    let src: Vec<Prefix> = top(
        hhh_1d(
            items
                .iter()
                .filter_map(|i| i.flow.map(|f| (Prefix::host(f.src_ip), i.weight))),
            |p: &Prefix| p.parent(),
            |p: &Prefix| usize::from(p.len()),
            th,
        ),
        max_kept,
    );
    let dst: Vec<Prefix> = top(
        hhh_1d(
            items
                .iter()
                .filter_map(|i| i.flow.map(|f| (Prefix::host(f.dst_ip), i.weight))),
            |p: &Prefix| p.parent(),
            |p: &Prefix| usize::from(p.len()),
            th,
        ),
        max_kept,
    );
    let sport: Vec<PortRange> = top(
        hhh_1d(
            items
                .iter()
                .filter_map(|i| i.flow.map(|f| (PortRange::exact(f.src_port), i.weight))),
            |p: &PortRange| p.static_parent(),
            port_depth,
            th,
        ),
        max_kept,
    );
    let dport: Vec<PortRange> = top(
        hhh_1d(
            items
                .iter()
                .filter_map(|i| i.flow.map(|f| (PortRange::exact(f.dst_port), i.weight))),
            |p: &PortRange| p.static_parent(),
            port_depth,
            th,
        ),
        max_kept,
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
            |p: &ProtoMatch| usize::from(matches!(p, ProtoMatch::Exact(_))),
            th,
        ),
        max_kept,
    );
    let locs: Vec<LocationAgg> = top(
        hhh_1d(
            items.iter().map(|i| (LocationAgg::Exact(i.loc), i.weight)),
            |l: &LocationAgg| l.parent(kind_of),
            LocationAgg::depth,
            th,
        ),
        max_kept,
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
    // dimensions is an upper bound — AutoFocus's candidate-pruning trick:
    // a candidate is dropped when any of its values weighs under `th`.
    let weight_of = |pred: &dyn Fn(&SideItem) -> bool| -> f64 {
        // float: canonical-order(summed over the input slice in its stored order)
        items.iter().filter(|i| pred(i)).map(|i| i.weight).sum()
    };
    let src_m = |p: &Prefix, i: &SideItem| i.flow.map_or(p.is_any(), |f| p.contains(f.src_ip));
    let dst_m = |p: &Prefix, i: &SideItem| i.flow.map_or(p.is_any(), |f| p.contains(f.dst_ip));
    let sport_m =
        |r: &PortRange, i: &SideItem| i.flow.map_or(r.is_any(), |f| r.contains(f.src_port));
    let dport_m =
        |r: &PortRange, i: &SideItem| i.flow.map_or(r.is_any(), |f| r.contains(f.dst_port));
    let proto_m = |p: &ProtoMatch, i: &SideItem| {
        i.flow
            .map_or(matches!(p, ProtoMatch::Any), |f| p.contains(f.proto))
    };
    let locs_m = |l: &LocationAgg, i: &SideItem| l.matches(i.loc, kind_of);
    let src_live = live(src.iter().map(|p| weight_of(&|i| src_m(p, i))), th);
    let dst_live = live(dst.iter().map(|p| weight_of(&|i| dst_m(p, i))), th);
    let proto_live = live(proto.iter().map(|p| weight_of(&|i| proto_m(p, i))), th);
    let sport_live = live(sport.iter().map(|r| weight_of(&|i| sport_m(r, i))), th);
    let dport_live = live(dport.iter().map(|r| weight_of(&|i| dport_m(r, i))), th);
    let locs_live = live(locs.iter().map(|l| weight_of(&|i| locs_m(l, i))), th);

    // 2. Candidates from items. The candidates an item counts towards are
    // the cross product of the live values it matches in each dimension;
    // emit one (candidate key, item) pair for each, items in ascending
    // index. A candidate that matches no item claims nothing, so with
    // th > 0 it is never reported and never takes an item: leaving it out
    // changes no output. The catch-all weighs `total` > th in every
    // dimension (th ≥ 0.999 × total took the meet path above), so it is
    // always live and every item pairs with it.
    let mut pairs: Vec<(u64, usize)> = Vec::new();
    let mut hits: [Vec<usize>; 6] = Default::default();
    for (n, item) in items.iter().enumerate() {
        let [hs, hd, hp, hsp, hdp, hl] = &mut hits;
        matching(hs, &src_live, |v| src_m(&src[v], item));
        matching(hd, &dst_live, |v| dst_m(&dst[v], item));
        matching(hp, &proto_live, |v| proto_m(&proto[v], item));
        matching(hsp, &sport_live, |v| sport_m(&sport[v], item));
        matching(hdp, &dport_live, |v| dport_m(&dport[v], item));
        matching(hl, &locs_live, |v| locs_m(&locs[v], item));
        for &si in hs.iter() {
            for &di in hd.iter() {
                for &pi in hp.iter() {
                    for &spi in hsp.iter() {
                        for &dpi in hdp.iter() {
                            for &li in hl.iter() {
                                pairs.push((pack([si, di, pi, spi, dpi, li]), n));
                            }
                        }
                    }
                }
            }
        }
    }
    // Sorting groups each candidate's pairs, items still ascending, with
    // candidates in cross-product (lexicographic index) order; the stable
    // specificity sort of the groups then gives the compression order.
    pairs.sort_unstable();
    let mut candidates: Vec<_> = pairs
        .chunk_by(|a, b| a.0 == b.0)
        .map(|run| {
            let [si, di, pi, spi, dpi, li] = unpack(run[0].0);
            let cand = SideAggregate {
                flow: FlowAggregate {
                    src: src[si],
                    dst: dst[di],
                    proto: proto[pi],
                    src_port: sport[spi],
                    dst_port: dport[dpi],
                },
                loc: locs[li],
            };
            (Reverse(cand.specificity()), cand, run)
        })
        .collect();
    candidates.sort_by_key(|c| c.0);

    // 3. Compression: most specific first; a candidate claims the items it
    // matches that no reported cluster has claimed; report if the claim
    // reaches the threshold. The (ANY, ANY) catch-all is always reported
    // last with the remainder.
    let catch_all = SideAggregate {
        flow: FlowAggregate::ANY,
        loc: LocationAgg::Any,
    };
    let mut claimed = vec![false; items.len()];
    let mut unclaimed = items.len();
    let mut out: Vec<(SideAggregate, f64)> = Vec::new();
    for (_, cand, run) in candidates {
        if unclaimed == 0 {
            break;
        }
        let claim: f64 = run
            .iter()
            .filter(|&&(_, n)| !claimed[n])
            .map(|&(_, n)| items[n].weight)
            .sum(); // float: canonical-order(a run lists its items in ascending index)
        if claim >= th || (cand == catch_all && claim > 0.0) {
            for &(_, n) in run {
                if !claimed[n] {
                    claimed[n] = true;
                    unclaimed -= 1;
                }
            }
            out.push((cand, claim));
        }
    }
    out.sort_by(|a, b| b.1.total_cmp(&a.1).then_with(|| a.0.cmp(&b.0)));
    out
}

/// Indices of the values of one dimension that survive the bound: all but
/// those whose matched weight is under `th`.
fn live(weights: impl Iterator<Item = f64>, th: f64) -> Vec<usize> {
    weights
        .enumerate()
        .filter(|&(_, w)| w.partial_cmp(&th) != Some(Ordering::Less))
        .map(|(v, _)| v)
        .collect()
}

/// Fills `out` with the live value indices `hit` accepts.
fn matching(out: &mut Vec<usize>, live: &[usize], hit: impl Fn(usize) -> bool) {
    out.clear();
    out.extend(live.iter().copied().filter(|&v| hit(v)));
}

/// Bits per value index in a packed candidate key.
const IDX_BITS: u32 = 9;
/// Values a dimension may keep, its wildcard included, so that every index
/// fits in [`IDX_BITS`].
const MAX_KEPT: usize = 1 << IDX_BITS;

/// Packs a candidate's six value indices, the first most significant, so
/// that keys order like the index tuples: 6 × 9 = 54 bits.
fn pack(idx: [usize; 6]) -> u64 {
    idx.iter()
        .fold(0, |key, &i| (key << IDX_BITS) | (i % MAX_KEPT) as u64)
}

/// The six value indices of a packed key.
fn unpack(mut key: u64) -> [usize; 6] {
    let mut idx = [0; 6];
    for slot in idx.iter_mut().rev() {
        // A 9-bit index always fits a usize.
        *slot = usize::try_from(key % (1 << IDX_BITS)).unwrap_or_default();
        key >>= IDX_BITS;
    }
    idx
}

/// Depth of a port value on the static ladder exact → half → wildcard (an
/// adaptive range sits directly under the wildcard).
pub(crate) fn port_depth(r: &PortRange) -> usize {
    if r.is_any() {
        0
    } else if r.is_exact() {
        2
    } else {
        1
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use nf_types::{parse_ip, Proto};

    fn kind_of(_: NfId) -> NfKind {
        NfKind::Firewall
    }

    fn ft(src: &str, sport: u16, dport: u16) -> FiveTuple {
        FiveTuple::new(
            parse_ip(src).unwrap(),
            parse_ip("32.0.0.1").unwrap(),
            sport,
            dport,
            Proto::TCP,
        )
    }

    #[test]
    fn single_hot_flow_reported_exactly() {
        let mut items = vec![SideItem {
            flow: Some(ft("100.0.0.1", 2004, 6004)),
            loc: Location::Nf(NfId(1)),
            weight: 90.0,
        }];
        // Background noise spread over many flows.
        for i in 0..10 {
            items.push(SideItem {
                flow: Some(ft("10.0.0.9", 5000 + i, 80)),
                loc: Location::Nf(NfId(2)),
                weight: 1.0,
            });
        }
        let out = aggregate_side(&items, &ClusterConfig::default(), &kind_of);
        let top = &out[0];
        assert!(top.1 >= 90.0);
        assert!(top.0.flow.matches(&ft("100.0.0.1", 2004, 6004)));
        assert_eq!(top.0.loc, LocationAgg::Exact(Location::Nf(NfId(1))));
        // And it is the *specific* flow, not a wildcard.
        assert_eq!(top.0.flow.src, Prefix::host(parse_ip("100.0.0.1").unwrap()));
    }

    #[test]
    fn sibling_flows_aggregate_to_shared_prefix() {
        // 8 hosts under 100.0.0.0/28 each carry 5% — individually below a
        // 10% threshold, only significant as prefix groups. Every other
        // dimension is identical across all items, so the src dimension is
        // the only one that can separate them.
        let mut items = Vec::new();
        for h in 1..=8u32 {
            items.push(SideItem {
                flow: Some(FiveTuple::new(
                    parse_ip("100.0.0.0").unwrap() + h,
                    parse_ip("32.0.0.1").unwrap(),
                    2000,
                    6000,
                    Proto::TCP,
                )),
                loc: Location::Nf(NfId(1)),
                weight: 5.0,
            });
        }
        // Background with a different src but everything else equal.
        for _ in 0..60 {
            items.push(SideItem {
                flow: Some(FiveTuple::new(
                    parse_ip("10.0.0.9").unwrap(),
                    parse_ip("32.0.0.1").unwrap(),
                    2000,
                    6000,
                    Proto::TCP,
                )),
                loc: Location::Nf(NfId(1)),
                weight: 1.0,
            });
        }
        let cfg = ClusterConfig {
            threshold: 0.1,
            ..Default::default()
        };
        let out = aggregate_side(&items, &cfg, &kind_of);
        // The sibling hosts' 40.0 of weight must be claimed by prefix
        // clusters under 100.0.0.0/24 (generalised, yet excluding the
        // 10.0.0.9 background).
        let umbrella = Prefix::new(parse_ip("100.0.0.0").unwrap(), 24);
        let sibling_weight: f64 = out
            .iter()
            .filter(|(agg, _)| umbrella.covers(&agg.flow.src))
            .map(|(_, w)| w)
            .sum();
        assert!(
            sibling_weight >= 40.0 - 1e-9,
            "prefix clusters claim {sibling_weight}, output {out:?}"
        );
        // At least one cluster generalised beyond a single host.
        assert!(
            out.iter()
                .any(|(agg, _)| umbrella.covers(&agg.flow.src) && agg.flow.src.len() < 32),
            "no generalised prefix cluster: {out:?}"
        );
    }

    #[test]
    fn weights_conserved_via_catch_all() {
        let items: Vec<SideItem> = (0..50)
            .map(|i| SideItem {
                flow: Some(ft("10.0.0.9", 1024 + i, 80)),
                loc: Location::Nf(NfId(i % 4)),
                weight: 1.0,
            })
            .collect();
        let out = aggregate_side(&items, &ClusterConfig::default(), &kind_of);
        let sum: f64 = out.iter().map(|(_, w)| w).sum();
        assert!((sum - 50.0).abs() < 1e-9, "sum {sum}");
    }

    #[test]
    fn flowless_items_fall_into_any_flow_clusters() {
        let items = vec![
            SideItem {
                flow: None,
                loc: Location::Nf(NfId(3)),
                weight: 10.0,
            },
            SideItem {
                flow: None,
                loc: Location::Nf(NfId(3)),
                weight: 10.0,
            },
        ];
        let out = aggregate_side(&items, &ClusterConfig::default(), &kind_of);
        assert!(!out.is_empty());
        let top = &out[0];
        assert_eq!(top.0.flow, FlowAggregate::ANY);
        assert_eq!(top.0.loc, LocationAgg::Exact(Location::Nf(NfId(3))));
        assert!((top.1 - 20.0).abs() < 1e-9);
    }

    #[test]
    fn location_generalises_to_kind() {
        // Weight spread over 6 firewall instances, none significant alone
        // with a high threshold, but the kind is.
        let items: Vec<SideItem> = (0..6)
            .map(|i| SideItem {
                flow: Some(ft("100.0.0.1", 2000, 6000)),
                loc: Location::Nf(NfId(i)),
                weight: 5.0,
            })
            .collect();
        let cfg = ClusterConfig {
            threshold: 0.3, // 9.0 absolute: single instances (5.0) miss it
            ..Default::default()
        };
        let out = aggregate_side(&items, &cfg, &kind_of);
        let top = &out[0];
        assert_eq!(top.0.loc, LocationAgg::Kind(NfKind::Firewall));
        assert!((top.1 - 30.0).abs() < 1e-9);
    }

    #[test]
    fn empty_input_is_empty_output() {
        let out = aggregate_side(&[], &ClusterConfig::default(), &kind_of);
        assert!(out.is_empty());
    }
}
