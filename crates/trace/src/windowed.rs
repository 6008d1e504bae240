//! Windowed trace reconstruction: the streaming counterpart of
//! `EdgeStreams::build → match_all → assemble`.
//!
//! The offline pipeline needs the whole run in memory three times over
//! (bundle, flattened streams, per-edge match tables). This module consumes
//! the run as time-ordered chunks instead and keeps only a *frontier*:
//! undecided rx entries, unconsumed sends, and walks of in-flight packets.
//! Everything behind the frontier is evicted as soon as it is decided, so
//! the reconstruction working set is O(window + in-flight), not O(run).
//!
//! ## Bit-identity
//!
//! The output must equal the offline reconstruction *exactly* — the offline
//! path is the oracle the equivalence suite diffs against. Two observations
//! make that possible:
//!
//! 1. **Matching is per-NF local and prefix-monotone.** The matcher's
//!    decision for rx entry `k` depends only on (a) sends within the timing
//!    window of reads `k..k+lookahead` and (b) the committed cursors, which
//!    are a pure function of decisions `0..k`. Once the watermark `W`
//!    passes `rx[k + lookahead].ts + negative_slack`, every send that could
//!    still arrive has `ts >= W` and fails the timing window for all reads
//!    the decision may consult — so deciding now equals deciding with the
//!    full run in hand. (Single-upstream NFs have no ambiguity and need no
//!    lookahead margin.)
//! 2. **Assembly order is recoverable.** Walks finalize out of emission
//!    order, but traces are committed through a reorder ring indexed by
//!    source index, so the hop arena, path trie interning, `rx_to_trace`
//!    and report counters are appended in exactly the offline order.
//!
//! ## Frontier layout
//!
//! Every piece of frontier state is keyed by a dense, monotone index, so it
//! lives in a ring offset by that index's eviction base instead of a map:
//! undecided sends by edge position − committed cursor, decided-but-unclaimed
//! outcomes by edge position − `decided_base`, walks parked on a missing tx
//! entry by rx index − `parked_base`, and in-flight traces by trace −
//! `next_commit`. The one genuinely sparse key, the 16-bit IPID, indexes a
//! chain of same-IPID sends threaded through the send ring; its (head,
//! tail) table is the only map, on a multiplicative hasher.
//!
//! What is *not* reproduced is `Reconstruction::streams`: the flattened
//! full-run streams are the very thing streaming avoids holding, so the
//! returned reconstruction carries empty streams and the per-NF timelines
//! are built incrementally (`NfTimelineBuilder`) and returned alongside.

use crate::matching::{choose_candidate, MatchConfig, MatchStats, PlayoutEdge};
use crate::reconstruct::{
    PathTrie, ReconstructedTrace, Reconstruction, ReconstructionReport, RxTraceRef, TraceHop,
    TraceOutcome, PATH_ROOT,
};
use crate::streams::{EdgeStreams, RxBatchInfo};
use crate::timeline::{Arrival, ArrivalKind, NfTimelineBuilder, Timelines};
use msc_collector::{BundleChunk, NfLog, TraceBundle};
use nf_types::{FiveTuple, Ipid, Nanos, NfId, NodeId, Topology};
use std::collections::hash_map::Entry;
use std::collections::{HashMap, VecDeque};
use std::fmt;
use std::hash::{BuildHasherDefault, Hasher};

/// Errors from streaming ingestion.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum StreamError {
    /// A chunk's NF log count does not match the topology.
    TopologyMismatch {
        /// NFs in the topology.
        expected: usize,
        /// NF logs in the chunk.
        got: usize,
    },
    /// A source record's entry NF has no source edge in the topology.
    MissingSourceEdge {
        /// The entry NF.
        nf: NfId,
    },
    /// A chunk that does not continue the stream: its `until` lies below
    /// the previous chunk's, or one of its records lies outside
    /// `[previous until, until)`.
    ChunkOutOfOrder {
        /// The previous chunk's `until` (0 before the first chunk).
        from: Nanos,
        /// This chunk's `until`.
        until: Nanos,
        /// The first record timestamp outside the window; `None` when
        /// `until` itself went backwards.
        ts: Option<Nanos>,
    },
}

impl fmt::Display for StreamError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            StreamError::TopologyMismatch { expected, got } => {
                write!(f, "chunk has {got} NF logs, topology has {expected} NFs")
            }
            StreamError::MissingSourceEdge { nf } => {
                write!(f, "entry NF {nf:?} has no source edge in the topology")
            }
            StreamError::ChunkOutOfOrder { from, until, ts } => match ts {
                None => write!(
                    f,
                    "chunk ends at {until} ns, before the previous chunk's end {from} ns"
                ),
                Some(ts) => write!(
                    f,
                    "record at {ts} ns lies outside its chunk window [{from}, {until}) ns"
                ),
            },
        }
    }
}

impl std::error::Error for StreamError {}

/// Proof that a chunk passed [`WindowedReconstructor::admit_chunk`], the
/// one place a chunk's topology and time window are checked; consumed by
/// [`WindowedReconstructor::ingest`]. Records reach the reconstructor only
/// through [`WindowedReconstructor::ingest_chunk`], or through
/// `admit_chunk` and then `ingest` of the same chunk's records — as they
/// are, or transformed (skew correction) with one log per NF kept and
/// timestamps kept monotone.
#[derive(Debug)]
#[must_use = "pass it to WindowedReconstructor::ingest"]
pub struct Admitted(());

/// End of an IPID chain in [`Send::next`]. Larger than every position, so
/// a chain walk towards a cursor stops on it without a separate test.
const NIL: usize = usize::MAX;

/// Multiplicative hasher for the 16-bit IPID keys of [`IncEdge::chains`]:
/// one multiply per key instead of SipHash's rounds. The rotation moves the
/// product's high half, which mixes every key bit, into the low bits the
/// table indexes by.
///
/// IPIDs come from the bundle, so a fixed hash lets a crafted bundle pick
/// colliding keys. The 2^16 key domain bounds the damage: checked over
/// every IPID, no table size this map can reach puts more than 224 keys on
/// one home bucket, so a lookup costs at most ~14 probe groups — a bounded
/// slowdown, never a quadratic one. The map is never iterated, so the hash
/// cannot reach any output.
#[derive(Debug, Default, Clone, Copy)]
struct IpidHasher(u64);

impl Hasher for IpidHasher {
    fn write(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.0 = (self.0.rotate_left(8) ^ u64::from(b)).wrapping_mul(0x9E37_79B9_7F4A_7C15);
        }
    }

    fn write_u16(&mut self, n: u16) {
        self.0 = (self.0 ^ u64::from(n)).wrapping_mul(0x9E37_79B9_7F4A_7C15);
    }

    fn finish(&self) -> u64 {
        self.0.rotate_left(32)
    }
}

/// What the matcher decided about one edge position.
#[derive(Debug, Clone, Copy)]
enum EdgeDecision {
    /// Matched to the downstream rx entry `rx_idx`, read at `read_ts`.
    Matched { rx_idx: usize, read_ts: Nanos },
    /// Skipped behind a later same-edge match: dropped at the ring.
    Dropped,
}

/// Who consumes the decision of an undecided send.
#[derive(Debug, Clone, Copy)]
enum Claim {
    /// Nobody yet: the decision is kept until the owning walk arrives.
    Open,
    /// The walk of this trace is suspended on the decision.
    Waiter(usize),
    /// The upstream send was proven dead (no walk will ever consume the
    /// decision): it is swallowed, and a `Matched` one kills the
    /// downstream tx slot too.
    Ghost,
}

/// One undecided send on an edge.
#[derive(Debug, Clone, Copy)]
struct Send {
    ts: Nanos,
    /// Position of the next undecided send with the same IPID ([`NIL`] at
    /// the chain's tail).
    next: usize,
    ipid: Ipid,
    claim: Claim,
}

/// First and last undecided position of one IPID's chain.
#[derive(Debug, Clone, Copy)]
struct Chain {
    head: usize,
    tail: usize,
}

/// One upstream edge of a downstream NF, holding only undecided sends and
/// decisions nobody has consumed yet.
///
/// The offline matcher's per-IPID counting-sort index spans the whole run;
/// here the same "first unconsumed position with this IPID" semantics come
/// from a per-IPID chain threaded through the send ring, whose head is
/// advanced as the committed cursor passes it — a recycled 16-bit IPID
/// therefore can never alias a consumed send from an earlier window.
#[derive(Debug, Default)]
struct IncEdge {
    /// Undecided sends; `sends[k]` is global position `cursor + k`.
    sends: VecDeque<Send>,
    /// Committed cursor: every position before it is decided.
    cursor: usize,
    /// Chain ends of every IPID with an undecided send.
    chains: HashMap<Ipid, Chain, BuildHasherDefault<IpidHasher>>,
    /// Decisions of positions `decided_base..cursor` still waiting for
    /// their owning walk (`None`: consumed, swallowed or handed over).
    decided: VecDeque<Option<EdgeDecision>>,
    decided_base: usize,
}

impl IncEdge {
    /// Appends a send, returning its global edge position.
    fn push(&mut self, ts: Nanos, ipid: Ipid) -> usize {
        let pos = self.cursor + self.sends.len();
        self.sends.push_back(Send {
            ts,
            next: NIL,
            ipid,
            claim: Claim::Open,
        });
        match self.chains.entry(ipid) {
            Entry::Occupied(mut o) => {
                let c = o.get_mut();
                if let Some(tail) = self.sends.get_mut(c.tail - self.cursor) {
                    tail.next = pos;
                }
                c.tail = pos;
            }
            Entry::Vacant(v) => {
                v.insert(Chain {
                    head: pos,
                    tail: pos,
                });
            }
        }
        pos
    }

    /// Send timestamp of an undecided position.
    // hot: incremental matcher timestamp probe
    fn ts_at(&self, pos: usize) -> Nanos {
        self.sends[pos - self.cursor].ts
    }

    /// Timing-channel check, identical to the offline matcher's.
    // hot: incremental matcher window check
    fn in_window(sent: Nanos, read_ts: Nanos, cfg: &MatchConfig) -> bool {
        sent <= read_ts.saturating_add(cfg.negative_slack_ns)
            && read_ts.saturating_sub(sent) <= cfg.delay_bound_ns
    }

    /// First undecided position with `ipid`, window-checked. A stale first
    /// entry (outside the window) blocks, exactly as offline.
    // hot: incremental matcher candidate scan
    fn candidate(&self, ipid: Ipid, read_ts: Nanos, cfg: &MatchConfig) -> Option<usize> {
        let pos = self.chains.get(&ipid)?.head;
        Self::in_window(self.ts_at(pos), read_ts, cfg).then_some(pos)
    }

    /// Same from a speculative cursor `>= self.cursor` (lookahead playout):
    /// walks the IPID chain past positions the playout already consumed.
    /// Returns the position and its send timestamp.
    // hot: incremental IPID chain walk
    fn candidate_from(
        &self,
        cursor: usize,
        ipid: Ipid,
        read_ts: Nanos,
        cfg: &MatchConfig,
    ) -> Option<(usize, Nanos)> {
        let mut pos = self.chains.get(&ipid)?.head;
        while pos < cursor {
            pos = self.sends[pos - self.cursor].next;
        }
        let sent = self.sends.get(pos.checked_sub(self.cursor)?)?.ts;
        Self::in_window(sent, read_ts, cfg).then_some((pos, sent))
    }

    /// Decides the send at the cursor: unlinks it from its IPID chain,
    /// advances the cursor, keeps `dec` for the owning walk if none has
    /// claimed it yet, and returns the send's claim (`None`: no send).
    fn decide_front(&mut self, dec: EdgeDecision) -> Option<Claim> {
        let s = self.sends.pop_front()?;
        self.cursor += 1;
        if s.next == NIL {
            self.chains.remove(&s.ipid);
        } else if let Some(c) = self.chains.get_mut(&s.ipid) {
            c.head = s.next;
        }
        let kept = matches!(s.claim, Claim::Open).then_some(dec);
        self.decided.push_back(kept);
        self.trim_decided();
        Some(s.claim)
    }

    /// Claims an undecided position for a waiting walk or a ghost.
    fn claim(&mut self, pos: usize, claim: Claim) {
        if let Some(s) = pos
            .checked_sub(self.cursor)
            .and_then(|k| self.sends.get_mut(k))
        {
            s.claim = claim;
        }
    }

    /// Takes the kept decision of a decided position (`None` when it was
    /// already consumed or the position is still undecided).
    fn take_decided(&mut self, pos: usize) -> Option<EdgeDecision> {
        let dec = pos
            .checked_sub(self.decided_base)
            .and_then(|k| self.decided.get_mut(k))
            .and_then(Option::take);
        self.trim_decided();
        dec
    }

    /// Drops consumed decisions off the front of the decided ring.
    fn trim_decided(&mut self) {
        while let Some(None) = self.decided.front() {
            self.decided.pop_front();
            self.decided_base += 1;
        }
    }

    /// Bytes held by the edge frontier, by capacity.
    fn approx_bytes(&self) -> usize {
        use std::mem::size_of;
        self.sends.capacity() * size_of::<Send>()
            // One control byte per bucket besides the slot itself.
            + self.chains.capacity() * (size_of::<(Ipid, Chain)>() + 1)
            + self.decided.capacity() * size_of::<Option<EdgeDecision>>()
    }
}

impl PlayoutEdge for IncEdge {
    fn cursor(&self) -> usize {
        self.cursor
    }

    fn probe(
        &self,
        cursor: usize,
        ipid: Ipid,
        read_ts: Nanos,
        cfg: &MatchConfig,
    ) -> Option<(usize, Nanos)> {
        self.candidate_from(cursor, ipid, read_ts, cfg)
    }
}

/// One undecided rx entry.
#[derive(Debug, Clone, Copy)]
struct RxPend {
    ts: Nanos,
    ipid: Ipid,
}

/// One unconsumed tx entry.
#[derive(Debug, Clone, Copy)]
struct TxSlot {
    ts: Nanos,
    to: Option<NfId>,
    /// Position within its edge stream (or exit/orphan counter).
    pos_within: usize,
    consumed: bool,
}

/// What waits on a tx entry not ingested yet.
#[derive(Debug, Clone, Copy)]
enum Parked {
    /// Nothing.
    Empty,
    /// The walk of this trace, matched to the rx entry with that index.
    Walk(usize),
    /// An rx entry proven ownerless (unmatched, or matched to a dead
    /// send): its tx slot is dead on arrival.
    Dead,
}

/// Per-NF streaming state.
#[derive(Debug)]
struct NfState {
    /// Upstream edges in slot order (`Topology::upstream_nodes` order).
    edges: Vec<IncEdge>,
    /// Undecided rx entries (the matching frontier).
    rx_pending: VecDeque<RxPend>,
    /// Flat rx index of `rx_pending.front()`.
    rx_decided: usize,
    /// Unconsumed tx entries from flat index `tx_base`.
    tx: VecDeque<TxSlot>,
    tx_base: usize,
    tx_total: usize,
    /// What waits on tx entries not ingested yet: `parked[k]` is for tx
    /// (= rx) index `parked_base + k`. Rx entry `k` pairs with tx entry
    /// `k`, so this spans at most the NF's rx − tx deficit (reads the NF
    /// dropped internally and never sent).
    parked: VecDeque<Parked>,
    parked_base: usize,
    /// Unconsumed exit flow records from exit position `flows_base`.
    flows: VecDeque<FiveTuple>,
    flows_base: usize,
    /// Exit sends seen so far (`to == None` position counter).
    exit_count: usize,
    /// Per-target positions of sends to NFs that are not topology edges.
    orphans: Vec<usize>,
    /// Whether exit-flow validation applies (topology exit).
    is_exit: bool,
    stats: MatchStats,
}

impl NfState {
    /// Evicts consumed tx fronts, releasing matching exit flow records.
    fn evict_tx(&mut self) {
        while let Some(front) = self.tx.front() {
            if !front.consumed {
                break;
            }
            let slot = self.tx.pop_front();
            self.tx_base += 1;
            if let Some(TxSlot { to: None, .. }) = slot {
                if self.flows.pop_front().is_some() {
                    self.flows_base += 1;
                }
            }
        }
    }

    /// The exit flow recorded for exit position `pw`, if present.
    fn flow_at(&self, pw: usize) -> Option<FiveTuple> {
        pw.checked_sub(self.flows_base)
            .and_then(|i| self.flows.get(i))
            .copied()
    }

    /// Parks `p` on tx index `j`, which is not ingested yet.
    fn park(&mut self, j: usize, p: Parked) {
        let Some(k) = j.checked_sub(self.parked_base) else {
            return;
        };
        if k >= self.parked.len() {
            self.parked.resize(k + 1, Parked::Empty);
        }
        self.parked[k] = p;
    }

    /// Pops the next parked entry whose tx entry has been ingested.
    fn unpark(&mut self) -> Option<(usize, Parked)> {
        if self.parked.is_empty() {
            self.parked_base = self.parked_base.max(self.tx_total);
        }
        if self.parked_base >= self.tx_total {
            return None;
        }
        let j = self.parked_base;
        self.parked_base += 1;
        Some((j, self.parked.pop_front().unwrap_or(Parked::Empty)))
    }
}

/// Where a suspended walk stands.
#[derive(Debug, Clone, Copy)]
enum WalkState {
    /// Waiting on the match decision for edge position `pos` into `down`.
    AtEdge {
        down: NfId,
        node: NodeId,
        pos: usize,
        arrival: Nanos,
    },
    /// Matched to rx entry `rx_idx` of `down`; needs the tx entry.
    AtTx {
        down: NfId,
        rx_idx: usize,
        read_ts: Nanos,
        arrival: Nanos,
    },
}

/// One in-flight packet's partially assembled trace.
#[derive(Debug)]
struct Walk {
    trace: usize,
    flow: FiveTuple,
    emitted: Nanos,
    hops: Vec<TraceHop>,
    state: WalkState,
}

/// A trace whose walk finished, parked until its emission turn.
#[derive(Debug)]
struct Finished {
    flow: FiveTuple,
    emitted: Nanos,
    hops: Vec<TraceHop>,
    outcome: TraceOutcome,
}

/// One uncommitted trace in the reorder ring.
#[derive(Debug)]
enum Flight {
    /// Its walk is running (taken out of the ring).
    Running,
    /// Its walk waits on an edge decision or a missing tx entry.
    Suspended(Walk),
    /// Finished; committed once every earlier trace is.
    Done(Finished),
}

/// Buffers the decide loop reuses across rx entries.
#[derive(Debug, Default)]
struct Scratch {
    /// (edge, position) candidates of the rx entry being decided.
    cands: Vec<(usize, usize)>,
    /// Speculative per-edge cursors of one lookahead playout.
    cursors: Vec<usize>,
    /// Walks a decision unblocked, with the decision.
    resumes: Vec<(usize, EdgeDecision)>,
    /// Work stack of (NF, tx index) slots proven ownerless.
    dead: Vec<(usize, usize)>,
}

/// The incremental reconstructor. Feed time-ordered chunks with
/// [`Self::ingest_chunk`], then [`Self::finish`] for the reconstruction and
/// timelines — bit-identical to the offline pipeline over the concatenated
/// chunks (minus `Reconstruction::streams`, which stays empty).
#[derive(Debug)]
pub struct WindowedReconstructor {
    topo: Topology,
    cfg: MatchConfig,
    nfs: Vec<NfState>,
    /// `out_slot[u][d]` = slot of NF `u` on downstream `d`; `src_slot[d]`
    /// = slot of the source on `d`.
    out_slot: Vec<Vec<Option<usize>>>,
    src_slot: Vec<Option<usize>>,
    /// Ingestion watermark: every record with `ts < watermark` is in.
    watermark: Nanos,
    /// `until` of the last admitted chunk.
    chunk_until: Nanos,
    /// Uncommitted traces: `flight[k]` is trace `next_commit + k`.
    flight: VecDeque<Flight>,
    next_commit: usize,
    source_total: usize,
    scratch: Scratch,
    // Retained (non-evictable) diagnosis substrate.
    traces: Vec<ReconstructedTrace>,
    hops: Vec<TraceHop>,
    rx_to_trace: Vec<Vec<RxTraceRef>>,
    paths: PathTrie,
    hop_path_ids: Vec<u32>,
    report: ReconstructionReport,
    timelines: Vec<NfTimelineBuilder>,
}

impl WindowedReconstructor {
    /// A reconstructor for `topology` with the given matching parameters.
    pub fn new(topology: &Topology, cfg: MatchConfig) -> Self {
        let n = topology.len();
        let upstreams: Vec<Vec<NodeId>> = (0..n)
            .map(|d| topology.upstream_nodes(NfId(d as u16)))
            .collect();
        let out_slot: Vec<Vec<Option<usize>>> = (0..n)
            .map(|u| {
                let me = NodeId::Nf(NfId(u as u16));
                upstreams
                    .iter()
                    .map(|ups| ups.iter().position(|&node| node == me))
                    .collect()
            })
            .collect();
        let src_slot: Vec<Option<usize>> = upstreams
            .iter()
            .map(|ups| ups.iter().position(|&node| node == NodeId::Source))
            .collect();
        let nfs = (0..n)
            .map(|d| NfState {
                edges: upstreams[d].iter().map(|_| IncEdge::default()).collect(),
                rx_pending: VecDeque::new(),
                rx_decided: 0,
                tx: VecDeque::new(),
                tx_base: 0,
                tx_total: 0,
                parked: VecDeque::new(),
                parked_base: 0,
                flows: VecDeque::new(),
                flows_base: 0,
                exit_count: 0,
                orphans: vec![0; n],
                is_exit: topology.exits().contains(&NfId(d as u16)),
                stats: MatchStats::default(),
            })
            .collect();
        let timelines = (0..n)
            .map(|i| NfTimelineBuilder::new(NfId(i as u16)))
            .collect();
        Self {
            topo: topology.clone(),
            cfg,
            nfs,
            out_slot,
            src_slot,
            watermark: 0,
            chunk_until: 0,
            flight: VecDeque::new(),
            next_commit: 0,
            source_total: 0,
            scratch: Scratch::default(),
            traces: Vec::new(),
            hops: Vec::new(),
            rx_to_trace: vec![Vec::new(); n],
            paths: PathTrie::new(),
            hop_path_ids: Vec::new(),
            report: ReconstructionReport::default(),
            timelines,
        }
    }

    /// Ingests one chunk: every record with `previous until <= ts < until`.
    pub fn ingest_chunk(&mut self, chunk: &BundleChunk) -> Result<(), StreamError> {
        let admitted = self.admit_chunk(chunk)?;
        self.ingest(admitted, &chunk.bundle, chunk.until)
    }

    /// Checks that `chunk` fits the topology and continues the stream —
    /// its `until` is not below the previous admitted chunk's and every
    /// record lies in `[previous until, until)` — and, if so, makes its
    /// `until` the bound the next chunk must continue from. Changes
    /// nothing else, so a caller can validate a raw chunk before
    /// transforming its records (skew correction) and ingesting them.
    pub fn admit_chunk(&mut self, chunk: &BundleChunk) -> Result<Admitted, StreamError> {
        let b = &chunk.bundle;
        if b.logs.len() != self.nfs.len() {
            return Err(StreamError::TopologyMismatch {
                expected: self.nfs.len(),
                got: b.logs.len(),
            });
        }
        let (from, until) = (self.chunk_until, chunk.until);
        if until < from {
            return Err(StreamError::ChunkOutOfOrder {
                from,
                until,
                ts: None,
            });
        }
        let stray = b
            .logs
            .iter()
            .flat_map(|l| {
                l.rx.iter()
                    .map(|r| r.ts)
                    .chain(l.tx.iter().map(|t| t.ts))
                    .chain(l.flows.iter().map(|f| f.ts))
            })
            .chain(b.source_flows.iter().map(|f| f.ts))
            .find(|&ts| ts < from || ts >= until);
        if let Some(ts) = stray {
            return Err(StreamError::ChunkOutOfOrder {
                from,
                until,
                ts: Some(ts),
            });
        }
        self.chunk_until = until;
        Ok(Admitted(()))
    }

    /// Ingests the records of an admitted chunk, possibly transformed (see
    /// [`Admitted`]), then decides everything the watermark `until` proves
    /// stable.
    pub fn ingest(
        &mut self,
        _admitted: Admitted,
        bundle: &TraceBundle,
        until: Nanos,
    ) -> Result<(), StreamError> {
        let n = self.nfs.len();
        // Phase 1: ingest every NF's records.
        for (i, log) in bundle.logs.iter().enumerate() {
            for b in &log.rx {
                self.timelines[i].push_read(RxBatchInfo {
                    ts: b.ts,
                    size: b.len(),
                    drained: b.drained_queue(),
                });
                let st = &mut self.nfs[i];
                st.rx_pending
                    .extend(b.ipids.iter().map(|&ipid| RxPend { ts: b.ts, ipid }));
                let refs = &mut self.rx_to_trace[i];
                refs.resize(refs.len() + b.ipids.len(), RxTraceRef::NONE);
            }
            for b in &log.tx {
                for &ipid in &b.ipids {
                    let pos_within = match b.to {
                        Some(d) => match self.out_slot[i][d.0 as usize] {
                            Some(slot) => self.nfs[d.0 as usize].edges[slot].push(b.ts, ipid),
                            None => {
                                let c = &mut self.nfs[i].orphans[d.0 as usize];
                                let pw = *c;
                                *c += 1;
                                pw
                            }
                        },
                        None => {
                            let pw = self.nfs[i].exit_count;
                            self.nfs[i].exit_count += 1;
                            pw
                        }
                    };
                    let st = &mut self.nfs[i];
                    st.tx.push_back(TxSlot {
                        ts: b.ts,
                        to: b.to,
                        pos_within,
                        consumed: false,
                    });
                    st.tx_total += 1;
                }
            }
            self.nfs[i].flows.extend(log.flows.iter().map(|f| f.flow));
        }
        // Phase 2: source emissions start new walks (they suspend on their
        // entry edge until the matcher decides their position).
        for f in &bundle.source_flows {
            let entry = self.topo.entry_for(&f.flow);
            let Some(slot) = self.src_slot[entry.0 as usize] else {
                return Err(StreamError::MissingSourceEdge { nf: entry });
            };
            let pos = self.nfs[entry.0 as usize].edges[slot].push(f.ts, f.ipid);
            let trace = self.source_total;
            self.source_total += 1;
            self.report.total += 1;
            self.flight.push_back(Flight::Running);
            let walk = Walk {
                trace,
                flow: f.flow,
                emitted: f.ts,
                hops: Vec::new(),
                state: WalkState::AtEdge {
                    down: entry,
                    node: NodeId::Source,
                    pos,
                    arrival: f.ts,
                },
            };
            self.run_walk(walk);
        }
        // Phase 3: walks (and dead-slot markers) that were missing a tx
        // entry can proceed now.
        self.resume_parked();
        // Phase 4: the watermark proves a prefix of each rx frontier stable.
        self.watermark = self.watermark.max(until);
        for i in 0..n {
            self.decide_nf(i, false);
        }
        Ok(())
    }

    /// Decides everything left, finalizes in-flight walks and returns the
    /// reconstruction plus the incrementally-built timelines.
    pub fn finish(mut self) -> (Reconstruction, Timelines) {
        let n = self.nfs.len();
        // All records are in: decide the full rx frontier of every NF
        // (identical to the offline matcher's main loop over the tail).
        for i in 0..n {
            self.decide_nf(i, true);
        }
        self.resume_parked();
        // Whatever is still suspended can never resolve: positions at or
        // past the final cursor are unresolved; a matched read with no tx
        // entry gets its offline half-hop.
        for trace in self.next_commit..self.source_total {
            let Some(mut walk) = self.take_walk(trace) else {
                continue;
            };
            match walk.state {
                WalkState::AtEdge { .. } => self.finalize(walk, TraceOutcome::Unresolved),
                WalkState::AtTx {
                    down,
                    rx_idx,
                    read_ts,
                    arrival,
                } => {
                    walk.hops.push(TraceHop {
                        nf: down,
                        arrival_ts: arrival,
                        read_ts,
                        sent_ts: None,
                        rx_idx,
                    });
                    self.finalize(walk, TraceOutcome::Unresolved);
                }
            }
        }
        debug_assert_eq!(self.next_commit, self.source_total);
        debug_assert!(self.flight.is_empty());
        for st in &self.nfs {
            self.report.unmatched_rx += st.stats.unmatched_rx;
            self.report.ambiguities += st.stats.ambiguities;
        }
        let empty = TraceBundle {
            logs: (0..n)
                .map(|i| NfLog {
                    nf: NfId(i as u16),
                    rx: Vec::new(),
                    tx: Vec::new(),
                    flows: Vec::new(),
                })
                .collect(),
            source_flows: Vec::new(),
        };
        let streams = EdgeStreams::build(&self.topo, &empty);
        let recon = Reconstruction {
            traces: self.traces,
            hops: self.hops,
            report: self.report,
            streams,
            rx_to_trace: self.rx_to_trace,
            paths: self.paths,
            hop_path_ids: self.hop_path_ids,
        };
        let timelines = Timelines {
            nfs: self.timelines.into_iter().map(|b| b.finish()).collect(),
        };
        (recon, timelines)
    }

    /// The reconstruction report so far (commit-order prefix of the run).
    pub fn report(&self) -> &ReconstructionReport {
        &self.report
    }

    /// Traces committed so far.
    pub fn committed(&self) -> usize {
        self.next_commit
    }

    /// Approximate bytes held by the *evictable* frontier, every structure
    /// counted by capacity. The retained diagnosis substrate (traces, hop
    /// arena, timelines, path trie) legitimately grows with the run and is
    /// not counted.
    ///
    /// Two terms. The window term is [`Self::queue_bytes`] (undecided rx,
    /// undecided sends and their IPID chain table, unclaimed decisions, tx
    /// slots, exit flows, the decide loop's scratch), which tracks the
    /// packets queued between NFs at the watermark, plus
    /// [`Self::reorder_bytes`]. The deficit term is [`Self::parked_bytes`]:
    /// rx entry `k` of an NF pairs with its tx entry `k` (as offline
    /// `assemble` pairs them), so once an NF has read more packets than it
    /// sent — packets it dropped internally — the walks of its last rx − tx
    /// reads stay parked until later sends arrive. That term grows with the
    /// NFs' cumulative internal-drop deficit, not with the window. So does
    /// the reorder ring whenever a parked walk is the oldest uncommitted
    /// trace: nothing behind it can commit until its tx entry arrives.
    pub fn working_set(&self) -> usize {
        self.queue_bytes() + self.reorder_bytes() + self.parked_bytes()
    }

    /// The queue part of [`Self::working_set`]'s window term.
    fn queue_bytes(&self) -> usize {
        use std::mem::size_of;
        let mut bytes = 0usize;
        for st in &self.nfs {
            bytes += st.rx_pending.capacity() * size_of::<RxPend>();
            bytes += st.tx.capacity() * size_of::<TxSlot>();
            bytes += st.flows.capacity() * size_of::<FiveTuple>();
            bytes += st.edges.iter().map(IncEdge::approx_bytes).sum::<usize>();
        }
        let s = &self.scratch;
        bytes
            + (s.cands.capacity() + s.dead.capacity()) * size_of::<(usize, usize)>()
            + s.cursors.capacity() * size_of::<usize>()
            + s.resumes.capacity() * size_of::<(usize, EdgeDecision)>()
    }

    /// The reorder ring of [`Self::working_set`]'s window term, with the
    /// hops of the walks and traces it holds.
    fn reorder_bytes(&self) -> usize {
        use std::mem::size_of;
        let mut bytes = self.flight.capacity() * size_of::<Flight>();
        for f in &self.flight {
            let hops = match f {
                Flight::Running => 0,
                Flight::Suspended(w) => w.hops.capacity(),
                Flight::Done(d) => d.hops.capacity(),
            };
            bytes += hops * size_of::<TraceHop>();
        }
        bytes
    }

    /// The deficit term of [`Self::working_set`]: the parked rings.
    fn parked_bytes(&self) -> usize {
        use std::mem::size_of;
        self.nfs
            .iter()
            .map(|st| st.parked.capacity() * size_of::<Parked>())
            .sum()
    }

    /// Resumes every walk (and applies every dead-slot marker) whose
    /// missing tx entry has since been ingested.
    fn resume_parked(&mut self) {
        for i in 0..self.nfs.len() {
            while let Some((j, p)) = self.nfs[i].unpark() {
                match p {
                    Parked::Empty => {}
                    Parked::Walk(trace) => {
                        if let Some(walk) = self.take_walk(trace) {
                            self.run_walk(walk);
                        }
                    }
                    Parked::Dead => {
                        self.scratch.dead.push((i, j));
                        self.mark_dead_slots();
                    }
                }
            }
        }
    }

    /// Decides the stable prefix of NF `i`'s rx frontier (all of it when
    /// `finishing`). An rx entry is stable once the watermark exceeds the
    /// read time (plus slack) of the last entry its decision may consult —
    /// itself for a single-upstream NF, the `lookahead`-th successor when
    /// IPID collisions can trigger playout.
    fn decide_nf(&mut self, i: usize, finishing: bool) {
        loop {
            let st = &self.nfs[i];
            let Some(front) = st.rx_pending.front() else {
                break;
            };
            if !finishing {
                let stable = if st.edges.len() <= 1 {
                    front.ts.saturating_add(self.cfg.negative_slack_ns) < self.watermark
                } else {
                    match st.rx_pending.get(self.cfg.lookahead) {
                        Some(la) => {
                            la.ts.saturating_add(self.cfg.negative_slack_ns) < self.watermark
                        }
                        None => false,
                    }
                };
                if !stable {
                    break;
                }
            }
            self.decide_one(i);
        }
    }

    /// Pops and decides the front rx entry of NF `i`, mirroring one
    /// iteration of the offline matcher's rx loop, then resumes any walks
    /// the decision unblocked.
    fn decide_one(&mut self, i: usize) {
        'decide: {
            let st = &mut self.nfs[i];
            let Some(r) = st.rx_pending.pop_front() else {
                break 'decide;
            };
            let rx_idx = st.rx_decided;
            st.rx_decided += 1;
            let Scratch {
                cands,
                cursors,
                resumes,
                dead,
            } = &mut self.scratch;
            cands.clear();
            for (e_idx, e) in st.edges.iter().enumerate() {
                if let Some(pos) = e.candidate(r.ipid, r.ts, &self.cfg) {
                    cands.push((e_idx, pos));
                }
            }
            let chosen = match cands.len() {
                0 => {
                    st.stats.unmatched_rx += 1;
                    // No walk will ever consume this rx entry's tx slot.
                    dead.push((i, rx_idx));
                    break 'decide;
                }
                1 => cands[0],
                _ => {
                    st.stats.ambiguities += 1;
                    cands.sort_by_key(|&(e, p)| (st.edges[e].ts_at(p), e, p));
                    // The read was popped, so the pending reads are its tail.
                    let tail = st.rx_pending.iter().map(|r| (r.ipid, r.ts));
                    let best = choose_candidate(&st.edges, cands, cursors, &tail, &self.cfg);
                    if best != cands[0] {
                        st.stats.ambiguity_flips += 1;
                    }
                    best
                }
            };
            st.stats.matched += 1;
            let (e_idx, pos) = chosen;
            let e = &mut st.edges[e_idx];
            st.stats.inferred_drops += (pos - e.cursor) as u64;
            while e.cursor < pos {
                match e.decide_front(EdgeDecision::Dropped) {
                    Some(Claim::Waiter(t)) => resumes.push((t, EdgeDecision::Dropped)),
                    Some(_) => {}
                    None => break,
                }
            }
            let dec = EdgeDecision::Matched {
                rx_idx,
                read_ts: r.ts,
            };
            match e.decide_front(dec) {
                Some(Claim::Waiter(t)) => resumes.push((t, dec)),
                // An ownerless send matched this rx: its tx slot is dead.
                Some(Claim::Ghost) => dead.push((i, rx_idx)),
                Some(Claim::Open) | None => {}
            }
        }
        // Resuming never re-enters the decide loop, so the buffer is
        // stable while it is walked.
        for k in 0..self.scratch.resumes.len() {
            let (trace, dec) = self.scratch.resumes[k];
            self.resume_edge(trace, dec);
        }
        self.scratch.resumes.clear();
        self.mark_dead_slots();
    }

    /// Consumes tx slots proven ownerless — their rx entry was unmatched,
    /// or the send that would have carried a walk to them was itself dead —
    /// so a dead slot can never block `evict_tx` for the rest of the run.
    /// A dead slot's own send is ownerless in turn: its eventual match
    /// decision is consumed by a ghost, cascading down the DAG. Works
    /// through the `dead` scratch stack until it is empty.
    fn mark_dead_slots(&mut self) {
        while let Some((d, j)) = self.scratch.dead.pop() {
            let st = &mut self.nfs[d];
            if j >= st.tx_total {
                st.park(j, Parked::Dead);
                continue;
            }
            let Some(slot) = j.checked_sub(st.tx_base).and_then(|k| st.tx.get_mut(k)) else {
                continue;
            };
            if slot.consumed {
                continue;
            }
            slot.consumed = true;
            let (to, pw) = (slot.to, slot.pos_within);
            st.evict_tx();
            let Some(d2) = to else { continue };
            let Some(slot_idx) = self.out_slot[d][d2.0 as usize] else {
                continue; // orphan target: there is no edge stream to poison
            };
            let e = &mut self.nfs[d2.0 as usize].edges[slot_idx];
            if pw >= e.cursor {
                e.claim(pw, Claim::Ghost);
            } else if let Some(EdgeDecision::Matched { rx_idx, .. }) = e.take_decided(pw) {
                self.scratch.dead.push((d2.0 as usize, rx_idx));
            }
        }
    }

    /// The reorder-ring slot of an uncommitted trace.
    fn flight_slot(&mut self, trace: usize) -> Option<&mut Flight> {
        let k = trace.checked_sub(self.next_commit)?;
        self.flight.get_mut(k)
    }

    /// Takes the suspended walk of `trace` out of the reorder ring.
    fn take_walk(&mut self, trace: usize) -> Option<Walk> {
        let slot = self.flight_slot(trace)?;
        match std::mem::replace(slot, Flight::Running) {
            Flight::Suspended(w) => Some(w),
            other => {
                *slot = other;
                None
            }
        }
    }

    /// Puts a running walk back into its reorder-ring slot.
    fn suspend(&mut self, walk: Walk) {
        if let Some(slot) = self.flight_slot(walk.trace) {
            *slot = Flight::Suspended(walk);
        }
    }

    /// Applies a just-made edge decision to the walk suspended on it.
    fn resume_edge(&mut self, trace: usize, dec: EdgeDecision) {
        let Some(mut walk) = self.take_walk(trace) else {
            return;
        };
        let WalkState::AtEdge { down, arrival, .. } = walk.state else {
            debug_assert!(false, "edge waiter was not at an edge");
            return;
        };
        match dec {
            EdgeDecision::Dropped => self.finalize(
                walk,
                TraceOutcome::InferredDrop {
                    nf: down,
                    at: arrival,
                },
            ),
            EdgeDecision::Matched { rx_idx, read_ts } => {
                walk.state = WalkState::AtTx {
                    down,
                    rx_idx,
                    read_ts,
                    arrival,
                };
                self.run_walk(walk);
            }
        }
    }

    /// Advances a walk until it finalizes or suspends — the streaming twin
    /// of the offline `assemble` loop body for one source packet.
    fn run_walk(&mut self, mut walk: Walk) {
        loop {
            match walk.state {
                WalkState::AtEdge {
                    down,
                    node,
                    pos,
                    arrival,
                } => {
                    let d = down.0 as usize;
                    let slot = match node {
                        NodeId::Source => self.src_slot[d],
                        NodeId::Nf(u) => self.out_slot[u.0 as usize][d],
                    };
                    // A send to a node that is not a topology edge has no
                    // match table offline either: unresolved.
                    let Some(slot) = slot else {
                        return self.finalize(walk, TraceOutcome::Unresolved);
                    };
                    let e = &mut self.nfs[d].edges[slot];
                    match e.take_decided(pos) {
                        Some(EdgeDecision::Dropped) => {
                            return self.finalize(
                                walk,
                                TraceOutcome::InferredDrop {
                                    nf: down,
                                    at: arrival,
                                },
                            );
                        }
                        Some(EdgeDecision::Matched { rx_idx, read_ts }) => {
                            walk.state = WalkState::AtTx {
                                down,
                                rx_idx,
                                read_ts,
                                arrival,
                            };
                        }
                        None => {
                            debug_assert!(pos >= e.cursor, "decided position lost its outcome");
                            e.claim(pos, Claim::Waiter(walk.trace));
                            return self.suspend(walk);
                        }
                    }
                }
                WalkState::AtTx {
                    down,
                    rx_idx,
                    read_ts,
                    arrival,
                } => {
                    let d = down.0 as usize;
                    let st = &mut self.nfs[d];
                    if rx_idx >= st.tx_total {
                        st.park(rx_idx, Parked::Walk(walk.trace));
                        return self.suspend(walk);
                    }
                    let (tx_ts, tx_to, pw) = {
                        let t = &mut st.tx[rx_idx - st.tx_base];
                        t.consumed = true;
                        (t.ts, t.to, t.pos_within)
                    };
                    walk.hops.push(TraceHop {
                        nf: down,
                        arrival_ts: arrival,
                        read_ts,
                        sent_ts: Some(tx_ts),
                        rx_idx,
                    });
                    let mut flow_mismatch = false;
                    if tx_to.is_none() && st.is_exit {
                        if let Some(flow) = st.flow_at(pw) {
                            flow_mismatch = flow != walk.flow;
                        }
                    }
                    st.evict_tx();
                    if flow_mismatch {
                        self.report.flow_mismatches += 1;
                    }
                    match tx_to {
                        None => return self.finalize(walk, TraceOutcome::Delivered(tx_ts)),
                        Some(d2) => {
                            walk.state = WalkState::AtEdge {
                                down: d2,
                                node: NodeId::Nf(down),
                                pos: pw,
                                arrival: tx_ts,
                            };
                        }
                    }
                }
            }
        }
    }

    /// Parks a finished walk in the reorder ring and commits every trace
    /// whose emission turn has come.
    fn finalize(&mut self, walk: Walk, outcome: TraceOutcome) {
        let Some(slot) = self.flight_slot(walk.trace) else {
            return;
        };
        *slot = Flight::Done(Finished {
            flow: walk.flow,
            emitted: walk.emitted,
            hops: walk.hops,
            outcome,
        });
        while let Some(Flight::Done(_)) = self.flight.front() {
            let Some(Flight::Done(f)) = self.flight.pop_front() else {
                break;
            };
            let trace = self.next_commit;
            self.next_commit += 1;
            self.commit(trace, &f);
        }
    }

    /// Appends one trace to the retained substrate in offline order: hop
    /// arena, path-trie interning, `rx_to_trace` back-references, timeline
    /// arrivals and report counters all replay `assemble` +
    /// `PathTrie::index` + `Timelines::build` for this trace.
    fn commit(&mut self, trace: usize, f: &Finished) {
        debug_assert!(u32::try_from(self.hops.len() + f.hops.len()).is_ok());
        // lint: lossy-cast-ok(the hop arena is u32-indexed by design, as offline)
        let hop_start = self.hops.len() as u32;
        let mut cur = PATH_ROOT;
        for (h_idx, h) in f.hops.iter().enumerate() {
            self.rx_to_trace[h.nf.0 as usize][h.rx_idx] = RxTraceRef::new(trace, h_idx);
            self.hop_path_ids.push(cur);
            cur = self.paths.child(cur, NodeId::Nf(h.nf));
            self.timelines[h.nf.0 as usize].push_arrival(Arrival {
                ts: h.arrival_ts,
                trace,
                hop: h_idx,
                kind: ArrivalKind::Queued,
            });
            self.hops.push(*h);
        }
        match f.outcome {
            TraceOutcome::Delivered(_) => self.report.delivered += 1,
            TraceOutcome::InferredDrop { nf, at } => {
                self.report.inferred_drops += 1;
                self.timelines[nf.0 as usize].push_arrival(Arrival {
                    ts: at,
                    trace,
                    hop: f.hops.len(),
                    kind: ArrivalKind::Dropped,
                });
            }
            TraceOutcome::Unresolved => self.report.unresolved += 1,
        }
        self.traces.push(ReconstructedTrace {
            flow: f.flow,
            emitted_at: f.emitted,
            // lint: lossy-cast-ok(same u32 arena bound as offline assemble)
            hops: hop_start..self.hops.len() as u32,
            outcome: f.outcome,
        });
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::reconstruct::{reconstruct, ReconstructionConfig};
    use msc_collector::{chunk_bundle, Collector, CollectorConfig, PacketMeta};
    use nf_types::{NfKind, Proto};

    /// Deterministic LCG (no external rand in tests).
    struct Lcg(u64);

    impl Lcg {
        fn next(&mut self) -> u64 {
            self.0 = self
                .0
                .wrapping_mul(6364136223846793005)
                .wrapping_add(1442695040888963407);
            self.0 >> 33
        }

        fn below(&mut self, n: u64) -> u64 {
            self.next() % n
        }
    }

    /// Two entry NATs merging into one exit VPN — the smallest topology with
    /// a genuinely ambiguous multi-upstream edge.
    fn diamond() -> Topology {
        let mut b = Topology::builder();
        let n0 = b.add_nf(NfKind::Nat, "nat0");
        let n1 = b.add_nf(NfKind::Nat, "nat1");
        let v = b.add_nf(NfKind::Vpn, "vpn1");
        b.add_entry(n0);
        b.add_entry(n1);
        b.add_edge(n0, v);
        b.add_edge(n1, v);
        b.build().unwrap()
    }

    /// Single-path chain: every edge is unambiguous, decisions stream out at
    /// the watermark without any lookahead margin.
    fn chain3() -> Topology {
        let mut b = Topology::builder();
        let f = b.add_nf(NfKind::Firewall, "fw1");
        let n = b.add_nf(NfKind::Nat, "nat1");
        let v = b.add_nf(NfKind::Vpn, "vpn1");
        b.add_entry(f);
        b.add_edge(f, n);
        b.add_edge(n, v);
        b.build().unwrap()
    }

    /// Random forwarding run over any entry-layer + single-sink topology:
    /// tiny IPID alphabet (collisions), ring drops before each NF,
    /// NF-internal drops (read but never sent, desyncing the rx/tx pairing),
    /// bogus reads nothing sent, and optional truncation mid-flight.
    fn random_run(topo: &Topology, rng: &mut Lcg, n_packets: usize, truncate: bool) -> TraceBundle {
        let sink = NfId((topo.len() - 1) as u16);
        let mut c = Collector::new(topo, CollectorConfig::default());
        let mut clock: Nanos = 1_000;
        let alphabet = 4 + rng.below(8);
        let mut q: Vec<VecDeque<PacketMeta>> = vec![VecDeque::new(); topo.len()];
        let mut emitted = 0usize;
        let budget = if truncate {
            n_packets * 3 + rng.below(n_packets as u64 * 4) as usize
        } else {
            usize::MAX
        };
        let mut steps = 0usize;
        loop {
            steps += 1;
            if steps > budget {
                break; // truncated run: packets left in flight everywhere
            }
            if emitted >= n_packets && q.iter().all(VecDeque::is_empty) {
                break;
            }
            clock += 1 + rng.below(700);
            match rng.below(2 + topo.len() as u64) {
                0 | 1 if emitted < n_packets => {
                    let m = PacketMeta {
                        ipid: rng.below(alphabet) as u16,
                        flow: FiveTuple::new(
                            0x0a00_0000 + rng.below(40) as u32,
                            0x1400_0001,
                            1_000 + rng.below(40) as u16,
                            443,
                            Proto::UDP,
                        ),
                    };
                    let entry = topo.entry_for(&m.flow);
                    c.record_source(clock, &m);
                    emitted += 1;
                    if rng.below(10) != 0 {
                        q[entry.0 as usize].push_back(m); // else: ring drop
                    }
                }
                act => {
                    let i = (act as usize).saturating_sub(2) % topo.len();
                    let nf = NfId(i as u16);
                    let take = 1 + rng.below(3) as usize;
                    let batch: Vec<PacketMeta> =
                        (0..take).filter_map(|_| q[i].pop_front()).collect();
                    if batch.is_empty() {
                        continue;
                    }
                    c.record_rx(nf, clock, &batch);
                    if rng.below(20) == 0 {
                        continue; // NF-internal drop of the whole batch
                    }
                    let ts2 = clock + 1 + rng.below(250);
                    clock = ts2;
                    if nf == sink {
                        c.record_tx(nf, ts2, None, &batch);
                        if rng.below(15) == 0 {
                            // A read nothing ever sent (corrupted IPID).
                            clock += 1;
                            c.record_rx(
                                nf,
                                clock,
                                &[PacketMeta {
                                    ipid: 0x3FFF,
                                    flow: FiveTuple::new(9, 9, 9, 9, Proto::TCP),
                                }],
                            );
                        }
                    } else {
                        let down = topo.downstream(nf)[0];
                        c.record_tx(nf, ts2, Some(down), &batch);
                        for m in batch {
                            if rng.below(12) != 0 {
                                q[down.0 as usize].push_back(m); // else: ring drop
                            }
                        }
                    }
                }
            }
        }
        c.into_bundle()
    }

    fn assert_stream_matches_offline(
        topo: &Topology,
        bundle: &TraceBundle,
        cfg: &MatchConfig,
        chunk_ns: Nanos,
        tag: &str,
    ) -> ReconstructionReport {
        let off = reconstruct(
            topo,
            bundle,
            &ReconstructionConfig {
                matching: cfg.clone(),
                threads: 1,
            },
        );
        let off_tl = Timelines::build(&off);
        let mut w = WindowedReconstructor::new(topo, cfg.clone());
        for chunk in chunk_bundle(bundle, chunk_ns) {
            w.ingest_chunk(&chunk).unwrap();
        }
        let (got, got_tl) = w.finish();
        assert_eq!(got.traces, off.traces, "{tag}: traces");
        assert_eq!(got.hops, off.hops, "{tag}: hop arena");
        assert_eq!(got.report, off.report, "{tag}: report");
        assert_eq!(got.rx_to_trace, off.rx_to_trace, "{tag}: rx_to_trace");
        assert_eq!(got.hop_path_ids, off.hop_path_ids, "{tag}: hop_path_ids");
        assert_eq!(got.paths.len(), off.paths.len(), "{tag}: path trie size");
        assert_eq!(got_tl, off_tl, "{tag}: timelines");
        off.report
    }

    fn sweep_configs() -> Vec<MatchConfig> {
        vec![
            MatchConfig::default(),
            // Small lookahead so multi-upstream decisions actually stream
            // out mid-run instead of piling up for finish().
            MatchConfig {
                lookahead: 3,
                ..Default::default()
            },
            MatchConfig {
                delay_bound_ns: 20_000,
                negative_slack_ns: 300,
                lookahead: 4,
                ..Default::default()
            },
            MatchConfig {
                use_order_channel: false,
                ..Default::default()
            },
        ]
    }

    #[test]
    fn streamed_equals_offline_on_random_diamond_runs() {
        let mut totals = ReconstructionReport::default();
        for seed in 0..14u64 {
            let topo = diamond();
            let mut rng = Lcg(0x5eed_0001 ^ (seed * 0x9e37_79b9));
            let bundle = random_run(&topo, &mut rng, 60, seed % 3 == 2);
            for cfg in &sweep_configs() {
                for chunk_ns in [900, 7_000, 60_000, Nanos::MAX] {
                    let rep = assert_stream_matches_offline(
                        &topo,
                        &bundle,
                        cfg,
                        chunk_ns,
                        &format!("diamond seed {seed} chunk {chunk_ns}"),
                    );
                    totals.delivered += rep.delivered;
                    totals.inferred_drops += rep.inferred_drops;
                    totals.unresolved += rep.unresolved;
                    totals.unmatched_rx += rep.unmatched_rx;
                    totals.ambiguities += rep.ambiguities;
                }
            }
        }
        // The generator must actually exercise every interesting path.
        assert!(totals.delivered > 500, "delivered: {}", totals.delivered);
        assert!(
            totals.inferred_drops > 100,
            "drops: {}",
            totals.inferred_drops
        );
        assert!(totals.unresolved > 50, "unresolved: {}", totals.unresolved);
        assert!(
            totals.unmatched_rx > 50,
            "unmatched: {}",
            totals.unmatched_rx
        );
        assert!(
            totals.ambiguities > 100,
            "ambiguities: {}",
            totals.ambiguities
        );
    }

    #[test]
    fn streamed_equals_offline_on_random_chain_runs() {
        for seed in 0..10u64 {
            let topo = chain3();
            let mut rng = Lcg(0xc4a1 ^ (seed * 0x0123_4567));
            let bundle = random_run(&topo, &mut rng, 50, seed % 2 == 1);
            for cfg in &sweep_configs() {
                for chunk_ns in [1_500, 25_000, Nanos::MAX] {
                    assert_stream_matches_offline(
                        &topo,
                        &bundle,
                        cfg,
                        chunk_ns,
                        &format!("chain seed {seed} chunk {chunk_ns}"),
                    );
                }
            }
        }
    }

    #[test]
    fn empty_and_single_chunk_runs_are_handled() {
        let topo = chain3();
        let empty = Collector::new(&topo, CollectorConfig::default()).into_bundle();
        assert_stream_matches_offline(&topo, &empty, &MatchConfig::default(), 1_000, "empty");

        let mut w = WindowedReconstructor::new(&topo, MatchConfig::default());
        let wrong = BundleChunk {
            until: 10,
            bundle: TraceBundle {
                logs: Vec::new(),
                source_flows: Vec::new(),
            },
        };
        assert_eq!(
            w.ingest_chunk(&wrong),
            Err(StreamError::TopologyMismatch {
                expected: 3,
                got: 0
            })
        );
    }

    /// Chunks fed out of time order are a typed error, checked before any
    /// state changes — not a panic deep in timeline construction.
    #[test]
    fn out_of_order_chunks_are_rejected() {
        let topo = chain3();
        let mut rng = Lcg(0x0dd_c0de);
        let bundle = random_run(&topo, &mut rng, 60, false);
        let mut chunks = chunk_bundle(&bundle, 2_000);
        assert!(chunks.len() > 4);
        chunks.swap(2, 3);
        let mut w = WindowedReconstructor::new(&topo, MatchConfig::default());
        w.ingest_chunk(&chunks[0]).unwrap();
        w.ingest_chunk(&chunks[1]).unwrap();
        // Chunk 3 arriving early only widens its window: still in order.
        w.ingest_chunk(&chunks[2]).unwrap();
        let committed = w.committed();
        assert_eq!(
            w.ingest_chunk(&chunks[3]),
            Err(StreamError::ChunkOutOfOrder {
                from: 8_000,
                until: 6_000,
                ts: None
            })
        );
        assert_eq!(w.committed(), committed);

        // A record outside its chunk's window.
        let mut w = WindowedReconstructor::new(&topo, MatchConfig::default());
        let mut stray = chunks[1].clone();
        stray.until = 1_000;
        assert!(matches!(
            w.ingest_chunk(&stray),
            Err(StreamError::ChunkOutOfOrder {
                from: 0,
                until: 1_000,
                ts: Some(ts)
            }) if ts >= 1_000
        ));
        assert_eq!(w.report().total, 0, "a rejected chunk ingests nothing");
    }

    /// IPID chains across window boundaries: one IPID holds three undecided
    /// positions on one edge when a chunk ends, and its chain head, middle
    /// and tail are then decided in turn — the middle by a read, the tail
    /// by a cursor jump that also drops a send between them — while a new
    /// same-IPID send is linked behind a partly consumed chain, and the
    /// chain is rebuilt after it empties.
    #[test]
    fn ipid_chain_survives_window_boundaries() {
        let mut b = Topology::builder();
        let nat = b.add_nf(NfKind::Nat, "nat1");
        let vpn = b.add_nf(NfKind::Vpn, "vpn1");
        b.add_entry(nat);
        b.add_edge(nat, vpn);
        let topo = b.build().unwrap();
        let m = |ipid, sport| PacketMeta {
            ipid,
            flow: FiveTuple::new(1, 2, sport, 80, Proto::TCP),
        };
        // Edge positions p0..p5 with IPIDs 5 6 5 6 5 5.
        let p = [m(5, 10), m(6, 11), m(5, 12), m(6, 13), m(5, 14), m(5, 15)];
        let mut c = Collector::new(&topo, CollectorConfig::default());
        for (k, pk) in p.iter().take(5).enumerate() {
            let t = 100 + 10 * k as Nanos;
            c.record_source(t, pk);
            c.record_rx(nat, t + 50, &[*pk]);
            c.record_tx(nat, t + 100, Some(vpn), &[*pk]);
        }
        // Window 2: p0, p1 and p2 are read; p5 joins IPID 5's chain behind
        // p4 after its head p0 and middle p2 are gone.
        c.record_rx(vpn, 1_100, &p[..3]);
        c.record_source(1_400, &p[5]);
        c.record_rx(nat, 1_450, &[p[5]]);
        c.record_tx(nat, 1_500, Some(vpn), &[p[5]]);
        c.record_tx(vpn, 1_600, None, &p[..3]);
        // Window 3: reading p4 jumps the cursor past p3 (dropped) and
        // empties nothing yet — p5 is still chained behind it.
        c.record_rx(vpn, 2_100, &[p[4]]);
        c.record_tx(vpn, 2_150, None, &[p[4]]);
        c.record_rx(vpn, 2_200, &[p[5]]);
        c.record_tx(vpn, 2_250, None, &[p[5]]);
        // Window 4: the chain was emptied; a recycled IPID 5 starts anew.
        let q = m(5, 16);
        c.record_source(3_000, &q);
        c.record_rx(nat, 3_050, &[q]);
        c.record_tx(nat, 3_100, Some(vpn), &[q]);
        c.record_rx(vpn, 3_200, &[q]);
        c.record_tx(vpn, 3_300, None, &[q]);
        let bundle = c.into_bundle();

        for chunk_ns in [1_000, 250, 60, Nanos::MAX] {
            let rep = assert_stream_matches_offline(
                &topo,
                &bundle,
                &MatchConfig::default(),
                chunk_ns,
                &format!("ipid chain chunk {chunk_ns}"),
            );
            assert_eq!(rep.delivered, 6, "chunk {chunk_ns}");
            assert_eq!(rep.inferred_drops, 1, "chunk {chunk_ns}");
        }
        let mut w = WindowedReconstructor::new(&topo, MatchConfig::default());
        for chunk in chunk_bundle(&bundle, 1_000) {
            w.ingest_chunk(&chunk).unwrap();
        }
        let (got, _) = w.finish();
        assert_eq!(
            got.traces[3].outcome,
            TraceOutcome::InferredDrop { nf: vpn, at: 230 }
        );
        assert_eq!(got.hops_of(4)[1].read_ts, 2_100);
        assert_eq!(got.hops_of(5)[1].read_ts, 2_200);
        assert_eq!(got.hops_of(6)[1].read_ts, 3_200);
    }

    /// A lookahead playout whose speculative cursor has passed the head of
    /// an IPID chain must follow the chain to the next same-IPID send (and
    /// find none when the chain ends behind the cursor).
    #[test]
    fn lookahead_follows_ipid_chain_past_speculative_cursor() {
        let topo = diamond();
        let (n0, n1, vpn) = (NfId(0), NfId(1), NfId(2));
        // Flows that enter through each NAT.
        let flow_via = |entry: NfId, from: u16| {
            (from..)
                .map(|sport| FiveTuple::new(7, 8, sport, 53, Proto::UDP))
                .find(|f| topo.entry_for(f) == entry)
                .unwrap()
        };
        let m = |ipid, flow| PacketMeta { ipid, flow };
        // Edge A (nat0): a0, a1 with IPID 5. Edge B (nat1): b0 IPID 5,
        // b1 IPID 7.
        let a0 = m(5, flow_via(n0, 100));
        let a1 = m(5, flow_via(n0, 200));
        let b0 = m(5, flow_via(n1, 300));
        let b1 = m(7, flow_via(n1, 400));
        let mut c = Collector::new(&topo, CollectorConfig::default());
        c.record_source(10, &a0);
        c.record_source(11, &b0);
        c.record_source(12, &b1);
        c.record_source(13, &a1);
        c.record_rx(n0, 50, &[a0]);
        c.record_tx(n0, 100, Some(vpn), &[a0]);
        c.record_rx(n1, 60, &[b0, b1]);
        c.record_tx(n1, 200, Some(vpn), &[b0]);
        c.record_tx(n1, 250, Some(vpn), &[b1]);
        c.record_rx(n0, 260, &[a1]);
        c.record_tx(n0, 300, Some(vpn), &[a1]);
        // vpn reads IPID 5 (a0 or b0: ambiguous), 7, 5 again, then an
        // IPID nothing sent, so no playout aligns every read and both are
        // played. Playing a0 out, the third read must skip the chain head
        // a0 to reach a1; playing b0 out, edge B's IPID-5 chain ends behind
        // the speculative cursor.
        let bogus = m(9, flow_via(n0, 500));
        c.record_rx(vpn, 1_400, &[a0]);
        c.record_rx(vpn, 1_410, &[b1]);
        c.record_rx(vpn, 1_420, &[a1]);
        c.record_rx(vpn, 1_430, &[bogus]);
        c.record_tx(vpn, 1_500, None, &[a0, b1, a1]);
        let bundle = c.into_bundle();
        for cfg in &sweep_configs() {
            for chunk_ns in [400, 1_405, 1_415, Nanos::MAX] {
                let rep = assert_stream_matches_offline(
                    &topo,
                    &bundle,
                    cfg,
                    chunk_ns,
                    &format!("chain playout chunk {chunk_ns}"),
                );
                assert_eq!(rep.ambiguities, 1, "chunk {chunk_ns}");
                assert_eq!(rep.unmatched_rx, 1, "chunk {chunk_ns}");
            }
        }
    }

    /// Regression (window-boundary IPID reuse, variant A): a 16-bit IPID is
    /// recycled in a much later window after its first carrier was inferred
    /// dropped; the cursor jump must have evicted the stale send so the
    /// recycled read matches the *new* send, bit-identically to offline.
    #[test]
    fn recycled_ipid_rematches_new_send_after_drop_eviction() {
        let mut b = Topology::builder();
        let nat = b.add_nf(NfKind::Nat, "nat1");
        let vpn = b.add_nf(NfKind::Vpn, "vpn1");
        b.add_entry(nat);
        b.add_edge(nat, vpn);
        let topo = b.build().unwrap();
        let f = |sport| PacketMeta {
            ipid: 5,
            flow: FiveTuple::new(1, 2, sport, 80, Proto::TCP),
        };
        let g = PacketMeta {
            ipid: 7,
            flow: FiveTuple::new(1, 2, 77, 80, Proto::TCP),
        };
        let late: Nanos = 60_000_000; // a full window past the delay bound
        let mut c = Collector::new(&topo, CollectorConfig::default());
        // p0: nat sends IPID 5, the ring drops it before vpn.
        c.record_source(1_000, &f(10));
        c.record_rx(nat, 1_500, &[f(10)]);
        c.record_tx(nat, 2_000, Some(vpn), &[f(10)]);
        // p1: IPID 7 gets through; matching it jumps vpn's cursor past p0.
        c.record_source(1_100, &g);
        c.record_rx(nat, 1_600, &[g]);
        c.record_tx(nat, 2_500, Some(vpn), &[g]);
        c.record_rx(vpn, 3_000, &[g]);
        c.record_tx(vpn, 3_200, None, &[g]);
        // p2: IPID 5 recycled in a later window.
        c.record_source(late, &f(11));
        c.record_rx(nat, late + 500, &[f(11)]);
        c.record_tx(nat, late + 1_000, Some(vpn), &[f(11)]);
        c.record_rx(vpn, late + 1_500, &[f(11)]);
        c.record_tx(vpn, late + 1_700, None, &[f(11)]);
        let bundle = c.into_bundle();

        for chunk_ns in [10_000_000, 2_000, Nanos::MAX] {
            assert_stream_matches_offline(
                &topo,
                &bundle,
                &MatchConfig::default(),
                chunk_ns,
                &format!("recycle-evict chunk {chunk_ns}"),
            );
        }
        // Pin the semantics, not just the equivalence: p0 dropped at vpn,
        // p2's vpn hop reads the *new* send.
        let mut w = WindowedReconstructor::new(&topo, MatchConfig::default());
        for chunk in chunk_bundle(&bundle, 10_000_000) {
            w.ingest_chunk(&chunk).unwrap();
        }
        let (got, _) = w.finish();
        assert_eq!(
            got.traces[0].outcome,
            TraceOutcome::InferredDrop { nf: vpn, at: 2_000 }
        );
        assert_eq!(got.traces[2].outcome, TraceOutcome::Delivered(late + 1_700));
        let vpn_hop = got.hops_of(2).last().copied().unwrap();
        assert_eq!(vpn_hop.nf, vpn);
        assert_eq!(vpn_hop.arrival_ts, late + 1_000);
        assert_eq!(vpn_hop.read_ts, late + 1_500);
    }

    /// Regression (window-boundary IPID reuse, variant B): when the stale
    /// same-IPID send was *never* passed by the cursor, it still heads the
    /// IPID run and blocks the recycled read (the offline "stale candidates
    /// block" rule) — the read must stay unmatched in streaming too, not
    /// cross-match the stale send or skip ahead to the new one.
    #[test]
    fn recycled_ipid_is_blocked_by_stale_unconsumed_candidate() {
        let mut b = Topology::builder();
        let nat = b.add_nf(NfKind::Nat, "nat1");
        let vpn = b.add_nf(NfKind::Vpn, "vpn1");
        b.add_entry(nat);
        b.add_edge(nat, vpn);
        let topo = b.build().unwrap();
        let f = |sport| PacketMeta {
            ipid: 5,
            flow: FiveTuple::new(1, 2, sport, 80, Proto::TCP),
        };
        let late: Nanos = 60_000_000;
        let mut c = Collector::new(&topo, CollectorConfig::default());
        // p0: nat sends IPID 5; vpn never reads anything in this window, so
        // the send stays unconsumed ahead of the cursor.
        c.record_source(1_000, &f(10));
        c.record_rx(nat, 1_500, &[f(10)]);
        c.record_tx(nat, 2_000, Some(vpn), &[f(10)]);
        // p1: IPID 5 recycled much later; its read is outside p0's delay
        // bound, and p0's send blocks the run head.
        c.record_source(late, &f(11));
        c.record_rx(nat, late + 500, &[f(11)]);
        c.record_tx(nat, late + 1_000, Some(vpn), &[f(11)]);
        c.record_rx(vpn, late + 1_500, &[f(11)]);
        let bundle = c.into_bundle();

        for chunk_ns in [10_000_000, 2_000, Nanos::MAX] {
            let rep = assert_stream_matches_offline(
                &topo,
                &bundle,
                &MatchConfig::default(),
                chunk_ns,
                &format!("recycle-block chunk {chunk_ns}"),
            );
            assert_eq!(rep.unmatched_rx, 1, "the recycled read must stay unmatched");
            assert_eq!(rep.unresolved, 2, "both carriers end unresolved");
        }
    }

    /// The evictable frontier must track queue occupancy, not run length.
    /// From 100 to 1,600 packets of `random_run`, with its NF-internal
    /// drops:
    ///
    /// * at every chunk boundary, walks parked on a tx entry not ingested
    ///   yet never outnumber the NFs' rx − tx deficit (reads the NF dropped
    ///   internally);
    /// * the queue bytes per packet queued at a chunk boundary stay within
    ///   1.5x, and so do the reorder and parked bytes per deficit read;
    /// * the window term — queue bytes plus the reorder ring — stays within
    ///   1.5x in absolute bytes.
    ///
    /// The last bound does not hold today, for two reasons the first two
    /// bounds pin down. `random_run`'s queues are near-critical: at 100
    /// packets they hold at most 28 packets at a chunk boundary, at 1,600
    /// packets 87. And the reorder ring cannot commit past the oldest parked
    /// walk, so it grows with the cumulative deficit (see
    /// [`WindowedReconstructor::working_set`]).
    #[test]
    fn working_set_is_bounded_by_frontier_not_run_length() {
        const CHUNK: Nanos = 5_000;
        // Peak bytes and occupancy of one run's frontier terms.
        struct Peaks {
            window: usize,
            queue: usize,
            queued: usize,
            behind: usize,
            deficit: usize,
        }
        let run = |n_packets: usize| {
            let topo = chain3();
            let mut rng = Lcg(0xb0b0_cafe);
            let bundle = random_run(&topo, &mut rng, n_packets, false);
            let mut w = WindowedReconstructor::new(&topo, MatchConfig::default());
            let (mut window, mut queue, mut behind, mut deficit) = (0, 0, 0, 0);
            let mut boundaries = Vec::new();
            for chunk in chunk_bundle(&bundle, CHUNK) {
                w.ingest_chunk(&chunk).unwrap();
                boundaries.push(chunk.until);
                let parked: usize = w
                    .nfs
                    .iter()
                    .map(|st| {
                        st.parked
                            .iter()
                            .filter(|p| matches!(p, Parked::Walk(_)))
                            .count()
                    })
                    .sum();
                let d: usize = w
                    .nfs
                    .iter()
                    .map(|st| (st.rx_decided + st.rx_pending.len()).saturating_sub(st.tx_total))
                    .sum();
                assert!(parked <= d, "{parked} parked walks exceed the deficit {d}");
                let (q, r, p) = (w.queue_bytes(), w.reorder_bytes(), w.parked_bytes());
                assert_eq!(w.working_set(), q + r + p);
                window = window.max(q + r);
                queue = queue.max(q);
                behind = behind.max(r + p);
                deficit = deficit.max(d);
            }
            let total = w.report().total;
            let (recon, _) = w.finish();
            assert_eq!(recon.report.total, total);
            // Packets sent but not yet read at each chunk boundary, from
            // the finished reconstruction.
            let queued = boundaries
                .iter()
                .map(|&t| {
                    recon
                        .hops
                        .iter()
                        .filter(|h| h.arrival_ts < t && h.read_ts >= t)
                        .count()
                })
                .max()
                .unwrap_or(0);
            Peaks {
                window,
                queue,
                queued: queued.max(1),
                behind,
                deficit: deficit.max(1),
            }
        };
        let a = run(100);
        let longer = [400, 1_600].map(|n| (n, run(n)));
        for (n, b) in &longer {
            assert!(
                b.queue * a.queued * 2 <= a.queue * b.queued * 3,
                "queue bytes grew faster than queue occupancy: {} B / {} queued \
                 -> {} B / {} queued at {n} packets",
                a.queue,
                a.queued,
                b.queue,
                b.queued
            );
            assert!(
                b.behind * a.deficit * 2 <= a.behind * b.deficit * 3,
                "reorder and parked bytes grew faster than the deficit: {} B / {} reads \
                 -> {} B / {} reads at {n} packets",
                a.behind,
                a.deficit,
                b.behind,
                b.deficit
            );
        }
        for (n, b) in &longer {
            assert!(
                b.window * 2 <= a.window * 3,
                "window term grew with run length: {} B at 100 packets -> {} B at {n} \
                 ({} -> {} packets queued at a chunk boundary, deficit {} -> {} reads)",
                a.window,
                b.window,
                a.queued,
                b.queued,
                a.deficit,
                b.deficit
            );
        }
    }
}
