//! Compact binary encoding of collector logs.
//!
//! §5 of the paper: "Directly collecting the data incurs a high overhead
//! because we need more than 15 bytes per packet. We compress the data down
//! to around two bytes per packet." The trick is that interior NFs store only
//! the 2-byte IPID per packet; timestamps are per *batch* and delta-encoded
//! as LEB128 varints; five-tuples appear once per packet only at flow-info
//! points (exit NFs / source).
//!
//! The format is versioned and self-contained so the dumper can write it to
//! disk and the offline analysis can read it back without shared state.

use crate::collector::NfLog;
use crate::records::{FlowRecord, RxBatch, TxBatch};
use nf_types::{FiveTuple, NfId, Proto};
use std::fmt;

/// Format version tag (first byte of every encoded log).
const VERSION: u8 = 1;
/// Marker for "batch left the NF graph" in the tx target field.
const TO_EXIT: u16 = u16::MAX;

/// Errors from [`encode_nf_log`] / [`decode_nf_log`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum EncodeError {
    /// Input ended in the middle of a field.
    Truncated,
    /// Unknown format version byte.
    BadVersion(u8),
    /// A varint ran past 10 bytes.
    BadVarint,
    /// A batch holds more packets than the one-byte wire length can carry.
    BatchTooLarge(usize),
}

impl fmt::Display for EncodeError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            EncodeError::Truncated => write!(f, "truncated log"),
            EncodeError::BadVersion(v) => write!(f, "unknown log version {v}"),
            EncodeError::BadVarint => write!(f, "malformed varint"),
            EncodeError::BatchTooLarge(n) => {
                write!(f, "batch of {n} packets exceeds the 255-packet wire limit")
            }
        }
    }
}

impl std::error::Error for EncodeError {}

fn put_varint(out: &mut Vec<u8>, mut v: u64) {
    loop {
        let byte = (v & 0x7f) as u8;
        v >>= 7;
        if v == 0 {
            out.push(byte);
            break;
        }
        out.push(byte | 0x80);
    }
}

fn get_varint(buf: &[u8], pos: &mut usize) -> Result<u64, EncodeError> {
    let mut v: u64 = 0;
    let mut shift = 0u32;
    loop {
        let b = *buf.get(*pos).ok_or(EncodeError::Truncated)?;
        *pos += 1;
        if shift >= 64 {
            return Err(EncodeError::BadVarint);
        }
        v |= ((b & 0x7f) as u64) << shift;
        if b & 0x80 == 0 {
            return Ok(v);
        }
        shift += 7;
    }
}

fn put_u16(out: &mut Vec<u8>, v: u16) {
    out.extend_from_slice(&v.to_le_bytes());
}

fn get_u16(buf: &[u8], pos: &mut usize) -> Result<u16, EncodeError> {
    let b = buf.get(*pos..*pos + 2).ok_or(EncodeError::Truncated)?;
    *pos += 2;
    Ok(u16::from_le_bytes([b[0], b[1]]))
}

fn put_u32(out: &mut Vec<u8>, v: u32) {
    out.extend_from_slice(&v.to_le_bytes());
}

fn get_u32(buf: &[u8], pos: &mut usize) -> Result<u32, EncodeError> {
    let b = buf.get(*pos..*pos + 4).ok_or(EncodeError::Truncated)?;
    *pos += 4;
    Ok(u32::from_le_bytes([b[0], b[1], b[2], b[3]]))
}

fn put_tuple(out: &mut Vec<u8>, t: &FiveTuple) {
    put_u32(out, t.src_ip);
    put_u32(out, t.dst_ip);
    put_u16(out, t.src_port);
    put_u16(out, t.dst_port);
    out.push(t.proto.0);
}

fn get_tuple(buf: &[u8], pos: &mut usize) -> Result<FiveTuple, EncodeError> {
    let src_ip = get_u32(buf, pos)?;
    let dst_ip = get_u32(buf, pos)?;
    let src_port = get_u16(buf, pos)?;
    let dst_port = get_u16(buf, pos)?;
    let proto = *buf.get(*pos).ok_or(EncodeError::Truncated)?;
    *pos += 1;
    Ok(FiveTuple::new(
        src_ip,
        dst_ip,
        src_port,
        dst_port,
        Proto(proto),
    ))
}

/// Upper-bound capacity estimate for [`encode_nf_log`]'s buffer. Kept as a
/// separate fn so the sizing arithmetic (which touches the sections in
/// storage order, not wire order) stays out of the encode body that R11
/// compares field-by-field against [`decode_nf_log`].
fn encoded_capacity(log: &NfLog) -> usize {
    8 + log.rx.iter().map(|b| 4 + 2 * b.len()).sum::<usize>()
        + log.tx.iter().map(|b| 7 + 2 * b.len()).sum::<usize>()
        + log.flows.len() * 17
}

/// Encodes one NF's log. Returns the byte buffer, or
/// [`EncodeError::BatchTooLarge`] if a batch cannot fit its one-byte wire
/// length (the collector's `MAX_BATCH` invariant keeps real logs far below
/// it; the check turns a corrupted log into a typed error instead of a
/// silently truncated length byte).
pub fn encode_nf_log(log: &NfLog) -> Result<Vec<u8>, EncodeError> {
    let mut out = Vec::with_capacity(encoded_capacity(log));
    let batch_len = |n: usize| u8::try_from(n).map_err(|_| EncodeError::BatchTooLarge(n));
    out.push(VERSION);
    put_u16(&mut out, log.nf.0);

    put_varint(&mut out, log.rx.len() as u64);
    let mut prev_ts = 0u64;
    for b in &log.rx {
        put_varint(&mut out, b.ts.wrapping_sub(prev_ts));
        prev_ts = b.ts;
        out.push(batch_len(b.len())?);
        for &ipid in &b.ipids {
            put_u16(&mut out, ipid);
        }
    }

    put_varint(&mut out, log.tx.len() as u64);
    let mut prev_ts = 0u64;
    for b in &log.tx {
        put_varint(&mut out, b.ts.wrapping_sub(prev_ts));
        prev_ts = b.ts;
        put_u16(&mut out, b.to.map_or(TO_EXIT, |n| n.0));
        out.push(batch_len(b.len())?);
        for &ipid in &b.ipids {
            put_u16(&mut out, ipid);
        }
    }

    put_varint(&mut out, log.flows.len() as u64);
    let mut prev_ts = 0u64;
    for f in &log.flows {
        put_varint(&mut out, f.ts.wrapping_sub(prev_ts));
        prev_ts = f.ts;
        put_u16(&mut out, f.ipid);
        put_tuple(&mut out, &f.flow);
    }
    Ok(out)
}

/// Fewest bytes one rx record takes on the wire: a timestamp-delta varint
/// and the batch length byte.
const MIN_RX_BYTES: usize = 2;
/// Fewest bytes one tx record takes: as rx, plus the 2-byte next hop.
const MIN_TX_BYTES: usize = 4;
/// Fewest bytes one flow record takes: a timestamp-delta varint, the IPID
/// and the 13-byte five-tuple.
const MIN_FLOW_BYTES: usize = 16;

/// Capacity to reserve for a decoded count of `n` records, each at least
/// `min` bytes long, with `buf[pos..]` left to read. The count is untrusted:
/// a corrupt one must not reserve more records than the input could hold.
fn record_capacity(n: usize, min: usize, buf: &[u8], pos: usize) -> usize {
    n.min(buf.len().saturating_sub(pos) / min)
}

/// Decodes a log produced by [`encode_nf_log`].
pub fn decode_nf_log(buf: &[u8]) -> Result<NfLog, EncodeError> {
    let mut pos = 0usize;
    let version = *buf.get(pos).ok_or(EncodeError::Truncated)?;
    pos += 1;
    if version != VERSION {
        return Err(EncodeError::BadVersion(version));
    }
    let nf = NfId(get_u16(buf, &mut pos)?);

    let n_rx = get_varint(buf, &mut pos)? as usize;
    let mut rx = Vec::with_capacity(record_capacity(n_rx, MIN_RX_BYTES, buf, pos));
    let mut ts = 0u64;
    for _ in 0..n_rx {
        ts = ts.wrapping_add(get_varint(buf, &mut pos)?);
        let len = *buf.get(pos).ok_or(EncodeError::Truncated)? as usize;
        pos += 1;
        let mut ipids = Vec::with_capacity(len);
        for _ in 0..len {
            ipids.push(get_u16(buf, &mut pos)?);
        }
        rx.push(RxBatch { ts, ipids });
    }

    let n_tx = get_varint(buf, &mut pos)? as usize;
    let mut tx = Vec::with_capacity(record_capacity(n_tx, MIN_TX_BYTES, buf, pos));
    let mut ts = 0u64;
    for _ in 0..n_tx {
        ts = ts.wrapping_add(get_varint(buf, &mut pos)?);
        let to = match get_u16(buf, &mut pos)? {
            TO_EXIT => None,
            nf_id => Some(NfId(nf_id)),
        };
        let len = *buf.get(pos).ok_or(EncodeError::Truncated)? as usize;
        pos += 1;
        let mut ipids = Vec::with_capacity(len);
        for _ in 0..len {
            ipids.push(get_u16(buf, &mut pos)?);
        }
        tx.push(TxBatch { ts, to, ipids });
    }

    let n_fl = get_varint(buf, &mut pos)? as usize;
    let mut flows = Vec::with_capacity(record_capacity(n_fl, MIN_FLOW_BYTES, buf, pos));
    let mut ts = 0u64;
    for _ in 0..n_fl {
        ts = ts.wrapping_add(get_varint(buf, &mut pos)?);
        let ipid = get_u16(buf, &mut pos)?;
        let flow = get_tuple(buf, &mut pos)?;
        flows.push(FlowRecord { ipid, flow, ts });
    }

    Ok(NfLog { nf, rx, tx, flows })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::records::MAX_BATCH;

    fn sample_log() -> NfLog {
        let flow = FiveTuple::new(0x64000001, 0x20000001, 2004, 6004, Proto::TCP);
        NfLog {
            nf: NfId(3),
            rx: vec![
                RxBatch {
                    ts: 1_000,
                    ipids: (0..MAX_BATCH as u16).collect(),
                },
                RxBatch {
                    ts: 2_500,
                    ipids: vec![40, 41],
                },
            ],
            tx: vec![
                TxBatch {
                    ts: 1_800,
                    to: Some(NfId(4)),
                    ipids: vec![0, 1, 2],
                },
                TxBatch {
                    ts: 2_900,
                    to: None,
                    ipids: vec![40],
                },
            ],
            flows: vec![FlowRecord {
                ipid: 40,
                flow,
                ts: 2_900,
            }],
        }
    }

    #[test]
    fn round_trip() {
        let log = sample_log();
        let bytes = encode_nf_log(&log).unwrap();
        let back = decode_nf_log(&bytes).unwrap();
        assert_eq!(back, log);
    }

    #[test]
    fn empty_log_round_trips() {
        let log = NfLog {
            nf: NfId(0),
            rx: vec![],
            tx: vec![],
            flows: vec![],
        };
        assert_eq!(decode_nf_log(&encode_nf_log(&log).unwrap()).unwrap(), log);
    }

    #[test]
    fn oversized_batch_rejected() {
        let log = NfLog {
            nf: NfId(0),
            rx: vec![RxBatch {
                ts: 1_000,
                ipids: (0..300u16).collect(),
            }],
            tx: vec![],
            flows: vec![],
        };
        assert_eq!(encode_nf_log(&log), Err(EncodeError::BatchTooLarge(300)));
    }

    #[test]
    fn interior_nf_is_near_two_bytes_per_packet() {
        // A realistic interior log: full batches, delta timestamps of a few
        // microseconds. Count rx+tx record bytes per packet *appearance*.
        let mut rx = Vec::new();
        let mut tx = Vec::new();
        let mut ts = 0u64;
        let mut ipid = 0u16;
        for _ in 0..1_000 {
            ts += 17_000; // ~17 µs per 32-batch at 1.9 Mpps
            let ipids: Vec<u16> = (0..MAX_BATCH as u16)
                .map(|i| ipid.wrapping_add(i))
                .collect();
            ipid = ipid.wrapping_add(MAX_BATCH as u16);
            rx.push(RxBatch {
                ts,
                ipids: ipids.clone(),
            });
            tx.push(TxBatch {
                ts: ts + 9_000,
                to: Some(NfId(1)),
                ipids,
            });
        }
        let log = NfLog {
            nf: NfId(0),
            rx,
            tx,
            flows: vec![],
        };
        let bytes = encode_nf_log(&log).unwrap().len();
        let appearances = 2 * 1_000 * MAX_BATCH; // each packet in one rx and one tx
        let per_packet = bytes as f64 / appearances as f64;
        assert!(
            per_packet < 2.5,
            "interior encoding is {per_packet:.2} B/packet-appearance"
        );
    }

    #[test]
    fn truncated_input_rejected() {
        let bytes = encode_nf_log(&sample_log()).unwrap();
        for cut in [0, 1, 3, bytes.len() / 2, bytes.len() - 1] {
            assert!(decode_nf_log(&bytes[..cut]).is_err(), "cut at {cut}");
        }
    }

    #[test]
    fn bad_version_rejected() {
        let mut bytes = encode_nf_log(&sample_log()).unwrap();
        bytes[0] = 99;
        assert_eq!(decode_nf_log(&bytes), Err(EncodeError::BadVersion(99)));
    }

    #[test]
    fn varint_boundaries() {
        let mut out = Vec::new();
        for v in [0u64, 1, 127, 128, 16_383, 16_384, u64::MAX] {
            out.clear();
            put_varint(&mut out, v);
            let mut pos = 0;
            assert_eq!(get_varint(&out, &mut pos).unwrap(), v);
            assert_eq!(pos, out.len());
        }
    }

    #[test]
    fn huge_record_count_is_truncated_not_a_capacity_panic() {
        // 13 bytes claiming 2^62 rx batches: the first batch runs out of
        // input after its timestamp delta.
        let mut buf = vec![VERSION];
        put_u16(&mut buf, 3);
        put_varint(&mut buf, 1 << 62);
        buf.push(0);
        assert_eq!(buf.len(), 13);
        assert_eq!(decode_nf_log(&buf), Err(EncodeError::Truncated));
    }

    #[test]
    fn malformed_varint_rejected() {
        // 11 continuation bytes: shift overflows.
        let buf = vec![0x80u8; 11];
        let mut pos = 0;
        assert_eq!(get_varint(&buf, &mut pos), Err(EncodeError::BadVarint));
    }
}
