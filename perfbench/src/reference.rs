//! A fixed reference job, timed next to every untraced op.
//!
//! The host's cores are shared, and a neighbour's load moves a whole run's
//! median op time by 10–20% over minutes. CPU time moves with it, so the
//! slowdown is in execution speed, not only in time the host takes the
//! core away. The end-to-end time is therefore gated as a ratio to this
//! job, measured in the same run. How much that helps depends on the
//! neighbour: over two 5–7 minute stretches on one unchanged `stream`
//! recording, the interquartile range of 40 s window medians went from 14%
//! to 2% in one and stayed at 8–9% in the other.
//!
//! The job resembles the pipeline's memory behaviour: it faults in 64 MiB,
//! makes dependent random read-modify-writes over it, then sorts 8 MiB of
//! it. It uses only `std`, so no change to the repository can speed it up.

use std::time::Instant;

const WORDS: usize = 8 << 20;
const STEPS: usize = 4 << 20;
const SORTED: usize = 1 << 20;

/// Runs the job once; returns its wall seconds.
pub fn run() -> f64 {
    let t0 = Instant::now();
    let mut buf: Vec<u64> = (0..WORDS as u64)
        .map(|i| i.wrapping_mul(0x2545_f491_4f6c_dd1d))
        .collect();
    let mut x: u64 = 0x9e37_79b9_7f4a_7c15;
    let mut acc = 0u64;
    for _ in 0..STEPS {
        x ^= x << 13;
        x ^= x >> 7;
        x ^= x << 17;
        let i = (x % WORDS as u64) as usize;
        acc = acc.wrapping_add(buf[i]);
        buf[(i * 7 + 3) % WORDS] = acc;
    }
    let mut head = buf[..SORTED].to_vec();
    head.sort_unstable();
    std::hint::black_box((acc, head, buf));
    t0.elapsed().as_secs_f64()
}
