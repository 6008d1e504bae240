//! Output checks: what a `diagnose`/`stream` report must say, and the
//! per-op verdict that feeds `failed`.

use crate::stats::digest;
use crate::sys::ChildRun;

/// The counts a `diagnose`/`stream` report prints.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct ReportCounts {
    pub traces: u64,
    pub delivered: u64,
    pub dropped: u64,
    pub unresolved: u64,
    pub ambiguities: u64,
    pub victims: u64,
    /// Relations built before the CLI's sampling (from its stderr note;
    /// equal to `aggregated` when it did not sample).
    pub relations: u64,
    /// Relations handed to aggregation.
    pub aggregated: u64,
    pub patterns: u64,
}

/// The whitespace-separated words of the first line starting with
/// `prefix`.
fn words<'a>(text: &'a str, prefix: &str) -> Option<Vec<&'a str>> {
    let line = text.lines().find(|l| l.trim_start().starts_with(prefix))?;
    Some(line.split_whitespace().collect())
}

fn num(w: &[&str], i: usize) -> Result<u64, String> {
    w.get(i)
        .and_then(|s| s.trim_end_matches([',', ':']).parse().ok())
        .ok_or_else(|| format!("no number at word {i} of {:?}", w.join(" ")))
}

/// Reads the counts out of a report's stdout and stderr.
pub fn parse_report(stdout: &str, stderr: &str) -> Result<ReportCounts, String> {
    // reconstructed T traces: D delivered, X dropped, U unresolved, A IPID ambiguities
    let r = words(stdout, "reconstructed ").ok_or("no `reconstructed` line")?;
    // diagnosed V victim (packet, NF) pairs
    let d = words(stdout, "diagnosed ").ok_or("no `diagnosed` line")?;
    // R causal relations -> P patterns; top N:
    let p = stdout
        .lines()
        .find(|l| l.contains(" causal relations -> "))
        .map(|l| l.split_whitespace().collect::<Vec<_>>())
        .ok_or("no `causal relations ->` line")?;
    let aggregated = num(&p, 0)?;
    // note: sampling S of R causal relations for aggregation (1/K)
    let relations = match words(stderr, "note: sampling ") {
        Some(n) => num(&n, 4)?,
        None => aggregated,
    };
    Ok(ReportCounts {
        traces: num(&r, 1)?,
        delivered: num(&r, 3)?,
        dropped: num(&r, 5)?,
        unresolved: num(&r, 7)?,
        ambiguities: num(&r, 9)?,
        victims: num(&d, 1)?,
        relations,
        aggregated,
        patterns: num(&p, 4)?,
    })
}

/// Source packet count from `microscope record`'s stdout.
pub fn parse_recorded(stdout: &str) -> Result<u64, String> {
    let w = words(stdout, "recorded ").ok_or("no `recorded` line in record output")?;
    num(&w, 1)
}

/// What every timed op must reproduce.
#[derive(Debug, Clone)]
pub struct Expected {
    /// Digest of the untimed reference run's stdout.
    pub digest: String,
    /// Packets the recording's source offered.
    pub source_packets: u64,
}

/// The verdict on one CLI op: its counts, or why it failed.
pub fn check_op(run: &ChildRun, exp: &Expected) -> Result<ReportCounts, String> {
    if run.code != Some(0) {
        return Err(format!(
            "exit {:?}: {}",
            run.code,
            String::from_utf8_lossy(&run.stderr).trim()
        ));
    }
    let got = digest(&run.stdout);
    if got != exp.digest {
        return Err(format!("stdout digest {got} != reference {}", exp.digest));
    }
    let c = parse_report(
        &String::from_utf8_lossy(&run.stdout),
        &String::from_utf8_lossy(&run.stderr),
    )?;
    if c.traces != exp.source_packets {
        return Err(format!(
            "reconstructed {} traces for {} source packets",
            c.traces, exp.source_packets
        ));
    }
    if c.delivered + c.dropped + c.unresolved != c.traces {
        return Err(format!(
            "trace outcomes do not add up to {}: {c:?}",
            c.traces
        ));
    }
    Ok(c)
}

#[cfg(test)]
mod tests {
    use super::*;

    const OUT: &str =
        "reconstructed 120 traces: 118 delivered, 1 dropped, 1 unresolved, 7 IPID ambiguities\n\
        diagnosed 9 victim (packet, NF) pairs\n\n\
        top culprit locations (victims where ranked #1):\n\
        \x20   traffic-source:      9 victims, blame mass 3.0\n\n\
        5 causal relations -> 2 patterns; top 2:\n  a\n  b\n";
    const ERR: &str = "step cache: 1 hits / 2 misses (33.3% hit rate, 2 periods)\n\
        note: sampling 5 of 11 causal relations for aggregation (1/2)\n";

    fn run(stdout: &str, code: Option<i32>) -> ChildRun {
        ChildRun {
            wall_s: 0.1,
            code,
            stdout: stdout.as_bytes().to_vec(),
            stderr: ERR.as_bytes().to_vec(),
            peak_rss_kb: 1,
        }
    }

    fn expected() -> Expected {
        Expected {
            digest: digest(OUT.as_bytes()),
            source_packets: 120,
        }
    }

    #[test]
    fn parses_every_count() {
        let c = parse_report(OUT, ERR).unwrap();
        assert_eq!(
            c,
            ReportCounts {
                traces: 120,
                delivered: 118,
                dropped: 1,
                unresolved: 1,
                ambiguities: 7,
                victims: 9,
                relations: 11,
                aggregated: 5,
                patterns: 2,
            }
        );
        assert_eq!(parse_report(OUT, "").unwrap().relations, 5);
        assert_eq!(
            parse_recorded("recorded 420906 packets over 300 ms").unwrap(),
            420_906
        );
    }

    #[test]
    fn a_faithful_op_passes() {
        assert!(check_op(&run(OUT, Some(0)), &expected()).is_ok());
    }

    #[test]
    fn truncated_stdout_is_a_failed_op() {
        let cut = &OUT[..OUT.len() / 2];
        assert!(check_op(&run(cut, Some(0)), &expected()).is_err());
    }

    #[test]
    fn flipped_digest_is_a_failed_op() {
        let mut exp = expected();
        exp.digest.replace_range(
            0..1,
            if exp.digest.starts_with('0') {
                "1"
            } else {
                "0"
            },
        );
        assert!(check_op(&run(OUT, Some(0)), &exp).is_err());
    }

    #[test]
    fn corrupted_ops_count_as_failed_ops() {
        let mut tally = crate::workload::Tally::default();
        let exp = expected();
        tally.record(check_op(&run(OUT, Some(0)), &exp));
        tally.record(check_op(&run(&OUT[..OUT.len() - 3], Some(0)), &exp));
        let mut flipped = exp.clone();
        flipped.digest = format!("{:016x}", u64::from_str_radix(&exp.digest, 16).unwrap() ^ 1);
        tally.record(check_op(&run(OUT, Some(0)), &flipped));
        assert_eq!((tally.attempted, tally.failed), (3, 2));
        assert!(tally.first_failure.unwrap().contains("digest"));
    }

    #[test]
    fn nonzero_exit_and_lost_packets_fail() {
        assert!(check_op(&run(OUT, Some(1)), &expected()).is_err());
        assert!(check_op(&run(OUT, None), &expected()).is_err());
        let mut exp = expected();
        exp.source_packets = 121;
        assert!(check_op(&run(OUT, Some(0)), &exp).is_err());
    }
}
