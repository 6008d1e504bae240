//! Exact one-dimensional hierarchical heavy hitters.
//!
//! Every dimension is a tree: each value has at most one parent, reached by
//! one generalisation step. The HHH of a weighted multiset of leaves are the
//! nodes whose weight — after *excluding* the weight already reported at
//! more specific descendants — reaches the threshold. Because each dimension
//! is a tree (not a lattice), a simple leaf-to-root roll-up computes this
//! exactly.

/// Computes one-dimensional hierarchical heavy hitters.
///
/// * `items` — weighted exact values (duplicates allowed; weights add up).
/// * `parent` — one generalisation step; `None` at the root.
/// * `depth` — generalisation steps from a value up to its root; it must
///   drop by exactly one per `parent` step.
/// * `threshold` — absolute weight needed to report a node.
///
/// Returns `(value, residual_weight)` pairs, deepest level first and in key
/// order within a level. The root is always reported last with whatever
/// weight remains unclaimed, so the output always accounts for the full
/// input weight.
///
/// The roll-up is level by level over sorted vectors: a level is the input
/// values of that depth plus the unreported weight handed up by the level
/// below, sorted by key; equal keys are adjacent and summed in one pass.
pub fn hhh_1d<K, I, P, D>(items: I, parent: P, depth: D, threshold: f64) -> Vec<(K, f64)>
where
    K: Ord + Clone,
    I: IntoIterator<Item = (K, f64)>,
    P: Fn(&K) -> Option<K>,
    D: Fn(&K) -> usize,
{
    // Deepest first, keys ascending within a depth. The sort is stable, so
    // duplicate keys keep the caller's order and their weights add up in it.
    let mut input: Vec<(usize, K, f64)> =
        items.into_iter().map(|(k, w)| (depth(&k), k, w)).collect();
    input.sort_by(|a, b| b.0.cmp(&a.0).then_with(|| a.1.cmp(&b.1)));
    let Some(mut d) = input.first().map(|e| e.0) else {
        return Vec::new();
    };

    let mut out: Vec<(K, f64)> = Vec::new();
    let mut next = 0; // first input entry not yet placed on a level
    let mut level: Vec<(K, f64)> = Vec::new();
    // Unreported weight handed up to the next level, in the key order of the
    // children it came from.
    let mut carried: Vec<(K, f64)> = Vec::new();
    loop {
        level.clear();
        while let Some((kd, k, w)) = input.get(next) {
            if *kd != d {
                break;
            }
            level.push((k.clone(), *w));
            next += 1;
        }
        // Input weight first, then the children's, each group in its own
        // order: the stable sort keeps both.
        level.append(&mut carried);
        level.sort_by(|a, b| a.0.cmp(&b.0));
        for run in level.chunk_by(|a, b| a.0 == b.0) {
            let k = &run[0].0;
            // float: canonical-order(a run holds input weights in caller order, then child weights in child key order)
            let w = run.iter().fold(0.0, |acc, e| acc + e.1);
            match parent(k) {
                Some(_) if w >= threshold => out.push((k.clone(), w)),
                // Roll the unreported weight up one level.
                Some(p) => carried.push((p, w)),
                // Root: report the remainder (even below threshold) so
                // weights are conserved.
                None if w > 0.0 => out.push((k.clone(), w)),
                None => {}
            }
        }
        if carried.is_empty() {
            match input.get(next) {
                Some(e) => d = e.0,
                None => break,
            }
        } else {
            d = d.saturating_sub(1);
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Toy hierarchy: integers, parent = n/10, root = 0.
    fn parent(n: &u32) -> Option<u32> {
        if *n == 0 {
            None
        } else {
            Some(n / 10)
        }
    }

    fn depth(n: &u32) -> usize {
        if *n == 0 {
            0
        } else {
            1 + depth(&(n / 10))
        }
    }

    #[test]
    fn significant_leaf_reported_directly() {
        let out = hhh_1d(vec![(123u32, 10.0), (124, 0.5)], parent, depth, 5.0);
        assert!(out.contains(&(123, 10.0)));
        // 124's weight rolls up to 12, then 1, then 0 (root).
        let root_w = out.iter().find(|(k, _)| *k == 0).map(|(_, w)| *w);
        assert_eq!(root_w, Some(0.5));
    }

    #[test]
    fn siblings_combine_at_parent() {
        // Three siblings of 2.0 each — none significant alone, parent 12 is.
        let out = hhh_1d(
            vec![(121u32, 2.0), (122, 2.0), (123, 2.0)],
            parent,
            depth,
            5.0,
        );
        assert_eq!(out, vec![(12, 6.0)]);
    }

    #[test]
    fn descendant_exclusion() {
        // 121 significant alone; 122+123 only significant combined at 12.
        let out = hhh_1d(
            vec![(121u32, 7.0), (122, 3.0), (123, 3.0)],
            parent,
            depth,
            5.0,
        );
        assert!(out.contains(&(121, 7.0)));
        // Parent reports only the residual 6.0, not 13.0.
        assert!(out.contains(&(12, 6.0)));
    }

    #[test]
    fn weights_are_conserved() {
        let items: Vec<(u32, f64)> = (100..200).map(|k| (k, 0.37)).collect();
        let total: f64 = items.iter().map(|(_, w)| w).sum();
        let out = hhh_1d(items, parent, depth, 3.0);
        let reported: f64 = out.iter().map(|(_, w)| w).sum();
        assert!((reported - total).abs() < 1e-9, "{reported} vs {total}");
    }

    #[test]
    fn root_catches_scraps() {
        let out = hhh_1d(vec![(5u32, 0.1)], parent, depth, 100.0);
        assert_eq!(out, vec![(0, 0.1)]);
    }

    #[test]
    fn empty_input() {
        let out = hhh_1d(Vec::<(u32, f64)>::new(), parent, depth, 1.0);
        assert!(out.is_empty());
    }

    #[test]
    fn duplicate_keys_merge() {
        let out = hhh_1d(vec![(7u32, 3.0), (7, 4.0)], parent, depth, 5.0);
        assert!(out.contains(&(7, 7.0)));
    }
}

#[cfg(test)]
mod prefix_tests {
    use super::*;
    use nf_types::{parse_ip, Prefix};

    #[test]
    fn ipv4_prefix_hierarchy_rolls_up_32_levels() {
        // Two /32 hosts under one /31; weight splits below threshold and
        // meets it exactly at the /31.
        let a = Prefix::host(parse_ip("10.0.0.2").unwrap());
        let b = Prefix::host(parse_ip("10.0.0.3").unwrap());
        let out = hhh_1d(
            vec![(a, 3.0), (b, 3.0)],
            |p: &Prefix| p.parent(),
            |p: &Prefix| usize::from(p.len()),
            5.0,
        );
        assert_eq!(out.len(), 1);
        assert_eq!(out[0].0, Prefix::new(parse_ip("10.0.0.2").unwrap(), 31));
        assert!((out[0].1 - 6.0).abs() < 1e-9);
    }

    #[test]
    fn distant_hosts_meet_high_in_the_tree() {
        let a = Prefix::host(parse_ip("10.0.0.1").unwrap());
        let b = Prefix::host(parse_ip("10.128.0.1").unwrap());
        let out = hhh_1d(
            vec![(a, 3.0), (b, 3.0)],
            |p: &Prefix| p.parent(),
            |p: &Prefix| usize::from(p.len()),
            5.0,
        );
        assert_eq!(out.len(), 1);
        // First common ancestor of 10.0.0.1 and 10.128.0.1 is 10.0.0.0/8.
        assert_eq!(out[0].0, Prefix::new(parse_ip("10.0.0.0").unwrap(), 8));
    }

    #[test]
    fn port_hierarchy_is_two_level() {
        use nf_types::PortRange;
        // 4 exact high ports of 2.0 each; threshold 5 → the HIGH range.
        let items: Vec<(PortRange, f64)> =
            (0..4).map(|i| (PortRange::exact(2000 + i), 2.0)).collect();
        let out = hhh_1d(
            items,
            |p: &PortRange| p.static_parent(),
            crate::cluster::port_depth,
            5.0,
        );
        assert_eq!(out, vec![(PortRange::HIGH, 8.0)]);
    }
}
