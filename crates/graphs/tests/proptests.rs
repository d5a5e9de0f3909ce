//! Property-based tests of the graph abstractions.

use graphs::bfs::multi_source_bfs;
use graphs::seqgraph::SeqGraphConfig;
use graphs::{FlowHistogram, NetGraph, SeqGraph};
use netlist::design::DesignBuilder;
use proptest::prelude::*;

/// Oracle: a plain full multi-source BFS with allocated adjacency lists,
/// returning `(distance, source, predecessor)` per node.
fn reference_bfs(
    adj: &[Vec<usize>],
    sources: &[usize],
    blocked: &[bool],
) -> Vec<(u32, usize, usize)> {
    let mut out = vec![(u32::MAX, usize::MAX, usize::MAX); adj.len()];
    let mut queue = std::collections::VecDeque::new();
    for (i, &s) in sources.iter().enumerate() {
        if out[s].0 == u32::MAX {
            out[s] = (0, i, usize::MAX);
            queue.push_back(s);
        }
    }
    while let Some(u) = queue.pop_front() {
        if out[u].0 != 0 && blocked[u] {
            continue;
        }
        for &v in &adj[u] {
            if out[v].0 == u32::MAX {
                out[v] = (out[u].0 + 1, out[u].1, u);
                queue.push_back(v);
            }
        }
    }
    out
}

proptest! {
    #[test]
    fn histogram_score_monotone_in_k_and_bits(
        bins in prop::collection::vec((1u32..10, 1u64..1000), 1..10)
    ) {
        let h: FlowHistogram = bins.iter().copied().collect();
        // score never increases with k
        for k in 0..4 {
            prop_assert!(h.score(k) + 1e-9 >= h.score(k + 1));
        }
        // score at k=0 equals total bits
        prop_assert!((h.score(0) - h.total_bits() as f64).abs() < 1e-6);
        // adding flow can only increase the score
        let mut bigger = h.clone();
        bigger.add(1, 10);
        prop_assert!(bigger.score(2) > h.score(2));
    }

    #[test]
    fn histogram_merge_is_commutative(
        a_bins in prop::collection::vec((1u32..8, 1u64..100), 0..8),
        b_bins in prop::collection::vec((1u32..8, 1u64..100), 0..8),
    ) {
        let a: FlowHistogram = a_bins.iter().copied().collect();
        let b: FlowHistogram = b_bins.iter().copied().collect();
        let mut ab = a.clone();
        ab.merge(&b);
        let mut ba = b.clone();
        ba.merge(&a);
        prop_assert_eq!(ab, ba);
    }

    #[test]
    fn bfs_distances_are_shortest_on_random_dags(
        edges in prop::collection::vec((0usize..30, 0usize..30), 0..100),
        num_nodes in 1usize..30,
        source in 0usize..30,
    ) {
        let source = source % num_nodes;
        let adj: Vec<Vec<usize>> = {
            let mut adj = vec![Vec::new(); num_nodes];
            for &(a, b) in &edges {
                let (a, b) = (a % num_nodes, b % num_nodes);
                if a != b {
                    adj[a].push(b);
                }
            }
            adj
        };
        let all: Vec<usize> = (0..num_nodes).collect();
        let r = multi_source_bfs(num_nodes, &[source], |n| adj[n].iter().copied(), |_| true, &all);
        prop_assert_eq!(r.distance[source], 0);
        // relaxation check: no edge can shortcut a BFS distance by more than 1
        for (a, succs) in adj.iter().enumerate() {
            if r.distance[a] == u32::MAX { continue; }
            for &b in succs {
                prop_assert!(r.distance[b] <= r.distance[a] + 1);
            }
        }
        // predecessors form valid shortest-path links
        for n in 0..num_nodes {
            if n != source && r.reached(n) {
                let p = r.predecessor[n];
                prop_assert!(r.reached(p));
                prop_assert_eq!(r.distance[n], r.distance[p] + 1);
            }
        }
    }

    #[test]
    fn early_exit_bfs_assigns_targets_like_a_full_search(
        edges in prop::collection::vec((0usize..40, 0usize..40), 0..120),
        connected in 2usize..40,
        isolated in 0usize..6,
        sources in prop::collection::vec(0usize..40, 1..6),
        targets in prop::collection::vec(0usize..46, 0..12),
        blocked in prop::collection::vec(any::<bool>(), 46),
    ) {
        // nodes `connected..` carry no edges: targets there are unreachable
        let num_nodes = connected + isolated;
        let sources: Vec<usize> = sources.iter().map(|s| s % connected).collect();
        let targets: Vec<usize> = targets.iter().map(|t| t % num_nodes).collect();
        let blocked = &blocked[..num_nodes];
        let mut succ = vec![Vec::new(); num_nodes];
        let mut pred = vec![Vec::new(); num_nodes];
        for &(a, b) in &edges {
            let (a, b) = (a % connected, b % connected);
            succ[a].push(b);
            pred[b].push(a);
        }
        // the undirected walk the target-area search does: successors, then predecessors
        let undirected: Vec<Vec<usize>> =
            (0..num_nodes).map(|n| succ[n].iter().chain(&pred[n]).copied().collect()).collect();
        let oracle = reference_bfs(&undirected, &sources, blocked);
        let walk = |n: usize| succ[n].iter().chain(&pred[n]).copied();
        let all: Vec<usize> = (0..num_nodes).collect();
        let full = multi_source_bfs(num_nodes, &sources, walk, |n| !blocked[n], &all);
        let early = multi_source_bfs(num_nodes, &sources, walk, |n| !blocked[n], &targets);
        for (n, &expected) in oracle.iter().enumerate() {
            let got = (full.distance[n], full.source[n], full.predecessor[n]);
            prop_assert_eq!(got, expected, "full search, node {}", n);
        }
        for &t in &targets {
            let got = (early.distance[t], early.source[t], early.predecessor[t]);
            prop_assert_eq!(got, oracle[t], "early exit, target {}", t);
        }
    }

    #[test]
    fn seq_graph_width_conservation(
        num_regs in 1usize..6,
        bits in 1u64..12,
    ) {
        // a chain of register arrays, each `bits` wide, feeding the next
        let mut b = DesignBuilder::new("chain");
        let mut stages: Vec<Vec<_>> = Vec::new();
        for s in 0..num_regs {
            let stage: Vec<_> = (0..bits)
                .map(|i| b.add_flop(format!("u/s{s}_reg[{i}]"), "u"))
                .collect();
            stages.push(stage);
        }
        for s in 1..num_regs {
            let pairs: Vec<_> =
                stages[s - 1].iter().copied().zip(stages[s].iter().copied()).collect();
            for (i, (src, dst)) in pairs.into_iter().enumerate() {
                let n = b.add_net(format!("n{s}_{i}"));
                b.connect_driver(n, src);
                b.connect_sink(n, dst);
            }
        }
        let design = b.build();
        let gseq = SeqGraph::from_design(&design, &SeqGraphConfig::default());
        prop_assert_eq!(gseq.num_nodes(), num_regs);
        prop_assert_eq!(gseq.num_edges(), num_regs - 1);
        for (id, node) in gseq.iter() {
            prop_assert_eq!(node.width, bits);
            for &(_, w) in gseq.successors(id) {
                prop_assert_eq!(w, bits);
            }
        }
    }

    #[test]
    fn netgraph_edge_count_matches_net_degrees(
        edges in prop::collection::vec((0usize..20, 0usize..20), 1..60),
    ) {
        let mut b = DesignBuilder::new("g");
        let cells: Vec<_> = (0..20).map(|i| b.add_comb(format!("c{i}"), "")).collect();
        let mut expected = std::collections::HashSet::new();
        for (i, &(from, to)) in edges.iter().enumerate() {
            if from == to { continue; }
            let n = b.add_net(format!("n{i}"));
            b.connect_driver(n, cells[from]);
            b.connect_sink(n, cells[to]);
            expected.insert((from, to));
        }
        let design = b.build();
        let g = NetGraph::from_design(&design);
        prop_assert_eq!(g.num_edges(), expected.len());
    }
}
