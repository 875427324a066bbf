//! CSR construction against a naive sequential reference.
//!
//! `Csr::from_edges_rect`, `Csr::transpose` and `Csr::from_row_fn` are
//! parallel counting constructions; each must equal the obvious sequential
//! build (one bucket per row, rows sorted, duplicates kept) on random
//! rectangular shapes with empty rows, duplicate edges and a few heavy hub
//! columns, and must give bit-identical output at 1, 2 and 4 lanes. The
//! binary reader must rebuild every dataset exactly as `Graph::from_pairs`
//! does.

use mixen_graph::{io, Csr, Dataset, Graph, NodeId, Scale};
use proptest::prelude::*;

/// Lane counts every construction is run at.
const LANES: [usize; 3] = [1, 2, 4];

/// Row pointers and concatenated sorted rows of the `n_rows`-row matrix
/// holding `edges` (duplicates kept).
fn naive(n_rows: usize, edges: &[(NodeId, NodeId)]) -> (Vec<usize>, Vec<NodeId>) {
    let mut rows = vec![Vec::new(); n_rows];
    for &(s, d) in edges {
        rows[s as usize].push(d);
    }
    let mut ptr = vec![0];
    let mut idx = Vec::new();
    for mut row in rows {
        row.sort_unstable();
        idx.extend(row);
        ptr.push(idx.len());
    }
    (ptr, idx)
}

fn assert_matches(c: &Csr, n_rows: usize, n_cols: usize, want: &(Vec<usize>, Vec<NodeId>)) {
    c.validate().unwrap();
    assert_eq!((c.n_rows(), c.n_cols()), (n_rows, n_cols));
    assert_eq!(c.ptr(), &want.0[..]);
    assert_eq!(c.idx(), &want.1[..]);
}

/// A random `n_rows x n_cols` edge list. About a third of the edges land on
/// one of three hub columns, and a few are repeated verbatim; rows beyond
/// the sampled sources stay empty.
fn shaped_edges() -> impl Strategy<Value = (usize, usize, Vec<(NodeId, NodeId)>)> {
    (1usize..48, 1usize..48).prop_flat_map(|(n_rows, n_cols)| {
        let n_src = 1 + n_rows / 2;
        proptest::collection::vec((0..n_src as u32, 0..n_cols as u32, 0u32..6), 0..700).prop_map(
            move |raw| {
                let hubs = n_cols.min(3) as u32;
                let mut edges = Vec::with_capacity(raw.len());
                for (s, d, kind) in raw {
                    let e = (s, if kind < 2 { d % hubs } else { d });
                    edges.push(e);
                    if kind == 5 {
                        edges.push(e);
                    }
                }
                (n_rows, n_cols, edges)
            },
        )
    })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(96))]

    #[test]
    fn from_edges_rect_matches_naive((n_rows, n_cols, edges) in shaped_edges()) {
        let want = naive(n_rows, &edges);
        for lanes in LANES {
            let c = mixen_pool::with_threads(lanes, || Csr::from_edges_rect(n_rows, n_cols, &edges));
            assert_matches(&c, n_rows, n_cols, &want);
        }
    }

    #[test]
    fn transpose_matches_naive((n_rows, n_cols, edges) in shaped_edges()) {
        let c = Csr::from_edges_rect(n_rows, n_cols, &edges);
        let flipped: Vec<_> = edges.iter().map(|&(s, d)| (d, s)).collect();
        let want = naive(n_cols, &flipped);
        for lanes in LANES {
            let t = mixen_pool::with_threads(lanes, || c.transpose());
            assert_matches(&t, n_cols, n_rows, &want);
        }
    }

    #[test]
    fn from_row_fn_matches_naive((n_rows, n_cols, edges) in shaped_edges()) {
        let want = naive(n_rows, &edges);
        // The row function emits each row unsorted (reverse input order).
        let mut rows = vec![Vec::new(); n_rows];
        for &(s, d) in edges.iter().rev() {
            rows[s as usize].push(d);
        }
        for lanes in LANES {
            let c = mixen_pool::with_threads(lanes, || {
                Csr::from_row_fn(n_rows, n_cols, |u, out| out.extend(&rows[u as usize]))
            });
            assert_matches(&c, n_rows, n_cols, &want);
        }
    }
}

#[test]
fn zero_sized_shapes_build() {
    for lanes in LANES {
        mixen_pool::with_threads(lanes, || {
            for (n_rows, n_cols) in [(0, 0), (0, 5), (5, 0)] {
                let c = Csr::from_edges_rect(n_rows, n_cols, &[]);
                assert_matches(&c, n_rows, n_cols, &naive(n_rows, &[]));
                let t = c.transpose();
                assert_matches(&t, n_cols, n_rows, &naive(n_cols, &[]));
                let f = Csr::from_row_fn(n_rows, n_cols, |_, _| {});
                assert_eq!(f, c);
            }
        });
    }
}

#[test]
fn load_rebuilds_every_tiny_dataset_like_from_pairs() {
    let dir = std::env::temp_dir().join(format!("mixen_construction_{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    for d in Dataset::ALL {
        let g = d.generate(Scale::Tiny, 11);
        let pairs: Vec<_> = g.edges().collect();
        let want = Graph::from_pairs(g.n(), &pairs);
        let path = dir.join(format!("{}.mxg", d.name()));
        io::save(&g, &path).unwrap();
        for lanes in LANES {
            let back = mixen_pool::with_threads(lanes, || io::load(&path)).unwrap();
            assert_eq!(back.out_csr(), want.out_csr(), "{} out-CSR", d.name());
            assert_eq!(back.in_csc(), want.in_csc(), "{} in-CSC", d.name());
        }
    }
    std::fs::remove_dir_all(&dir).ok();
}
