//! Differential property suite for `FastMap`: a `BTreeMap` fed the same
//! operations is the oracle. Every point operation must answer as the
//! oracle does, and `iter_sorted` / `iter_sorted_mut` — the only ways to
//! visit a `FastMap` — must yield exactly the oracle's iteration, so the
//! table's placement order is unobservable. (That it has no unordered
//! visit at all is proved by the `compile_fail` doctests on the type.)

use odlb_sim::FastMap;
use odlb_testkit::{check, Gen};
use std::collections::BTreeMap;

fn assert_same(map: &FastMap<u64, u64>, oracle: &BTreeMap<u64, u64>) {
    assert_eq!(map.len(), oracle.len());
    assert_eq!(map.is_empty(), oracle.is_empty());
    assert!(map.capacity() >= map.len());
    let visited: Vec<(u64, u64)> = map.iter_sorted().map(|(k, v)| (*k, *v)).collect();
    let expected: Vec<(u64, u64)> = oracle.iter().map(|(k, v)| (*k, *v)).collect();
    assert_eq!(visited, expected);
}

#[test]
fn random_operation_sequences_match_a_btreemap() {
    check("fastmap_matches_btreemap", 200, |g: &mut Gen| {
        // A narrow key range makes hits, overwrites and removals of
        // present keys common; a wide one exercises growth.
        let key_space = [8, 64, 100_000][g.usize_in(0, 3)];
        let mut map = FastMap::default();
        let mut oracle = BTreeMap::new();
        for step in 0..g.u64_in(1, 400) {
            let key = g.u64_in(0, key_space);
            match g.weighted(&[6.0, 3.0, 3.0, 2.0, 3.0, 0.2, 1.0]) {
                0 => assert_eq!(map.insert(key, step), oracle.insert(key, step)),
                1 => assert_eq!(map.remove(&key), oracle.remove(&key)),
                2 => {
                    assert_eq!(map.get(&key), oracle.get(&key));
                    assert_eq!(map.contains_key(&key), oracle.contains_key(&key));
                }
                3 => {
                    let (got, want) = (map.get_mut(&key), oracle.get_mut(&key));
                    assert_eq!(got.as_deref(), want.as_deref());
                    if let (Some(got), Some(want)) = (got, want) {
                        *got += 1;
                        *want += 1;
                    }
                }
                4 => {
                    *map.entry(key).or_insert(step) += 7;
                    *oracle.entry(key).or_insert(step) += 7;
                }
                5 => {
                    map.clear();
                    oracle.clear();
                }
                _ => {
                    map.reserve(g.usize_in(0, 64));
                    for ((k, got), (ok, want)) in map.iter_sorted_mut().zip(oracle.iter_mut()) {
                        assert_eq!((k, &*got), (ok, &*want));
                        *got ^= step;
                        *want ^= step;
                    }
                }
            }
            assert_same(&map, &oracle);
        }
    });
}
