//! `PageTable` against a `BTreeMap` oracle on pages drawn from the
//! boundaries: extreme tablespaces and page numbers at both ends of a
//! space. No sequence of lookups, writes and removes may panic or
//! disagree with the oracle, a slot's position must lead back to its
//! page, a lookup that finds no slot must allocate nothing, and memory
//! must follow the pages given a slot, not the largest page number or
//! tablespace.

use odlb::storage::page::MAX_PAGES_PER_SPACE;
use odlb::storage::page_table::LEAF_PAGES;
use odlb::storage::{PageId, PageTable, SpaceId, TableValue};
use odlb_testkit::{check, Gen};
use std::collections::{BTreeMap, BTreeSet};

const LAST_PAGE: u64 = MAX_PAGES_PER_SPACE - 1;

/// A page drawn mostly from the boundaries, as `page_id_properties.rs`
/// draws them: first and last page numbers and their neighbours, in
/// adjacent and extreme tablespaces.
fn boundary_page(g: &mut Gen) -> PageId {
    let space = match g.weighted(&[3.0, 1.0, 1.0]) {
        0 => g.u32_in(6, 10),
        1 => g.u32_in(0, 3),
        _ => u32::MAX - g.u32_in(0, 3),
    };
    let page_no = match g.weighted(&[2.0, 2.0, 1.0]) {
        0 => g.u64_in(0, 4),
        1 => LAST_PAGE - g.u64_in(0, 4),
        _ => g.u64_in(0, LAST_PAGE + 1),
    };
    PageId::new(SpaceId(space), page_no)
}

#[derive(Debug)]
enum Op {
    Get(PageId),
    Locate(PageId),
    Write(PageId, u32),
    Remove(PageId),
    Run(PageId, u64),
}

#[test]
fn table_equals_btreemap_oracle() {
    check("page_table_oracle", 300, |g: &mut Gen| {
        let mut table = PageTable::<u32>::new();
        let mut oracle = BTreeMap::new();
        let mut leaves = BTreeSet::new();
        // Earlier pages again, so removes and overwrites hit.
        let mut seen: Vec<PageId> = Vec::new();
        for _ in 0..g.usize_in(1, 200) {
            let page = if !seen.is_empty() && g.chance(0.5) {
                seen[g.usize_in(0, seen.len())]
            } else {
                boundary_page(g)
            };
            seen.push(page);
            let op = match g.weighted(&[2.0, 1.0, 3.0, 1.0, 1.0]) {
                0 => Op::Get(page),
                1 => Op::Locate(page),
                2 => Op::Write(page, g.u32_in(0, u32::VACANT)),
                3 => Op::Remove(page),
                _ => Op::Run(page, g.u64_in(0, 80)),
            };
            let leaf = (page.space, page.page_no() / LEAF_PAGES as u64);
            match op {
                Op::Get(p) => {
                    let arenas = (table.leaves(), table.directories());
                    let found = table.find(p);
                    assert_eq!((table.leaves(), table.directories()), arenas, "{op:?}");
                    assert_eq!(found.is_some(), leaves.contains(&leaf), "{op:?}");
                    if let Some(i) = found {
                        assert_eq!(table.page_at(i), p, "{op:?}");
                    }
                    assert_eq!(table.get(p), oracle.get(&p).copied(), "{op:?}");
                }
                Op::Locate(p) => {
                    let i = table.locate(p);
                    assert_eq!(table.page_at(i), p, "{op:?}");
                    assert_eq!(table[i], oracle.get(&p).copied().unwrap_or(u32::VACANT));
                    leaves.insert(leaf);
                }
                Op::Write(p, v) => {
                    let old = std::mem::replace(table.slot(p), v);
                    let want = oracle.insert(p, v).unwrap_or(u32::VACANT);
                    assert_eq!(old, want, "{op:?}");
                    leaves.insert(leaf);
                }
                Op::Remove(p) => {
                    let old = table
                        .find(p)
                        .map(|i| std::mem::replace(&mut table[i], u32::VACANT));
                    let want = oracle.remove(&p);
                    assert_eq!(old.filter(|&v| v != u32::VACANT), want, "{op:?}");
                }
                Op::Run(start, max) => {
                    let want = (0..max)
                        .take_while(|&i| {
                            start.page_no() + i <= LAST_PAGE
                                && oracle.contains_key(&start.offset(i))
                        })
                        .count() as u64;
                    assert_eq!(table.present_run(start, max), want, "{op:?}");
                }
            }
        }
        assert_eq!(table.leaves(), leaves.len(), "one leaf per range located");
        let mut values: Vec<u32> = table.values_mut().map(|v| *v).collect();
        let mut want: Vec<u32> = oracle.values().copied().collect();
        values.sort_unstable();
        want.sort_unstable();
        assert_eq!(values, want);
    });
}

#[test]
fn extreme_pages_allocate_a_leaf_each() {
    let mut table = PageTable::<u32>::new();
    let extremes = [
        PageId::new(SpaceId(u32::MAX), LAST_PAGE),
        PageId::new(SpaceId(0), LAST_PAGE),
        PageId::new(SpaceId(u32::MAX), 0),
    ];
    for (i, &p) in extremes.iter().enumerate() {
        *table.slot(p) = i as u32;
    }
    for (i, &p) in extremes.iter().enumerate() {
        assert_eq!(table.get(p), Some(i as u32));
        let position = table.find(p).unwrap();
        assert_eq!(table.page_at(position), p);
    }
    assert_eq!(table.leaves(), 3, "not a table sized by the page number");
    assert_eq!(table.directories(), 3);
    assert_eq!(
        table.get(PageId::new(SpaceId(u32::MAX - 1), LAST_PAGE)),
        None
    );
    assert_eq!(
        table.present_run(extremes[0], 64),
        1,
        "the run ends at the last page"
    );
}
