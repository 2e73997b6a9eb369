// Fixture: D02 violations — a std hash table is flagged where it is
// named (renamed, qualified or in a type), whatever is done with it
// afterwards; `FastMap` and the ordered maps are not table names.

use std::collections::HashMap as Table;

struct Report {
    per_class: Table<u32, f64>,
    seen: odlb_sim::FastMap<u32, u64>,
    sorted: BTreeMap<u32, u64>,
}

fn sorting_is_no_excuse(m: &HashSet<u32>) -> Vec<u32> {
    let mut keys: Vec<u32> = m.iter().copied().collect();
    keys.sort();
    keys
}

fn nor_is_an_order_free_sum(m: &std::collections::HashMap<u32, u32>) -> u32 {
    m.values().sum()
}

fn key_order_is_fine(r: &Report) -> Vec<u32> {
    r.seen.iter_sorted().map(|(k, _)| *k).collect()
}

#[cfg(test)]
mod tests {
    use std::collections::HashSet;
}
