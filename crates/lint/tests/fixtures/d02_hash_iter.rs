// Fixture: D02 violations — unordered HashMap/HashSet iteration.

use std::collections::HashMap;

struct Report {
    per_class: HashMap<u32, f64>,
}

impl Report {
    fn emit(&self) -> Vec<u32> {
        self.per_class.keys().copied().collect()
    }

    fn walk(&self) {
        for (k, v) in self.per_class.iter() {
            observe(*k, *v);
        }
    }

    fn sorted_is_fine(&self) -> Vec<(u32, f64)> {
        let mut rows: Vec<(u32, f64)> = self.per_class.iter().map(|(k, v)| (*k, *v)).collect::<Vec<_>>().sort_by_key(|r| r.0);
        rows
    }

    fn summed_is_fine(&self) -> u64 {
        self.per_class.values().map(|v| *v as u64).sum::<u64>()
    }

    fn sorted_later_is_fine(&self) -> Vec<u32> {
        let mut keys: Vec<u32> = self.per_class.keys().copied().collect();
        keys.sort();
        keys
    }
}
