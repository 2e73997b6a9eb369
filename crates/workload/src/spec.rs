//! Workload specifications: an application as a weighted mix of query
//! classes, sampled into executable [`QuerySpec`]s.

use crate::pattern::AccessPattern;
use odlb_engine::QuerySpec;
use odlb_metrics::{AppId, ClassId};
use odlb_sim::{SimDuration, SimRng};
use odlb_storage::PageId;

/// One query class of an application.
#[derive(Clone, Debug)]
pub struct QueryClassSpec {
    /// Human-readable interaction name (e.g. "BestSeller").
    pub name: &'static str,
    /// Representative SQL text of the class (documentation only).
    pub sql: &'static str,
    /// Relative frequency in the mix.
    pub weight: f64,
    /// Page-access generator.
    pub pattern: AccessPattern,
    /// Fixed CPU demand.
    pub cpu_base: SimDuration,
    /// CPU demand per page accessed.
    pub cpu_per_page: SimDuration,
    /// True for updates (read-one-write-all applies them everywhere).
    pub is_write: bool,
}

/// An application: its identity plus its query classes. The class at
/// position `i` has `ClassId { app, template: i }`.
#[derive(Clone, Debug)]
pub struct WorkloadSpec {
    /// Display name ("TPC-W", "RUBiS").
    pub name: String,
    /// The application id.
    pub app: AppId,
    /// Query classes, position = template index.
    pub classes: Vec<QueryClassSpec>,
}

impl WorkloadSpec {
    /// The class id of the `i`-th class.
    pub fn class_id(&self, i: usize) -> ClassId {
        assert!(i < self.classes.len(), "class index out of range");
        ClassId::new(self.app, i as u32)
    }

    /// All class ids, in template order.
    pub fn class_ids(&self) -> Vec<ClassId> {
        (0..self.classes.len()).map(|i| self.class_id(i)).collect()
    }

    /// Looks up a class index by interaction name.
    pub fn class_index_by_name(&self, name: &str) -> Option<usize> {
        self.classes.iter().position(|c| c.name == name)
    }

    /// Fraction of the mix that is writes.
    pub fn write_fraction(&self) -> f64 {
        let total: f64 = self.classes.iter().map(|c| c.weight).sum();
        let writes: f64 = self
            .classes
            .iter()
            .filter(|c| c.is_write)
            .map(|c| c.weight)
            .sum();
        writes / total
    }

    /// Samples a class index according to the mix weights. Allocation-
    /// free: the weighted draw ([`SimRng::weighted`] semantics — one
    /// uniform draw scaled by the total, then a linear scan) runs
    /// directly over the class list.
    pub fn sample_class(&self, rng: &mut SimRng) -> usize {
        let total: f64 = self.classes.iter().map(|c| c.weight).sum();
        assert!(total > 0.0, "weights must sum to a positive value");
        let mut x = rng.f64() * total;
        for (i, c) in self.classes.iter().enumerate() {
            if x < c.weight {
                return i;
            }
            x -= c.weight;
        }
        self.classes.len() - 1
    }

    /// Samples one executable query from the mix.
    pub fn sample_query(&self, rng: &mut SimRng) -> QuerySpec {
        self.sample_query_into(rng, Vec::new())
    }

    /// [`WorkloadSpec::sample_query`] building the page list in a
    /// recycled buffer (cleared first): the driver's hot path hands page
    /// vectors of completed queries back through here, so steady-state
    /// sampling performs no allocation.
    pub fn sample_query_into(&self, rng: &mut SimRng, pages: Vec<PageId>) -> QuerySpec {
        let idx = self.sample_class(rng);
        self.query_of_class_into(idx, rng, pages)
    }

    /// Materialises one query of a specific class (used by experiments
    /// that drive a single class, e.g. the MRC harnesses).
    pub fn query_of_class(&self, idx: usize, rng: &mut SimRng) -> QuerySpec {
        self.query_of_class_into(idx, rng, Vec::new())
    }

    /// [`WorkloadSpec::query_of_class`] with a recycled page buffer.
    pub fn query_of_class_into(
        &self,
        idx: usize,
        rng: &mut SimRng,
        mut pages: Vec<PageId>,
    ) -> QuerySpec {
        pages.clear();
        let c = &self.classes[idx];
        let prefix = c.pattern.generate_with_prefix_into(rng, &mut pages);
        QuerySpec {
            class: self.class_id(idx),
            pages,
            cpu_base: c.cpu_base,
            cpu_per_page: c.cpu_per_page,
            is_write: c.is_write,
            // Writes lock their update target: the first component of the
            // class's pattern (models list the written table first).
            lock_prefix: if c.is_write { prefix } else { 0 },
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use odlb_storage::SpaceId;

    fn toy() -> WorkloadSpec {
        WorkloadSpec {
            name: "toy".into(),
            app: AppId(7),
            classes: vec![
                QueryClassSpec {
                    name: "Read",
                    sql: "SELECT * FROM t WHERE id = 1",
                    weight: 3.0,
                    pattern: AccessPattern::UniformLookup {
                        space: SpaceId(0),
                        table_pages: 100,
                        count: 2,
                    },
                    cpu_base: SimDuration::from_micros(100),
                    cpu_per_page: SimDuration::from_micros(10),
                    is_write: false,
                },
                QueryClassSpec {
                    name: "Write",
                    sql: "UPDATE t SET v = 2 WHERE id = 1",
                    weight: 1.0,
                    pattern: AccessPattern::UniformLookup {
                        space: SpaceId(0),
                        table_pages: 100,
                        count: 1,
                    },
                    cpu_base: SimDuration::from_micros(150),
                    cpu_per_page: SimDuration::from_micros(10),
                    is_write: true,
                },
            ],
        }
    }

    #[test]
    fn class_ids_follow_positions() {
        let w = toy();
        assert_eq!(w.class_id(0), ClassId::new(AppId(7), 0));
        assert_eq!(w.class_id(1), ClassId::new(AppId(7), 1));
        assert_eq!(w.class_ids().len(), 2);
        assert_eq!(w.class_index_by_name("Write"), Some(1));
        assert_eq!(w.class_index_by_name("Nope"), None);
    }

    #[test]
    fn write_fraction_matches_weights() {
        assert!((toy().write_fraction() - 0.25).abs() < 1e-12);
    }

    #[test]
    fn sampling_respects_weights() {
        let w = toy();
        let mut rng = SimRng::new(1);
        let mut writes = 0;
        let n = 20_000;
        for _ in 0..n {
            let q = w.sample_query(&mut rng);
            if q.is_write {
                writes += 1;
            }
        }
        let frac = writes as f64 / n as f64;
        assert!((frac - 0.25).abs() < 0.02, "write fraction {frac}");
    }

    #[test]
    fn queries_carry_class_costs() {
        let w = toy();
        let mut rng = SimRng::new(2);
        let q = w.query_of_class(1, &mut rng);
        assert_eq!(q.class, ClassId::new(AppId(7), 1));
        assert_eq!(q.cpu_base, SimDuration::from_micros(150));
        assert!(q.is_write);
        assert_eq!(q.pages.len(), 1);
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn bad_class_index_panics() {
        toy().class_id(5);
    }
}
