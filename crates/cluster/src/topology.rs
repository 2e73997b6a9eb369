//! Cluster topology identifiers and configuration.

use std::fmt;

/// One database instance (one `DbEngine`, i.e. one MySQL process in the
/// paper). A physical server can host several, in the same or different
/// VM domains; an application's *replica set* is a set of instances.
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct InstanceId(pub u32);

impl fmt::Debug for InstanceId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "inst{}", self.0)
    }
}

impl fmt::Display for InstanceId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "inst{}", self.0)
    }
}
