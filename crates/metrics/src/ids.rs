//! Identity types shared across the monitoring, scheduling and diagnosis
//! layers.

use std::fmt;

/// An application hosted on the shared cluster (e.g. TPC-W, RUBiS).
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct AppId(pub u32);

/// A query class: all query instances of one application that share a
/// query template (same SQL shape, different arguments). This is the
/// paper's scheduling and accounting unit.
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct ClassId {
    /// Owning application.
    pub app: AppId,
    /// Template index within the application (assigned on first sight by
    /// the scheduler's template extractor).
    pub template: u32,
}

/// A physical server in the database tier.
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct ServerId(pub u32);

impl ClassId {
    /// Constructs a class id.
    pub const fn new(app: AppId, template: u32) -> Self {
        ClassId { app, template }
    }

    /// A stable 64-bit key for use with substrates that take opaque
    /// consumer ids (the read-ahead detector).
    pub fn as_u64(self) -> u64 {
        ((self.app.0 as u64) << 32) | self.template as u64
    }
}

impl fmt::Debug for AppId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "app{}", self.0)
    }
}

impl fmt::Display for AppId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "app{}", self.0)
    }
}

impl fmt::Debug for ClassId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "app{}#{}", self.app.0, self.template)
    }
}

impl fmt::Display for ClassId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "app{}#{}", self.app.0, self.template)
    }
}

impl fmt::Debug for ServerId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "srv{}", self.0)
    }
}

impl fmt::Display for ServerId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "srv{}", self.0)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn class_u64_key_is_injective_across_apps_and_templates() {
        let a = ClassId::new(AppId(1), 2).as_u64();
        let b = ClassId::new(AppId(2), 1).as_u64();
        let c = ClassId::new(AppId(1), 3).as_u64();
        assert_ne!(a, b);
        assert_ne!(a, c);
        assert_ne!(b, c);
    }

    #[test]
    fn display_formats() {
        assert_eq!(format!("{}", ClassId::new(AppId(3), 8)), "app3#8");
        assert_eq!(format!("{}", ServerId(2)), "srv2");
    }
}
