//! The one controller setting with two values in use. Everything else the
//! paper fixes is a named constant next to the rule that reads it
//! (DESIGN.md, "Controller constants").

use odlb_mrc::MrcMode;

/// Parameters of the selective retuning controller.
#[derive(Clone, Copy, Debug, Default)]
pub struct ControllerConfig {
    /// Which stack-distance tracker MRC recomputation instantiates:
    /// exact Mattson (default, byte-identical to the historical
    /// behaviour) or SHARDS-style spatial sampling for clusters with
    /// very many tenant classes (the sweep's `mrc` axis).
    pub mrc_mode: MrcMode,
}
