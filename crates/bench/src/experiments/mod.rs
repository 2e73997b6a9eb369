//! Experiment implementations, one per paper artifact.

pub mod ablations;
pub mod fig3;
pub mod fig4;
pub mod fig5;
pub mod fig6;
pub mod mrc_common;
pub mod sampled;
pub mod scale;
pub mod scenario;
pub mod table1;
pub mod table2;
pub mod table3;

use odlb_cluster::Simulation;
use odlb_core::{ClusterController, ControllerConfig, SelectiveRetuningController};
use odlb_telemetry::{SharedSpanProfiler, Telemetry};
use odlb_trace::Tracer;

/// What a figure run is observed through — the decision tracer, the
/// telemetry registry and the span profiler — travelling as one value.
/// The default observes nothing: a tracer without sinks, inactive
/// telemetry, no profiler.
#[derive(Clone, Default)]
pub struct Observers {
    /// Decision tracer shared by the driver and the controller.
    pub tracer: Tracer,
    /// Runtime telemetry registry (inactive = not attached).
    pub telemetry: Telemetry,
    /// Span profiler timing the driver and controller phases.
    pub profiler: Option<SharedSpanProfiler>,
}

impl Observers {
    /// Observation through `tracer` alone.
    pub fn traced(tracer: Tracer) -> Self {
        Observers {
            tracer,
            ..Default::default()
        }
    }

    /// Attaches the handles to `sim`. All three are observation-only: a
    /// run's results and digest do not depend on what is attached.
    pub fn attach(&self, sim: &mut Simulation) {
        sim.set_tracer(self.tracer.clone());
        if self.telemetry.is_active() {
            sim.set_telemetry(self.telemetry.clone());
        }
        if let Some(profiler) = &self.profiler {
            sim.set_profiler(profiler.clone());
        }
    }

    /// Starts `sim` under a default selective retuning controller, both
    /// observed through these handles.
    fn start(&self, sim: &mut Simulation) -> SelectiveRetuningController {
        let mut controller = SelectiveRetuningController::new(ControllerConfig::default());
        self.attach(sim);
        controller.set_tracer(self.tracer.clone());
        // An inactive handle is what the controller starts with.
        controller.set_telemetry(self.telemetry.clone());
        if let Some(profiler) = &self.profiler {
            controller.set_profiler(profiler.clone());
        }
        sim.start();
        controller
    }
}
