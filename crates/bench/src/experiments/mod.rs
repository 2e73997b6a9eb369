//! Experiment implementations, one per paper artifact.

pub mod ablations;
pub mod fig3;
pub mod fig4;
pub mod fig5;
pub mod fig6;
pub mod mrc_common;
pub mod sampled;
pub mod scale;
pub mod table1;
pub mod table2;
pub mod table3;

use odlb_cluster::Simulation;
use odlb_core::{ClusterController, ControllerConfig, SelectiveRetuningController};
use odlb_telemetry::{SharedSpanProfiler, Telemetry};
use odlb_trace::Tracer;

/// Starts `sim` under a default selective retuning controller, both
/// observed through the same tracer, telemetry and profiler handles.
fn start_instrumented(
    sim: &mut Simulation,
    tracer: &Tracer,
    telemetry: Telemetry,
    profiler: Option<SharedSpanProfiler>,
) -> SelectiveRetuningController {
    let mut controller = SelectiveRetuningController::new(ControllerConfig::default());
    sim.set_tracer(tracer.clone());
    controller.set_tracer(tracer.clone());
    if telemetry.is_active() {
        sim.set_telemetry(telemetry.clone());
        controller.set_telemetry(telemetry);
    }
    if let Some(profiler) = profiler {
        sim.set_profiler(profiler.clone());
        controller.set_profiler(profiler);
    }
    sim.start();
    controller
}
