//! Experiment runners, one module per paper artifact, plus the
//! engine-backed scenario sweep.

pub mod ablation;
pub mod batch;
pub mod fig4;
pub mod fig5;
pub mod fig6;
pub mod timing;
pub mod train;

mod common;

pub use common::{
    usage_exit, EpisodeComparison, ExperimentScale, BATCH_FLAGS, EVAL_FLAGS, FIG_FLAGS,
};
