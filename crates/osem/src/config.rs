//! Reconstruction configuration shared by all implementations.

use crate::events::Phantom;
use crate::geometry::Volume;

/// Parameters of one list-mode OSEM reconstruction run.
#[derive(Debug, Clone, PartialEq)]
pub struct ReconstructionConfig {
    /// The reconstruction volume.
    pub volume: Volume,
    /// The synthetic activity phantom events are generated from.
    pub phantom: Phantom,
    /// Number of subsets the event stream is split into.
    pub num_subsets: usize,
    /// Number of events per subset.
    pub events_per_subset: usize,
    /// RNG seed for event generation (experiments are reproducible).
    pub seed: u64,
}

impl ReconstructionConfig {
    /// A configuration small enough for unit tests (sub-second sequential).
    pub fn test_scale() -> ReconstructionConfig {
        let volume = Volume::test_scale();
        let phantom = Phantom::default_for(&volume);
        ReconstructionConfig {
            volume,
            phantom,
            num_subsets: 2,
            events_per_subset: 400,
            seed: 20120521, // the paper's conference date
        }
    }

    /// The benchmark configuration used by the Figure 4b test: a scaled
    /// down version of the paper's 150×150×280 volume / ~10⁶-events-per-
    /// subset workload that preserves the compute-to-transfer ratio.
    pub fn benchmark_scale() -> ReconstructionConfig {
        let volume = Volume::new(64, 64, 96, 1.0);
        let phantom = Phantom::default_for(&volume);
        ReconstructionConfig {
            volume,
            phantom,
            num_subsets: 1,
            events_per_subset: 20_000,
            seed: 20120521,
        }
    }

    /// The paper's full-scale configuration (not run by default — hours of
    /// simulated work — but expressible).
    pub fn paper_scale() -> ReconstructionConfig {
        let volume = Volume::paper_scale();
        let phantom = Phantom::default_for(&volume);
        ReconstructionConfig {
            volume,
            phantom,
            num_subsets: 100,
            events_per_subset: 1_000_000,
            seed: 20120521,
        }
    }

    /// Override the number of events per subset.
    pub fn with_events_per_subset(mut self, events: usize) -> Self {
        self.events_per_subset = events;
        self
    }

    /// Override the number of subsets.
    pub fn with_subsets(mut self, subsets: usize) -> Self {
        self.num_subsets = subsets;
        self
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn presets_are_ordered_by_size() {
        let t = ReconstructionConfig::test_scale();
        let b = ReconstructionConfig::benchmark_scale();
        let p = ReconstructionConfig::paper_scale();
        assert!(t.volume.voxel_count() < b.volume.voxel_count());
        assert!(b.volume.voxel_count() < p.volume.voxel_count());
        assert!(t.events_per_subset < b.events_per_subset);
        assert_eq!(p.volume.voxel_count(), 150 * 150 * 280);
    }

    #[test]
    fn builders_override_fields() {
        let c = ReconstructionConfig::test_scale()
            .with_events_per_subset(7)
            .with_subsets(3);
        assert_eq!(c.events_per_subset, 7);
        assert_eq!(c.num_subsets, 3);
    }
}
