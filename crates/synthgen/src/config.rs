//! Generator configuration.

use serde::{Deserialize, Serialize};

/// Worker-thread count for the campaign's parallel phases (annotation,
/// server materialisation). `Parallelism(0)` means "one per core".
///
/// Threaded through [`WorldConfig`] so a single knob (the CLI's
/// `--threads`) governs every parallel stage of a run.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct Parallelism(pub usize);

impl Parallelism {
    /// One worker per available core.
    pub const AUTO: Parallelism = Parallelism(0);

    /// The concrete worker count: `self.0`, or the machine's available
    /// parallelism when auto.
    pub fn effective(self) -> usize {
        match self.0 {
            0 => std::thread::available_parallelism()
                .map(|n| n.get())
                .unwrap_or(1),
            n => n,
        }
    }
}

impl Default for Parallelism {
    fn default() -> Self {
        Parallelism::AUTO
    }
}

/// Configuration of the synthetic world.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct WorldConfig {
    /// Master seed; every stream derives from it.
    pub seed: u64,
    /// Scale on instance counts (1.0 = the paper's 1,534 + 8,435).
    /// User counts scale along with their instances.
    pub scale: f64,
    /// Scale on per-user post counts (1.0 = the paper's 24.5 M posts;
    /// the default 0.01 keeps the corpus around 245 K posts). Every §4/§5
    /// statistic is a fraction invariant under per-user subsampling.
    pub post_scale: f64,
    /// Whether to generate post text (content composition is the most
    /// expensive step; analyses that only need metadata can skip it).
    pub generate_text: bool,
    /// Worker threads for the parallel campaign phases. Generation's
    /// per-instance stage, annotation and materialisation all fan out on
    /// the rayon pool this knob sizes (via
    /// `rayon::ThreadPoolBuilder::build_global` in the harness); every
    /// stage is bit-identical at any worker count — generation draws
    /// from one private RNG stream per instance, so chunking never
    /// moves a draw.
    pub parallelism: Parallelism,
}

impl Default for WorldConfig {
    fn default() -> Self {
        WorldConfig::paper()
    }
}

impl WorldConfig {
    /// The paper-calibrated configuration: full instance/user population,
    /// 1% post sampling.
    pub fn paper() -> Self {
        WorldConfig {
            seed: 1534,
            scale: 1.0,
            post_scale: 0.01,
            generate_text: true,
            parallelism: Parallelism::AUTO,
        }
    }

    /// A small world for unit tests: ~10% of instances, very few posts.
    pub fn test_small() -> Self {
        WorldConfig {
            seed: 42,
            scale: 0.1,
            post_scale: 0.002,
            generate_text: true,
            parallelism: Parallelism::AUTO,
        }
    }

    /// A medium world for integration tests / CI benches.
    pub fn test_medium() -> Self {
        WorldConfig {
            seed: 7,
            scale: 0.35,
            post_scale: 0.004,
            generate_text: true,
            parallelism: Parallelism::AUTO,
        }
    }

    /// Scaled count helper, at least `min`.
    pub fn scaled(&self, paper_count: u32, min: u32) -> u32 {
        (((paper_count as f64) * self.scale).round() as u32).max(min)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn paper_config_is_full_scale() {
        let c = WorldConfig::paper();
        assert_eq!(c.scale, 1.0);
        assert_eq!(c.scaled(1534, 1), 1534);
    }

    #[test]
    fn scaled_respects_minimum() {
        let c = WorldConfig::test_small();
        assert_eq!(c.scaled(1, 1), 1);
        assert_eq!(c.scaled(7, 5), 5);
        assert_eq!(c.scaled(1534, 1), 153);
    }

    #[test]
    fn default_is_paper() {
        assert_eq!(WorldConfig::default().seed, WorldConfig::paper().seed);
    }

    #[test]
    fn parallelism_resolves() {
        assert!(Parallelism::AUTO.effective() >= 1);
        assert_eq!(Parallelism(3).effective(), 3);
        assert_eq!(Parallelism::default(), Parallelism::AUTO);
        assert_eq!(WorldConfig::paper().parallelism, Parallelism::AUTO);
    }
}
