//! Seeded generators of the statement streams: the repository's vendored
//! `rand` `SmallRng`, one independent stream per purpose of a seed.

use rand::rngs::SmallRng;
use rand::{Rng as _, SeedableRng};

pub type Rng = SmallRng;

/// An independent stream for one purpose of one seed.
pub fn derive(seed: u64, purpose: u64) -> Rng {
    SmallRng::seed_from_u64(seed.wrapping_mul(0x9E37_79B9_7F4A_7C15) ^ purpose)
}

/// Index drawn from `weights` (non-negative, not all zero).
pub fn weighted(rng: &mut Rng, weights: &[f64]) -> usize {
    let total: f64 = weights.iter().sum();
    let mut x = rng.gen::<f64>() * total;
    for (i, w) in weights.iter().enumerate() {
        if x < *w {
            return i;
        }
        x -= w;
    }
    weights.len() - 1
}
