//! Seeded randomness for the generated request stream.

/// SplitMix64: tiny, fast, and fully determined by its seed.
#[derive(Clone, Debug)]
pub struct SplitMix64(u64);

impl SplitMix64 {
    pub fn new(seed: u64) -> Self {
        Self(seed)
    }

    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    }

    /// Uniform in `[0, 1)` with 53 random bits.
    pub fn next_f64(&mut self) -> f64 {
        (self.next_u64() >> 11) as f64 / (1u64 << 53) as f64
    }

    /// Uniform in `0..n` (`n > 0`).
    pub fn below(&mut self, n: u64) -> u64 {
        ((u128::from(self.next_u64()) * u128::from(n)) >> 64) as u64
    }
}

/// One planned request of the open-loop stream.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct Planned {
    /// When the request is due, in seconds from the start of the stream.
    pub due_s: f64,
    /// `Some(node)` for `/score?node=`, `None` for `/rank/top?k=10`.
    pub score_node: Option<u64>,
}

/// A Poisson arrival stream at `rate` requests per second lasting
/// `duration_s`: exponential gaps, a `score_share` of `/score` requests on
/// uniform nodes in `0..n`, the rest `/rank/top`. The same seed gives the
/// same stream.
pub fn poisson_schedule(
    seed: u64,
    rate: f64,
    duration_s: f64,
    score_share: f64,
    n: u64,
) -> Vec<Planned> {
    let mut rng = SplitMix64::new(seed);
    let mut out = Vec::new();
    let mut t = 0.0;
    loop {
        // 1 - u lies in (0, 1], so the log is finite.
        t += -(1.0 - rng.next_f64()).ln() / rate;
        if t >= duration_s {
            return out;
        }
        let score_node = (rng.next_f64() < score_share).then(|| rng.below(n));
        out.push(Planned {
            due_s: t,
            score_node,
        });
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn schedule_is_deterministic_for_a_seed() {
        let a = poisson_schedule(7, 250.0, 4.0, 0.75, 1000);
        let b = poisson_schedule(7, 250.0, 4.0, 0.75, 1000);
        let c = poisson_schedule(8, 250.0, 4.0, 0.75, 1000);
        assert_eq!(a, b);
        assert_ne!(a, c);
    }

    #[test]
    fn schedule_has_the_requested_rate_and_mix() {
        let plan = poisson_schedule(11, 250.0, 40.0, 0.75, 1000);
        let n = plan.len() as f64;
        assert!((n / 40.0 - 250.0).abs() < 250.0 * 0.03, "rate {}", n / 40.0);
        let scores = plan.iter().filter(|p| p.score_node.is_some()).count() as f64;
        assert!((scores / n - 0.75).abs() < 0.02);
        assert!(plan.windows(2).all(|w| w[0].due_s < w[1].due_s));
        assert!(plan.iter().all(|p| p.score_node.is_none_or(|v| v < 1000)));
        // Exponential gaps: about 63% of them are shorter than the mean.
        let short = plan
            .windows(2)
            .filter(|w| w[1].due_s - w[0].due_s < 1.0 / 250.0)
            .count() as f64;
        assert!((short / n - (1.0 - (-1.0f64).exp())).abs() < 0.02);
    }
}
