//! Reference checks on the program's outputs.

/// Agreement required between a score vector and its reference:
/// `|got - want| <= abs + rel * |want|` on every node.
#[derive(Clone, Copy, Debug)]
pub struct Tolerance {
    pub abs: f64,
    pub rel: f64,
}

/// The tolerance every ranking is checked with. Mixen and the single-lane
/// pull baseline sum in different orders; at the fixed iteration counts used
/// here their largest gap is about 1e-6 on a hub's score, and the relative
/// gap stays below 1e-4 on every node (see `perfbench/README.md`).
pub const SCORE_TOL: Tolerance = Tolerance {
    abs: 1e-9,
    rel: 1e-3,
};

impl Tolerance {
    pub fn accepts(&self, got: f64, want: f64) -> bool {
        (got - want).abs() <= self.abs + self.rel * want.abs()
    }
}

/// Checks `got` against `want` node by node; on success returns the largest
/// absolute gap, on failure describes the first node out of tolerance.
pub fn compare(got: &[f32], want: &[f32], tol: Tolerance) -> Result<f64, String> {
    if got.len() != want.len() {
        return Err(format!(
            "{} scores, reference has {}",
            got.len(),
            want.len()
        ));
    }
    let mut max_gap = 0.0f64;
    for (v, (&g, &w)) in got.iter().zip(want).enumerate() {
        let (g, w) = (f64::from(g), f64::from(w));
        if !tol.accepts(g, w) {
            return Err(format!("node {v}: score {g:e}, reference {w:e}"));
        }
        max_gap = max_gap.max((g - w).abs());
    }
    Ok(max_gap)
}

/// Whether two top-k lists name the same set of nodes.
pub fn same_set(a: &[usize], b: &[usize]) -> bool {
    let mut a = a.to_vec();
    let mut b = b.to_vec();
    a.sort_unstable();
    b.sort_unstable();
    a == b
}

/// Bit-for-bit equality of two score vectors.
pub fn bit_identical(a: &[f32], b: &[f32]) -> bool {
    a.len() == b.len() && a.iter().zip(b).all(|(x, y)| x.to_bits() == y.to_bits())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn accepts_reordered_summation_and_rejects_a_perturbed_vector() {
        let want: Vec<f32> = (1..=1000).map(|i| 1.0 / i as f32).collect();
        let close: Vec<f32> = want.iter().map(|w| w * (1.0 + 1e-6)).collect();
        assert!(compare(&close, &want, SCORE_TOL).is_ok());
        let mut perturbed = want.clone();
        perturbed[500] *= 1.01;
        let err = compare(&perturbed, &want, SCORE_TOL).unwrap_err();
        assert!(err.starts_with("node 500"), "{err}");
        assert!(compare(&want[1..], &want, SCORE_TOL).is_err());
    }

    #[test]
    fn top_sets_and_bit_identity() {
        assert!(same_set(&[3, 1, 2], &[1, 2, 3]));
        assert!(!same_set(&[1, 2, 4], &[1, 2, 3]));
        let a = [1.0f32, 2.0];
        assert!(bit_identical(&a, &[1.0, 2.0]));
        assert!(!bit_identical(&a, &[1.0, 2.0 + f32::EPSILON * 2.0]));
    }
}
