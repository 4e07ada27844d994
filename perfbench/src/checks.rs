//! Reference computations the benchmark checks the program against,
//! written apart from the program: its own 2 × 2 least squares, its own
//! `(2f, ε)`-redundancy, `µ`, `γ` and Theorem-5 radius, the closed form for
//! isotropic quadratics, message conservation and the accuracy margin.

/// All `k`-element subsets of `0..n`, in lexicographic order.
pub fn subsets(n: usize, k: usize) -> Vec<Vec<usize>> {
    let mut out = Vec::new();
    if k > n {
        return out;
    }
    let mut current: Vec<usize> = (0..k).collect();
    loop {
        out.push(current.clone());
        let Some(i) = (0..k).rev().find(|&i| current[i] != i + n - k) else {
            return out;
        };
        current[i] += 1;
        for j in i + 1..k {
            current[j] = current[j - 1] + 1;
        }
    }
}

/// The least-squares minimizer of `Σ_{i∈subset} (b_i − a_i·x)²` for
/// `d = 2`, from the 2 × 2 normal equations by Cramer's rule. `None` when
/// the stack is rank deficient.
pub fn lstsq2(rows: &[[f64; 2]], obs: &[f64], subset: &[usize]) -> Option<[f64; 2]> {
    let (mut m00, mut m01, mut m11, mut v0, mut v1) = (0.0, 0.0, 0.0, 0.0, 0.0);
    for &i in subset {
        let [a0, a1] = rows[i];
        m00 += a0 * a0;
        m01 += a0 * a1;
        m11 += a1 * a1;
        v0 += a0 * obs[i];
        v1 += a1 * obs[i];
    }
    let det = m00 * m11 - m01 * m01;
    if det.abs() <= 1e-12 * (m00 * m11).max(1e-300) {
        return None;
    }
    Some([(v0 * m11 - v1 * m01) / det, (m00 * v1 - m01 * v0) / det])
}

/// The smallest eigenvalue of the symmetric matrix `[[a, b], [b, d]]`.
pub fn min_eig_sym2(a: f64, b: f64, d: f64) -> f64 {
    let half_trace = 0.5 * (a + d);
    let radius = (0.25 * (a - d) * (a - d) + b * b).sqrt();
    half_trace - radius
}

fn dist2(x: [f64; 2], y: [f64; 2]) -> f64 {
    ((x[0] - y[0]).powi(2) + (x[1] - y[1]).powi(2)).sqrt()
}

/// Theorem 5's quantities for a `d = 2` regression instance.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Theorem5 {
    /// Smoothness `µ = max_i 2‖a_i‖²`.
    pub mu: f64,
    /// Strong convexity `γ = min_{|S| = n−f} 2 λ_min(A_Sᵀ A_S) / |S|`.
    pub gamma: f64,
    /// `(2f, ε)`-redundancy: max `‖x_S − x_Ŝ‖` over `|S| = n − f`,
    /// `Ŝ ⊆ S`, `|Ŝ| = n − 2f`.
    pub epsilon: f64,
    /// `α = 1 − (f/n)(1 + µ/γ)`.
    pub alpha: f64,
    /// `D·ε` with `D = (1 + 2f)(n − 2f)µ / (α n γ)`; infinite when `α ≤ 0`.
    pub radius: f64,
}

/// Computes [`Theorem5`] for the rows `a_i` and observations `b_i`.
/// `None` when a subset stack is rank deficient.
pub fn theorem5_regression(rows: &[[f64; 2]], obs: &[f64], f: usize) -> Option<Theorem5> {
    let n = rows.len();
    let mu = rows
        .iter()
        .map(|[a0, a1]| 2.0 * (a0 * a0 + a1 * a1))
        .fold(0.0, f64::max);
    let mut gamma = f64::INFINITY;
    let mut epsilon: f64 = 0.0;
    for outer in subsets(n, n - f) {
        let (mut m00, mut m01, mut m11) = (0.0, 0.0, 0.0);
        for &i in &outer {
            let [a0, a1] = rows[i];
            m00 += a0 * a0;
            m01 += a0 * a1;
            m11 += a1 * a1;
        }
        gamma = gamma.min(2.0 * min_eig_sym2(m00, m01, m11) / outer.len() as f64);
        let x_outer = lstsq2(rows, obs, &outer)?;
        for inner_pos in subsets(outer.len(), n - 2 * f) {
            let inner: Vec<usize> = inner_pos.iter().map(|&p| outer[p]).collect();
            epsilon = epsilon.max(dist2(x_outer, lstsq2(rows, obs, &inner)?));
        }
    }
    Some(theorem5_from(n, f, mu, gamma, epsilon))
}

fn theorem5_from(n: usize, f: usize, mu: f64, gamma: f64, epsilon: f64) -> Theorem5 {
    let (nf, ff) = (n as f64, f as f64);
    let alpha = 1.0 - (ff / nf) * (1.0 + mu / gamma);
    let radius = if alpha > 0.0 {
        (1.0 + 2.0 * ff) * (nf - 2.0 * ff) * mu / (alpha * nf * gamma) * epsilon
    } else {
        f64::INFINITY
    };
    Theorem5 {
        mu,
        gamma,
        epsilon,
        alpha,
        radius,
    }
}

/// Theorem 5 for the isotropic costs `‖x − c_i‖²` (`µ = γ = 2`). A subset
/// minimizer is the mean of its centres, and every such mean lies in the
/// centres' convex hull, so `ε ≤ 2 max_i ‖c_i − c̄‖` — the closed-form
/// upper bound used here in place of the exact ε.
pub fn theorem5_isotropic(centres: &[Vec<f64>], f: usize) -> Theorem5 {
    let all: Vec<usize> = (0..centres.len()).collect();
    let mean = mean_of(centres, &all);
    let spread = centres
        .iter()
        .map(|c| distance(c, &mean))
        .fold(0.0, f64::max);
    theorem5_from(centres.len(), f, 2.0, 2.0, 2.0 * spread)
}

/// The mean of the selected centres — the minimizer of `Σ ‖x − c_i‖²`.
pub fn mean_of(centres: &[Vec<f64>], subset: &[usize]) -> Vec<f64> {
    let d = centres.first().map_or(0, Vec::len);
    let mut mean = vec![0.0; d];
    for &i in subset {
        for (m, c) in mean.iter_mut().zip(&centres[i]) {
            *m += c;
        }
    }
    let k = subset.len().max(1) as f64;
    mean.iter_mut().for_each(|m| *m /= k);
    mean
}

/// Euclidean distance.
pub fn distance(x: &[f64], y: &[f64]) -> f64 {
    x.iter()
        .zip(y)
        .map(|(a, b)| (a - b) * (a - b))
        .sum::<f64>()
        .sqrt()
}

/// `Err` unless `estimate` is within `tolerance` of `target`.
pub fn within(what: &str, estimate: &[f64], target: &[f64], tolerance: f64) -> Result<(), String> {
    let gap = distance(estimate, target);
    if gap <= tolerance {
        Ok(())
    } else {
        Err(format!(
            "{what}: distance {gap:.6e} exceeds {tolerance:.6e}"
        ))
    }
}

/// Message conservation: every sent message is delivered, dropped or
/// late, summed here from the three counters.
pub fn conserved(
    what: &str,
    sent: u64,
    delivered: u64,
    dropped: u64,
    late: u64,
) -> Result<(), String> {
    let accounted = delivered + dropped + late;
    if accounted == sent {
        Ok(())
    } else {
        Err(format!(
            "{what}: sent {sent} != delivered {delivered} + dropped {dropped} + late {late}"
        ))
    }
}

/// The D-SGD property: a robust curve's final accuracy is within `margin`
/// of the fault-free curve's.
pub fn accuracy_margin(
    what: &str,
    robust: f64,
    fault_free: f64,
    margin: f64,
) -> Result<(), String> {
    if robust.is_finite() && robust >= fault_free - margin {
        Ok(())
    } else {
        Err(format!(
            "{what}: final accuracy {robust:.4} is more than {margin} below fault-free {fault_free:.4}"
        ))
    }
}

/// A 64-bit FNV-1a digest of a vector's bit patterns.
pub fn digest(values: &[f64]) -> u64 {
    let mut hash: u64 = 0xcbf2_9ce4_8422_2325;
    for v in values {
        for byte in v.to_bits().to_le_bytes() {
            hash ^= u64::from(byte);
            hash = hash.wrapping_mul(0x0000_0100_0000_01b3);
        }
    }
    hash
}

#[cfg(test)]
mod tests {
    use super::*;
    use abft_problems::RegressionProblem;

    fn paper() -> (Vec<[f64; 2]>, Vec<f64>) {
        let p = RegressionProblem::paper_instance();
        let rows = (0..6)
            .map(|i| [p.matrix().row_vector(i)[0], p.matrix().row_vector(i)[1]])
            .collect();
        (rows, p.observations().as_slice().to_vec())
    }

    #[test]
    fn subsets_enumerate_binomially() {
        assert_eq!(subsets(5, 2).len(), 10);
        assert_eq!(subsets(4, 4), vec![vec![0, 1, 2, 3]]);
        assert!(subsets(2, 3).is_empty());
    }

    #[test]
    fn own_x_h_matches_the_program_to_1e_12() {
        let (rows, obs) = paper();
        let program = RegressionProblem::paper_instance();
        for subset in [
            vec![1, 2, 3, 4, 5],
            vec![0, 1, 2, 3, 4, 5],
            vec![0, 2, 3, 5],
        ] {
            let ours = lstsq2(&rows, &obs, &subset).unwrap();
            let theirs = program.subset_minimizer(&subset).unwrap();
            assert!((ours[0] - theirs[0]).abs() < 1e-12, "{subset:?}");
            assert!((ours[1] - theirs[1]).abs() < 1e-12, "{subset:?}");
        }
    }

    #[test]
    fn x_h_check_rejects_a_wrong_estimate() {
        let (rows, obs) = paper();
        let x_h = lstsq2(&rows, &obs, &[1, 2, 3, 4, 5]).unwrap();
        assert!(within("x_H", &x_h, &x_h, 1e-9).is_ok());
        let wrong = [x_h[0] + 1e-3, x_h[1]];
        assert!(within("x_H", &wrong, &x_h, 1e-4).is_err());
        // A rank-deficient stack has no unique minimizer.
        assert!(lstsq2(&[[1.0, 0.0], [2.0, 0.0]], &[1.0, 2.0], &[0, 1]).is_none());
    }

    #[test]
    fn epsilon_matches_the_papers_section_5_values() {
        let (rows, obs) = paper();
        let t5 = theorem5_regression(&rows, &obs, 1).unwrap();
        // Section 5: µ = 2, γ = 0.712, ε = 0.0890.
        assert!((t5.mu - 2.0).abs() < 1e-12);
        assert!((t5.gamma - 0.712).abs() < 1e-3, "gamma {}", t5.gamma);
        assert!((t5.epsilon - 0.0890).abs() < 1e-4, "eps {}", t5.epsilon);
        assert!(t5.alpha > 0.0 && t5.radius.is_finite());
        // A wrong ε (data perturbed by one agent) is detected.
        let mut bent = obs.clone();
        bent[0] += 0.5;
        let other = theorem5_regression(&rows, &bent, 1).unwrap();
        assert!((other.epsilon - t5.epsilon).abs() > 1e-3);
    }

    #[test]
    fn mean_of_centres_check_rejects_a_shifted_mean() {
        let centres = vec![
            vec![0.0, 0.0, 3.0],
            vec![2.0, 4.0, 3.0],
            vec![4.0, 2.0, 3.0],
        ];
        let mean = mean_of(&centres, &[0, 1, 2]);
        assert_eq!(mean, vec![2.0, 2.0, 3.0]);
        assert!(within("mean", &mean, &[2.0, 2.0, 3.0], 1e-12).is_ok());
        assert!(within("mean", &[2.0, 2.1, 3.0], &mean, 1e-6).is_err());
        // n = 3, f = 1, µ = γ = 2: α = 1/3 and D = 3·1·2 / (α·3·2) = 3.
        let t5 = theorem5_isotropic(&centres, 1);
        let spread = 2.0 * distance(&centres[0], &mean);
        assert!((t5.epsilon - spread).abs() < 1e-12);
        assert!((t5.alpha - 1.0 / 3.0).abs() < 1e-12);
        assert!((t5.radius - 3.0 * spread).abs() < 1e-9);
    }

    #[test]
    fn conservation_rejects_a_lost_message() {
        assert!(conserved("cell", 10, 7, 2, 1).is_ok());
        assert!(conserved("cell", 10, 7, 2, 0).is_err());
        assert!(conserved("cell", 10, 8, 2, 1).is_err());
    }

    #[test]
    fn accuracy_margin_rejects_a_collapsed_curve() {
        assert!(accuracy_margin("cge", 0.93, 0.95, 0.05).is_ok());
        assert!(accuracy_margin("cge", 0.80, 0.95, 0.05).is_err());
        assert!(accuracy_margin("cge", f64::NAN, 0.95, 0.05).is_err());
    }

    #[test]
    fn digests_see_single_bit_changes() {
        let a = [1.0, 2.0];
        let b = [1.0, f64::from_bits(2.0f64.to_bits() + 1)];
        assert_ne!(digest(&a), digest(&b));
        assert_eq!(digest(&a), digest(&[1.0, 2.0]));
    }
}
