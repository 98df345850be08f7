//! Distributional contract of the engine's hot-loop samplers.
//!
//! `SimRng` is the single RNG behind both simulation engines; its
//! `exponential` draw sits on the hottest path (every `Resample` timer
//! resamples on every marking change). This suite pins the
//! distributional contract of its inverse-CDF draw — the exact stream
//! every result was produced with (the stream itself is pinned in
//! `ckpt-des`).
//!
//! It also pins the memorylessness identity that lazy reactivation
//! (`ReactivationMode::Lazy`) relies on to skip those resamples
//! entirely: the residual of an interrupted exponential timer is
//! distributed exactly as a fresh redraw.
//!
//! Each distribution gets a Kolmogorov–Smirnov test against its true
//! CDF plus moment checks with tolerance bands sized for the sample
//! size. Seeds are fixed, so these are deterministic regression tests,
//! not flaky statistical ones: the tolerances were chosen with head
//! room above the realized error at these exact seeds.

use ckpt_des::SimRng;
use ckpt_stats::gof::ks_test;

const N: usize = 20_000;
const ALPHA: f64 = 0.005;

fn draw<F: FnMut(&mut SimRng) -> f64>(seed: u64, mut f: F) -> Vec<f64> {
    let mut rng = SimRng::seed_from_u64(seed);
    (0..N).map(|_| f(&mut rng)).collect()
}

fn mean(xs: &[f64]) -> f64 {
    xs.iter().sum::<f64>() / xs.len() as f64
}

fn variance(xs: &[f64]) -> f64 {
    let m = mean(xs);
    xs.iter().map(|x| (x - m) * (x - m)).sum::<f64>() / (xs.len() - 1) as f64
}

/// Exponential(rate): KS against `1 − e^{−λx}`, mean within ~5 standard
/// errors of `1/λ`, variance within 10 % of `1/λ²`.
#[test]
fn exponential_matches_distribution() {
    for rate in [0.5, 1.0, 4.0] {
        let xs = draw(11, |r| r.exponential(rate));
        assert!(xs.iter().all(|&x| x > 0.0), "rate={rate}");
        let ks = ks_test(&xs, |x| 1.0 - (-rate * x).exp());
        assert!(ks.accepts(ALPHA), "rate={rate}: {ks}");
        let se = 1.0 / (rate * (N as f64).sqrt());
        assert!(
            (mean(&xs) - 1.0 / rate).abs() < 5.0 * se,
            "rate={rate}: mean {} vs {}",
            mean(&xs),
            1.0 / rate
        );
        let var_target = 1.0 / (rate * rate);
        assert!(
            (variance(&xs) - var_target).abs() < 0.1 * var_target,
            "rate={rate}: var {} vs {var_target}",
            variance(&xs)
        );
    }
}

/// The memorylessness contract behind `ReactivationMode::Lazy`: a
/// marking change at time `u` interrupts an exponential timer drawn at
/// time 0 with expiry `t`. The eager oracle redraws a fresh
/// `Exp(rate)` delay at `u`; lazy keeps the timer, which amounts to
/// using the residual `t − u`. This test pins that the residual,
/// conditioned on the timer surviving the interruption (`u < t`), is
/// itself `Exp(rate)` — KS against the true CDF plus mean/variance
/// bands — so eliding the redraw is *exactly* distribution-equivalent,
/// not an approximation. Interruption times come from an independent
/// exponential process, mirroring how other activities' firings
/// perturb the marking in the simulator.
#[test]
fn lazy_residuals_after_interruption_are_exponential() {
    for (rate, interrupt_rate, seed) in [(1.0, 2.0, 61), (0.25, 1.0, 62), (4.0, 4.0, 63)] {
        let mut rng = SimRng::seed_from_u64(seed);
        let mut residuals = Vec::with_capacity(N);
        while residuals.len() < N {
            let t = rng.exponential(rate);
            let u = rng.exponential(interrupt_rate);
            if u < t {
                residuals.push(t - u);
            }
        }
        let ks = ks_test(&residuals, |x| 1.0 - (-rate * x).exp());
        assert!(ks.accepts(ALPHA), "rate={rate}: {ks}");
        let se = 1.0 / (rate * (N as f64).sqrt());
        assert!(
            (mean(&residuals) - 1.0 / rate).abs() < 5.0 * se,
            "rate={rate}: residual mean {} vs {}",
            mean(&residuals),
            1.0 / rate
        );
        let var_target = 1.0 / (rate * rate);
        assert!(
            (variance(&residuals) - var_target).abs() < 0.1 * var_target,
            "rate={rate}: residual var {} vs {var_target}",
            variance(&residuals)
        );
    }
}

/// Abramowitz–Stegun 7.1.26 erf approximation, |error| ≤ 1.5e-7 —
/// orders of magnitude below the KS statistic's resolution at n = 2e4.
fn erf(x: f64) -> f64 {
    let sign = x.signum();
    let x = x.abs();
    let t = 1.0 / (1.0 + 0.327_591_1 * x);
    let poly = t
        * (0.254_829_592
            + t * (-0.284_496_736
                + t * (1.421_413_741 + t * (-1.453_152_027 + t * 1.061_405_429))));
    sign * (1.0 - poly * (-x * x).exp())
}

/// Standard normal: KS against Φ (via erf), mean within ~5/√n, variance
/// within 5 %, symmetry via the third moment.
#[test]
fn standard_normal_matches_distribution() {
    let xs = draw(31, SimRng::standard_normal);
    let phi = |x: f64| 0.5 * (1.0 + erf(x / std::f64::consts::SQRT_2));
    let ks = ks_test(&xs, phi);
    assert!(ks.accepts(ALPHA), "{ks}");
    assert!(
        mean(&xs).abs() < 5.0 / (N as f64).sqrt(),
        "mean {}",
        mean(&xs)
    );
    assert!((variance(&xs) - 1.0).abs() < 0.05, "var {}", variance(&xs));
    let m = mean(&xs);
    let skew = xs.iter().map(|x| (x - m).powi(3)).sum::<f64>() / N as f64;
    assert!(skew.abs() < 0.1, "skew {skew}");
}

/// `open_unit` is uniform on the *open* interval: KS against `F(x)=x`,
/// strict bounds, mean 1/2 and variance 1/12 within band.
#[test]
fn open_unit_is_uniform_on_the_open_interval() {
    let xs = draw(41, SimRng::open_unit);
    assert!(xs.iter().all(|&x| x > 0.0 && x < 1.0));
    let ks = ks_test(&xs, |x| x.clamp(0.0, 1.0));
    assert!(ks.accepts(ALPHA), "{ks}");
    assert!((mean(&xs) - 0.5).abs() < 5.0 * (1.0 / 12f64).sqrt() / (N as f64).sqrt());
    assert!((variance(&xs) - 1.0 / 12.0).abs() < 0.05 / 12.0);
}
