//! Deterministic, splittable random number generation.
//!
//! The generator is a vendored **xoshiro256++** (Blackman & Vigna, 2018)
//! seeded through **SplitMix64**, the combination recommended by the
//! algorithm's authors. Vendoring it (rather than depending on the `rand`
//! crate) keeps the workspace hermetic — the default feature set builds with
//! no external crates and no registry access — and freezes the bit-exact
//! stream the golden-value regression tests depend on.
//!
//! Statistical caveats: xoshiro256++ passes BigCrush and PractRand but is
//! not cryptographically secure, and its 256-bit state means `2^128`
//! non-overlapping subsequences in theory; we derive child streams by
//! *reseeding* through SplitMix64 (see [`SimRng::fork`]) rather than using
//! jump polynomials, which is ample for the stream counts a simulation run
//! creates and keeps forking O(1) and label-addressable.

/// The raw xoshiro256++ engine: 256 bits of state, 64-bit output.
///
/// Reference: <https://prng.di.unimi.it/xoshiro256plusplus.c> (public
/// domain / CC0). The update and output functions below are a line-for-line
/// transcription of the reference C implementation.
#[derive(Debug, Clone, PartialEq, Eq)]
struct Xoshiro256PlusPlus {
    s: [u64; 4],
}

impl Xoshiro256PlusPlus {
    /// Seeds the full 256-bit state from a 64-bit seed by iterating
    /// SplitMix64, as recommended by the xoshiro authors. SplitMix64's
    /// outputs are equidistributed over `u64`, so the all-zero state (the
    /// one invalid xoshiro state) cannot be produced from any seed.
    fn seed_from_u64(seed: u64) -> Self {
        let mut x = seed;
        let mut s = [0u64; 4];
        for slot in &mut s {
            x = x.wrapping_add(0x9E37_79B9_7F4A_7C15);
            *slot = splitmix64_mix(x);
        }
        Xoshiro256PlusPlus { s }
    }

    #[inline]
    fn next_u64(&mut self) -> u64 {
        let result = self.s[0]
            .wrapping_add(self.s[3])
            .rotate_left(23)
            .wrapping_add(self.s[0]);
        let t = self.s[1] << 17;
        self.s[2] ^= self.s[0];
        self.s[3] ^= self.s[1];
        self.s[1] ^= self.s[2];
        self.s[0] ^= self.s[3];
        self.s[2] ^= t;
        self.s[3] = self.s[3].rotate_left(45);
        result
    }
}

/// A seedable random number generator for simulation components.
///
/// `SimRng` wraps a vendored xoshiro256++ engine and adds two things the
/// simulator needs:
///
/// * **stream forking** — [`SimRng::fork`] derives an independent child
///   stream from a parent seed and a label, so each machine / job / noise
///   source gets its own deterministic stream regardless of the order in
///   which other components consume randomness;
/// * **domain helpers** — exponential and bounded-normal draws used by
///   arrival processes and service-time noise, implemented here once so
///   distribution parameters are validated in a single place.
///
/// # Examples
///
/// ```
/// use simcore::SimRng;
///
/// let mut root = SimRng::seed_from(42);
/// let mut a = root.fork("machine-0");
/// let mut b = root.fork("machine-1");
/// // Independent streams: the same draws differ across forks but are stable
/// // across runs.
/// assert_ne!(a.uniform_f64(), b.uniform_f64());
/// let mut root2 = SimRng::seed_from(42);
/// let mut a2 = root2.fork("machine-0");
/// let _ = root2.fork("machine-1");
/// // Skip one draw on `a` replays identically on `a2`.
/// ```
#[derive(Debug, Clone)]
pub struct SimRng {
    inner: Xoshiro256PlusPlus,
    seed: u64,
}

impl SimRng {
    /// Creates a generator from a 64-bit seed.
    pub fn seed_from(seed: u64) -> Self {
        SimRng {
            inner: Xoshiro256PlusPlus::seed_from_u64(seed),
            seed,
        }
    }

    /// The seed this generator was created with.
    pub fn seed(&self) -> u64 {
        self.seed
    }

    /// Derives an independent child stream identified by `label`.
    ///
    /// The child seed is a hash of the parent seed and the label, so forking
    /// the same label from the same parent always yields the same stream,
    /// independent of how much randomness the parent has already consumed.
    pub fn fork(&self, label: &str) -> SimRng {
        // FNV-1a over the label, mixed with the parent seed via splitmix64.
        let child = splitmix64(self.seed ^ fnv1a_64(label.as_bytes()));
        SimRng::seed_from(child)
    }

    /// Derives an independent child stream identified by an index.
    pub fn fork_index(&self, label: &str, index: usize) -> SimRng {
        self.fork(&format!("{label}#{index}"))
    }

    /// The next raw 64-bit output of the underlying engine.
    pub fn next_u64(&mut self) -> u64 {
        self.inner.next_u64()
    }

    /// A uniform draw in `[0, 1)`.
    ///
    /// Uses the top 53 bits of the engine output, so every representable
    /// value is a multiple of 2⁻⁵³ — the standard double-precision
    /// conversion, identical across platforms.
    pub fn uniform_f64(&mut self) -> f64 {
        (self.next_u64() >> 11) as f64 * (1.0 / (1u64 << 53) as f64)
    }

    /// A uniform draw in `[lo, hi)`.
    ///
    /// # Panics
    ///
    /// Panics if `lo >= hi` or either bound is non-finite.
    pub fn uniform_range(&mut self, lo: f64, hi: f64) -> f64 {
        assert!(lo.is_finite() && hi.is_finite() && lo < hi, "invalid range");
        lo + (hi - lo) * self.uniform_f64()
    }

    /// A uniform integer draw in `[lo, hi]` inclusive.
    ///
    /// Unbiased via Lemire's widening-multiply rejection method.
    ///
    /// # Panics
    ///
    /// Panics if `lo > hi`.
    pub fn uniform_u64(&mut self, lo: u64, hi: u64) -> u64 {
        assert!(lo <= hi, "invalid range");
        let span = hi - lo;
        if span == u64::MAX {
            return self.next_u64();
        }
        let n = span + 1;
        // Lemire (2019): multiply a 64-bit draw by n and keep the high word;
        // reject the small biased band of low products. The band's bound
        // `2^64 mod n` is below `n`, so it is only computed (one 64-bit
        // division) for the rare low word below `n`.
        let mut m = u128::from(self.next_u64()) * u128::from(n);
        if (m as u64) < n {
            let threshold = n.wrapping_neg() % n;
            while (m as u64) < threshold {
                m = u128::from(self.next_u64()) * u128::from(n);
            }
        }
        lo + (m >> 64) as u64
    }

    /// An exponential draw with the given rate (events per unit time).
    ///
    /// Used for Poisson arrival processes. Returns the inter-arrival gap.
    ///
    /// # Panics
    ///
    /// Panics if `rate` is not strictly positive and finite.
    pub fn exponential(&mut self, rate: f64) -> f64 {
        assert!(rate.is_finite() && rate > 0.0, "rate must be positive");
        let u = 1.0 - self.uniform_f64(); // in (0, 1]
        -u.ln() / rate
    }

    /// A normal draw with mean `mean` and standard deviation `std_dev`,
    /// clamped to `[lo, hi]`.
    ///
    /// Service-time and utilization noise must stay within physical bounds;
    /// clamping (rather than rejection sampling) keeps the draw O(1).
    ///
    /// # Panics
    ///
    /// Panics if `std_dev` is negative or `lo > hi`.
    pub fn normal_clamped(&mut self, mean: f64, std_dev: f64, lo: f64, hi: f64) -> f64 {
        assert!(std_dev >= 0.0, "std_dev must be non-negative");
        assert!(lo <= hi, "invalid clamp range");
        if std_dev == 0.0 {
            return mean.clamp(lo, hi);
        }
        // Box–Muller transform.
        let u1 = 1.0 - self.uniform_f64();
        let u2 = self.uniform_f64();
        let z = (-2.0 * u1.ln()).sqrt() * (2.0 * std::f64::consts::PI * u2).cos();
        (mean + std_dev * z).clamp(lo, hi)
    }

    /// A Bernoulli draw: `true` with probability `p` (clamped to `[0, 1]`).
    pub fn chance(&mut self, p: f64) -> bool {
        self.uniform_f64() < p.clamp(0.0, 1.0)
    }

    /// Samples an index from a slice of non-negative weights.
    ///
    /// Returns `None` if the slice is empty or the total weight is zero or
    /// non-finite. This is the primitive behind the ACO probabilistic path
    /// choice (paper Eq. 3 / Eq. 8).
    pub fn weighted_index(&mut self, weights: &[f64]) -> Option<usize> {
        let total: f64 = weights.iter().filter(|w| w.is_finite() && **w > 0.0).sum();
        if weights.is_empty() || total <= 0.0 || !total.is_finite() {
            return None;
        }
        let mut target = self.uniform_f64() * total;
        let mut last_positive = None;
        for (i, &w) in weights.iter().enumerate() {
            if !w.is_finite() || w <= 0.0 {
                continue;
            }
            last_positive = Some(i);
            if target < w {
                return Some(i);
            }
            target -= w;
        }
        // Floating-point slack: fall back to the last positive-weight entry.
        last_positive
    }

    /// Shuffles a slice in place (Fisher–Yates).
    pub fn shuffle<T>(&mut self, items: &mut [T]) {
        for i in (1..items.len()).rev() {
            let j = self.uniform_u64(0, i as u64) as usize;
            items.swap(i, j);
        }
    }
}

/// One full SplitMix64 step: advance `x` by the golden-gamma increment and
/// return the mixed output. Also used to derive fork seeds.
fn splitmix64(x: u64) -> u64 {
    splitmix64_mix(x.wrapping_add(0x9E37_79B9_7F4A_7C15))
}

/// The SplitMix64 output (finalization) function applied to an
/// already-incremented state word.
fn splitmix64_mix(x: u64) -> u64 {
    let mut z = x;
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// FNV-1a 64-bit digest: the repository's one content hash, used for fork
/// labels here and (via `metrics::spec`) run-database manifest keys and
/// golden trace digests. Stable across platforms and releases by
/// construction — the pinned vectors below are part of the public contract.
#[must_use]
pub fn fnv1a_64(bytes: &[u8]) -> u64 {
    let mut hash: u64 = 0xcbf2_9ce4_8422_2325;
    for &b in bytes {
        hash ^= u64::from(b);
        hash = hash.wrapping_mul(0x0000_0100_0000_01b3);
    }
    hash
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The xoshiro256++ reference implementation, state {1, 2, 3, 4},
    /// produces this exact sequence (first values of the canonical C code).
    /// Guards the vendored transcription against typos.
    #[test]
    fn xoshiro_reference_vectors() {
        let mut engine = Xoshiro256PlusPlus { s: [1, 2, 3, 4] };
        let expected: [u64; 6] = [
            41943041,
            58720359,
            3588806011781223,
            3591011842654386,
            9228616714210784205,
            9973669472204895162,
        ];
        for &e in &expected {
            assert_eq!(engine.next_u64(), e);
        }
    }

    /// FNV-1a 64 reference vectors from the original Fowler/Noll/Vo
    /// publication: the offset basis (empty input) and two short strings.
    /// Fork-label derivation, manifest keys and the golden trace digests
    /// all ride on these exact constants.
    #[test]
    fn fnv1a_reference_vectors() {
        assert_eq!(fnv1a_64(b""), 0xcbf2_9ce4_8422_2325);
        assert_eq!(fnv1a_64(b"a"), 0xaf63_dc4c_8601_ec8c);
        assert_eq!(fnv1a_64(b"foobar"), 0x8594_4171_f739_67e8);
    }

    /// SplitMix64 reference vectors: seed 0 and the widely published
    /// sequence for seed 0x9E3779B97F4A7C15-free state 1234567.
    #[test]
    fn splitmix_reference_vectors() {
        // From the reference C implementation with x = 0: first three
        // outputs.
        let mut x = 0u64;
        let mut next = || {
            x = x.wrapping_add(0x9E37_79B9_7F4A_7C15);
            splitmix64_mix(x)
        };
        assert_eq!(next(), 0xE220_A839_7B1D_CDAF);
        assert_eq!(next(), 0x6E78_9E6A_A1B9_65F4);
        assert_eq!(next(), 0x06C4_5D18_8009_454F);
    }

    #[test]
    fn same_seed_same_stream() {
        let mut a = SimRng::seed_from(7);
        let mut b = SimRng::seed_from(7);
        for _ in 0..32 {
            assert_eq!(a.next_u64(), b.next_u64());
        }
    }

    #[test]
    fn forks_are_independent_of_parent_consumption() {
        let root1 = SimRng::seed_from(11);
        let mut root2 = SimRng::seed_from(11);
        let _ = root2.next_u64(); // consume from root2 before forking
        let mut f1 = root1.fork("x");
        let mut f2 = root2.fork("x");
        assert_eq!(f1.next_u64(), f2.next_u64());
    }

    #[test]
    fn different_labels_differ() {
        let root = SimRng::seed_from(3);
        let mut a = root.fork("a");
        let mut b = root.fork("b");
        assert_ne!(a.next_u64(), b.next_u64());
    }

    #[test]
    fn fork_index_distinct() {
        let root = SimRng::seed_from(3);
        let mut a = root.fork_index("m", 0);
        let mut b = root.fork_index("m", 1);
        assert_ne!(a.next_u64(), b.next_u64());
    }

    #[test]
    fn uniform_f64_in_unit_interval() {
        let mut rng = SimRng::seed_from(8);
        for _ in 0..10_000 {
            let v = rng.uniform_f64();
            assert!((0.0..1.0).contains(&v));
        }
    }

    #[test]
    fn uniform_f64_mean_is_half() {
        let mut rng = SimRng::seed_from(21);
        let n = 50_000;
        let mean = (0..n).map(|_| rng.uniform_f64()).sum::<f64>() / n as f64;
        assert!((mean - 0.5).abs() < 0.005, "mean was {mean}");
    }

    #[test]
    fn uniform_u64_covers_inclusive_range() {
        let mut rng = SimRng::seed_from(13);
        let mut seen = [false; 5];
        for _ in 0..1000 {
            let v = rng.uniform_u64(10, 14);
            assert!((10..=14).contains(&v));
            seen[(v - 10) as usize] = true;
        }
        assert!(seen.iter().all(|&s| s), "all values in range must appear");
        assert_eq!(rng.uniform_u64(3, 3), 3);
    }

    #[test]
    fn uniform_u64_is_roughly_uniform() {
        let mut rng = SimRng::seed_from(17);
        let mut counts = [0u32; 8];
        let n = 80_000;
        for _ in 0..n {
            counts[rng.uniform_u64(0, 7) as usize] += 1;
        }
        for (i, &c) in counts.iter().enumerate() {
            let frac = f64::from(c) / f64::from(n);
            assert!((frac - 0.125).abs() < 0.01, "bucket {i}: {frac}");
        }
    }

    /// The eager-threshold form `uniform_u64` replaced: every draw pays
    /// the `2^64 mod n` division up front.
    fn uniform_u64_eager(rng: &mut SimRng, lo: u64, hi: u64) -> u64 {
        let span = hi - lo;
        if span == u64::MAX {
            return rng.next_u64();
        }
        let n = span + 1;
        let threshold = n.wrapping_neg() % n;
        loop {
            let m = u128::from(rng.next_u64()) * u128::from(n);
            if (m as u64) >= threshold {
                return lo + (m >> 64) as u64;
            }
        }
    }

    #[test]
    fn uniform_u64_matches_eager_threshold_oracle() {
        // Small bounds, the placer's pool sizes, and the rejection-heavy
        // large bounds (2^63 + 1 rejects about half of all draws).
        let bounds = [
            1,
            2,
            3,
            7,
            40,
            1000,
            (1 << 32) + 1,
            (1 << 63) + 1,
            u64::MAX - 1,
        ];
        for seed in [0, 1, 42, 2015, u64::MAX] {
            for n in bounds {
                for lo in [0, 1] {
                    let hi = lo + (n - 1);
                    let mut fast = SimRng::seed_from(seed);
                    let mut eager = SimRng::seed_from(seed);
                    for i in 0..2000 {
                        assert_eq!(
                            fast.uniform_u64(lo, hi),
                            uniform_u64_eager(&mut eager, lo, hi),
                            "seed {seed}, n {n}, lo {lo}, draw {i}"
                        );
                    }
                    assert_eq!(fast.inner, eager.inner, "seed {seed}, n {n}: state");
                }
            }
        }
    }

    #[test]
    fn uniform_u64_full_range_does_not_hang() {
        let mut rng = SimRng::seed_from(19);
        let _ = rng.uniform_u64(0, u64::MAX);
    }

    #[test]
    fn exponential_mean_close_to_inverse_rate() {
        let mut rng = SimRng::seed_from(5);
        let rate = 4.0;
        let n = 20_000;
        let sum: f64 = (0..n).map(|_| rng.exponential(rate)).sum();
        let mean = sum / n as f64;
        assert!((mean - 1.0 / rate).abs() < 0.01, "mean was {mean}");
    }

    #[test]
    fn normal_clamped_respects_bounds() {
        let mut rng = SimRng::seed_from(9);
        for _ in 0..1000 {
            let v = rng.normal_clamped(0.5, 0.4, 0.0, 1.0);
            assert!((0.0..=1.0).contains(&v));
        }
    }

    #[test]
    fn normal_zero_std_returns_clamped_mean() {
        let mut rng = SimRng::seed_from(9);
        assert_eq!(rng.normal_clamped(5.0, 0.0, 0.0, 1.0), 1.0);
    }

    #[test]
    fn weighted_index_prefers_heavy_weights() {
        let mut rng = SimRng::seed_from(1);
        let weights = [1.0, 0.0, 9.0];
        let mut counts = [0usize; 3];
        for _ in 0..10_000 {
            counts[rng.weighted_index(&weights).unwrap()] += 1;
        }
        assert_eq!(counts[1], 0);
        let frac2 = counts[2] as f64 / 10_000.0;
        assert!((frac2 - 0.9).abs() < 0.02, "frac2 = {frac2}");
    }

    #[test]
    fn weighted_index_handles_degenerate_inputs() {
        let mut rng = SimRng::seed_from(1);
        assert_eq!(rng.weighted_index(&[]), None);
        assert_eq!(rng.weighted_index(&[0.0, 0.0]), None);
        assert_eq!(rng.weighted_index(&[f64::NAN]), None);
        assert_eq!(rng.weighted_index(&[0.0, 2.0]), Some(1));
    }

    #[test]
    fn chance_extremes() {
        let mut rng = SimRng::seed_from(2);
        assert!(!rng.chance(0.0));
        assert!(rng.chance(1.0));
        assert!(rng.chance(2.0)); // clamped
    }

    #[test]
    fn shuffle_is_permutation() {
        let mut rng = SimRng::seed_from(4);
        let mut v: Vec<u32> = (0..50).collect();
        rng.shuffle(&mut v);
        let mut sorted = v.clone();
        sorted.sort_unstable();
        assert_eq!(sorted, (0..50).collect::<Vec<_>>());
    }

    #[test]
    #[should_panic(expected = "rate must be positive")]
    fn exponential_rejects_zero_rate() {
        SimRng::seed_from(0).exponential(0.0);
    }

    #[test]
    #[should_panic(expected = "invalid range")]
    fn uniform_range_rejects_inverted_bounds() {
        SimRng::seed_from(0).uniform_range(2.0, 1.0);
    }
}
