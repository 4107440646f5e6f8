//! Seeded randomness owned by the benchmark: source sampling, the
//! open-loop arrival schedule, and output fingerprints. Everything here is
//! a pure function of its seed so that two commits see identical inputs.

/// SplitMix64: small, fast, and fixed by its definition, so the streams
/// it produces never change with a dependency upgrade.
#[derive(Clone)]
pub struct Rng(u64);

impl Rng {
    pub fn new(seed: u64) -> Self {
        Rng(seed)
    }

    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// Uniform in `[0, 1)` from the top 53 bits.
    pub fn unit(&mut self) -> f64 {
        (self.next_u64() >> 11) as f64 / (1u64 << 53) as f64
    }

    /// Uniform in `0..n` (n > 0).
    pub fn below(&mut self, n: usize) -> usize {
        (self.next_u64() % n as u64) as usize
    }
}

/// Derives an independent stream for one purpose from the run seed.
pub fn stream(seed: u64, purpose: u64) -> Rng {
    let mut r = Rng::new(seed ^ purpose.wrapping_mul(0xD1B5_4A32_D192_ED03));
    r.next_u64();
    r
}

/// Graph500 search-key rule, stratified: `count` distinct vertices, each
/// uniform among the `eligible` ones (at least one edge, in the Graph500
/// rule), so no search starts on an isolated vertex. The eligible vertices
/// are split by id into
/// `count` equal strata and one key is drawn from each, which keeps the
/// keys spread over the id range (and so over degree in R-MAT and over
/// position in a grid) and the per-seed mean steady. Returns fewer keys
/// only when fewer eligible vertices exist.
pub fn sample_sources(
    seed: u64,
    n: usize,
    eligible: impl Fn(u32) -> bool,
    count: usize,
) -> Vec<u32> {
    let eligible: Vec<u32> = (0..n as u32).filter(|&v| eligible(v)).collect();
    let k = count.min(eligible.len());
    let mut rng = stream(seed, 1);
    (0..k)
        .map(|i| {
            let lo = i * eligible.len() / k;
            let hi = (i + 1) * eligible.len() / k;
            eligible[lo + rng.below(hi - lo)]
        })
        .collect()
}

/// Arrival offsets (seconds from the phase start) of a Poisson process at
/// `rate` per second over `duration` seconds.
pub fn poisson_arrivals(rng: &mut Rng, rate: f64, duration: f64) -> Vec<f64> {
    let mut out = Vec::new();
    let mut t = 0.0;
    loop {
        // 1 - unit() lies in (0, 1], so the logarithm is finite.
        t += -(1.0 - rng.unit()).ln() / rate;
        if t >= duration {
            return out;
        }
        out.push(t);
    }
}

/// Word-wise FNV-style fingerprint of an output's bit patterns (one
/// 64-bit word per element); equal outputs give equal fingerprints, and a
/// changed bit almost surely changes it.
pub fn fingerprint(words: impl ExactSizeIterator<Item = u64>) -> u64 {
    let mut h: u64 = 0xCBF2_9CE4_8422_2325 ^ words.len() as u64;
    for x in words {
        h = (h ^ x).wrapping_mul(0x0000_0100_0000_01B3);
        h ^= h >> 29;
    }
    h
}

/// [`fingerprint`] of a `u32` slice (levels, labels).
pub fn fingerprint_u32(xs: &[u32]) -> u64 {
    fingerprint(xs.iter().map(|&x| u64::from(x)))
}

#[cfg(test)]
mod tests {
    use super::*;

    const PINNED: [u32; 4] = [239_545, 301_577, 627_565, 872_240];

    #[test]
    fn sources_are_a_function_of_the_seed() {
        let deg = |v: u32| !v.is_multiple_of(3); // every third vertex is isolated
        let a = sample_sources(7, 1000, deg, 64);
        let b = sample_sources(7, 1000, deg, 64);
        let c = sample_sources(8, 1000, deg, 64);
        assert_eq!(a, b);
        assert_ne!(a, c);
        assert_eq!(a.len(), 64);
    }

    #[test]
    fn sources_skip_isolated_vertices_and_repeat_none() {
        let deg = |v: u32| !v.is_multiple_of(3);
        let s = sample_sources(3, 300, deg, 64);
        assert!(s.iter().all(|&v| v % 3 != 0));
        let mut d = s.clone();
        d.sort_unstable();
        d.dedup();
        assert_eq!(d.len(), s.len());
        // Fewer eligible vertices than asked for: all of them, once.
        assert_eq!(sample_sources(3, 9, deg, 64).len(), 6);
    }

    #[test]
    fn sources_cover_every_stratum() {
        let s = sample_sources(5, 1000, |_| true, 10);
        for (i, &v) in s.iter().enumerate() {
            assert!((i as u32 * 100..(i as u32 + 1) * 100).contains(&v));
        }
    }

    #[test]
    fn sources_pin_their_values() {
        // Pinned so that a change to the sampler, which would silently move
        // every benchmark row, fails here instead.
        assert_eq!(sample_sources(42, 1 << 20, |_| true, 4), PINNED);
    }

    #[test]
    fn arrivals_have_the_requested_rate() {
        let mut rng = Rng::new(11);
        let a = poisson_arrivals(&mut rng, 1000.0, 20.0);
        assert!(a.windows(2).all(|w| w[0] <= w[1]));
        let rate = a.len() as f64 / 20.0;
        assert!((rate - 1000.0).abs() < 30.0, "rate {rate}");
        let mut again = Rng::new(11);
        assert_eq!(a, poisson_arrivals(&mut again, 1000.0, 20.0));
    }

    #[test]
    fn fingerprints_see_single_bit_changes() {
        let a = vec![1u32, 2, 3, 4];
        let mut b = a.clone();
        b[2] ^= 1;
        assert_eq!(fingerprint_u32(&a), fingerprint_u32(&a.clone()));
        assert_ne!(fingerprint_u32(&a), fingerprint_u32(&b));
        let bits = |xs: &[f32]| fingerprint(xs.iter().map(|x| u64::from(x.to_bits())));
        assert_ne!(bits(&[0.5, 1.0]), bits(&[1.0, 0.5]));
        assert_ne!(bits(&[0.5]), bits(&[0.5, 0.0]));
    }
}
