//! MinHash-over-trigrams LSH candidate index for tier 3.
//!
//! Brute-force fuzzy matching scores every same-ecosystem `A×B` pair —
//! O(n²), minutes at 100k components. The LSH index instead buckets both
//! sides by banded MinHash signatures of their name trigram sets: names
//! with high trigram-Jaccard overlap collide in at least one band with
//! high probability, and only colliding pairs are scored.
//!
//! Parameters (see DESIGN.md §17 for the tuning rationale): 16 hash
//! functions split into 8 bands × 2 rows. With trigram similarity `s`, the
//! collision probability is `1 − (1 − s²)⁸` — ≈ 99.9% at s = 0.8 (the
//! regime of single-typo names), ≈ 3% at s = 0.2 (unrelated names), which
//! is what makes the index both safe and sub-quadratic.
//!
//! Everything here is deterministic (fixed seeds, FNV-1a string hashing —
//! never `std`'s randomized hasher) and symmetric in the two sides, so the
//! engine's reproducibility and side-swap guarantees carry through.

use std::collections::{BTreeSet, HashMap};

use sbomdiff_types::{fnv1a, Ecosystem};

/// Tuning knobs for the candidate index.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct LshParams {
    /// MinHash functions per signature. Must be a multiple of `bands`.
    pub num_hashes: usize,
    /// Bands the signature is split into (rows = num_hashes / bands).
    pub bands: usize,
    /// Seed for the hash family (fixed: reports must be reproducible).
    pub seed: u64,
    /// Buckets whose `|A| · |B|` cross product exceeds this are skipped:
    /// a degenerate bucket (e.g. thousands of identical short names)
    /// would otherwise reintroduce the quadratic blow-up. Symmetric in
    /// the sides, so skipping cannot break side-swap symmetry.
    pub max_bucket_product: usize,
}

impl Default for LshParams {
    fn default() -> Self {
        LshParams {
            num_hashes: 16,
            bands: 8,
            seed: 0x5B0D_D1FF_0000_0001,
            max_bucket_product: 4096,
        }
    }
}

/// SplitMix64 — the workspace's standard seedable mixer.
fn splitmix64(mut x: u64) -> u64 {
    x = x.wrapping_add(0x9E37_79B9_7F4A_7C15);
    let mut z = x;
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// The banded MinHash signature of a name: one bucket hash per band.
pub fn band_keys(name: &str, eco: Ecosystem, p: &LshParams) -> Vec<u64> {
    let rows = (p.num_hashes / p.bands).max(1);
    let bytes = name.as_bytes();
    let mut sig = vec![u64::MAX; p.num_hashes];
    let mut feed = |token: &[u8]| {
        let h0 = fnv1a(token);
        for (i, slot) in sig.iter_mut().enumerate() {
            let h = splitmix64(h0 ^ splitmix64(p.seed ^ i as u64));
            if h < *slot {
                *slot = h;
            }
        }
    };
    if bytes.len() < 3 {
        feed(bytes);
    } else {
        for w in bytes.windows(3) {
            feed(w);
        }
    }
    (0..p.bands)
        .map(|b| {
            let mut acc = splitmix64(p.seed ^ 0xBA2D ^ ((b as u64) << 8) ^ eco as u64);
            for r in 0..rows {
                acc = splitmix64(acc ^ sig[b * rows + r]);
            }
            acc
        })
        .collect()
}

/// Candidate `(a_index, b_index)` pairs via LSH banding: every pair whose
/// names collide in at least one band, deduplicated and sorted. Only
/// same-ecosystem pairs are produced (the ecosystem participates in the
/// band hash *and* is re-checked, so hash collisions cannot leak pairs
/// across ecosystems).
pub fn lsh_candidates(
    a: &[(Ecosystem, &str)],
    b: &[(Ecosystem, &str)],
    p: &LshParams,
) -> Vec<(usize, usize)> {
    let mut buckets: HashMap<u64, (Vec<usize>, Vec<usize>)> = HashMap::new();
    for (i, (eco, name)) in a.iter().enumerate() {
        for key in band_keys(name, *eco, p) {
            buckets.entry(key).or_default().0.push(i);
        }
    }
    for (j, (eco, name)) in b.iter().enumerate() {
        for key in band_keys(name, *eco, p) {
            buckets.entry(key).or_default().1.push(j);
        }
    }
    let mut pairs = BTreeSet::new();
    for (va, vb) in buckets.values() {
        if va.is_empty() || vb.is_empty() || va.len() * vb.len() > p.max_bucket_product {
            continue;
        }
        for &i in va {
            for &j in vb {
                if a[i].0 == b[j].0 {
                    pairs.insert((i, j));
                }
            }
        }
    }
    pairs.into_iter().collect()
}

/// The O(n²) reference: every same-ecosystem pair. Exists so the bench can
/// quantify the LSH speedup and tests can verify the index loses no
/// above-threshold match the brute-force path would have found.
pub fn brute_candidates(a: &[(Ecosystem, &str)], b: &[(Ecosystem, &str)]) -> Vec<(usize, usize)> {
    let mut pairs = Vec::new();
    for (i, (eco_a, _)) in a.iter().enumerate() {
        for (j, (eco_b, _)) in b.iter().enumerate() {
            if eco_a == eco_b {
                pairs.push((i, j));
            }
        }
    }
    pairs
}

#[cfg(test)]
mod tests {
    use super::*;

    fn side(names: &[&'static str]) -> Vec<(Ecosystem, &'static str)> {
        names.iter().map(|n| (Ecosystem::Python, *n)).collect()
    }

    #[test]
    fn near_duplicates_collide() {
        let p = LshParams::default();
        let a = side(&["urllib3", "requests", "flask"]);
        let b = side(&["urlib3", "reqests", "django"]);
        let cands = lsh_candidates(&a, &b, &p);
        assert!(cands.contains(&(0, 0)), "urllib3/urlib3 must collide");
        assert!(cands.contains(&(1, 1)), "requests/reqests must collide");
    }

    #[test]
    fn identical_names_always_collide() {
        let p = LshParams::default();
        let a = side(&["some-package-name"]);
        let b = side(&["some-package-name"]);
        assert_eq!(lsh_candidates(&a, &b, &p), vec![(0, 0)]);
    }

    #[test]
    fn cross_ecosystem_pairs_never_emitted() {
        let p = LshParams::default();
        let a = vec![(Ecosystem::Python, "lodash")];
        let b = vec![(Ecosystem::JavaScript, "lodash")];
        assert!(lsh_candidates(&a, &b, &p).is_empty());
    }

    #[test]
    fn candidates_are_sorted_and_deduped() {
        let p = LshParams::default();
        let a = side(&["pkg-aa", "pkg-ab"]);
        let b = side(&["pkg-aa", "pkg-ab"]);
        let cands = lsh_candidates(&a, &b, &p);
        let mut sorted = cands.clone();
        sorted.sort_unstable();
        sorted.dedup();
        assert_eq!(cands, sorted);
    }

    #[test]
    fn symmetry_under_side_swap() {
        let p = LshParams::default();
        let a = side(&["urllib3", "flask", "numpy"]);
        let b = side(&["urlib3", "numpyy"]);
        let ab = lsh_candidates(&a, &b, &p);
        let mut ba: Vec<(usize, usize)> = lsh_candidates(&b, &a, &p)
            .into_iter()
            .map(|(j, i)| (i, j))
            .collect();
        ba.sort_unstable();
        assert_eq!(ab, ba);
    }

    #[test]
    fn candidate_volume_is_subquadratic_on_distinct_names() {
        let p = LshParams::default();
        let names_a: Vec<String> = (0..400).map(|i| format!("alpha-package-{i:03}")).collect();
        let names_b: Vec<String> = (0..400).map(|i| format!("omega-library-{i:03}")).collect();
        let a: Vec<(Ecosystem, &str)> = names_a
            .iter()
            .map(|n| (Ecosystem::Python, n.as_str()))
            .collect();
        let b: Vec<(Ecosystem, &str)> = names_b
            .iter()
            .map(|n| (Ecosystem::Python, n.as_str()))
            .collect();
        let cands = lsh_candidates(&a, &b, &p);
        let brute = brute_candidates(&a, &b);
        assert_eq!(brute.len(), 160_000);
        assert!(
            cands.len() < brute.len() / 10,
            "LSH examined {} of {} pairs",
            cands.len(),
            brute.len()
        );
    }

    #[test]
    fn brute_candidates_cover_everything_same_eco() {
        let a = vec![(Ecosystem::Python, "x"), (Ecosystem::Go, "y")];
        let b = vec![(Ecosystem::Python, "z"), (Ecosystem::Go, "w")];
        assert_eq!(brute_candidates(&a, &b), vec![(0, 0), (1, 1)]);
    }

    #[test]
    fn band_keys_are_stable_for_fixed_seed() {
        let p = LshParams::default();
        let k1 = band_keys("requests", Ecosystem::Python, &p);
        let k2 = band_keys("requests", Ecosystem::Python, &p);
        assert_eq!(k1, k2);
        assert_eq!(k1.len(), p.bands);
        // Different seed → different family.
        let p2 = LshParams {
            seed: 42,
            ..p.clone()
        };
        assert_ne!(k1, band_keys("requests", Ecosystem::Python, &p2));
    }
}
