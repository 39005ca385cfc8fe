//! # workload — synthetic inference workloads
//!
//! The paper drives FlexGen with prompts from the C4 `realnewslike`
//! corpus, truncated/padded to 128 input tokens, generating 21 output
//! tokens, with each prompt repeated 10 times (§III-B). Token
//! *identity* never affects serving performance — only sequence
//! lengths and batch composition do — so this crate synthesizes
//! requests with the same length statistics instead of shipping the
//! corpus.
//!
//! # Examples
//!
//! ```
//! use workload::{C4Sampler, WorkloadSpec};
//!
//! let spec = WorkloadSpec::paper_default();
//! assert_eq!(spec.prompt_len, 128);
//! assert_eq!(spec.gen_len, 21);
//! let mut sampler = C4Sampler::new(42);
//! let batch = sampler.batch(&spec, 8);
//! assert_eq!(batch.len(), 8);
//! assert!(batch.iter().all(|r| r.padded_prompt_len == 128));
//! ```

use simcore::rng::SimRng;

/// The serving workload shape.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct WorkloadSpec {
    /// Input sequence length after padding/truncation.
    pub prompt_len: usize,
    /// Output tokens generated per request.
    pub gen_len: usize,
    /// Times each prompt is repeated (cold-start smoothing).
    pub repeats: usize,
}

impl WorkloadSpec {
    /// The paper's configuration: 128 in, 21 out, 10 repeats (§III-B).
    pub fn paper_default() -> Self {
        WorkloadSpec {
            prompt_len: 128,
            gen_len: 21,
            repeats: 10,
        }
    }

    /// A custom shape.
    ///
    /// # Panics
    ///
    /// Panics if any dimension is zero, or if the context length
    /// `prompt_len + gen_len` overflows `usize`.
    pub fn new(prompt_len: usize, gen_len: usize, repeats: usize) -> Self {
        assert!(prompt_len > 0 && gen_len > 0 && repeats > 0);
        assert!(
            prompt_len.checked_add(gen_len).is_some(),
            "context length {prompt_len} + {gen_len} overflows usize"
        );
        WorkloadSpec {
            prompt_len,
            gen_len,
            repeats,
        }
    }

    /// Final context length once generation completes.
    pub fn context_len(&self) -> usize {
        self.prompt_len + self.gen_len
    }

    /// Total tokens generated by a batch of `batch` requests.
    pub fn tokens_generated(&self, batch: u32) -> u64 {
        u64::from(batch) * self.gen_len as u64
    }
}

/// One inference request.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Request {
    /// Request id within its sampler stream.
    pub id: u64,
    /// Natural (pre-padding) document length in tokens.
    pub natural_len: usize,
    /// Prompt length after padding/truncation to the spec.
    pub padded_prompt_len: usize,
    /// Output tokens to generate.
    pub gen_len: usize,
}

/// A deterministic C4-like request sampler.
///
/// Natural document lengths follow a log-normal fit to news-like web
/// text (median ≈ 400 tokens, long tail), then get truncated or
/// padded to the spec's prompt length — mirroring how the paper's
/// harness feeds fixed-length prompts from variable-length documents.
#[derive(Debug, Clone)]
pub struct C4Sampler {
    rng: SimRng,
    next_id: u64,
}

impl C4Sampler {
    /// Creates a sampler with a deterministic seed.
    pub fn new(seed: u64) -> Self {
        C4Sampler {
            rng: SimRng::from_seed_and_stream(seed, "c4-realnewslike"),
            next_id: 0,
        }
    }

    /// Draws one request shaped by `spec`.
    pub fn request(&mut self, spec: &WorkloadSpec) -> Request {
        // ln N(mu=6.0, sigma=0.8): median ~403 tokens, 5th pct ~108.
        let natural = self.rng.normal(6.0, 0.8).exp().round().max(1.0) as usize;
        let id = self.next_id;
        self.next_id += 1;
        Request {
            id,
            natural_len: natural,
            padded_prompt_len: spec.prompt_len,
            gen_len: spec.gen_len,
        }
    }

    /// Draws a batch of `n` requests.
    pub fn batch(&mut self, spec: &WorkloadSpec, n: u32) -> Vec<Request> {
        (0..n).map(|_| self.request(spec)).collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn paper_default_matches_section_iii() {
        let spec = WorkloadSpec::paper_default();
        assert_eq!(spec.context_len(), 149);
        assert_eq!(spec.repeats, 10);
        assert_eq!(spec.tokens_generated(44), 44 * 21);
    }

    #[test]
    #[should_panic(expected = "overflows usize")]
    fn overflowing_context_length_is_rejected() {
        let _ = WorkloadSpec::new(usize::MAX, 21, 1);
    }

    #[test]
    fn sampler_is_deterministic() {
        let spec = WorkloadSpec::paper_default();
        let a: Vec<_> = C4Sampler::new(7).batch(&spec, 16);
        let b: Vec<_> = C4Sampler::new(7).batch(&spec, 16);
        assert_eq!(a, b);
    }

    #[test]
    fn different_seeds_differ() {
        let spec = WorkloadSpec::paper_default();
        let a = C4Sampler::new(1).batch(&spec, 8);
        let b = C4Sampler::new(2).batch(&spec, 8);
        assert!(a
            .iter()
            .zip(&b)
            .any(|(x, y)| x.natural_len != y.natural_len));
    }

    #[test]
    fn natural_lengths_look_like_news_text() {
        let spec = WorkloadSpec::paper_default();
        let mut s = C4Sampler::new(3);
        let lens: Vec<f64> = (0..2000)
            .map(|_| s.request(&spec).natural_len as f64)
            .collect();
        let mean = lens.iter().sum::<f64>() / lens.len() as f64;
        // lognormal(6, 0.8) mean = exp(6 + 0.32) ~ 556.
        assert!((mean - 556.0).abs() < 60.0, "mean {mean}");
        assert!(lens.iter().all(|&l| l >= 1.0));
    }

    #[test]
    fn ids_are_sequential() {
        let spec = WorkloadSpec::paper_default();
        let mut s = C4Sampler::new(5);
        let batch = s.batch(&spec, 4);
        let ids: Vec<_> = batch.iter().map(|r| r.id).collect();
        assert_eq!(ids, vec![0, 1, 2, 3]);
    }

    #[test]
    #[should_panic]
    fn zero_dimensions_rejected() {
        let _ = WorkloadSpec::new(0, 1, 1);
    }
}
