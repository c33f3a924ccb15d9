//! Synthetic corpus generators calibrated to the paper's evaluation datasets.
//!
//! The paper evaluates on two proprietary collections (Section 6.1):
//!
//! * **Stud IP** learning-management-system snapshot: 8,500 access-controlled
//!   documents, ~570,000 terms, thousands of course groups;
//! * **Open Directory Project (ODP)** crawl from 2005: 237,000 documents,
//!   987,700 distinct terms, 100 topics, each topic forming one
//!   collaboration group.
//!
//! Neither collection is redistributable, so this module builds synthetic
//! stand-ins that reproduce the *statistical* properties the experiments
//! depend on: Zipfian term popularity (Figure 4), heavy-tailed document
//! lengths, term-specific normalized-TF distributions (Figure 5), and a
//! group/topic structure for access control.

pub mod sampling;
pub mod zipf;

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

use crate::corpus::{Corpus, CorpusBuilder};
use crate::doc::GroupId;
use crate::error::CorpusError;

pub use zipf::ZipfSampler;

/// Fully specified generator parameters.
#[derive(Debug, Clone, PartialEq)]
pub struct CustomProfile {
    /// Number of documents to generate.
    pub num_docs: usize,
    /// Number of collaboration groups (courses / topics).
    pub num_groups: usize,
    /// Total vocabulary size (general + topic-specific terms).
    pub vocab_size: usize,
    /// Fraction of the vocabulary shared by all groups.
    pub general_vocab_fraction: f64,
    /// Probability that a token is drawn from the group's topic vocabulary
    /// rather than the general vocabulary.
    pub topic_mix: f64,
    /// Zipf exponent of term popularity.
    pub zipf_exponent: f64,
    /// Median document length in tokens.
    pub doc_length_median: f64,
    /// Log-space standard deviation of the document length distribution.
    pub doc_length_sigma: f64,
    /// Minimum document length after clamping.
    pub min_doc_length: u32,
    /// Maximum document length after clamping.
    pub max_doc_length: u32,
}

/// The two datasets of the paper plus an escape hatch for custom settings.
#[derive(Debug, Clone, PartialEq)]
pub enum DatasetProfile {
    /// Stud IP learning-management-system collection (Section 6.1.1).
    StudIp,
    /// Open Directory Project web crawl (Section 6.1.2).
    OdpWeb,
    /// Caller-provided parameters.
    Custom(CustomProfile),
}

impl DatasetProfile {
    /// Resolves the named profile to concrete parameters at scale 1.0.
    pub fn base_profile(&self) -> CustomProfile {
        match self {
            DatasetProfile::StudIp => CustomProfile {
                num_docs: 8_500,
                num_groups: 330,
                vocab_size: 70_000,
                general_vocab_fraction: 0.25,
                topic_mix: 0.35,
                zipf_exponent: 1.05,
                doc_length_median: 180.0,
                doc_length_sigma: 1.1,
                min_doc_length: 10,
                max_doc_length: 20_000,
            },
            DatasetProfile::OdpWeb => CustomProfile {
                num_docs: 237_000,
                num_groups: 100,
                vocab_size: 250_000,
                general_vocab_fraction: 0.20,
                topic_mix: 0.45,
                zipf_exponent: 1.10,
                doc_length_median: 250.0,
                doc_length_sigma: 0.9,
                min_doc_length: 15,
                max_doc_length: 30_000,
            },
            DatasetProfile::Custom(p) => p.clone(),
        }
    }

    /// Human-readable name used in experiment output.
    pub fn name(&self) -> &'static str {
        match self {
            DatasetProfile::StudIp => "StudIP",
            DatasetProfile::OdpWeb => "ODP-Web",
            DatasetProfile::Custom(_) => "Custom",
        }
    }
}

/// Configuration of the [`CorpusGenerator`].
#[derive(Debug, Clone)]
pub struct SynthConfig {
    /// Which dataset to imitate.
    pub profile: DatasetProfile,
    /// Linear scale factor applied to document count, group count and
    /// vocabulary size (1.0 = paper scale).  Benchmarks use smaller scales to
    /// keep laptop runtimes reasonable (the harness binaries take
    /// `--scale`).
    pub scale: f64,
    /// RNG seed; generation is fully deterministic given the configuration.
    pub seed: u64,
}

impl SynthConfig {
    /// Convenience constructor with scale 1.0.
    pub fn new(profile: DatasetProfile, seed: u64) -> Self {
        SynthConfig {
            profile,
            scale: 1.0,
            seed,
        }
    }

    /// Sets the scale factor.
    pub fn with_scale(mut self, scale: f64) -> Self {
        self.scale = scale;
        self
    }

    fn resolved(&self) -> Result<CustomProfile, CorpusError> {
        if !(self.scale.is_finite() && self.scale > 0.0) {
            return Err(CorpusError::InvalidConfig(format!(
                "scale must be positive and finite, got {}",
                self.scale
            )));
        }
        let base = self.profile.base_profile();
        if base.num_docs == 0 || base.vocab_size == 0 || base.num_groups == 0 {
            return Err(CorpusError::InvalidConfig(
                "profile must have at least one document, group and term".into(),
            ));
        }
        if !(0.0..=1.0).contains(&base.general_vocab_fraction)
            || !(0.0..=1.0).contains(&base.topic_mix)
        {
            return Err(CorpusError::InvalidConfig(
                "general_vocab_fraction and topic_mix must be in [0,1]".into(),
            ));
        }
        if base.min_doc_length == 0 || base.min_doc_length > base.max_doc_length {
            return Err(CorpusError::InvalidConfig(
                "document length bounds must satisfy 0 < min <= max".into(),
            ));
        }
        let scale = self.scale;
        Ok(CustomProfile {
            num_docs: ((base.num_docs as f64 * scale).round() as usize).max(4),
            num_groups: ((base.num_groups as f64 * scale).round() as usize)
                .clamp(1, base.num_groups.max(1)),
            vocab_size: ((base.vocab_size as f64 * scale).round() as usize).max(50),
            ..base
        })
    }
}

/// Deterministic synthetic corpus generator.
#[derive(Debug, Clone)]
pub struct CorpusGenerator {
    config: SynthConfig,
}

impl CorpusGenerator {
    /// Creates a generator.
    pub fn new(config: SynthConfig) -> Self {
        CorpusGenerator { config }
    }

    /// The configuration the generator was created with.
    pub fn config(&self) -> &SynthConfig {
        &self.config
    }

    /// Generates the corpus.
    ///
    /// Vocabulary layout: term ranks `0..general` form the general vocabulary
    /// shared by every group; the remaining ranks are partitioned evenly among
    /// groups as topic vocabularies.  Every token of a document is drawn from
    /// the topic vocabulary with probability `topic_mix` and from the general
    /// vocabulary otherwise; within each vocabulary, ranks follow a Zipf law.
    pub fn generate(&self) -> Result<Corpus, CorpusError> {
        let p = self.config.resolved()?;
        let mut rng = StdRng::seed_from_u64(self.config.seed);
        let general_size = ((p.vocab_size as f64) * p.general_vocab_fraction).round() as usize;
        let general_size = general_size.clamp(1, p.vocab_size);
        let topic_pool = p.vocab_size - general_size;
        let per_topic = topic_pool.checked_div(p.num_groups).unwrap_or(0);

        let general_zipf = ZipfSampler::new(general_size, p.zipf_exponent);
        let topic_zipf = if per_topic > 0 {
            Some(ZipfSampler::new(per_topic, p.zipf_exponent))
        } else {
            None
        };

        let mut builder = CorpusBuilder::new();
        let mut counts: std::collections::HashMap<usize, u32> = std::collections::HashMap::new();
        let mut name_buf = String::new();
        for doc_idx in 0..p.num_docs {
            let group = GroupId(rng.gen_range(0..p.num_groups as u32));
            let len = sampling::doc_length(
                &mut rng,
                p.doc_length_median,
                p.doc_length_sigma,
                p.min_doc_length,
                p.max_doc_length,
            );
            counts.clear();
            for _ in 0..len {
                let use_topic = topic_zipf.is_some() && rng.gen::<f64>() < p.topic_mix;
                let term_index = if use_topic {
                    let z = topic_zipf.as_ref().expect("checked above");
                    general_size + group.index() * per_topic + z.sample(&mut rng)
                } else {
                    general_zipf.sample(&mut rng)
                };
                *counts.entry(term_index).or_insert(0) += 1;
            }
            // Sort by term index: HashMap iteration order would otherwise
            // leak into TermId assignment and break seed-reproducibility.
            let mut items: Vec<(usize, u32)> = counts.iter().map(|(&i, &c)| (i, c)).collect();
            items.sort_unstable_by_key(|&(i, _)| i);
            let pairs: Vec<(String, u32)> = items
                .into_iter()
                .map(|(idx, c)| (format!("w{idx}"), c))
                .collect();
            name_buf.clear();
            name_buf.push_str("doc-");
            name_buf.push_str(&doc_idx.to_string());
            builder.add_counted_document(name_buf.clone(), group, &pairs)?;
        }
        Ok(builder.build())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::stats::CorpusStats;

    fn tiny_config(seed: u64) -> SynthConfig {
        SynthConfig {
            profile: DatasetProfile::Custom(CustomProfile {
                num_docs: 200,
                num_groups: 5,
                vocab_size: 2_000,
                general_vocab_fraction: 0.3,
                topic_mix: 0.4,
                zipf_exponent: 1.0,
                doc_length_median: 80.0,
                doc_length_sigma: 0.8,
                min_doc_length: 10,
                max_doc_length: 800,
            }),
            scale: 1.0,
            seed,
        }
    }

    #[test]
    fn generation_is_deterministic_for_a_seed() {
        let a = CorpusGenerator::new(tiny_config(42)).generate().unwrap();
        let b = CorpusGenerator::new(tiny_config(42)).generate().unwrap();
        assert_eq!(a.num_docs(), b.num_docs());
        assert_eq!(a.num_terms(), b.num_terms());
        assert_eq!(a.total_tokens(), b.total_tokens());
        // Term-id assignment must also be reproducible, not just aggregate
        // counts: identical seeds give identical per-document term vectors.
        for ((id_a, doc_a), (id_b, doc_b)) in a.docs().zip(b.docs()) {
            assert_eq!(id_a, id_b);
            assert_eq!(doc_a.term_counts, doc_b.term_counts);
        }
        assert_eq!(
            CorpusStats::compute(&a).terms_by_doc_freq(),
            CorpusStats::compute(&b).terms_by_doc_freq()
        );
        let c = CorpusGenerator::new(tiny_config(43)).generate().unwrap();
        assert_ne!(a.total_tokens(), c.total_tokens());
    }

    #[test]
    fn requested_document_count_is_produced() {
        let corpus = CorpusGenerator::new(tiny_config(1)).generate().unwrap();
        assert_eq!(corpus.num_docs(), 200);
        assert!(corpus.num_groups() <= 5);
        assert!(corpus.num_terms() > 100);
    }

    #[test]
    fn document_lengths_respect_the_clamp() {
        let corpus = CorpusGenerator::new(tiny_config(2)).generate().unwrap();
        for (_, d) in corpus.docs() {
            assert!(d.length >= 10 && d.length <= 800, "length {}", d.length);
        }
    }

    #[test]
    fn term_popularity_is_heavy_tailed() {
        let corpus = CorpusGenerator::new(tiny_config(3)).generate().unwrap();
        let stats = CorpusStats::compute(&corpus);
        let order = stats.terms_by_doc_freq();
        let top = stats.term(order[0]).unwrap().doc_freq;
        let median = stats.term(order[order.len() / 2]).unwrap().doc_freq;
        assert!(
            top >= 10 * median.max(1),
            "expected a heavy-tailed document frequency distribution (top {top}, median {median})"
        );
    }

    #[test]
    fn scale_reduces_the_corpus_proportionally() {
        let full = CorpusGenerator::new(tiny_config(4)).generate().unwrap();
        let half = CorpusGenerator::new(tiny_config(4).with_scale(0.5))
            .generate()
            .unwrap();
        assert_eq!(half.num_docs(), 100);
        assert!(half.num_docs() < full.num_docs());
    }

    #[test]
    fn named_profiles_resolve_to_paper_scale_parameters() {
        let studip = DatasetProfile::StudIp.base_profile();
        assert_eq!(studip.num_docs, 8_500);
        let odp = DatasetProfile::OdpWeb.base_profile();
        assert_eq!(odp.num_docs, 237_000);
        assert_eq!(odp.num_groups, 100);
        assert_eq!(DatasetProfile::StudIp.name(), "StudIP");
        assert_eq!(DatasetProfile::OdpWeb.name(), "ODP-Web");
    }

    #[test]
    fn invalid_scale_is_rejected() {
        let cfg = tiny_config(5).with_scale(0.0);
        assert!(CorpusGenerator::new(cfg).generate().is_err());
        let cfg = tiny_config(5).with_scale(f64::NAN);
        assert!(CorpusGenerator::new(cfg).generate().is_err());
    }

    #[test]
    fn topic_terms_concentrate_inside_their_group() {
        let corpus = CorpusGenerator::new(tiny_config(6)).generate().unwrap();
        let stats = CorpusStats::compute(&corpus);
        // Pick a topic-specific term (vocabulary index beyond the general
        // range) and check all documents containing it are in one group.
        let dict = corpus.dictionary();
        let mut checked = 0;
        for (id, name) in dict.iter() {
            let idx: usize = name[1..].parse().unwrap();
            if idx >= 600 {
                // general vocab is 0.3 * 2000 = 600
                let t = stats.term(id).unwrap();
                if t.doc_freq >= 2 {
                    let groups: std::collections::HashSet<_> = t
                        .postings
                        .iter()
                        .map(|&(d, _, _)| corpus.doc(d).unwrap().group)
                        .collect();
                    assert_eq!(
                        groups.len(),
                        1,
                        "topic term {name} appears in multiple groups"
                    );
                    checked += 1;
                    if checked > 20 {
                        break;
                    }
                }
            }
        }
        assert!(checked > 0, "no topic-specific terms found to check");
    }
}
