//! The retained naive scorer, frozen for differential testing and as the
//! benchmark baseline.
//!
//! This is the original `Scorer::analyze`: collect tokens into a `Vec`,
//! then for each lexicon linearly scan every entry for every token. Kept
//! verbatim (scanning `Lexicon::entries` directly, so speeding up
//! [`crate::Lexicon::weight`] does not silently speed up the baseline).
//! The optimized scorer must stay bit-identical to this implementation —
//! see the `optimized_matches_reference` proptest in `scorer.rs`.

use crate::lexicon::{Lexicon, LEXICONS};
use crate::scorer::{Attribute, AttributeScores, Scorer};

/// Linear scan of one lexicon's entry list — the O(entries) lookup the
/// unified table replaces.
fn naive_weight(lexicon: &Lexicon, token: &str) -> f64 {
    lexicon
        .entries
        .iter()
        .find(|(t, _)| *t == token)
        .map(|(_, w)| *w)
        .unwrap_or(0.0)
}

/// Tokens of `text` that carry weight in the attribute's lexicon,
/// resolved by linear scan.
pub fn explain_naive(text: &str, attribute: Attribute) -> Vec<&str> {
    let lexicon = crate::lexicon::lexicon_for(attribute);
    crate::scorer::tokenize(text)
        .filter(|t| naive_weight(lexicon, t) > 0.0)
        .collect()
}

/// Scores a text exactly as the pre-optimization scorer did.
pub fn analyze_naive(scorer: &Scorer, text: &str) -> AttributeScores {
    let tokens: Vec<&str> = crate::scorer::tokenize(text).collect();
    if tokens.is_empty() {
        return AttributeScores::default();
    }
    let total = tokens.len() as f64;
    let mut scores = AttributeScores::default();
    for lexicon in LEXICONS {
        let weighted: f64 = tokens.iter().map(|t| naive_weight(lexicon, t)).sum();
        let density = weighted / total;
        scores.set(lexicon.attribute, scorer.density_to_score(density));
    }
    scores
}

/// Common short function words mixed into the benign filler (microblog
/// posts are not all nouns).
const FUNCTION_WORDS: &[&str] = &[
    "the", "a", "and", "with", "this", "that", "from", "they", "have", "were", "when", "your",
    "time", "will", "over", "like", "them", "some", "while",
];

/// Offending tokens sprinkled into the harmful tail, covering all three
/// attributes.
const HARM_VOCAB: &[&str] = &[
    "idiot", "scum", "damn", "lewd", "grukk", "nsfw", "hate", "kys", "shite", "porn",
];

/// A deterministic 2,000-post corpus shaped like campaign traffic: the
/// workload both engines are compared on, for speed in the perf gates and
/// bit for bit in `tests/scorer_reference.rs`. Every post is distinct (so
/// no scanner's comparison pattern can be memorised by the branch
/// predictor), mostly benign over [`crate::BENIGN_WORDS`] plus function
/// words, with a 20% harmful tail across all three attributes.
pub fn mixed_corpus() -> Vec<String> {
    let benign: Vec<&str> = crate::BENIGN_WORDS
        .iter()
        .chain(FUNCTION_WORDS.iter())
        .copied()
        .collect();
    let mut state: u64 = 0x5EED_CAFE_F00D_D00D;
    let mut next = move |n: usize| {
        state = state
            .wrapping_mul(6364136223846793005)
            .wrapping_add(1442695040888963407);
        (state >> 33) as usize % n
    };
    (0..2000)
        .map(|i| {
            let len = 10 + next(12);
            let harmful = i % 10 < 2;
            let words: Vec<&str> = (0..len)
                .map(|j| {
                    if harmful && j % 3 == 0 {
                        HARM_VOCAB[next(HARM_VOCAB.len())]
                    } else {
                        benign[next(benign.len())]
                    }
                })
                .collect();
            words.join(" ")
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn reference_reproduces_original_fixtures() {
        let scorer = Scorer::new();
        let s = analyze_naive(&scorer, "grukk vrelk subhuman scum kys");
        assert!(s.toxicity > 0.9);
        assert_eq!(s.profanity, 0.0);
        assert_eq!(analyze_naive(&scorer, "").max(), 0.0);
        assert_eq!(
            explain_naive("you absolute idiot drinking coffee", Attribute::Toxicity),
            vec!["idiot"]
        );
    }
}
