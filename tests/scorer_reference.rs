//! The unified-table scorer agrees bit for bit with the frozen naive
//! reference on the perf gates' mixed corpus: every attribute of every
//! post, compared by bit pattern, so a drift in any one score fails.

use fediscope::perspective::{reference, Attribute, Scorer};

#[test]
fn unified_scorer_matches_naive_reference_on_every_attribute() {
    let scorer = Scorer::new();
    let corpus = reference::mixed_corpus();
    assert_eq!(corpus.len(), 2000);
    let mut harmful = 0;
    for text in &corpus {
        let unified = scorer.analyze(text);
        let naive = reference::analyze_naive(&scorer, text);
        for attribute in Attribute::ALL {
            assert_eq!(
                unified.get(attribute).to_bits(),
                naive.get(attribute).to_bits(),
                "{attribute:?} differs on {text:?}"
            );
        }
        harmful += usize::from(unified.max() > 0.0);
    }
    // The corpus's harmful tail really exercises the weighted path.
    assert!(harmful >= 300, "only {harmful} posts scored above zero");
}
