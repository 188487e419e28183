//! Perspective scoring of the collected corpus (§3, *Harmful
//! Classifications*).
//!
//! The paper: "For any instance that has at least one reject action
//! targeted against it, we annotate all of its posts" — scoring the posts
//! with Google's Perspective API, then classifying posts (any attribute
//! ≥ 0.8) and users (average of their posts ≥ 0.8 on any attribute).

use fediscope_core::id::Domain;
use fediscope_crawler::{CrawledInstance, Dataset};
use fediscope_perspective::{Attribute, AttributeScores, Scorer};
use rayon::prelude::*;
use std::collections::{HashMap, HashSet};

/// A user's aggregated scores.
#[derive(Debug, Clone)]
pub struct UserScore {
    /// Posts observed.
    pub posts: usize,
    /// Posts classified harmful at the paper's 0.8 threshold.
    pub harmful_posts: usize,
    /// Mean per-attribute scores over the user's posts.
    pub mean: AttributeScores,
}

impl UserScore {
    /// Whether the user classifies harmful at `threshold` (§3 definition).
    pub fn harmful_at(&self, threshold: f64) -> bool {
        self.mean.max() >= threshold
    }

    /// Whether a specific attribute's mean crosses the threshold.
    pub fn harmful_on(&self, attribute: Attribute, threshold: f64) -> bool {
        self.mean.get(attribute) >= threshold
    }
}

/// An instance's aggregated scores.
#[derive(Debug, Clone)]
pub struct InstanceScore {
    /// Posts scored.
    pub posts: usize,
    /// Harmful posts at 0.8.
    pub harmful_posts: usize,
    /// Mean per-attribute scores over all the instance's posts.
    pub mean: AttributeScores,
}

/// The §4.2 annotation codebook categories.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum AnnotationLabel {
    /// Hate speech.
    Toxic,
    /// Pornography.
    SexuallyExplicit,
    /// Swearing-heavy.
    Profane,
    /// Could not be categorised as harmful.
    General,
    /// Not enough material to annotate (the paper could not annotate
    /// 11.6% of rejected instances).
    Unannotatable,
}

/// Scored corpus over the reject-targeted instances.
#[derive(Debug, Default)]
pub struct HarmAnnotations {
    /// Per-user scores, keyed by `(home domain, author id)`.
    pub users: HashMap<(Domain, u64), UserScore>,
    /// Per-instance scores, keyed by domain.
    pub instances: HashMap<Domain, InstanceScore>,
    /// Total posts scored.
    pub posts_scored: usize,
}

/// Per-shard accumulator of the annotation campaign: `(posts, harmful,
/// score sum)` keyed per user and per instance, plus the shard's post
/// count. Shards merge by key-wise addition.
#[derive(Default)]
struct AnnotationShard {
    users: HashMap<(Domain, u64), (usize, usize, AttributeScores)>,
    instances: HashMap<Domain, (usize, usize, AttributeScores)>,
    posts_scored: usize,
}

impl AnnotationShard {
    /// Scores one instance's timeline into this shard.
    fn absorb(&mut self, scorer: &Scorer, inst: &CrawledInstance) {
        for post in inst.timeline.posts() {
            // The paper scores posts of the rejected instance's own
            // users (local timeline ⇒ local authors).
            let scores = scorer.analyze(&post.content);
            self.posts_scored += 1;
            let harmful = scores.harmful(fediscope_core::paper::HARMFUL_THRESHOLD);
            let u = self
                .users
                .entry((inst.domain.clone(), post.author_id))
                .or_insert((0, 0, AttributeScores::default()));
            u.0 += 1;
            u.1 += usize::from(harmful);
            u.2 = u.2.add(&scores);
            let i = self.instances.entry(inst.domain.clone()).or_insert((
                0,
                0,
                AttributeScores::default(),
            ));
            i.0 += 1;
            i.1 += usize::from(harmful);
            i.2 = i.2.add(&scores);
        }
    }

    /// Merges another shard into this one.
    fn merge(mut self, other: AnnotationShard) -> AnnotationShard {
        for (k, (posts, harmful, sum)) in other.users {
            let u = self
                .users
                .entry(k)
                .or_insert((0, 0, AttributeScores::default()));
            u.0 += posts;
            u.1 += harmful;
            u.2 = u.2.add(&sum);
        }
        for (k, (posts, harmful, sum)) in other.instances {
            let i = self
                .instances
                .entry(k)
                .or_insert((0, 0, AttributeScores::default()));
            i.0 += posts;
            i.1 += harmful;
            i.2 = i.2.add(&sum);
        }
        self.posts_scored += other.posts_scored;
        self
    }
}

impl HarmAnnotations {
    /// Scores every post of every instance with ≥ 1 reject against it.
    ///
    /// The scoring fans out across the global rayon pool (size it with
    /// `rayon::ThreadPoolBuilder`): a
    /// par-iter fold builds per-shard partial maps, then a reduce merges
    /// them. Every instance — and therefore every user, since the paper
    /// scores local timelines — lands wholly inside one shard, so the
    /// merged per-key float sums accumulate in the same order as a
    /// sequential pass: results are bit-identical at any thread count.
    pub fn annotate(dataset: &Dataset) -> HarmAnnotations {
        let scorer = Scorer::new();
        let rejected: HashSet<Domain> = dataset
            .reject_counts()
            .keys()
            .map(|d| (*d).clone())
            .collect();
        let targets: Vec<&CrawledInstance> = dataset
            .pleroma_crawled()
            .filter(|inst| rejected.contains(&inst.domain))
            .collect();
        let merged = targets
            .par_iter()
            .fold(AnnotationShard::default, |mut shard, inst| {
                shard.absorb(&scorer, inst);
                shard
            })
            .reduce(AnnotationShard::default, AnnotationShard::merge);
        let AnnotationShard {
            users,
            instances,
            posts_scored,
        } = merged;
        HarmAnnotations {
            users: users
                .into_iter()
                .map(|(k, (posts, harmful, sum))| {
                    (
                        k,
                        UserScore {
                            posts,
                            harmful_posts: harmful,
                            mean: sum.div(posts as f64),
                        },
                    )
                })
                .collect(),
            instances: instances
                .into_iter()
                .map(|(k, (posts, harmful, sum))| {
                    (
                        k,
                        InstanceScore {
                            posts,
                            harmful_posts: harmful,
                            mean: sum.div(posts as f64),
                        },
                    )
                })
                .collect(),
            posts_scored,
        }
    }

    /// Users on one instance.
    pub fn users_of<'a>(
        &'a self,
        domain: &'a Domain,
    ) -> impl Iterator<Item = (&'a (Domain, u64), &'a UserScore)> {
        self.users.iter().filter(move |((d, _), _)| d == domain)
    }

    /// The §4.2 rubric: label an instance from its score profile. The
    /// paper's authors eyeballed content and sites; the rubric encodes the
    /// same decision procedure over the measured evidence.
    pub fn annotate_instance(&self, domain: &Domain) -> AnnotationLabel {
        let Some(score) = self.instances.get(domain) else {
            return AnnotationLabel::Unannotatable;
        };
        if score.posts < 5 {
            // Too little material — the paper likewise failed to annotate
            // 11.6% of rejected instances.
            return AnnotationLabel::Unannotatable;
        }
        let m = &score.mean;
        let top = m.max();
        if top < 0.10 {
            return AnnotationLabel::General;
        }
        if m.sexually_explicit >= m.toxicity && m.sexually_explicit >= m.profanity {
            AnnotationLabel::SexuallyExplicit
        } else if m.toxicity >= m.profanity {
            AnnotationLabel::Toxic
        } else {
            AnnotationLabel::Profane
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use fediscope_core::config::InstanceModerationConfig;
    use fediscope_core::mrf::policies::{SimpleAction, SimplePolicy};
    use fediscope_core::time::SimTime;
    use fediscope_crawler::{CollectedPost, CrawlOutcome, CrawledInstance, TimelineCrawl};

    fn post(author: u64, domain: &str, content: &str) -> CollectedPost {
        CollectedPost {
            id: 1,
            author_id: author,
            author_domain: Domain::new(domain),
            created: SimTime(0),
            content: content.to_string(),
            sensitive: false,
            visibility: "public".into(),
            media_count: 0,
            hashtags: Vec::new(),
            mentions: 0,
        }
    }

    fn instance(
        domain: &str,
        posts: Vec<CollectedPost>,
        rejects: Option<SimplePolicy>,
    ) -> CrawledInstance {
        let metadata = fediscope_crawler::InstanceMetadata {
            user_count: 10,
            status_count: posts.len() as u64,
            domain_count: 0,
            version: "2.7.2 (compatible; Pleroma 2.2.0)".into(),
            registrations_open: true,
            policies: Some({
                let mut c = InstanceModerationConfig::pleroma_default();
                if let Some(s) = rejects {
                    c.set_simple(s);
                }
                c
            }),
        };
        CrawledInstance {
            domain: Domain::new(domain),
            outcome: CrawlOutcome::Crawled,
            software: Some("pleroma".into()),
            from_directory: true,
            metadata: Some(metadata),
            peers: Vec::new(),
            timeline: if posts.is_empty() {
                TimelineCrawl::Empty
            } else {
                TimelineCrawl::Posts(posts)
            },
            snapshots: Vec::new(),
        }
    }

    fn toy_dataset() -> Dataset {
        // "bad.example" is rejected by "mod.example"; its posts get scored.
        let bad = instance(
            "bad.example",
            vec![
                post(1, "bad.example", "grukk vrelk subhuman scum kys die"),
                post(1, "bad.example", "vermin filth eradicate grukk zhurr"),
                post(1, "bad.example", "worthless degenerate parasite kys"),
                post(2, "bad.example", "coffee garden morning walk"),
                post(2, "bad.example", "bread cat dog photo book"),
            ],
            None,
        );
        let moderator = instance(
            "mod.example",
            vec![post(9, "mod.example", "peaceful coffee")],
            Some(SimplePolicy::new().with_target(SimpleAction::Reject, Domain::new("bad.example"))),
        );
        Dataset {
            started: SimTime(0),
            finished: SimTime(100),
            instances: vec![bad, moderator],
        }
    }

    #[test]
    fn only_rejected_instances_are_scored() {
        let dataset = toy_dataset();
        let ann = HarmAnnotations::annotate(&dataset);
        assert_eq!(ann.posts_scored, 5, "only bad.example's posts");
        assert!(ann.instances.contains_key(&Domain::new("bad.example")));
        assert!(!ann.instances.contains_key(&Domain::new("mod.example")));
    }

    #[test]
    fn user_classification_follows_paper_definitions() {
        let dataset = toy_dataset();
        let ann = HarmAnnotations::annotate(&dataset);
        let troll = &ann.users[&(Domain::new("bad.example"), 1)];
        let citizen = &ann.users[&(Domain::new("bad.example"), 2)];
        assert!(troll.harmful_at(0.8), "troll mean {:?}", troll.mean);
        assert!(troll.harmful_on(Attribute::Toxicity, 0.8));
        assert!(!citizen.harmful_at(0.5), "citizen mean {:?}", citizen.mean);
        assert_eq!(troll.posts, 3);
        assert_eq!(troll.harmful_posts, 3);
        assert_eq!(citizen.harmful_posts, 0);
    }

    #[test]
    fn instance_rubric_labels_toxic_community() {
        let dataset = toy_dataset();
        let ann = HarmAnnotations::annotate(&dataset);
        assert_eq!(
            ann.annotate_instance(&Domain::new("bad.example")),
            AnnotationLabel::Toxic
        );
        // Unscored instance: unannotatable.
        assert_eq!(
            ann.annotate_instance(&Domain::new("mod.example")),
            AnnotationLabel::Unannotatable
        );
    }

    #[test]
    fn users_of_filters_by_domain() {
        let dataset = toy_dataset();
        let ann = HarmAnnotations::annotate(&dataset);
        let d = Domain::new("bad.example");
        assert_eq!(ann.users_of(&d).count(), 2);
    }
}
