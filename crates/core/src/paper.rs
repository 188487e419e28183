//! The paper's reported numbers, as constants.
//!
//! These serve two roles:
//!
//! 1. **Calibration targets** for `fediscope-synthgen` — the synthetic
//!    fediverse is generated so that *measuring it* reproduces these
//!    statistics;
//! 2. **Reference columns** for `fediscope report` — every section
//!    prints the paper's value next to ours.
//!
//! Each constant cites the section/table/figure it comes from. Where the
//! paper is internally inconsistent (§3 post-collection accounting), the
//! discrepancy is noted and a consistent choice documented.

#![allow(clippy::excessive_precision)]

/// §3: total Pleroma instances identified via directories + Peers API.
pub const PLEROMA_INSTANCES: u32 = 1534;

/// §3: non-Pleroma instances discovered through federation (e.g. Mastodon).
pub const NON_PLEROMA_INSTANCES: u32 = 8435;

/// §3: Pleroma instances successfully crawled (84.6%).
pub const CRAWLED_INSTANCES: u32 = 1298;

/// §3: failure taxonomy for the 236 unreachable Pleroma instances.
pub mod crawl_failures {
    /// 404 Not Found.
    pub const NOT_FOUND: u32 = 110;
    /// 403 authorisation required for timeline viewing.
    pub const FORBIDDEN: u32 = 84;
    /// 502 Bad Gateway.
    pub const BAD_GATEWAY: u32 = 24;
    /// 503 Service Unavailable.
    pub const UNAVAILABLE: u32 = 11;
    /// 410 Gone.
    pub const GONE: u32 = 7;
    /// All failures.
    pub const TOTAL: u32 = NOT_FOUND + FORBIDDEN + BAD_GATEWAY + UNAVAILABLE + GONE;
}

/// §3: unique users discovered across crawled Pleroma instances.
pub const TOTAL_USERS: u32 = 111_000;

/// §3: users covered by collected public posts.
pub const USERS_WITH_COLLECTED_POSTS: u32 = 91_700;

/// §3: fraction of users who published at least one post.
pub const USERS_WITH_POSTS_FRACTION: f64 = 0.487;

/// §3: total posts reported on crawled instances.
pub const TOTAL_POSTS: u64 = 24_500_000;

/// §3: public posts actually collected via the Timeline API.
pub const COLLECTED_POSTS: u64 = 14_500_000;

/// §3: instances from which all posts were gathered.
pub const INSTANCES_WITH_POSTS: u32 = 796;

/// §3: instances with zero posts.
pub const INSTANCES_NO_POSTS: u32 = 119;

/// §3 (reconciled): instances whose public timeline was unreachable.
///
/// The paper says "the public timeline of the remaining 38.7% instances was
/// not reachable", but 796 + 119 + 0.387·1298 ≠ 1298. We adopt
/// `1298 − 796 − 119 = 383` unreachable timelines and note the discrepancy
/// in EXPERIMENTS.md.
pub const INSTANCES_TIMELINE_UNREACHABLE: u32 =
    CRAWLED_INSTANCES - INSTANCES_WITH_POSTS - INSTANCES_NO_POSTS;

/// §4.1: fraction of Pleroma instances exposing policy information.
pub const POLICY_EXPOSURE_FRACTION: f64 = 0.919;

/// §4.1: unique policy types observed.
pub const UNIQUE_POLICY_TYPES: u32 = 46;

/// §4.1: policies included in the Pleroma package.
pub const BUILTIN_POLICY_TYPES: u32 = 26;

/// §4.1: fraction of all users on instances with ≥ 1 retrieved policy.
pub const USERS_AFFECTED_BY_POLICIES: f64 = 0.977;

/// §4.1: fraction of all posts on instances with ≥ 1 retrieved policy.
pub const POSTS_AFFECTED_BY_POLICIES: f64 = 0.978;

/// §4.1/§4.2: fraction of users on instances rejected by ≥ 1 instance.
pub const USERS_ON_REJECTED_INSTANCES: f64 = 0.862;

/// §4.2: fraction of posts on rejected instances (§4.1 says 88.5%, §4.2
/// says 88.7%; we adopt 88.7%).
pub const POSTS_ON_REJECTED_INSTANCES: f64 = 0.887;

/// §4.1: share of all moderation events that are `reject` actions.
pub const REJECT_SHARE_OF_EVENTS: f64 = 0.628;

/// §4.1: rejected instances as a share of all moderated instances.
pub const REJECTED_SHARE_OF_MODERATED: f64 = 0.80;

/// §4.1: fraction of instances applying `media_removal`.
pub const MEDIA_REMOVAL_INSTANCE_FRACTION: f64 = 0.054;

/// §4.1: fraction of users impacted by `media_removal`.
pub const MEDIA_REMOVAL_USER_FRACTION: f64 = 0.233;

/// §4.1: share of SimplePolicy-enabled instances that use `reject`.
pub const SIMPLEPOLICY_REJECT_SHARE: f64 = 0.73;

/// §4.2: unique instances rejected at least once.
pub const REJECTED_INSTANCES_TOTAL: u32 = 1200;

/// §4.2: rejected Pleroma instances.
pub const REJECTED_PLEROMA_INSTANCES: u32 = 202;

/// §4.2: rejected non-Pleroma instances.
pub const REJECTED_NON_PLEROMA_INSTANCES: u32 = 998;

/// §4.2: rejected Pleroma instances as a share of all Pleroma instances.
pub const REJECTED_PLEROMA_SHARE: f64 = 0.155;

/// §4.2: share of rejected instances rejected by fewer than 10 instances.
pub const REJECTED_BY_FEWER_THAN_10: f64 = 0.868;

/// §4.2: "elite" share of rejected instances with > 20 rejects.
pub const ELITE_REJECTED_SHARE: f64 = 0.054;

/// §4.2: users share held by the elite rejected set.
pub const ELITE_USER_SHARE: f64 = 0.336;

/// §4.2: posts share held by the elite rejected set.
pub const ELITE_POST_SHARE: f64 = 0.234;

/// §4.2: Spearman correlation between an instance's posts and its rejects.
pub const SPEARMAN_POSTS_VS_REJECTS: f64 = 0.38;

/// §4.2: Spearman correlation between rejects applied and received
/// (retaliation; essentially zero / slightly negative).
pub const SPEARMAN_RETALIATION: f64 = -0.033;

/// Table 1: the five most-rejected Pleroma instances.
pub struct TopRejectedInstance {
    /// Domain name.
    pub domain: &'static str,
    /// Number of reject actions targeting it.
    pub rejects: u32,
    /// Users on the instance.
    pub users: u32,
    /// Posts by those users.
    pub posts: u64,
    /// Average toxicity score (None = not retrievable, `NA` in Table 1).
    pub toxicity: Option<f64>,
    /// Average profanity score.
    pub profanity: Option<f64>,
    /// Average sexually-explicit score.
    pub sexually_explicit: Option<f64>,
}

/// Table 1 rows. (The most rejected instance overall is `gab.com`, a
/// Mastodon instance; these are the top *Pleroma* instances.)
pub const TABLE1_TOP_REJECTED: [TopRejectedInstance; 5] = [
    TopRejectedInstance {
        domain: "freespeechextremist.com",
        rejects: 97,
        users: 1_800,
        posts: 1_130_000,
        toxicity: Some(0.26),
        profanity: Some(0.22),
        sexually_explicit: Some(0.16),
    },
    TopRejectedInstance {
        domain: "kiwifarms.cc",
        rejects: 86,
        users: 6_800,
        posts: 391_000,
        toxicity: Some(0.24),
        profanity: Some(0.19),
        sexually_explicit: Some(0.16),
    },
    TopRejectedInstance {
        domain: "spinster.xyz",
        rejects: 65,
        users: 17_900,
        posts: 1_340_000,
        toxicity: None,
        profanity: None,
        sexually_explicit: None,
    },
    TopRejectedInstance {
        domain: "neckbeard.xyz",
        rejects: 61,
        users: 15_100,
        posts: 816_000,
        toxicity: Some(0.13),
        profanity: Some(0.11),
        sexually_explicit: Some(0.11),
    },
    TopRejectedInstance {
        domain: "poa.st",
        rejects: 51,
        users: 5_100,
        posts: 344_000,
        toxicity: Some(0.27),
        profanity: Some(0.25),
        sexually_explicit: Some(0.18),
    },
];

/// §4.2: spinster.xyz's own outgoing rejects (the only top-10 instance
/// rejecting more than 2 others).
pub const SPINSTER_OUTGOING_REJECTS: u32 = 45;

/// §4.2: share of rejected Pleroma instances the authors could annotate.
pub const ANNOTATABLE_SHARE: f64 = 0.884;

/// §4.2: of annotatable rejected instances, share labelled toxic /
/// sexually-explicit / profane (vs 9.4% "general").
pub const HARMFUL_CATEGORY_SHARE: f64 = 0.906;

/// §4.2: rejected Pleroma instances that were manually annotated.
pub const ANNOTATED_REJECTED_PLEROMA: u32 = 92;

/// §5: share of rejected Pleroma instances with post data.
pub const REJECTED_WITH_POSTS_SHARE: f64 = 0.619;

/// §5: share of those that are single-user instances (filtered out).
pub const SINGLE_USER_SHARE: f64 = 0.264;

/// §5: users with publicly accessible content on multi-user rejected
/// Pleroma instances.
pub const REJECTED_USERS_WITH_CONTENT: u32 = 1_620;

/// §5: their posts.
pub const REJECTED_USERS_POSTS: u32 = 59_300;

/// §5: share of users on rejected instances with an average score ≥ 0.8 in
/// at least one attribute (the harmful minority).
pub const HARMFUL_USER_SHARE: f64 = 0.042;

/// §5: the headline collateral-damage figure — share of users on rejected
/// instances with *no* harmful posts.
pub const NON_HARMFUL_USER_SHARE: f64 = 0.958;

/// §5: harmful-to-non-harmful post ratio at threshold 0.8 (1:11).
pub const HARMFUL_POST_RATIO: f64 = 1.0 / 12.0;

/// §5: of harmful users, attribute breakdown (overlapping).
pub mod harmful_user_attributes {
    /// Share classified toxic.
    pub const TOXIC: f64 = 0.697;
    /// Share classified profane.
    pub const PROFANE: f64 = 0.576;
    /// Share classified sexually explicit.
    pub const SEXUALLY_EXPLICIT: f64 = 0.439;
}

/// Table 2: share of *non-harmful* users at each Perspective threshold.
pub const TABLE2_THRESHOLDS: [f64; 5] = [0.5, 0.6, 0.7, 0.8, 0.9];

/// Table 2: non-harmful percentages corresponding to
/// [`TABLE2_THRESHOLDS`].
pub const TABLE2_NON_HARMFUL: [f64; 5] = [0.864, 0.918, 0.941, 0.958, 0.973];

/// §3/§5: Perspective score threshold for labelling a post harmful.
pub const HARMFUL_THRESHOLD: f64 = 0.8;

/// Table 3: per-policy instance and user counts (the built-in policies the
/// appendix tabulates). Used to calibrate policy assignment and to print
/// the Table 3 reference column.
pub struct PolicyPrevalence {
    /// Display name of the policy.
    pub name: &'static str,
    /// Instances enabling it.
    pub instances: u32,
    /// Users on those instances.
    pub users: u32,
}

/// Table 3 rows, in the paper's order.
pub const TABLE3_PREVALENCE: [PolicyPrevalence; 21] = [
    PolicyPrevalence {
        name: "ObjectAgePolicy",
        instances: 869,
        users: 57_854,
    },
    PolicyPrevalence {
        name: "TagPolicy",
        instances: 429,
        users: 38_067,
    },
    PolicyPrevalence {
        name: "SimplePolicy",
        instances: 330,
        users: 46_691,
    },
    PolicyPrevalence {
        name: "NoOpPolicy",
        instances: 176,
        users: 6_443,
    },
    PolicyPrevalence {
        name: "HellthreadPolicy",
        instances: 87,
        users: 14_401,
    },
    PolicyPrevalence {
        name: "StealEmojiPolicy",
        instances: 81,
        users: 7_003,
    },
    PolicyPrevalence {
        name: "HashtagPolicy",
        instances: 62,
        users: 10_933,
    },
    PolicyPrevalence {
        name: "AntiFollowbotPolicy",
        instances: 51,
        users: 6_918,
    },
    PolicyPrevalence {
        name: "MediaProxyWarmingPolicy",
        instances: 46,
        users: 9_851,
    },
    PolicyPrevalence {
        name: "KeywordPolicy",
        instances: 42,
        users: 22_428,
    },
    PolicyPrevalence {
        name: "AntiLinkSpamPolicy",
        instances: 32,
        users: 7_347,
    },
    PolicyPrevalence {
        name: "ForceBotUnlistedPolicy",
        instances: 23,
        users: 6_746,
    },
    PolicyPrevalence {
        name: "EnsureRePrepended",
        instances: 18,
        users: 247,
    },
    PolicyPrevalence {
        name: "ActivityExpirationPolicy",
        instances: 11,
        users: 1_420,
    },
    PolicyPrevalence {
        name: "SubchainPolicy",
        instances: 8,
        users: 81,
    },
    PolicyPrevalence {
        name: "MentionPolicy",
        instances: 6,
        users: 1_149,
    },
    PolicyPrevalence {
        name: "VocabularyPolicy",
        instances: 5,
        users: 121,
    },
    PolicyPrevalence {
        name: "AntiHellthreadPolicy",
        instances: 4,
        users: 2_106,
    },
    PolicyPrevalence {
        name: "RejectNonPublic",
        instances: 3,
        users: 1_101,
    },
    PolicyPrevalence {
        name: "FollowBotPolicy",
        instances: 2,
        users: 281,
    },
    PolicyPrevalence {
        name: "DropPolicy",
        instances: 1,
        users: 1_098,
    },
];

/// Figure 2 (read from the plot): number of instances *targeted by* each
/// SimplePolicy action, split Pleroma/non-Pleroma, plus users on the
/// targeted Pleroma instances.
pub struct ActionTargeting {
    /// Figure label of the action.
    pub action: &'static str,
    /// Targeted Pleroma instances.
    pub targeted_pleroma: u32,
    /// Targeted non-Pleroma instances.
    pub targeted_non_pleroma: u32,
    /// Instances applying the action (Figure 3).
    pub targeting_instances: u32,
}

/// Figures 2/3 calibration rows (figure-read approximations; the exact
/// values are not tabulated in the paper).
pub const FIG23_ACTIONS: [ActionTargeting; 10] = [
    ActionTargeting {
        action: "reject",
        targeted_pleroma: 202,
        targeted_non_pleroma: 998,
        targeting_instances: 241,
    },
    ActionTargeting {
        action: "fed_timeline_rem",
        targeted_pleroma: 145,
        targeted_non_pleroma: 755,
        targeting_instances: 160,
    },
    ActionTargeting {
        action: "accept",
        targeted_pleroma: 110,
        targeted_non_pleroma: 590,
        targeting_instances: 90,
    },
    ActionTargeting {
        action: "media_removal",
        targeted_pleroma: 80,
        targeted_non_pleroma: 370,
        targeting_instances: 70,
    },
    ActionTargeting {
        action: "banner_removal",
        targeted_pleroma: 60,
        targeted_non_pleroma: 290,
        targeting_instances: 35,
    },
    ActionTargeting {
        action: "avatar_removal",
        targeted_pleroma: 50,
        targeted_non_pleroma: 250,
        targeting_instances: 55,
    },
    ActionTargeting {
        action: "nsfw",
        targeted_pleroma: 45,
        targeted_non_pleroma: 205,
        targeting_instances: 40,
    },
    ActionTargeting {
        action: "reject_deletes",
        targeted_pleroma: 30,
        targeted_non_pleroma: 120,
        targeting_instances: 50,
    },
    ActionTargeting {
        action: "report_removal",
        targeted_pleroma: 20,
        targeted_non_pleroma: 80,
        targeting_instances: 25,
    },
    ActionTargeting {
        action: "followers_only",
        targeted_pleroma: 10,
        targeted_non_pleroma: 40,
        targeting_instances: 60,
    },
];

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn crawl_failures_sum_to_236() {
        assert_eq!(crawl_failures::TOTAL, 236);
        assert_eq!(CRAWLED_INSTANCES + crawl_failures::TOTAL, PLEROMA_INSTANCES);
    }

    #[test]
    fn reconciled_timeline_accounting() {
        assert_eq!(
            INSTANCES_WITH_POSTS + INSTANCES_NO_POSTS + INSTANCES_TIMELINE_UNREACHABLE,
            CRAWLED_INSTANCES
        );
    }

    #[test]
    fn rejected_instances_split() {
        assert_eq!(
            REJECTED_PLEROMA_INSTANCES + REJECTED_NON_PLEROMA_INSTANCES,
            REJECTED_INSTANCES_TOTAL
        );
        // 202 / 1298 ≈ 15.5%
        let share = REJECTED_PLEROMA_INSTANCES as f64 / CRAWLED_INSTANCES as f64;
        assert!((share - REJECTED_PLEROMA_SHARE).abs() < 0.002);
    }

    #[test]
    fn table2_is_monotone() {
        for w in TABLE2_NON_HARMFUL.windows(2) {
            assert!(w[0] < w[1], "higher threshold ⇒ more users non-harmful");
        }
        assert!((TABLE2_NON_HARMFUL[3] - NON_HARMFUL_USER_SHARE).abs() < 1e-9);
    }

    #[test]
    fn harmful_shares_complementary() {
        assert!((HARMFUL_USER_SHARE + NON_HARMFUL_USER_SHARE - 1.0).abs() < 1e-9);
    }

    #[test]
    fn table3_ordering_is_descending_by_instances() {
        for w in TABLE3_PREVALENCE.windows(2) {
            assert!(w[0].instances >= w[1].instances);
        }
    }

    #[test]
    fn table3_top_policy_is_object_age_at_67_percent() {
        let top = &TABLE3_PREVALENCE[0];
        assert_eq!(top.name, "ObjectAgePolicy");
        let frac = top.instances as f64 / CRAWLED_INSTANCES as f64;
        assert!((frac - 0.669).abs() < 0.001, "§4.1: 66.9% of instances");
    }

    #[test]
    fn fig23_reject_row_matches_section_4_2() {
        let reject = &FIG23_ACTIONS[0];
        assert_eq!(reject.action, "reject");
        assert_eq!(
            reject.targeted_pleroma + reject.targeted_non_pleroma,
            REJECTED_INSTANCES_TOTAL
        );
        // 73% of the 330 SimplePolicy instances apply reject → ~241.
        assert_eq!(
            reject.targeting_instances,
            (330.0_f64 * SIMPLEPOLICY_REJECT_SHARE).round() as u32
        );
    }

    #[test]
    fn table1_is_sorted_by_rejects() {
        for w in TABLE1_TOP_REJECTED.windows(2) {
            assert!(w[0].rejects >= w[1].rejects);
        }
        assert_eq!(TABLE1_TOP_REJECTED[0].domain, "freespeechextremist.com");
    }
}
