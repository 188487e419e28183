//! `fediscope report FILE SECTION`: the paper's tables and figures,
//! printed from a saved dataset next to the paper's values.

use fediscope::analysis::{ablation, figures, headline, tables};
use fediscope::core::paper;
use fediscope::prelude::*;

/// Prints one section of the report.
type Printer = fn(&Dataset);

/// Every report section with the function that prints it, in usage
/// order. The usage text and the dispatch both read this list.
pub const SECTIONS: &[(&str, Printer)] = &[
    ("census", census),
    ("headline", headline),
    ("table1", table1),
    ("table2", table2),
    ("table3", table3),
    ("fig1", fig1),
    ("fig2", fig2),
    ("fig3", fig3),
    ("fig4", fig4),
    ("fig5", fig5),
    ("fig6", fig6),
    ("fig7", fig7),
    ("curate", curate),
    ("ablation", ablation),
    ("graph", graph),
];

fn pct(share: f64) -> String {
    format!("{:.1}%", share * 100.0)
}

/// A score to `digits` decimals, `NA` where the instance has none.
fn score(v: Option<f64>, digits: usize) -> String {
    v.map_or("NA".into(), |x| format!("{x:.digits$}"))
}

/// §3 crawl census: discovery, the failure taxonomy, users and posts.
fn census(dataset: &Dataset) {
    let rows = headline::crawl_census(dataset);
    println!("{}", render_comparisons("Crawl census", &rows));
    println!("collected posts: {}", dataset.collected_posts());
    println!("reported posts:  {}", dataset.total_posts());
}

/// §4–§5 headline statistics (H1–H4).
fn headline(dataset: &Dataset) {
    let ann = HarmAnnotations::annotate(dataset);
    for (title, rows) in [
        ("H1: policy impact (§4.1)", headline::policy_impact(dataset)),
        (
            "H2: the reject graph (§4.2)",
            headline::reject_graph(dataset, &ann),
        ),
        (
            "H3: instance annotation (§4.2)",
            headline::annotation(dataset, &ann),
        ),
        (
            "H4: collateral damage (§5)",
            headline::collateral_damage(dataset, &ann),
        ),
    ] {
        println!("{}", render_comparisons(title, &rows));
    }
}

/// Table 1: the five most rejected Pleroma instances, measured and as
/// the paper reports them.
fn table1(dataset: &Dataset) {
    let ann = HarmAnnotations::annotate(dataset);
    let headers = [
        "instance", "rejects", "users", "posts", "tox", "prof", "sexual",
    ];
    let measured: Vec<Vec<String>> = tables::table1_top_rejected(dataset, &ann)
        .iter()
        .map(|r| {
            vec![
                r.domain.to_string(),
                r.rejects.to_string(),
                r.users.to_string(),
                r.posts.to_string(),
                score(r.toxicity, 2),
                score(r.profanity, 2),
                score(r.sexually_explicit, 2),
            ]
        })
        .collect();
    println!(
        "{}",
        render_table("Table 1 (measured)", &headers, &measured)
    );
    let reference: Vec<Vec<String>> = paper::TABLE1_TOP_REJECTED
        .iter()
        .map(|r| {
            vec![
                r.domain.to_string(),
                r.rejects.to_string(),
                r.users.to_string(),
                r.posts.to_string(),
                score(r.toxicity, 2),
                score(r.profanity, 2),
                score(r.sexually_explicit, 2),
            ]
        })
        .collect();
    println!("{}", render_table("Table 1 (paper)", &headers, &reference));
}

/// Table 2: the non-harmful user share on rejected instances across
/// Perspective thresholds.
fn table2(dataset: &Dataset) {
    let ann = HarmAnnotations::annotate(dataset);
    let rows = tables::table2_threshold_sweep(dataset, &ann);
    let table: Vec<Vec<String>> = rows
        .iter()
        .zip(paper::TABLE2_NON_HARMFUL)
        .map(|(r, paper_share)| {
            vec![
                format!("{:.1}", r.threshold),
                pct(r.non_harmful_share),
                pct(paper_share),
            ]
        })
        .collect();
    println!(
        "{}",
        render_table(
            "Table 2",
            &["threshold", "non-harmful (measured)", "non-harmful (paper)"],
            &table
        )
    );
    println!("users evaluated: {}", rows.first().map_or(0, |r| r.users));
}

/// Table 3 (appendix): the in-built policy catalog with prevalence.
fn table3(dataset: &Dataset) {
    let or_blank = |v: Option<u32>| v.map_or(String::new(), |v| v.to_string());
    let table: Vec<Vec<String>> = tables::table3_policy_catalog(dataset)
        .iter()
        .map(|r| {
            vec![
                r.name.clone(),
                r.instances.to_string(),
                or_blank(r.paper_instances),
                r.users.to_string(),
                or_blank(r.paper_users),
            ]
        })
        .collect();
    println!(
        "{}",
        render_table(
            "Table 3",
            &["policy", "instances", "(paper)", "users", "(paper)"],
            &table
        )
    );
}

/// Figure 1: the top 15 policy types by instance share.
fn fig1(dataset: &Dataset) {
    let table: Vec<Vec<String>> = figures::fig1_policy_prevalence(dataset)
        .iter()
        .map(|r| {
            vec![
                r.name.clone(),
                r.instances.to_string(),
                pct(r.instance_share),
                r.users.to_string(),
                pct(r.user_share),
            ]
        })
        .collect();
    println!(
        "{}",
        render_table(
            "Figure 1 (top 15 + Others)",
            &["policy", "instances", "inst%", "users", "users%"],
            &table
        )
    );
    println!("paper: ObjectAgePolicy 66.9% of instances, TagPolicy 33%, SimplePolicy 25.4%");
}

/// Figure 2: instances targeted by each SimplePolicy action.
fn fig2(dataset: &Dataset) {
    let table: Vec<Vec<String>> = figures::fig2_targeted_by_action(dataset)
        .iter()
        .map(|r| {
            let paper_row = paper::FIG23_ACTIONS.iter().find(|a| a.action == r.action);
            vec![
                r.action.to_string(),
                r.targeted_pleroma.to_string(),
                paper_row.map_or(String::new(), |p| p.targeted_pleroma.to_string()),
                r.targeted_non_pleroma.to_string(),
                paper_row.map_or(String::new(), |p| p.targeted_non_pleroma.to_string()),
                r.users_on_targeted.to_string(),
            ]
        })
        .collect();
    println!(
        "{}",
        render_table(
            "Figure 2",
            &[
                "action",
                "pleroma",
                "(paper)",
                "non-pleroma",
                "(paper)",
                "users on targeted"
            ],
            &table
        )
    );
}

/// Figure 3: instances applying each SimplePolicy action.
fn fig3(dataset: &Dataset) {
    let table: Vec<Vec<String>> = figures::fig3_targeting_by_action(dataset)
        .iter()
        .map(|r| {
            let paper_row = paper::FIG23_ACTIONS.iter().find(|a| a.action == r.action);
            vec![
                r.action.to_string(),
                r.targeting_instances.to_string(),
                paper_row.map_or(String::new(), |p| p.targeting_instances.to_string()),
                r.users_on_targeted.to_string(),
            ]
        })
        .collect();
    println!(
        "{}",
        render_table(
            "Figure 3",
            &["action", "targeting", "(paper)", "users on targeted"],
            &table
        )
    );
    println!("paper: 73% of SimplePolicy instances apply reject");
}

/// Figure 4: rejected instances' reject counts and mean Perspective
/// scores, the top 30 scored plus the score range.
fn fig4(dataset: &Dataset) {
    let ann = HarmAnnotations::annotate(dataset);
    let rows = figures::rejected_instances(dataset, &ann);
    let table: Vec<Vec<String>> = rows
        .iter()
        .filter(|r| r.toxicity.is_some())
        .take(30)
        .map(|r| {
            vec![
                r.domain.to_string(),
                r.rejects.to_string(),
                score(r.toxicity, 3),
                score(r.profanity, 3),
                score(r.sexually_explicit, 3),
            ]
        })
        .collect();
    println!(
        "{}",
        render_table(
            "Figure 4 (top 30 scored rejected Pleroma instances)",
            &["instance", "rejects", "toxicity", "profanity", "sexual"],
            &table
        )
    );
    let scored: Vec<f64> = rows.iter().filter_map(|r| r.toxicity).collect();
    println!(
        "scored instances: {}; toxicity range {:.3}..{:.3} (paper plots ~0.0..0.6)",
        scored.len(),
        scored.iter().copied().fold(f64::INFINITY, f64::min),
        scored.iter().copied().fold(0.0, f64::max),
    );
}

/// Figure 5: rejected instances with their users and reject counts.
fn fig5(dataset: &Dataset) {
    let ann = HarmAnnotations::annotate(dataset);
    let rows = figures::rejected_instances(dataset, &ann);
    let table: Vec<Vec<String>> = rows
        .iter()
        .take(25)
        .map(|r| {
            vec![
                r.domain.to_string(),
                r.users.to_string(),
                r.rejects.to_string(),
            ]
        })
        .collect();
    println!(
        "{}",
        render_table(
            "Figure 5 (head of the distribution)",
            &["instance", "users", "rejects"],
            &table
        )
    );
    println!(
        "rejected Pleroma instances: {} (paper: {})",
        rows.len(),
        paper::REJECTED_PLEROMA_INSTANCES
    );
    let max_rejects = rows.first().map_or(0, |r| r.rejects);
    println!("max rejects: {max_rejects} (paper: 97, freespeechextremist.com)");
}

/// Figure 6: toxic / profane / sexual / non-harmful users on each
/// rejected instance.
fn fig6(dataset: &Dataset) {
    let ann = HarmAnnotations::annotate(dataset);
    let rows = figures::fig6_user_harm(dataset, &ann);
    let table: Vec<Vec<String>> = rows
        .iter()
        .take(30)
        .map(|r| {
            vec![
                r.domain.to_string(),
                r.toxic.to_string(),
                r.profane.to_string(),
                r.sexually_explicit.to_string(),
                r.non_harmful.to_string(),
            ]
        })
        .collect();
    println!(
        "{}",
        render_table(
            "Figure 6 (top 30 by harmful users)",
            &["instance", "toxic", "profane", "sexual", "non-harmful"],
            &table
        )
    );
    let harmful: usize = rows
        .iter()
        .map(|r| r.toxic.max(r.profane).max(r.sexually_explicit))
        .sum();
    let non_harmful: usize = rows.iter().map(|r| r.non_harmful).sum();
    println!(
        "instances plotted: {}; non-harmful users dominate every bar ({non_harmful} vs ≤{harmful} harmful) — the paper's collateral-damage picture",
        rows.len()
    );
}

/// Figure 7: the whole policy spectrum with instance and user shares.
fn fig7(dataset: &Dataset) {
    let rows = figures::policy_spectrum(dataset);
    let table: Vec<Vec<String>> = rows
        .iter()
        .map(|r| {
            vec![
                r.name.clone(),
                r.instances.to_string(),
                format!("{:.2}%", r.instance_share * 100.0),
                format!("{:.2}%", r.user_share * 100.0),
            ]
        })
        .collect();
    println!(
        "{}",
        render_table(
            "Figure 7 (full spectrum)",
            &["policy", "instances", "inst%", "users%"],
            &table
        )
    );
    println!(
        "distinct policy types observed: {} (paper: {})",
        rows.len(),
        paper::UNIQUE_POLICY_TYPES
    );
}

/// §7 curated blocklists built from the annotations.
fn curate(dataset: &Dataset) {
    use fediscope::analysis::curation;
    let ann = HarmAnnotations::annotate(dataset);
    let lists = curation::curate(dataset, &ann, &curation::CurationConfig::default());
    for list in [&lists.no_hate, &lists.no_porn, &lists.no_profanity] {
        println!("{} ({:?}):", list.name, list.action);
        for d in &list.entries {
            println!("  {d}");
        }
    }
}

/// §7 strawman ablation: collateral damage and harm stopped per
/// moderation strategy.
fn ablation(dataset: &Dataset) {
    let ann = HarmAnnotations::annotate(dataset);
    let table: Vec<Vec<String>> = ablation::solutions(dataset, &ann)
        .iter()
        .map(|r| {
            vec![
                r.strategy.name().to_string(),
                pct(r.innocent_blocked),
                pct(r.innocent_degraded),
                pct(r.harmful_blocked),
                pct(r.harmful_degraded),
            ]
        })
        .collect();
    println!(
        "{}",
        render_table(
            "Strategy ablation on the §5 population",
            &[
                "strategy",
                "innocent blocked",
                "innocent degraded",
                "harmful blocked",
                "harmful degraded"
            ],
            &table
        )
    );
    println!("paper's argument: reject blocks ~95.8% innocent users; per-user");
    println!("strategies cut innocent blocking to ~0% while still hitting the");
    println!("4.2% of harmful users.");
}

/// §6 federation-graph damage: the audience and peers a rejected
/// instance loses.
fn graph(dataset: &Dataset) {
    let table: Vec<Vec<String>> = ablation::federation_graph(dataset, 15)
        .iter()
        .map(|r| {
            vec![
                r.domain.clone(),
                r.rejects.to_string(),
                r.audience_lost.to_string(),
                pct(r.audience_lost_share),
                pct(r.peer_loss_share),
            ]
        })
        .collect();
    println!(
        "{}",
        render_table(
            "Top rejected instances: audience and peer loss",
            &[
                "instance",
                "rejects",
                "audience lost",
                "audience%",
                "peers lost%"
            ],
            &table
        )
    );
    println!("(§6: \"if an instance relies on another to reach a segment of the");
    println!("social graph [...] it could be cut off from the wider network\")");
}
