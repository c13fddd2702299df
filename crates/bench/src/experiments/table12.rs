//! Table XII: minimum PageRank iterations needed to amortize each
//! technique's reordering time.

use lgr_analytics::apps::AppId;
use lgr_engine::{AppSpec, DatasetSpec, Job, Session, TechniqueSpec};

use crate::TextTable;

/// Regenerates Table XII.
pub fn run(h: &Session) -> String {
    let techs = h.main_eval();
    let mut apps = h.selected_apps(&[AppSpec::new(AppId::Pr)]);
    let datasets = h.selected_datasets(&super::fig10::datasets());
    if techs.is_empty() || apps.is_empty() || datasets.is_empty() {
        return super::skipped("Table XII");
    }
    // Use the selected spec so `--apps pr:iters=...` knobs apply.
    let pr = apps.remove(0);
    let labels: Vec<String> = techs.iter().map(TechniqueSpec::label).collect();
    let mut header = vec!["dataset"];
    header.extend(labels.iter().map(String::as_str));
    let mut t = TextTable::new(
        "Table XII: minimum PR iterations to amortize reordering time",
        header,
    );
    let per_iter = |ds: &DatasetSpec, tech: Option<&TechniqueSpec>| -> f64 {
        let mut job = Job::new(pr.clone(), ds.clone());
        if let Some(spec) = tech {
            job = job.with_technique(spec.clone());
        }
        let (work, _) = h.config().work(&pr);
        h.run(&job).cycles() as f64 / work.iters.max(1) as f64
    };
    for ds in &datasets {
        let base = per_iter(ds, None);
        let mut row = vec![ds.label()];
        for tech in &techs {
            let with = per_iter(ds, Some(tech));
            let saving = base - with;
            let reorder = h.dataset_reorder(ds, tech, AppId::Pr.reorder_degree());
            let reorder_cycles = h.wall_to_cycles(ds, reorder.elapsed) as f64;
            row.push(if saving <= 0.0 {
                "never".to_owned()
            } else {
                format!("{:.1}", reorder_cycles / saving)
            });
        }
        t.row(row);
    }
    t.note("paper: DBG amortizes in 1.9-4.4 iterations, fastest of all techniques; Gorder needs 112-1359");
    t.to_string()
}
