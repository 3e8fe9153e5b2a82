//! Diagnostic: train FCM on the benchmark, report per-epoch loss, then
//! evaluate on train-side queries vs test queries to separate
//! optimisation failures from generalisation gaps.
use lcdd_baselines::{DiscoveryMethod, QueryInput};
use lcdd_bench::{bench_config, fcm_config, fcm_train_config, Scale};
use lcdd_benchmark::{fcm_training_inputs, precision_at_k, FcmMethod};
use lcdd_fcm::{train_with_callback, FcmModel};
use lcdd_vision::VisualElementExtractor;

fn main() {
    let scale = Scale::from_env();
    let mut bcfg = bench_config(scale);
    if std::env::var("PROBE_ORACLE").is_ok() {
        bcfg.train_extractor = false;
    }
    let bench = lcdd_benchmark::build_benchmark(&bcfg);

    let mut model = FcmModel::new(fcm_config(scale));
    let examples = fcm_training_inputs(&bench, &model);
    eprintln!(
        "triplets: {}, tables: {}",
        examples.len(),
        bench.train_tables.len()
    );
    let mut tc = fcm_train_config(scale);
    tc.epochs = std::env::var("PROBE_EPOCHS")
        .ok()
        .and_then(|v| v.parse().ok())
        .unwrap_or(tc.epochs);
    if let Some(lr) = std::env::var("PROBE_LR").ok().and_then(|v| v.parse().ok()) {
        tc.lr = lr;
    }
    let report = train_with_callback(
        &mut model,
        &examples,
        &bench.train_tables,
        &tc,
        |e, loss, _| {
            eprintln!("epoch {e}: loss {loss:.4}");
            0.0
        },
    );
    eprintln!("grad norms: {:?}", report.epoch_grad_norms);
    for (e, c) in report.epoch_components.iter().enumerate() {
        eprintln!(
            "epoch {e}: bce {:.3} nce {:.3} cos+ {:.3} cos- {:.3}",
            c.0, c.1, c.2, c.3
        );
    }
    let mut method = FcmMethod::new(model);
    method.prepare(&bench.repo);

    // Test queries.
    let mut hits = 0.0;
    for q in &bench.queries {
        let ranked: Vec<usize> = method
            .rank(&q.input, &bench.repo, bench.k_rel)
            .into_iter()
            .map(|(i, _)| i)
            .collect();
        hits += precision_at_k(&ranked, &q.relevant, bench.k_rel);
    }
    println!(
        "test prec@{}: {:.3}",
        bench.k_rel,
        hits / bench.queries.len() as f64
    );

    // Train-side sanity: query = train chart; is its OWN table ranked top-10%?
    let mut top_hits = 0usize;
    let n_probe = 10.min(bench.train_triplets.len());
    for t in bench.train_triplets.iter().take(n_probe) {
        let extracted = match &bench.extractor {
            VisualElementExtractor::Oracle => bench.extractor.extract(&t.chart),
            VisualElementExtractor::Trained(_) => bench.extractor.extract_image(&t.chart.image),
        };
        let input = QueryInput {
            image: t.chart.image.clone(),
            extracted,
        };
        let ranked = method.rank(&input, &bench.repo, 20);
        // train table ti is repo entry ti (same order in builder).
        if ranked.iter().any(|&(i, _)| i == t.table_idx) {
            top_hits += 1;
        }
        let scores: Vec<f64> = ranked.iter().take(5).map(|&(_, s)| s).collect();
        eprintln!(
            "train probe table {}: top5 scores {:?} (hit={})",
            t.table_idx,
            scores,
            ranked.iter().any(|&(i, _)| i == t.table_idx)
        );
    }
    println!("train-source in top-20: {top_hits}/{n_probe}");
}
