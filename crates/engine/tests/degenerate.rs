//! Degenerate-query fuzzing: blank images, single-pixel charts, constant /
//! NaN-laced / infinite series — through `Engine::search` under every
//! `IndexStrategy` — must produce "an error or empty-ish hits", never a
//! panic. Interactive discovery loops (DataScout-style) hammer serving
//! with exactly this kind of adversarial input, and a single
//! `partial_cmp().unwrap()` used to abort the whole process.

use lcdd_chart::{render, ChartStyle, Rgb, RgbImage};
use lcdd_engine::{
    Engine, EngineBuilder, EngineError, IndexStrategy, Query, SearchOptions, ServingEngine,
};
use lcdd_fcm::{FcmConfig, FcmModel};
use lcdd_table::series::{DataSeries, UnderlyingData};
use lcdd_table::{Column, Table};
use lcdd_testkit::{corpus, tiny_engine, CorpusSpec};
use lcdd_vision::{Lcseg, LcsegConfig, SegExample, VisualElementExtractor};

/// A tiny trained extractor so `Query::Chart` paths run end-to-end
/// (the oracle extractor rejects raw images by design).
fn trained_extractor() -> VisualElementExtractor {
    let data = UnderlyingData {
        series: vec![DataSeries::new(
            "s",
            (0..60).map(|i| (i as f64 / 7.0).sin() * 10.0).collect(),
        )],
    };
    let chart = render(&data, &ChartStyle::default());
    let examples = vec![SegExample { chart }];
    let cfg = LcsegConfig {
        pixels_per_example: 32,
        epochs: 1,
        ..Default::default()
    };
    let (model, _acc) = Lcseg::train(&examples, &cfg);
    VisualElementExtractor::trained(model)
}

fn engine_with_extractor() -> Engine {
    tiny_engine(corpus(&CorpusSpec::sized(0xde9e, 6)), 2).with_extractor(trained_extractor())
}

/// Every degenerate series payload the suite probes.
fn degenerate_series() -> Vec<(&'static str, Vec<Vec<f64>>)> {
    vec![
        ("no series at all", vec![]),
        ("one empty series", vec![vec![]]),
        ("single point", vec![vec![1.0]]),
        ("two identical points", vec![vec![3.0, 3.0]]),
        ("constant series", vec![vec![5.0; 64]]),
        ("constant zero", vec![vec![0.0; 64]]),
        ("all NaN", vec![vec![f64::NAN; 64]]),
        (
            "NaN-laced ramp",
            vec![(0..64)
                .map(|i| if i % 7 == 3 { f64::NAN } else { i as f64 })
                .collect()],
        ),
        ("positive infinity", vec![vec![f64::INFINITY; 32]]),
        (
            "mixed infinities and NaN",
            vec![vec![
                f64::NEG_INFINITY,
                1.0,
                f64::INFINITY,
                f64::NAN,
                0.0,
                -1.0,
            ]],
        ),
        (
            "huge magnitudes",
            vec![(0..32).map(|i| (i as f64) * 1e307).collect()],
        ),
        ("tiny denormals", vec![vec![f64::MIN_POSITIVE; 32]]),
        ("constant plus empty sibling", vec![vec![2.0; 40], vec![]]),
        (
            "NaN line next to a real line",
            vec![vec![f64::NAN; 50], (0..50).map(|i| i as f64).collect()],
        ),
    ]
}

/// Degenerate raw chart images for the trained-extractor path.
fn degenerate_images() -> Vec<(&'static str, RgbImage)> {
    let mut noisy = RgbImage::new(64, 48, Rgb(255, 255, 255));
    for i in 0..48 {
        noisy.set(
            (i * 7 % 64) as isize,
            (i * 5 % 48) as isize,
            Rgb((i * 37) as u8, (i * 11) as u8, (i * 3) as u8),
        );
    }
    vec![
        (
            "blank white image",
            RgbImage::new(96, 64, Rgb(255, 255, 255)),
        ),
        ("all black image", RgbImage::new(64, 64, Rgb(0, 0, 0))),
        ("single pixel image", RgbImage::new(1, 1, Rgb(0, 0, 0))),
        ("one-row image", RgbImage::new(64, 1, Rgb(10, 10, 10))),
        ("one-column image", RgbImage::new(1, 64, Rgb(10, 10, 10))),
        ("scattered noise", noisy),
    ]
}

/// The core assertion: a response is either a well-formed `Ok` (hits bound
/// by `k`, indices inside the corpus, no NaN scores) or a typed error —
/// reaching this function at all means nothing panicked.
fn assert_sane(context: &str, result: Result<lcdd_engine::SearchResponse, EngineError>, k: usize) {
    match result {
        Ok(resp) => {
            assert!(
                resp.hits.len() <= k,
                "{context}: {} hits for k={k}",
                resp.hits.len()
            );
            for hit in &resp.hits {
                assert!(hit.index < resp.counts.total, "{context}: hit out of range");
                assert!(!hit.score.is_nan(), "{context}: NaN score surfaced");
            }
        }
        Err(EngineError::EmptyQuery | EngineError::UnsupportedQuery(_)) => {}
        Err(e) => panic!("{context}: unexpected error class: {e:?}"),
    }
}

#[test]
fn degenerate_series_never_panic_under_any_strategy() {
    let engine = tiny_engine(corpus(&CorpusSpec::sized(0xdead, 6)), 2);
    for (label, series) in degenerate_series() {
        for strategy in IndexStrategy::ALL {
            let opts = SearchOptions::top_k(4).with_strategy(strategy);
            let result = engine.search(&Query::from_series(series.clone()), &opts);
            assert_sane(&format!("series '{label}' under {strategy:?}"), result, 4);
        }
    }
}

#[test]
fn degenerate_images_never_panic_under_any_strategy() {
    let engine = engine_with_extractor();
    for (label, image) in degenerate_images() {
        for strategy in IndexStrategy::ALL {
            let opts = SearchOptions::top_k(3).with_strategy(strategy);
            let result = engine.search(&Query::Chart(image.clone()), &opts);
            assert_sane(&format!("image '{label}' under {strategy:?}"), result, 3);
        }
    }
}

#[test]
fn oracle_engine_rejects_raw_images_without_panicking() {
    let engine = tiny_engine(corpus(&CorpusSpec::sized(0x0c1e, 4)), 1);
    let img = RgbImage::new(32, 32, Rgb(255, 255, 255));
    let result = engine.search(&Query::Chart(img), &SearchOptions::default());
    assert!(
        matches!(result, Err(EngineError::UnsupportedQuery(_))),
        "oracle + raw image must be UnsupportedQuery, got {result:?}"
    );
}

#[test]
fn degenerate_extracted_charts_never_panic() {
    use lcdd_chart::GreyImage;
    use lcdd_vision::{ExtractedChart, ExtractedLine};

    let engine = tiny_engine(corpus(&CorpusSpec::sized(0xec7a, 5)), 2);
    let cases: Vec<(&str, ExtractedChart)> = vec![
        (
            "no lines",
            ExtractedChart {
                lines: vec![],
                y_range: None,
                ticks: None,
            },
        ),
        (
            "empty line image and values",
            ExtractedChart {
                lines: vec![ExtractedLine {
                    image: GreyImage::new(0, 0, 0.0),
                    trace_rows: vec![],
                    values: vec![],
                }],
                y_range: Some((0.0, 1.0)),
                ticks: None,
            },
        ),
        (
            "NaN y_range",
            ExtractedChart {
                lines: vec![ExtractedLine {
                    image: GreyImage::new(16, 16, 1.0),
                    trace_rows: vec![4.0; 16],
                    values: vec![f64::NAN; 16],
                }],
                y_range: Some((f64::NAN, f64::NAN)),
                ticks: None,
            },
        ),
        (
            "inverted zero-span y_range",
            ExtractedChart {
                lines: vec![ExtractedLine {
                    image: GreyImage::new(16, 8, 0.5),
                    trace_rows: vec![2.0; 16],
                    values: vec![7.0; 16],
                }],
                y_range: Some((5.0, 5.0)),
                ticks: None,
            },
        ),
    ];
    for (label, extracted) in cases {
        for strategy in IndexStrategy::ALL {
            let opts = SearchOptions::top_k(3).with_strategy(strategy);
            let result = engine.search(&Query::Extracted(extracted.clone()), &opts);
            assert_sane(
                &format!("extracted '{label}' under {strategy:?}"),
                result,
                3,
            );
        }
    }
}

/// Degenerate *corpus* tables (constant, NaN-laced, empty, huge) must
/// ingest and serve without panicking, under live mutation too.
#[test]
fn degenerate_corpus_ingests_and_serves() {
    let weird_tables = vec![
        Table::new(0, "constant", vec![Column::new("c", vec![4.2; 80])]),
        Table::new(1, "all-nan", vec![Column::new("c", vec![f64::NAN; 80])]),
        Table::new(2, "no-columns", vec![]),
        Table::new(3, "empty-column", vec![Column::new("c", vec![])]),
        Table::new(
            4,
            "nan-laced",
            vec![Column::new(
                "c",
                (0..80)
                    .map(|i| if i % 5 == 0 { f64::NAN } else { i as f64 })
                    .collect(),
            )],
        ),
        Table::new(
            5,
            "huge",
            vec![Column::new(
                "c",
                (0..40).map(|i| i as f64 * 1e306).collect(),
            )],
        ),
        Table::new(
            6,
            "normal",
            vec![Column::new(
                "c",
                (0..80).map(|i| (i as f64 / 6.0).sin()).collect(),
            )],
        ),
    ];
    let engine = EngineBuilder::new(FcmModel::new(FcmConfig::tiny()))
        .shards(2)
        .ingest_tables(weird_tables.clone())
        .build()
        .expect("degenerate corpus must build");
    let serving = ServingEngine::new(engine);

    let probe = Query::from_series(vec![(0..80).map(|i| (i as f64 / 6.0).sin()).collect()]);
    for strategy in IndexStrategy::ALL {
        let opts = SearchOptions::top_k(7).with_strategy(strategy);
        assert_sane(
            &format!("probe over degenerate corpus under {strategy:?}"),
            serving.search(&probe, &opts),
            7,
        );
    }

    // Live mutation over the degenerate corpus: remove the weird tables,
    // re-insert them, compact, reshard — still no panics, still sane.
    serving.remove_tables(&[1, 2, 3]);
    serving.insert_tables(weird_tables[1..4].to_vec());
    serving.compact();
    serving.reshard(3).expect("reshard");
    for (label, series) in degenerate_series() {
        let result = serving.search(&Query::from_series(series), &SearchOptions::top_k(5));
        assert_sane(&format!("post-churn series '{label}'"), result, 5);
    }
}
