//! The run's input check: a configuration field out of range, a selector
//! shaped unlike the target, or train and test sets that disagree is one
//! typed error from `NessaPipeline::run`, returned before any work (no
//! span, no device phase, no selection round). Values on the edge of a
//! rule still run.

use nessa_core::{run_policy, NessaConfig, NessaPipeline, PipelineError, Policy};
use nessa_data::{Dataset, SynthConfig};
use nessa_nn::models::{mlp, Network};
use nessa_select::SelectError;
use nessa_smartssd::TrafficStats;
use nessa_telemetry::TelemetrySettings;
use nessa_tensor::rng::Rng64;

const DIM: usize = 6;
const CLASSES: usize = 3;
const HIDDEN: usize = 12;

/// A direct write to one configuration field.
type Edit = fn(&mut NessaConfig);

/// What one case builds its pipeline from.
struct Inputs {
    cfg: NessaConfig,
    /// The input width of both networks.
    input_width: usize,
    selector_hidden: usize,
    test_dim: usize,
    test_classes: usize,
}

fn valid() -> Inputs {
    Inputs {
        cfg: NessaConfig::new(0.3, 2)
            .with_batch_size(16)
            .with_seed(3)
            .with_telemetry(TelemetrySettings::memory()),
        input_width: DIM,
        selector_hidden: HIDDEN,
        test_dim: DIM,
        test_classes: CLASSES,
    }
}

fn synth(dim: usize, classes: usize) -> (Dataset, Dataset) {
    SynthConfig {
        train: 90,
        test: 30,
        dim,
        classes,
        ..SynthConfig::default()
    }
    .generate()
}

fn model(rng: &mut Rng64) -> Network {
    mlp(&[DIM, HIDDEN, CLASSES], rng)
}

fn pipeline(inputs: Inputs) -> NessaPipeline {
    let (train, _) = synth(DIM, CLASSES);
    let (_, test) = synth(inputs.test_dim, inputs.test_classes);
    let mut rng = Rng64::new(0);
    let target = mlp(&[inputs.input_width, HIDDEN, CLASSES], &mut rng);
    let selector = mlp(
        &[inputs.input_width, inputs.selector_hidden, CLASSES],
        &mut rng,
    );
    NessaPipeline::new(inputs.cfg, target, selector, train, test)
}

/// One case per rule: the input that breaks it and the error it gives.
fn violations() -> Vec<(&'static str, Inputs, PipelineError)> {
    let config = |edit: Edit| {
        let mut inputs = valid();
        edit(&mut inputs.cfg);
        inputs
    };
    let rule = PipelineError::Config;
    let fraction = |f| PipelineError::Select(SelectError::BadFraction(f));
    vec![
        (
            "fraction 0",
            config(|c| c.subset_fraction = 0.0),
            fraction(0.0),
        ),
        (
            "fraction 1.5",
            config(|c| c.subset_fraction = 1.5),
            fraction(1.5),
        ),
        (
            "epochs 0",
            config(|c| c.epochs = 0),
            rule("need at least one epoch"),
        ),
        (
            "batch 0",
            config(|c| c.batch_size = 0),
            rule("batch size must be positive"),
        ),
        (
            "lr 0",
            config(|c| c.base_lr = 0.0),
            rule("base learning rate must be positive and finite"),
        ),
        (
            "lr inf",
            config(|c| c.base_lr = f32::INFINITY),
            rule("base learning rate must be positive and finite"),
        ),
        (
            "lr NaN",
            config(|c| c.base_lr = f32::NAN),
            rule("base learning rate must be positive and finite"),
        ),
        (
            "drop every 0",
            config(|c| c.biasing_drop_every = 0),
            rule("biasing_drop_every must be positive"),
        ),
        (
            "drop fraction 1",
            config(|c| c.biasing_drop_fraction = 1.0),
            rule("biasing_drop_fraction must be in [0, 1)"),
        ),
        (
            "drop fraction -0.1",
            config(|c| c.biasing_drop_fraction = -0.1),
            rule("biasing_drop_fraction must be in [0, 1)"),
        ),
        (
            "threshold -0.01",
            config(|c| c.sizing_threshold = -0.01),
            rule("sizing_threshold must be non-negative"),
        ),
        (
            "factor 1, sizing off",
            config(|c| c.sizing_factor = 1.0),
            rule("sizing_factor must be in (0, 1)"),
        ),
        (
            "factor 0",
            config(|c| c.sizing_factor = 0.0),
            rule("sizing_factor must be in (0, 1)"),
        ),
        (
            "min fraction 0",
            config(|c| c.sizing_min_fraction = 0.0),
            rule("sizing_min_fraction must be positive"),
        ),
        (
            "drives 0",
            config(|c| c.drives = 0),
            rule("a cluster needs at least one drive"),
        ),
        (
            "selector hidden width",
            Inputs {
                selector_hidden: HIDDEN + 4,
                ..valid()
            },
            rule("target and selector must share structure"),
        ),
        (
            // Both networks take 7-wide rows of 6-dim data; building the
            // pipeline must not run them.
            "network input width",
            Inputs {
                input_width: DIM + 1,
                ..valid()
            },
            rule("network input width differs from the feature dim"),
        ),
        (
            "test dim",
            Inputs {
                test_dim: DIM + 1,
                ..valid()
            },
            rule("train/test feature dims differ"),
        ),
        (
            "test classes",
            Inputs {
                test_classes: CLASSES + 1,
                ..valid()
            },
            rule("train/test classes differ"),
        ),
    ]
}

#[test]
fn every_bad_input_is_one_typed_error_before_any_work() {
    for (name, inputs, want) in violations() {
        let mut p = pipeline(inputs);
        assert_eq!(p.run().err(), Some(want), "{name}");
        let device = p.device();
        assert_eq!(device.elapsed_secs(), 0.0, "{name}: device time");
        assert_eq!(device.traffic(), TrafficStats::default(), "{name}: traffic");
        assert!(
            device
                .drives()
                .iter()
                .all(|d| d.trace().events().is_empty()),
            "{name}: device phases"
        );
        assert!(p.selection_history().is_empty(), "{name}: rounds");
        assert!(p.telemetry().spans().is_empty(), "{name}: spans");
    }
}

#[test]
fn values_on_the_edge_of_a_rule_still_run() {
    let cases: [(&str, Edit); 6] = [
        ("fraction 1", |c| c.subset_fraction = 1.0),
        ("select_every 0", |c| c.select_every = 0),
        ("threads 0", |c| c.threads = 0),
        ("drop fraction 0", |c| c.biasing_drop_fraction = 0.0),
        ("threshold 0", |c| c.sizing_threshold = 0.0),
        ("min fraction above the fraction", |c| {
            c.dynamic_sizing = true;
            c.sizing_min_fraction = 0.5;
        }),
    ];
    for (name, edit) in cases {
        let mut inputs = valid();
        edit(&mut inputs.cfg);
        let report = pipeline(inputs)
            .run()
            .unwrap_or_else(|e| panic!("{name}: {e}"));
        assert_eq!(report.epochs.len(), 2, "{name}");
    }
}

#[test]
fn run_policy_gets_the_same_check() {
    let (train, test) = synth(DIM, CLASSES);
    let run = |policy: &Policy, epochs, batch| {
        run_policy(policy, &train, &test, epochs, batch, 0, &model).err()
    };
    let random = Policy::Random { fraction: 0.3 };
    assert_eq!(
        run(&random, 0, 16),
        Some(PipelineError::Config("need at least one epoch"))
    );
    assert_eq!(
        run(&Policy::Nessa(valid().cfg), 2, 0),
        Some(PipelineError::Config("batch size must be positive"))
    );
}
