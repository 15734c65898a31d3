//! Pins the paper-scale epoch model bit for bit.
//!
//! Figure 4, the §4.3 speed-ups and §4.4's movement reduction all read
//! `nessa_core::timing`. These pins record every field of each policy's
//! epoch time for each Table-1 dataset at its Table-2 subset fraction, and
//! the mean data-movement reduction, as `f64::to_bits`. A change to how the
//! near-storage phases are sized, priced or composed that is meant to keep
//! the model's numbers must leave every pin passing.

use nessa::core::timing::{
    craig_cpu_epoch, goal_epoch, kcenters_cpu_epoch, mean_data_movement_reduction, nessa_epoch,
    nessa_overlapped_epoch, PolicyTiming, Workload,
};
use nessa::core::OverlapRecord;
use nessa::data::DatasetSpec;
use nessa::nn::cost::DeviceSpec;

/// Expected `(data_move_s, select_s, train_s)` bits of one policy.
type Bits = [u64; 3];

struct Pins {
    dataset: &'static str,
    goal: Bits,
    nessa: Bits,
    /// `(select side, train, hand-off)` of the overlapped epoch.
    overlapped: Bits,
    craig: Bits,
    kcenters: Bits,
}

const PINS: [Pins; 6] = [
    Pins {
        dataset: "CIFAR-10",
        goal: [0x3ff937a6f4de9bd4, 0x0000000000000000, 0x4001d35a28b68563],
        nessa: [0x3fbf7b60285ec3db, 0x3fa3fd86e339cc05, 0x3fe3f751cbaa9aef],
        overlapped: [0x3fc4ba1fdfe60eff, 0x3fe3f751cbaa9aef, 0x3f178f68be2f7b18],
        craig: [0x3ff937a6f4de9bd4, 0x3ff0000000000000, 0x3fe3f751cbaa9aef],
        kcenters: [0x3ff937a6f4de9bd4, 0x403666cf41f212d7, 0x3fe3f751cbaa9aef],
    },
    Pins {
        dataset: "SVHN",
        goal: [0x400268a0473c1ab7, 0x0000000000000000, 0x404622d3f2033f5c],
        nessa: [0x3fc5aaad1d041cc4, 0x3fbb763976b24400, 0x401a903188d0b26e],
        overlapped: [0x3fd17975ca37d495, 0x401a903188d0b26e, 0x3f6cb790fb65668c],
        craig: [0x400268a0473c1ab7, 0x40010d844d013a93, 0x401a903188d0b26e],
        kcenters: [0x400268a0473c1ab7, 0x406994467381d7dc, 0x401a903188d0b26e],
    },
    Pins {
        dataset: "CINIC-10",
        goal: [0x4006b21642c8590c, 0x0000000000000000, 0x404b4a800acf66a9],
        nessa: [0x3fcd17720c8cd63d, 0x3fb1149374b91042, 0x40305fe66ce2d732],
        overlapped: [0x3fd2976ec17de462, 0x40305fe66ce2d732, 0x3f6cb790fb65668c],
        craig: [0x4006b21642c8590c, 0x4009eb851eb851ec, 0x40305fe66ce2d732],
        kcenters: [0x4006b21642c8590c, 0x408370a3d70a3d71, 0x40305fe66ce2d732],
    },
    Pins {
        dataset: "CIFAR-100",
        goal: [0x3ff937a6f4de9bd4, 0x0000000000000000, 0x403e536c07987e3a],
        nessa: [0x3fc119157abb8801, 0x3fa562916f795b7c, 0x40270c3361eec655],
        overlapped: [0x3fc5fedb92ac4946, 0x40270c3361eec655, 0x3f6cb790fb65668c],
        craig: [0x3ff937a6f4de9bd4, 0x3feb333333333333, 0x40270c3361eec655],
        kcenters: [0x3ff937a6f4de9bd4, 0x406e666666666666, 0x40270c3361eec655],
    },
    Pins {
        dataset: "TinyImageNet",
        goal: [0x40146f4de9bd37a7, 0x0000000000000000, 0x406e53106f2f41be],
        nessa: [0x3fe74fffbce4217e, 0x3fbe6cc7f1b75488, 0x40549ee237202277],
        overlapped: [0x3feb00e12a1fa6a8, 0x40549ee237202277, 0x3f6cb790fb65668c],
        craig: [0x40146f4de9bd37a7, 0x400aeeeeeeeeeeef, 0x40549ee237202277],
        kcenters: [0x40146f4de9bd37a7, 0x408b333333333333, 0x40549ee237202277],
    },
    Pins {
        dataset: "ImageNet-100",
        goal: [0x4043fe9bd37a6f4e, 0x0000000000000000, 0x40811aef87fbecf1],
        nessa: [0x40214d74db2c9a4b, 0x3fcbcc8f4381aace, 0x406328686f5798bc],
        overlapped: [0x4021b88dcc3940a4, 0x406328686f5798bc, 0x3f80653005814941],
        craig: [0x4043fe9bd37a6f4e, 0x4016fbe76c8b4396, 0x406328686f5798bc],
        kcenters: [0x4043fe9bd37a6f4e, 0x40b2ed916872b021, 0x406328686f5798bc],
    },
];

const MEAN_MOVEMENT_REDUCTION: u64 = 0x400ac00ad4cdeaf1;

fn bits(t: PolicyTiming) -> Bits {
    [
        t.data_move_s.to_bits(),
        t.select_s.to_bits(),
        t.train_s.to_bits(),
    ]
}

/// The overlapped epoch's `(select side, train, hand-off)` bits.
fn overlapped_bits(o: &OverlapRecord) -> Bits {
    [
        o.select_side_secs.to_bits(),
        o.train_secs.to_bits(),
        o.handoff_secs.to_bits(),
    ]
}

#[test]
fn paper_scale_epochs_are_pinned_bit_for_bit() {
    let gpu = DeviceSpec::v100();
    let specs = DatasetSpec::table1();
    assert_eq!(specs.len(), PINS.len());
    for (spec, pins) in specs.iter().zip(&PINS) {
        assert_eq!(spec.name, pins.dataset);
        let fraction = spec.paper.expect("table 2 row").subset_pct as f64 / 100.0;
        let w = Workload::from_spec(spec);
        let name = spec.name;
        assert_eq!(bits(goal_epoch(&w, &gpu)), pins.goal, "{name} goal");
        assert_eq!(
            bits(nessa_epoch(&w, &gpu, fraction)),
            pins.nessa,
            "{name} nessa"
        );
        assert_eq!(
            overlapped_bits(&nessa_overlapped_epoch(&w, &gpu, fraction)),
            pins.overlapped,
            "{name} overlapped nessa"
        );
        assert_eq!(
            bits(craig_cpu_epoch(&w, &gpu, fraction)),
            pins.craig,
            "{name} craig"
        );
        assert_eq!(
            bits(kcenters_cpu_epoch(&w, &gpu, fraction)),
            pins.kcenters,
            "{name} k-centers"
        );
    }
}

#[test]
fn mean_data_movement_reduction_is_pinned() {
    assert_eq!(
        mean_data_movement_reduction(&DatasetSpec::table1()).to_bits(),
        MEAN_MOVEMENT_REDUCTION
    );
}
