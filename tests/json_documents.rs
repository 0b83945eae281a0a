//! Every JSON document the workspace reads, through its typed reader:
//!
//! * a literal in the layout earlier releases wrote parses to the expected
//!   value, so files and scripts from before keep working;
//! * counters at `u64::MAX`, `f64` bit patterns and strings with quotes,
//!   control and non-BMP characters round-trip exactly;
//! * byte soup, every strict prefix of a document and structured junk are
//!   refused with an error, never a panic.
//!
//! The generated inputs come from an in-file generator with a fixed seed,
//! so the suite needs no dev-dependency and a failing case is reproducible.

use haralick4d::datacutter::{
    ConnectionReport, CopyReport, CopyRows, FilterShape, GraphSpec, IoReport, PhaseReport,
    RunReport, SchedulePolicy, StoreReport, StreamStats,
};
use haralick4d::haralick::Dims4;
use haralick4d::mri::store::{DatasetDescriptor, IndexEntry};
use haralick4d::mri::synth::Lesion;
use haralick4d::mri::{Study, Visit};
use haralick4d::pipeline::store::{Manifest, ManifestEntry, StoreStage};
use json::{FromJson, ToJson, Value};

/// The Numerical Recipes LCG; the high half of the state is the sample.
struct Lcg(u32);

impl Lcg {
    fn next(&mut self) -> u32 {
        self.0 = self.0.wrapping_mul(1664525).wrapping_add(1013904223);
        self.0 >> 16
    }

    fn below(&mut self, n: usize) -> usize {
        self.next() as usize % n
    }
}

/// Parses `text` as `T`, dropping the value: the reader under test.
fn read<T: FromJson>(text: &[u8]) -> Result<(), json::Error> {
    json::from_slice::<T>(text).map(drop)
}

/// A typed reader under test.
type Reader = fn(&[u8]) -> Result<(), json::Error>;

/// Every typed reader of a document the workspace reads.
const READERS: [(&str, Reader); 6] = [
    ("GraphSpec", read::<GraphSpec>),
    ("RunReport", read::<RunReport>),
    ("DatasetDescriptor", read::<DatasetDescriptor>),
    ("index", read::<Vec<IndexEntry>>),
    ("Study", read::<Study>),
    ("Manifest", read::<Manifest>),
];

fn graph() -> GraphSpec {
    GraphSpec::new()
        .filter_placed("RFR", vec![0, 1])
        .filter("HMP", 2)
        .filter("USO", 1)
        .stream("chunks", "RFR", "HMP", SchedulePolicy::DemandDriven)
        .stream_with_capacity("params", "HMP", "USO", SchedulePolicy::ByTagModulo, 8)
}

/// A report with every optional section, every counter at `u64::MAX` and
/// awkward `f64` bit patterns.
fn report() -> RunReport {
    let m = u64::MAX;
    RunReport {
        schema_version: 1,
        wall_s: 1e300,
        phases: PhaseReport {
            spinup_s: 0.1,
            steady_s: 5e-324,
            drain_s: -0.0,
        },
        filters: vec![FilterShape {
            name: "q\"uote\\ \u{1}\t😀".into(),
            copies: usize::MAX,
        }],
        streams: vec![StreamStats {
            name: "s".into(),
            from: "a".into(),
            to: "b".into(),
            policy: SchedulePolicy::RoundRobin,
            capacity: 4,
            queues: 1,
            buffers: m,
            bytes: m,
            depth_high_water: 3,
        }],
        per_copy: CopyRows(vec![CopyReport {
            filter: "a".into(),
            copy: 0,
            buffers_in: m,
            buffers_out: m,
            bytes_in: m,
            bytes_out: m,
            busy_s: f64::MAX,
            blocked_send_s: f64::MIN_POSITIVE,
            blocked_recv_s: 1.0 / 3.0,
            wall_s: 2.5e-8,
        }]),
        io: Some(IoReport {
            disk_reads: m,
            bytes_read: m,
            cache_hits: m,
            cache_misses: m,
            budget_rejects: m,
            retained_high_water: m,
        }),
        transport: Some(vec![ConnectionReport {
            peer: 1,
            checksum: true,
            frames_sent: m,
            bytes_sent: m,
            frames_recv: m,
            bytes_recv: m,
            credits_sent: m,
            credit_stalls: m,
        }]),
        store: Some(StoreReport {
            hits: m,
            misses: m,
            published: m,
            bytes_served: m,
            bytes_published: m,
            corrupt_rejected: m,
        }),
    }
}

fn lesion() -> Lesion {
    Lesion {
        center: [0.1, -0.0, 1e300],
        radii: [5e-324, f64::MAX, 2.0],
        k_in: 1.0 / 3.0,
        k_out: f64::MIN_POSITIVE,
        onset: 0.25,
    }
}

fn study() -> Study {
    Study {
        patient: "\"phantom\"\n\u{0}\u{1f}😀é".into(),
        visits: vec![Visit {
            label: "baseline".into(),
            date: "2004-01-15".into(),
            dataset_dir: "visits/baseline".into(),
            lesions: vec![lesion()],
        }],
    }
}

fn descriptor() -> DatasetDescriptor {
    DatasetDescriptor {
        name: "phantom (DICOM)".into(),
        dims: Dims4::new(256, 256, 32, 32),
        pixel_bytes: 2,
        num_nodes: 4,
    }
}

fn index() -> Vec<IndexEntry> {
    vec![
        IndexEntry {
            file: "slice_t0000_z0000.raw".into(),
            t: 0,
            z: 0,
        },
        IndexEntry {
            file: "slice_t0001_z0003.dcm".into(),
            t: 1,
            z: 3,
        },
    ]
}

fn manifest() -> Manifest {
    Manifest {
        schema_version: 2,
        config: "00ff00ff00ff00ff".into(),
        chunks: vec![
            ManifestEntry {
                chunk: 0,
                index: 0,
                stage: StoreStage::Params,
                digest: "0123456789abcdef".into(),
            },
            ManifestEntry {
                chunk: 0,
                index: 3,
                stage: StoreStage::Matrices,
                digest: "fedcba9876543210".into(),
            },
        ],
        complete: true,
    }
}

/// One written sample of each read document.
fn documents() -> Vec<(&'static str, String)> {
    vec![
        ("GraphSpec", json::to_string(&graph())),
        ("RunReport", json::to_string(&report())),
        ("DatasetDescriptor", json::to_string(&descriptor())),
        ("index", json::to_string(&index())),
        ("Study", json::to_string(&study())),
        ("Manifest", json::to_string(&manifest())),
    ]
}

fn f64_bits(xs: &[f64]) -> Vec<u64> {
    xs.iter().map(|x| x.to_bits()).collect()
}

fn report_f64s(r: &RunReport) -> Vec<u64> {
    let c = &r.per_copy[0];
    let p = &r.phases;
    f64_bits(&[
        r.wall_s,
        p.spinup_s,
        p.steady_s,
        p.drain_s,
        c.busy_s,
        c.blocked_send_s,
        c.blocked_recv_s,
        c.wall_s,
    ])
}

fn lesion_f64s(l: &Lesion) -> Vec<u64> {
    let mut xs = l.center.to_vec();
    xs.extend(l.radii);
    xs.extend([l.k_in, l.k_out, l.onset]);
    f64_bits(&xs)
}

#[test]
fn documents_round_trip_exactly() {
    let r = report();
    let back: RunReport = json::from_str(&json::to_string(&r)).unwrap();
    assert_eq!(back, r);
    assert_eq!(report_f64s(&back), report_f64s(&r), "f64 bits moved");

    let s = study();
    let back: Study = json::from_str(&json::to_string(&s)).unwrap();
    assert_eq!(back, s);
    assert_eq!(
        lesion_f64s(&back.visits[0].lesions[0]),
        lesion_f64s(&lesion())
    );

    assert_eq!(
        json::from_str::<GraphSpec>(&json::to_string(&graph())),
        Ok(graph())
    );
    let d: DatasetDescriptor = json::from_str(&json::to_string(&descriptor())).unwrap();
    assert_eq!(d, descriptor());
    let i: Vec<IndexEntry> = json::from_str(&json::to_string(&index())).unwrap();
    assert_eq!(i, index());
    assert_eq!(
        json::from_str::<Manifest>(&json::to_string(&manifest())),
        Ok(manifest())
    );
}

#[test]
fn non_finite_seconds_are_written_as_null_and_refused() {
    let mut r = report();
    r.wall_s = f64::INFINITY;
    let text = json::to_string(&r);
    assert!(text.contains("\"wall_s\": null"), "{text}");
    let e = json::from_str::<RunReport>(&text).unwrap_err();
    assert!(e.to_string().contains("wall_s"), "{e}");
}

#[test]
fn graph_literal_parses() {
    let text = r#"{
  "filters": [
    {
      "name": "RFR",
      "copies": 2,
      "placement": [
        0,
        1
      ]
    },
    {
      "name": "HMP",
      "copies": 2,
      "placement": []
    },
    {
      "name": "USO",
      "copies": 1,
      "placement": []
    }
  ],
  "streams": [
    {
      "name": "chunks",
      "from": "RFR",
      "to": "HMP",
      "policy": "DemandDriven",
      "capacity": 4
    },
    {
      "name": "params",
      "from": "HMP",
      "to": "USO",
      "policy": "ByTagModulo",
      "capacity": 8
    }
  ]
}"#;
    assert_eq!(json::from_str::<GraphSpec>(text), Ok(graph()));
    // The written form is the same text.
    assert_eq!(json::to_string(&graph()), text);
}

#[test]
fn run_report_literal_parses_with_sections_missing() {
    // A report from a run with no I/O plane, transport or store: the three
    // optional sections are absent, and an unknown key is ignored.
    let text = r#"{
  "schema_version": 1,
  "wall_s": 1.5,
  "phases": {
    "spinup_s": 0.1,
    "steady_s": 1.0,
    "drain_s": 0.25
  },
  "filters": [
    {
      "name": "a",
      "copies": 1
    }
  ],
  "streams": [
    {
      "name": "s",
      "from": "a",
      "to": "b",
      "policy": "RoundRobin",
      "capacity": 4,
      "queues": 1,
      "buffers": 18446744073709551615,
      "bytes": 70,
      "depth_high_water": 3
    }
  ],
  "per_copy": [
    {
      "filter": "a",
      "copy": 0,
      "buffers_in": 0,
      "buffers_out": 7,
      "bytes_in": 0,
      "bytes_out": 70,
      "busy_s": 0.4,
      "blocked_send_s": 1e-7,
      "blocked_recv_s": 0.0,
      "wall_s": 0.9
    }
  ],
  "host": "ignored"
}"#;
    let r: RunReport = json::from_str(text).unwrap();
    assert!(r.io.is_none() && r.transport.is_none() && r.store.is_none());
    assert_eq!(r.streams[0].buffers, u64::MAX);
    assert_eq!(r.per_copy[0].blocked_send_s, 1e-7);
    assert_eq!(r.phases.drain_s, 0.25);
    assert_eq!(r.check(), Ok(()));
    // Written back, the absent sections stay absent.
    let again = json::to_string(&r);
    for key in ["\"io\"", "\"transport\"", "\"store\"", "host"] {
        assert!(!again.contains(key), "{key} in {again}");
    }
}

#[test]
fn dataset_and_index_literals_parse() {
    let desc = r#"{
  "name": "phantom (DICOM)",
  "dims": {
    "x": 256,
    "y": 256,
    "z": 32,
    "t": 32
  },
  "pixel_bytes": 2,
  "num_nodes": 4
}"#;
    assert_eq!(json::from_str::<DatasetDescriptor>(desc), Ok(descriptor()));
    let idx = r#"[
  {
    "file": "slice_t0000_z0000.raw",
    "t": 0,
    "z": 0
  },
  {
    "file": "slice_t0001_z0003.dcm",
    "t": 1,
    "z": 3
  }
]"#;
    assert_eq!(json::from_str::<Vec<IndexEntry>>(idx), Ok(index()));
}

#[test]
fn study_literal_parses_with_lesions_missing() {
    let text = r#"{
  "patient": "phantom-01",
  "visits": [
    {
      "label": "baseline",
      "date": "2004-01-15",
      "dataset_dir": "baseline",
      "lesions": [
        {
          "center": [
            12.5,
            20.0,
            1.0
          ],
          "radii": [
            3.0,
            4.0,
            1.5
          ],
          "k_in": 6.0,
          "k_out": 0.8,
          "onset": 0.1
        }
      ]
    },
    {
      "label": "week-6",
      "date": "2004-02-26",
      "dataset_dir": "week-6"
    }
  ]
}"#;
    let s: Study = json::from_str(text).unwrap();
    assert_eq!(s.patient, "phantom-01");
    assert_eq!(s.visits[0].lesions[0].center, [12.5, 20.0, 1.0]);
    assert_eq!(s.visits[0].lesions[0].onset, 0.1);
    assert!(s.visits[1].lesions.is_empty());
    assert_eq!(s.visits[1].dataset_dir, "week-6");
}

#[test]
fn manifest_literal_parses_and_complete_defaults_to_false() {
    let text = r#"{
  "schema_version": 2,
  "config": "00ff00ff00ff00ff",
  "chunks": [
    {
      "chunk": 0,
      "index": 0,
      "stage": "params",
      "digest": "0123456789abcdef"
    },
    {
      "chunk": 0,
      "index": 3,
      "stage": "matrices",
      "digest": "fedcba9876543210"
    }
  ],
  "complete": true
}"#;
    assert_eq!(json::from_str::<Manifest>(text), Ok(manifest()));
    let torn = text.replace(",\n  \"complete\": true", "");
    let m: Manifest = json::from_str(&torn).unwrap();
    assert!(!m.complete);
    let e = json::from_str::<Manifest>(&text.replace("\"params\"", "\"Params\"")).unwrap_err();
    assert!(e.to_string().contains("unknown variant `Params`"), "{e}");
}

#[test]
fn every_strict_prefix_of_each_document_is_refused() {
    for ((name, reader), (doc, text)) in READERS.iter().zip(documents()) {
        assert_eq!(*name, doc);
        assert_eq!(reader(text.as_bytes()), Ok(()), "{name}");
        for n in 0..text.len() {
            assert!(
                reader(&text.as_bytes()[..n]).is_err(),
                "{name}: prefix {n} read"
            );
        }
    }
}

#[test]
fn byte_soup_is_refused_by_every_reader() {
    let mut rng = Lcg(0x534f_5550);
    let docs = documents();
    for _ in 0..2_000 {
        // Half pure soup, half a document with a burst of soup spliced in.
        let mut bytes = docs[rng.below(docs.len())].1.clone().into_bytes();
        let at = rng.below(bytes.len());
        let soup: Vec<u8> = (0..1 + rng.below(16)).map(|_| rng.next() as u8).collect();
        if rng.next().is_multiple_of(2) {
            bytes = soup;
        } else {
            bytes.splice(at..at, soup.iter().copied());
        }
        // A splice may leave valid JSON (a space between two tokens); every
        // other input is refused by every reader.
        let malformed = json::parse(&bytes).is_err();
        for (name, reader) in READERS {
            let got = reader(&bytes);
            assert!(!malformed || got.is_err(), "{name} read {bytes:?}");
        }
    }
}

/// Field names of every document, so junk objects reach the field readers.
const KEYS: &[&str] = &[
    "filters",
    "streams",
    "name",
    "copies",
    "placement",
    "from",
    "to",
    "policy",
    "capacity",
    "schema_version",
    "wall_s",
    "phases",
    "per_copy",
    "io",
    "transport",
    "store",
    "dims",
    "x",
    "y",
    "z",
    "t",
    "pixel_bytes",
    "num_nodes",
    "file",
    "patient",
    "visits",
    "dataset_dir",
    "lesions",
    "center",
    "config",
    "chunks",
    "stage",
    "digest",
    "complete",
];

fn junk(rng: &mut Lcg, depth: usize) -> Value {
    let leaf = depth == 0;
    match rng.below(if leaf { 6 } else { 8 }) {
        0 => Value::Null,
        1 => rng.next().is_multiple_of(2).to_json(),
        2 => (rng.next() as u64).to_json(),
        3 => (f64::from(rng.next()) * -1e-3).to_json(),
        4 => ["RoundRobin", "params", "../x", "", "😀"][rng.below(5)].to_json(),
        5 => u64::MAX.to_json(),
        6 => Value::Array((0..rng.below(4)).map(|_| junk(rng, depth - 1)).collect()),
        _ => {
            // Distinct keys: a repeated one would stop the parser before
            // any field reader sees the object.
            let mut fields: Vec<(&str, Value)> = Vec::new();
            for _ in 0..rng.below(6) {
                let key = KEYS[rng.below(KEYS.len())];
                if fields.iter().all(|(k, _)| *k != key) {
                    fields.push((key, junk(rng, depth - 1)));
                }
            }
            Value::object(fields)
        }
    }
}

#[test]
fn structured_junk_never_panics_a_reader() {
    let mut rng = Lcg(0x4a55_4e4b);
    for _ in 0..5_000 {
        let text = json::to_string(&junk(&mut rng, 5));
        for (_, reader) in READERS {
            let _ = reader(text.as_bytes());
        }
    }
}
