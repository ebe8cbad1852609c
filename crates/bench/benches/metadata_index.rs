//! Ablation: cost of maintaining and querying the GDPR metadata — the
//! metadata encoding and the subject/purpose inverted indexes
//! (DESIGN.md §5.4, paper §5.1 "efficient metadata indexing").

use std::time::Duration;

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use gdpr_core::index::MetadataIndex;
use gdpr_core::metadata::{PersonalMetadata, Region};

fn sample_metadata(i: usize) -> PersonalMetadata {
    PersonalMetadata::new(&format!("subject-{}", i % 1_000))
        .with_purpose("billing")
        .with_purpose("analytics")
        .with_recipient("processor-1")
        .with_location(Region::Eu)
        .with_expiry_at(2_000_000_000_000)
}

fn bench_metadata(c: &mut Criterion) {
    let mut group = c.benchmark_group("metadata_index");
    group
        .sample_size(20)
        .measurement_time(Duration::from_secs(2))
        .warm_up_time(Duration::from_millis(500));

    group.bench_function("metadata_encode", |b| {
        let meta = sample_metadata(1);
        b.iter(|| meta.encode());
    });
    group.bench_function("metadata_decode", |b| {
        let bytes = sample_metadata(1).encode();
        b.iter(|| PersonalMetadata::decode(&bytes).unwrap());
    });

    for &prepopulated in &[1_000usize, 100_000] {
        group.bench_with_input(
            BenchmarkId::new("index_insert", prepopulated),
            &prepopulated,
            |b, &n| {
                let mut index = MetadataIndex::new();
                for i in 0..n {
                    index.insert(
                        &format!("key{i}"),
                        &format!("subject-{}", i % 1_000),
                        ["billing".to_string()],
                    );
                }
                let mut i = n;
                b.iter(|| {
                    i += 1;
                    index.insert(
                        &format!("key{i}"),
                        &format!("subject-{}", i % 1_000),
                        ["billing".to_string()],
                    );
                });
            },
        );

        group.bench_with_input(
            BenchmarkId::new("index_subject_lookup", prepopulated),
            &prepopulated,
            |b, &n| {
                let mut index = MetadataIndex::new();
                for i in 0..n {
                    index.insert(
                        &format!("key{i}"),
                        &format!("subject-{}", i % 1_000),
                        ["billing".to_string()],
                    );
                }
                b.iter(|| index.keys_of_subject("subject-500"));
            },
        );
    }
    group.finish();
}

criterion_group!(benches, bench_metadata);
criterion_main!(benches);
