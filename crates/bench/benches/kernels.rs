//! Criterion micro-benchmarks of the compute kernels behind the FDW's job
//! cost model, plus the ablations DESIGN.md calls out:
//!
//! * rupture generation — Cholesky vs truncated Karhunen–Loève sampling;
//! * waveform synthesis — Rayon-parallel vs sequential across stations;
//! * distance-matrix construction (the A-phase bootstrap);
//! * NPY/MSEED artifact serialisation.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use std::hint::black_box;

use fakequakes::distance::DistanceMatrices;
use fakequakes::geometry::FaultModel;
use fakequakes::greens::GfLibrary;
use fakequakes::noise::NoiseModel;
use fakequakes::rupture::{RuptureConfig, RuptureGenerator};
use fakequakes::stations::StationNetwork;
use fakequakes::stochastic::FieldMethod;
use fakequakes::waveform::{synthesize_all_stations, WaveformConfig};
use fakequakes::{artifacts, npy};

fn bench_rupture(c: &mut Criterion) {
    let fault = FaultModel::chilean_subduction(24, 10).unwrap();
    let net = StationNetwork::chilean(2, 1).unwrap();
    let d = DistanceMatrices::compute(&fault, &net);
    let mut group = c.benchmark_group("rupture_generation");
    for (label, method) in [
        ("cholesky", FieldMethod::Cholesky),
        ("kl_64modes", FieldMethod::KarhunenLoeve { modes: 64 }),
    ] {
        let generator = RuptureGenerator::new(
            &fault,
            &d.subfault_to_subfault,
            RuptureConfig {
                method,
                ..Default::default()
            },
        )
        .unwrap();
        group.bench_function(BenchmarkId::new("draw", label), |b| {
            let mut id = 0u64;
            b.iter(|| {
                id += 1;
                black_box(generator.generate(7, id))
            });
        });
    }
    group.finish();
}

fn bench_factorization(c: &mut Criterion) {
    let fault = FaultModel::chilean_subduction(24, 10).unwrap();
    let net = StationNetwork::chilean(2, 1).unwrap();
    let d = DistanceMatrices::compute(&fault, &net);
    let mut group = c.benchmark_group("covariance_factorization");
    group.sample_size(10);
    group.bench_function("cholesky_240", |b| {
        b.iter(|| {
            RuptureGenerator::new(
                &fault,
                &d.subfault_to_subfault,
                RuptureConfig {
                    method: FieldMethod::Cholesky,
                    ..Default::default()
                },
            )
            .unwrap()
        });
    });
    group.bench_function("kl_64modes_240", |b| {
        b.iter(|| {
            RuptureGenerator::new(
                &fault,
                &d.subfault_to_subfault,
                RuptureConfig {
                    method: FieldMethod::KarhunenLoeve { modes: 64 },
                    ..Default::default()
                },
            )
            .unwrap()
        });
    });
    group.finish();
}

fn bench_waveform(c: &mut Criterion) {
    let fault = FaultModel::chilean_subduction(16, 8).unwrap();
    let net = StationNetwork::chilean(24, 1).unwrap();
    let d = DistanceMatrices::compute(&fault, &net);
    let gfs = GfLibrary::compute(&fault, &net).unwrap();
    let generator =
        RuptureGenerator::new(&fault, &d.subfault_to_subfault, RuptureConfig::default()).unwrap();
    let scenario = generator.generate(1, 0);
    let cfg = WaveformConfig {
        noise: NoiseModel::none(),
        ..Default::default()
    };
    let mut group = c.benchmark_group("waveform_synthesis_24sta");
    group.bench_function("rayon", |b| {
        b.iter(|| {
            synthesize_all_stations(
                &fault,
                &gfs,
                &d.station_to_subfault,
                black_box(&scenario),
                &cfg,
                1,
            )
            .unwrap()
        });
    });
    group.finish();
}

fn bench_greens_methods(c: &mut Criterion) {
    use fakequakes::greens::GfMethod;
    let fault = FaultModel::chilean_subduction(16, 8).unwrap();
    let net = StationNetwork::chilean(12, 1).unwrap();
    let mut group = c.benchmark_group("gf_library_12sta_128sf");
    group.sample_size(20);
    group.bench_function("point_source", |b| {
        b.iter(|| {
            GfLibrary::compute_with_method(
                black_box(&fault),
                black_box(&net),
                GfMethod::PointSource,
            )
            .unwrap()
        });
    });
    group.bench_function("okada_rectangular", |b| {
        b.iter(|| {
            GfLibrary::compute_with_method(
                black_box(&fault),
                black_box(&net),
                GfMethod::OkadaRectangular,
            )
            .unwrap()
        });
    });
    group.finish();
}

fn bench_artifacts(c: &mut Criterion) {
    let fault = FaultModel::chilean_subduction(20, 10).unwrap();
    let net = StationNetwork::chilean(12, 1).unwrap();
    let d = DistanceMatrices::compute(&fault, &net);
    let gfs = GfLibrary::compute(&fault, &net).unwrap();
    let mut group = c.benchmark_group("artifact_io");
    group.bench_function("distance_matrix_compute", |b| {
        b.iter(|| DistanceMatrices::compute(black_box(&fault), black_box(&net)));
    });
    group.bench_function("npy_roundtrip", |b| {
        b.iter(|| {
            let bytes = npy::to_npy_bytes(&d.subfault_to_subfault);
            npy::from_npy_bytes(black_box(&bytes)).unwrap()
        });
    });
    group.bench_function("gf_mseed_roundtrip", |b| {
        b.iter(|| {
            let ms = artifacts::gf_library_to_mseed(&gfs);
            let bytes = ms.to_bytes().unwrap();
            fakequakes::mseed::MseedFile::from_bytes(black_box(&bytes)).unwrap()
        });
    });
    group.finish();
}

criterion_group!(
    kernels,
    bench_rupture,
    bench_factorization,
    bench_waveform,
    bench_greens_methods,
    bench_artifacts
);
criterion_main!(kernels);
