//! Machine-learning benchmarks: Kmeans, Nearn, Backprop, Streamcluster.
//!
//! Backprop is the paper's §III-B case study: [`BACKPROP_ORIGINAL`]
//! reproduces the Listing 1 structure (redundant loads), [`BACKPROP_O1`]
//! applies the manual variable-reuse rewrite of Listing 2, and
//! [`BACKPROP_O2`] adds the `__pipelined_load` directives of Listing 3.
//! All three compute identical results; only the HLS resource profile
//! changes — that is Table II.

use crate::runner::{expect_close, expect_eq_i32};
use crate::spec::{Benchmark, HostData, LArg, Launch, Prng, Scale, Workload};
use ocl_ir::interp::NdRange;

/// Kmeans (Rodinia): nearest-centroid assignment step.
pub fn kmeans() -> Benchmark {
    Benchmark {
        name: "Kmeans",
        origin: "Rodinia",
        source: r#"
            __kernel void kmeans_assign(__global const float* features,
                                        __global const float* centroids,
                                        __global int* membership,
                                        int n, int k, int dims) {
                int i = get_global_id(0);
                if (i < n) {
                    int best = 0;
                    float best_d = 1e30f;
                    for (int c = 0; c < k; c++) {
                        float d = 0.0f;
                        for (int f = 0; f < dims; f++) {
                            float diff = features[i * dims + f] - centroids[c * dims + f];
                            d += diff * diff;
                        }
                        if (d < best_d) {
                            best_d = d;
                            best = c;
                        }
                    }
                    membership[i] = best;
                }
            }
        "#,
        workload: |scale| {
            let n = scale.pick(128, 2048) as usize;
            let k = 5usize;
            let dims = 4usize;
            let mut rng = Prng::new(51);
            let features: Vec<f32> = (0..n * dims).map(|_| rng.next_f32() * 10.0).collect();
            let centroids: Vec<f32> = (0..k * dims).map(|_| rng.next_f32() * 10.0).collect();
            let want: Vec<i32> = (0..n)
                .map(|i| {
                    let mut best = 0;
                    let mut best_d = 1e30f32;
                    for c in 0..k {
                        let mut d = 0.0f32;
                        for f in 0..dims {
                            let diff = features[i * dims + f] - centroids[c * dims + f];
                            d += diff * diff;
                        }
                        if d < best_d {
                            best_d = d;
                            best = c as i32;
                        }
                    }
                    best
                })
                .collect();
            let g = (n as u32).next_multiple_of(16);
            Workload {
                buffers: vec![
                    HostData::F32(features),
                    HostData::F32(centroids),
                    HostData::I32(vec![0; n]),
                ],
                launches: vec![Launch {
                    kernel: "kmeans_assign",
                    nd: NdRange::d1(g, 16),
                    args: vec![
                        LArg::Buf(0),
                        LArg::Buf(1),
                        LArg::Buf(2),
                        LArg::I32(n as i32),
                        LArg::I32(k as i32),
                        LArg::I32(dims as i32),
                    ],
                }],
                check: Box::new(move |bufs| {
                    expect_eq_i32(bufs[2].as_i32(), &want, "kmeans membership")
                }),
            }
        },
    }
}

/// Nearn (Rodinia nearest neighbor): Euclidean distances to a target.
pub fn nearn() -> Benchmark {
    Benchmark {
        name: "Nearn",
        origin: "Rodinia",
        source: r#"
            __kernel void nearn(__global const float* lat, __global const float* lng,
                                __global float* dist, float tlat, float tlng) {
                int i = get_global_id(0);
                float dx = lat[i] - tlat;
                float dy = lng[i] - tlng;
                dist[i] = sqrt(dx * dx + dy * dy);
            }
        "#,
        workload: |scale| {
            let n = scale.pick(256, 8192) as usize;
            let (tlat, tlng) = (30.0f32, -90.0f32);
            let mut rng = Prng::new(52);
            let lat: Vec<f32> = (0..n).map(|_| rng.next_f32() * 60.0).collect();
            let lng: Vec<f32> = (0..n).map(|_| -rng.next_f32() * 120.0).collect();
            let want: Vec<f32> = (0..n)
                .map(|i| {
                    let dx = lat[i] - tlat;
                    let dy = lng[i] - tlng;
                    (dx * dx + dy * dy).sqrt()
                })
                .collect();
            Workload {
                buffers: vec![
                    HostData::F32(lat),
                    HostData::F32(lng),
                    HostData::F32(vec![0.0; n]),
                ],
                launches: vec![Launch {
                    kernel: "nearn",
                    nd: NdRange::d1(n as u32, 16),
                    args: vec![
                        LArg::Buf(0),
                        LArg::Buf(1),
                        LArg::Buf(2),
                        LArg::F32(tlat),
                        LArg::F32(tlng),
                    ],
                }],
                check: Box::new(move |bufs| {
                    expect_close(bufs[2].as_f32(), &want, 1e-4, "nearn dist")
                }),
            }
        },
    }
}

/// Streamcluster (Rodinia): cost of assigning points to the current centers.
pub fn streamcluster() -> Benchmark {
    Benchmark {
        name: "Streamcluster",
        origin: "Rodinia",
        source: r#"
            __kernel void sc_cost(__global const float* points, __global const float* centers,
                                  __global const float* weights, __global float* cost,
                                  int n, int k, int dims) {
                int i = get_global_id(0);
                if (i < n) {
                    float best = 1e30f;
                    for (int c = 0; c < k; c++) {
                        float d = 0.0f;
                        for (int f = 0; f < dims; f++) {
                            float diff = points[i * dims + f] - centers[c * dims + f];
                            d += diff * diff;
                        }
                        if (d < best) best = d;
                    }
                    cost[i] = best * weights[i];
                }
            }
        "#,
        workload: |scale| {
            let n = scale.pick(128, 2048) as usize;
            let k = 4usize;
            let dims = 3usize;
            let mut rng = Prng::new(53);
            let points: Vec<f32> = (0..n * dims).map(|_| rng.next_f32() * 5.0).collect();
            let centers: Vec<f32> = (0..k * dims).map(|_| rng.next_f32() * 5.0).collect();
            let weights: Vec<f32> = (0..n).map(|_| 0.5 + rng.next_f32()).collect();
            let want: Vec<f32> = (0..n)
                .map(|i| {
                    let mut best = 1e30f32;
                    for c in 0..k {
                        let mut d = 0.0f32;
                        for f in 0..dims {
                            let diff = points[i * dims + f] - centers[c * dims + f];
                            d += diff * diff;
                        }
                        best = best.min(d);
                    }
                    best * weights[i]
                })
                .collect();
            let g = (n as u32).next_multiple_of(16);
            Workload {
                buffers: vec![
                    HostData::F32(points),
                    HostData::F32(centers),
                    HostData::F32(weights),
                    HostData::F32(vec![0.0; n]),
                ],
                launches: vec![Launch {
                    kernel: "sc_cost",
                    nd: NdRange::d1(g, 16),
                    args: vec![
                        LArg::Buf(0),
                        LArg::Buf(1),
                        LArg::Buf(2),
                        LArg::Buf(3),
                        LArg::I32(n as i32),
                        LArg::I32(k as i32),
                        LArg::I32(dims as i32),
                    ],
                }],
                check: Box::new(move |bufs| expect_close(bufs[3].as_f32(), &want, 1e-4, "sc cost")),
            }
        },
    }
}

// ---------------------------------------------------------------------------
// Backprop — the three Table II variants (Figure 6).
// ---------------------------------------------------------------------------

/// Shared layerforward kernel (local-memory tile + barrier), plus the
/// adjust-weights kernel of Listing 1 with its redundant loads spelled out.
pub const BACKPROP_ORIGINAL: &str = r#"
    #define ETA 0.3f
    #define MOMENTUM 0.3f
    #define HEIGHT 8

    __kernel void layerforward(__global const float* input, __global const float* weights,
                               __global float* partial, __global const float* bias, int hid) {
        __local float node[8];
        __local float wmat[8][8];
        int by = get_group_id(1);
        int tx = get_local_id(0);
        int ty = get_local_id(1);
        int index = (hid + 1) * HEIGHT * by + (hid + 1) * ty + tx + 1 + (hid + 1);
        int index_in = HEIGHT * by + ty + 1;
        if (tx == 0) node[ty] = input[index_in];
        barrier(CLK_LOCAL_MEM_FENCE);
        wmat[ty][tx] = weights[index] + bias[index];
        barrier(CLK_LOCAL_MEM_FENCE);
        wmat[ty][tx] = wmat[ty][tx] * node[ty];
        barrier(CLK_LOCAL_MEM_FENCE);
        partial[by * HEIGHT * HEIGHT + ty * HEIGHT + tx] = wmat[ty][tx];
    }

    __kernel void bpnn_adjust_weights(__global const float* delta, __global const float* ly,
                                      __global float* w, __global float* oldw, int hid) {
        int by = get_group_id(1);
        int tx = get_local_id(0);
        int ty = get_local_id(1);
        int index = (hid + 1) * HEIGHT * by + (hid + 1) * ty + tx + 1 + (hid + 1);
        int index_y = HEIGHT * by + ty + 1;
        int index_x = tx + 1;
        w[index] += ((ETA * delta[index_x] * ly[index_y]) + (MOMENTUM * oldw[index]));
        oldw[index] = ((ETA * delta[index_x] * ly[index_y]) + (MOMENTUM * oldw[index]));
    }
"#;

/// Listing 2: values loaded once into local variables and reused.
pub const BACKPROP_O1: &str = r#"
    #define ETA 0.3f
    #define MOMENTUM 0.3f
    #define HEIGHT 8

    __kernel void layerforward(__global const float* input, __global const float* weights,
                               __global float* partial, __global const float* bias, int hid) {
        __local float node[8];
        __local float wmat[8][8];
        int by = get_group_id(1);
        int tx = get_local_id(0);
        int ty = get_local_id(1);
        int index = (hid + 1) * HEIGHT * by + (hid + 1) * ty + tx + 1 + (hid + 1);
        int index_in = HEIGHT * by + ty + 1;
        if (tx == 0) node[ty] = input[index_in];
        barrier(CLK_LOCAL_MEM_FENCE);
        wmat[ty][tx] = weights[index] + bias[index];
        barrier(CLK_LOCAL_MEM_FENCE);
        wmat[ty][tx] = wmat[ty][tx] * node[ty];
        barrier(CLK_LOCAL_MEM_FENCE);
        partial[by * HEIGHT * HEIGHT + ty * HEIGHT + tx] = wmat[ty][tx];
    }

    __kernel void bpnn_adjust_weights(__global const float* delta, __global const float* ly,
                                      __global float* w, __global float* oldw, int hid) {
        int by = get_group_id(1);
        int tx = get_local_id(0);
        int ty = get_local_id(1);
        int index = (hid + 1) * HEIGHT * by + (hid + 1) * ty + tx + 1 + (hid + 1);
        int index_y = HEIGHT * by + ty + 1;
        int index_x = tx + 1;
        float delta_value = delta[index_x] * ETA;
        float ly_value = ly[index_y];
        float oldw_value = oldw[index] * MOMENTUM;
        float delta_by_ly = delta_value * ly_value + oldw_value;
        w[index] += delta_by_ly;
        oldw[index] = delta_by_ly;
    }
"#;

/// Listing 3: the remaining loads converted to `__pipelined_load`.
pub const BACKPROP_O2: &str = r#"
    #define ETA 0.3f
    #define MOMENTUM 0.3f
    #define HEIGHT 8

    __kernel void layerforward(__global const float* input, __global const float* weights,
                               __global float* partial, __global const float* bias, int hid) {
        __local float node[8];
        __local float wmat[8][8];
        int by = get_group_id(1);
        int tx = get_local_id(0);
        int ty = get_local_id(1);
        int index = (hid + 1) * HEIGHT * by + (hid + 1) * ty + tx + 1 + (hid + 1);
        int index_in = HEIGHT * by + ty + 1;
        if (tx == 0) node[ty] = input[index_in];
        barrier(CLK_LOCAL_MEM_FENCE);
        wmat[ty][tx] = weights[index] + bias[index];
        barrier(CLK_LOCAL_MEM_FENCE);
        wmat[ty][tx] = wmat[ty][tx] * node[ty];
        barrier(CLK_LOCAL_MEM_FENCE);
        partial[by * HEIGHT * HEIGHT + ty * HEIGHT + tx] = wmat[ty][tx];
    }

    __kernel void bpnn_adjust_weights(__global const float* delta, __global const float* ly,
                                      __global float* w, __global float* oldw, int hid) {
        int by = get_group_id(1);
        int tx = get_local_id(0);
        int ty = get_local_id(1);
        int index = (hid + 1) * HEIGHT * by + (hid + 1) * ty + tx + 1 + (hid + 1);
        int index_y = HEIGHT * by + ty + 1;
        int index_x = tx + 1;
        float delta_value = __pipelined_load(delta + index_x) * ETA;
        float ly_value = __pipelined_load(ly + index_y);
        float oldw_value = __pipelined_load(oldw + index) * MOMENTUM;
        float delta_by_ly = delta_value * ly_value + oldw_value;
        w[index] = __pipelined_load(w + index) + delta_by_ly;
        oldw[index] = delta_by_ly;
    }
"#;

fn backprop_workload(scale: Scale) -> Workload {
    let height = 8usize;
    let hid = 7usize; // hid + 1 == 8 columns
    let groups_y = scale.pick(2, 16) as usize;
    let rows = height * groups_y;
    let wsize = (hid + 1) * rows + (hid + 1) * height + height + 2; // generous
    let mut rng = Prng::new(54);
    let input: Vec<f32> = (0..rows + 2).map(|_| rng.next_f32()).collect();
    let weights: Vec<f32> = (0..wsize).map(|_| rng.next_f32()).collect();
    let bias: Vec<f32> = (0..wsize).map(|_| rng.next_f32() * 0.1).collect();
    let delta: Vec<f32> = (0..height + 1).map(|_| rng.next_f32()).collect();
    let ly: Vec<f32> = (0..rows + 2).map(|_| rng.next_f32()).collect();
    let w0: Vec<f32> = (0..wsize).map(|_| rng.next_f32()).collect();
    let oldw0: Vec<f32> = (0..wsize).map(|_| rng.next_f32()).collect();
    let partial = vec![0.0f32; groups_y * height * height];

    // Reference layerforward.
    let mut want_partial = partial.clone();
    for by in 0..groups_y {
        for ty in 0..height {
            for tx in 0..height {
                let index = (hid + 1) * height * by + (hid + 1) * ty + tx + 1 + (hid + 1);
                let index_in = height * by + ty + 1;
                let v = (weights[index] + bias[index]) * input[index_in];
                want_partial[by * height * height + ty * height + tx] = v;
            }
        }
    }
    // Reference adjust_weights (same formula for all three variants).
    let mut want_w = w0.clone();
    let mut want_oldw = oldw0.clone();
    for by in 0..groups_y {
        for ty in 0..height {
            for tx in 0..height {
                let index = (hid + 1) * height * by + (hid + 1) * ty + tx + 1 + (hid + 1);
                let index_y = height * by + ty + 1;
                let index_x = tx + 1;
                let dly = 0.3 * delta[index_x] * ly[index_y] + 0.3 * want_oldw[index];
                want_w[index] += dly;
                want_oldw[index] = dly;
            }
        }
    }
    let gx = height as u32;
    let gy = rows as u32;
    Workload {
        buffers: vec![
            HostData::F32(input),
            HostData::F32(weights),
            HostData::F32(partial),
            HostData::F32(bias),
            HostData::F32(delta),
            HostData::F32(ly),
            HostData::F32(w0),
            HostData::F32(oldw0),
        ],
        launches: vec![
            Launch {
                kernel: "layerforward",
                nd: NdRange::d2(gx, gy, 8, 8),
                args: vec![
                    LArg::Buf(0),
                    LArg::Buf(1),
                    LArg::Buf(2),
                    LArg::Buf(3),
                    LArg::I32(hid as i32),
                ],
            },
            Launch {
                kernel: "bpnn_adjust_weights",
                nd: NdRange::d2(gx, gy, 8, 8),
                args: vec![
                    LArg::Buf(4),
                    LArg::Buf(5),
                    LArg::Buf(6),
                    LArg::Buf(7),
                    LArg::I32(hid as i32),
                ],
            },
        ],
        check: Box::new(move |bufs| {
            expect_close(bufs[2].as_f32(), &want_partial, 1e-4, "bp partial")?;
            expect_close(bufs[6].as_f32(), &want_w, 1e-4, "bp w")?;
            expect_close(bufs[7].as_f32(), &want_oldw, 1e-4, "bp oldw")
        }),
    }
}

/// Backprop with the original (Listing 1) kernels — the Table I entry.
pub fn backprop() -> Benchmark {
    Benchmark {
        name: "Backprop",
        origin: "Rodinia",
        source: BACKPROP_ORIGINAL,
        workload: backprop_workload,
    }
}
